"""The energies' Gauss-Laguerre tail rules, rebuilt and measured in mpmath.

    PYTHONPATH=src python tools/tail_rule_error.py tables
    PYTHONPATH=src python tools/tail_rule_error.py measure [N] [SEED]

tables prints each rule's (node t, weight w times e^t) pairs, the zeros t of
the Laguerre polynomial L_n and w = t/((n + 1)^2 L_{n+1}(t)^2) (Abramowitz &
Stegun 25.4.45), in 60-digit mpmath, rounded once.

measure takes N seeded combs and N seeded plates (default 1000 each, seed
2026) and compares each tail, as comb_energy and plate_energy take it (see
tail_of), with the 25-digit Gauss-Legendre mpmath integral of the same
integrand over [X, oo) (see exact_tail).  It prints the worst error as a
share of the rule's sum |w e^t f|, the figure each allowance fraction in
energy.py must stay at least twice above.  The points cover g = gamma a =
0, subnormal, 10^U(-300, 150) and 1e150; Omega at -1, at 1 - 2^-53, within
1e-14 of -1 and 1, at 0 and uniform; theta at 0, pi, 2.23, pi/2 (Omega cos
theta = 0) and uniform; spacings a from 1e-3 to 1e3; and points where the
leading term changes sign just past X (the comb's f, or a plate's 4x^2 -
g^2 - 2g at Omega cos theta = 0), the hardest case for the rule, where that
term is small against its parts.

tests/test_energy.py loads this file and holds the tables, and a seeded
subset of such points, to the same functions.
"""

from __future__ import annotations

import math
import random
import sys

import mpmath

from deltacomb import CombCouplings, spectral_integrand
from deltacomb import energy


def laguerre_rule(n: int, dps: int = 60) -> list[tuple[float, float]]:
    """The n-point rule's (t, w e^t) pairs, each its dps-digit value rounded once."""
    with mpmath.workdps(dps + 20):
        pairs = []
        for guess in mpmath.mp.gauss_quadrature(n, "laguerre")[0]:
            t = mpmath.findroot(lambda y: mpmath.laguerre(n, 0, y), guess)
            w = t / ((n + 1) ** 2 * mpmath.laguerre(n + 1, 0, t) ** 2)
            pairs.append((float(t), float(w * mpmath.exp(t))))
        return sorted(pairs)


def comb_f(g, omega):
    """The comb's f(x) in mpmath by the rearranged form (energy's module
    docstring)."""
    delta = (1 - omega) * (1 + omega)

    def f(x):
        eps, R, S = mpmath.exp(-2 * x), 2 * x + g, 2 * x - g
        V = mpmath.sqrt((R + S * eps) ** 2 - 16 * x * x * omega * omega * eps)
        D = eps * (16 * x * x * delta - 4 * g * g) / (R - S * eps + V)
        return ((x * R - g) * D - 2 * g * g * eps) / (R * V) / (2 * mpmath.pi)

    return f


def plate_f(g, c):
    """F(x)/2pi at Omega cos theta = c in mpmath by the rearranged form."""
    def f(x):
        y, R = mpmath.exp(-x), 2 * x + g
        num = 2 * x * (4 * x * x - g * g - 2 * g) * y * y - (g - x * R) * 4 * x * y * c
        return num / (R * (R + (2 * x - g) * y * y + 4 * x * y * c)) / (2 * mpmath.pi)

    return f


def exact_tail(f, j, norm):
    """int_X^oo f dx in 25-digit mpmath (Gauss-Legendre on pieces j (x - X)
    = 0, 2, 6, 15, 35, 80, oo), with f divided by norm so that quad's error
    test sees O(1) values."""
    X = energy._TAIL_FROM
    with mpmath.workdps(25):
        cuts = [X + d / j for d in (0, 2, 6, 15, 35, 80)] + [mpmath.inf]
        return float(norm * mpmath.quad(lambda x: f(x) / norm, cuts, method="gauss-legendre"))


def tail_of(c: CombCouplings, theta: float | None = None) -> tuple[float, float]:
    """(value, allowance) in x units of the tail past X that comb_energy(c),
    or with theta plate_energy(c, theta), takes: _tail_integral on the
    integrand and rule it hands to _energy_integral."""
    seen = []
    run = energy._energy_integral
    energy._energy_integral = lambda f, c, tol, rtol, tail, *_: seen.append((f, c, tail))
    try:
        energy.comb_energy(c) if theta is None else energy.plate_energy(c, theta)
    finally:
        energy._energy_integral = run
    return energy._tail_integral(*seen[0])


def vanishing_g(x: float, omega: float) -> float:
    """The g at which the comb's f changes sign at x, by bisection: f > 0
    for g below about 2 x sqrt(1 - Omega^2), and < 0 above."""
    lo, hi = 0.0, 4.0 * x + 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if spectral_integrand(CombCouplings.from_reduced(omega=omega, gamma=mid, a=1.0), x) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def samples(n: int, seed: int, plate: bool):
    """n seeded (g, Omega, theta, a) points."""
    rng = random.Random(seed)
    near = lambda: 10.0 ** rng.uniform(-16.0, -14.0)  # noqa: E731
    omegas = (-1.0, math.nextafter(1.0, 0.0), lambda: -1.0 + max(near(), 2.3e-16), lambda: 1.0 - near(),
              0.0, lambda: rng.uniform(-1.0, 1.0))
    corners = [0.0, 2.0**-1074, 1e-300, 1e150]
    for i in range(n):
        om = omegas[i % len(omegas)]
        om = om() if callable(om) else om
        k = i % 20
        if k < 2:
            g = corners[(i // 20) % 4] if k == 0 else 0.0
        elif k < 10:
            g = 10.0 ** rng.uniform(-6.0, 4.0)
        elif k < 13:
            g = 10.0 ** rng.uniform(4.0, 150.0)
        elif k < 16:
            g = 10.0 ** rng.uniform(-300.0, -6.0)
        else:
            # the leading term changes sign at x just past X, where it is
            # smallest against its parts: the comb's f, or at Omega cos
            # theta = 0 a plate's 4x^2 - g^2 - 2g
            x = rng.uniform(4.8, 8.0)
            g = math.sqrt(1.0 + 4.0 * x * x) - 1.0 if plate else vanishing_g(x, om)
        theta = (0.0, math.pi, 2.23, 0.5 * math.pi, rng.uniform(-math.pi, math.pi))[(i // 6) % 5]
        a = 10.0 ** rng.uniform(-3.0, 3.0) if i % 2 else 2.0 ** rng.randint(-6, 6)
        yield g, om, theta, a


def measure(n: int, seed: int) -> None:
    for kind in ("comb", "plate"):
        worst, where = 0.0, None
        for g, om, theta, a in samples(n, seed if kind == "comb" else seed + 1, kind == "plate"):
            c = CombCouplings.from_reduced(omega=om, gamma=g / a, a=a)
            tail = energy._COMB_TAIL if kind == "comb" else energy._PLATE_TAIL
            value, allowance = tail_of(c) if kind == "comb" else tail_of(c, theta)
            norm = allowance / tail[2]
            gm, omm = mpmath.mpf(c.gamma * c.a), mpmath.mpf(c.omega)
            if norm == 0.0:
                assert value == 0.0
                continue
            with mpmath.workdps(25):
                exact_f = comb_f(gm, omm) if kind == "comb" else plate_f(gm, omm * mpmath.cos(theta))
            exact = exact_tail(exact_f, tail[0], norm)
            err = abs(value - exact) / norm
            if err > worst:
                worst, where = err, (g, om, theta, a)
        print(f"{kind}: {n} points, worst error {worst:.3g} of sum |w e^t f| at (g, Omega, theta, a) = {where}; "
              f"allowance {tail[2]:g} ({tail[2] / worst:.1f}x)" if worst else f"{kind}: worst 0")


if __name__ == "__main__":
    if sys.argv[1:2] == ["tables"]:
        for n in (12, 28):
            print(n, laguerre_rule(n))
    else:
        measure(int(sys.argv[2]) if len(sys.argv) > 2 else 1000, int(sys.argv[3]) if len(sys.argv) > 3 else 2026)
