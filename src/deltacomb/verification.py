"""Numbered verification checks for the whole library.

Each check exercises one pinned result — closed-form constants, oracle
agreements, limiting behaviors — at an explicit tolerance and reports a
CheckResult instead of raising, so the CLI can print a PASS/FAIL table
and the test suite can assert on the same objects.  Randomized checks are
seeded (seed 12345) and therefore reproducible run to run.  The independent
references that checks 4 to 6 compare against are private to this module.
"""

from __future__ import annotations

import math
import random

from ._record import Record
from .bands import band_structure, dispersion
from .energy import comb_energy, plate_energy, spectral_integrand, theta_integrand
from .errors import OutsideValidityDomainError, ValidityViolationError
from .quadrature import integrate_finite
from .scattering import CombCouplings, ScatteringAmplitudes, delta_prime_amplitudes, s_matrix_det

__all__ = ["CheckResult", "run_all"]

_SEED = 12345


def _delta_amplitudes(w0: float, k: complex) -> ScatteringAmplitudes:
    """Amplitudes of a single Dirac delta in their textbook form:
    t = 2ik/(2ik - w0), left/right reflection both w0/(2ik - w0)."""
    k = complex(k)
    den = 2j * k - w0
    if den == 0:
        raise OutsideValidityDomainError(
            f"amplitude pole at k = {k} for delta strength w0 = {w0}"
        )
    return ScatteringAmplitudes(t=2j * k / den, rR=w0 / den, rL=w0 / den, k=k)


def _plate_energy_closed(theta: float, a: float) -> float:
    """Closed form (1/2a)(|theta| - theta^2/(2 pi) - pi/3) of the free-comb
    plate energy at quasi-periodic phase theta in [-pi, pi]."""
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    t = abs(theta)
    return (t - t * t / (2.0 * math.pi) - math.pi / 3.0) / (2.0 * a)


def _theta_integral_numeric(c: CombCouplings, k: float) -> tuple[float, float]:
    """Direct Bloch-phase quadrature int_{-pi}^{pi} dtheta/(4 pi^2) F(k, theta)
    at abs_tol 1e-12, the cross-check of spectral_integrand's closed-form
    theta integral; returns (value, abs_err)."""
    value, err = integrate_finite(
        lambda th: theta_integrand(c, k, th), -math.pi, math.pi, 1e-12, 1e-8
    )
    norm = 4.0 * math.pi * math.pi
    return value / norm, err / norm


class CheckResult(Record):
    __slots__ = ("number", "name", "passed", "detail")

    def __init__(self, number: int, name: str, passed: bool, detail: str):
        self._set(number, name, bool(passed), detail)


def check_mixed_bc_constant() -> CheckResult:
    """comb energy at Omega = gamma = 0 equals pi/(48 a)."""
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        c = CombCouplings.from_reduced(omega=0.0, gamma=0.0, a=a)
        dev = abs(comb_energy(c).value - math.pi / (48.0 * a))
        worst = max(worst, dev)
    return CheckResult(
        1,
        "mixed-BC constant pi/(48a)",
        worst <= 1e-8,
        f"max |E - pi/(48a)| = {worst:.3e} over a in (0.5, 1, 2), tol 1e-8",
    )


def check_dirichlet_constant() -> CheckResult:
    """Strong coupling: comb energies at g = gamma a >= 1e4 land on
    a E = -pi/24 + pi/(12 g) - (pi/6)(1 + Omega^2/2)/g^2 + (pi/3 + pi^3/90
    + pi Omega^2/2)/g^3 + O(g^-4), whose g -> oo limit is the
    two-Dirichlet-plate energy -pi/(24 a).

    The law is the log form 2 pi a E = int_0^oo h dx (see the tests'
    oracle) expanded in rho = 2x/g.  With q = e^{-2x} and alpha = cosh x +
    (g/2x) sinh x, h = ln(1 - q + q e) - Omega^2/(4 alpha^2) + O(Omega^4/
    alpha^4), where e = 2 rho/(1 + rho) and 1/alpha^2 = (rho/sinh x)^2 (1 -
    2 rho coth x + O(rho^2)).  Expanding ln(1 - q) + w - w^2/2 + w^3/3, w =
    q e/(1 - q), and integrating termwise with int_0^oo x^n q^m/(1 - q)^m dx
    = n! 2^-(n+1) times zeta(n+1), zeta(n) - zeta(n+1) and (zeta(n-1) - 3
    zeta(n) + 2 zeta(n+1))/2 for m = 1, 2, 3, with int x^2/sinh^2 x =
    zeta(2) and int x^3 cosh x/sinh^3 x = 3 zeta(2)/2, gives 2 pi a E =
    -zeta(2)/2 + zeta(2)/g - (2 + Omega^2) zeta(2)/g^2 + ((4 + 6 Omega^2)
    zeta(2) + 2 zeta(4))/g^3 + O(g^-4); the zeta(3) terms cancel.  Against
    the 45-digit log form, (a E - law) g^4 is -4.8 at Omega = 0 and -13.4
    at Omega = -1 for g = 1e3, so the law's own error in a E at g = 1e4 is
    at most about 1.4e-15, far inside the bound.
    """
    worst = 0.0
    for g in (1e4, 1e6, 1e8):
        for omega in (-1.0, 0.0, 0.3, 0.99):
            for a in (0.5, 1.0, 2.0):
                c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
                res = comb_energy(c)
                ga, om2 = c.gamma * a, omega**2
                law = math.pi * (-1 / 24 + 1 / (12 * ga) - (1 + om2 / 2) / (6 * ga * ga)
                                 + (1 / 3 + math.pi**2 / 90 + om2 / 2) / ga**3) / a
                worst = max(worst, abs(res.value - law) / (res.abs_err + res.tail_bound))
    return CheckResult(
        2,
        "Dirichlet constant -pi/(24a)",
        worst <= 1.0,
        "a E against -pi/24 + pi/(12g) - (pi/6)(1 + Omega^2/2)/g^2 + (pi/3 + pi^3/90 "
        "+ pi Omega^2/2)/g^3 at g = gamma a in (1e4, 1e6, 1e8), Omega in (-1, 0, 0.3, "
        f"0.99), a in (0.5, 1, 2): worst deviation {worst:.3f} of its bound abs_err + tail_bound",
    )


def _dual_cell_misfit(c: CombCouplings) -> tuple[float, float]:
    """|(1/pi) int_0^pi dtheta plate_energy(c, theta) - comb_energy(c)| and
    the sum of errors it must stay within: the outer quadrature's abs_err/pi,
    the worst plate's abs_err + tail_bound and the comb's."""
    plates = []

    def plate(theta: float) -> float:
        plates.append(plate_energy(c, theta))
        return plates[-1].value

    value, err = integrate_finite(plate, 0.0, math.pi, 1e-10, 1e-8)
    comb = comb_energy(c)
    bound = err / math.pi + max(p.abs_err + p.tail_bound for p in plates)
    return abs(value / math.pi - comb.value), bound + comb.abs_err + comb.tail_bound


def check_free_comb_zero() -> CheckResult:
    """Free comb has zero energy; comb energies are the sum of plate energies
    over the dual cell of Bloch phases."""
    e = comb_energy(CombCouplings(w0=0.0, w1=0.0, a=1.0)).value
    misfits = [
        _dual_cell_misfit(c)
        for c in (
            CombCouplings(w0=0.0, w1=0.0, a=1.0),
            CombCouplings(w0=1.0, w1=0.3, a=1.0),
            CombCouplings(w0=5.0, w1=0.5, a=2.0),
            CombCouplings.from_reduced(omega=0.9, gamma=0.2, a=0.5),
        )
    ]
    return CheckResult(
        3,
        "free-comb zero energy",
        abs(e) < 1e-10 and all(dev <= bound for dev, bound in misfits),
        f"|E_free| = {abs(e):.3e} (tol 1e-10); max |(1/pi) int_0^pi plate_energy "
        f"dtheta - E| = {max(d for d, _ in misfits):.2e} over {len(misfits)} combs "
        f"(tol per comb: its summed errors, >= {min(b for _, b in misfits):.2e})",
    )


def check_plate_formula() -> CheckResult:
    """Numeric free-comb plate energy matches (1/2a)(|t| - t^2/2pi - pi/3)."""
    free = CombCouplings(w0=0.0, w1=0.0, a=1.0)
    worst = 0.0
    for theta in (0.0, 0.5, 1.5, math.pi):
        dev = abs(plate_energy(free, theta).value - _plate_energy_closed(theta, 1.0))
        worst = max(worst, dev)
    return CheckResult(
        4,
        "quasi-periodic plate formula",
        worst <= 1e-6,
        f"max |numeric - closed| = {worst:.3e} at theta in (0, 0.5, 1.5, pi), tol 1e-6",
    )


def check_theta_integral_oracle() -> CheckResult:
    """Closed-form Bloch average agrees with direct theta quadrature."""
    rng = random.Random(_SEED)
    worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(0.0, 10.0)
        omega = rng.uniform(-1.0, 1.0)
        a = rng.uniform(0.2, 5.0)
        k = (1.0 - rng.uniform(0.0, 1.0)) * 40.0 / a  # in (0, 40/a]
        c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
        closed = spectral_integrand(c, k)
        numeric, _ = _theta_integral_numeric(c, k)
        worst = max(worst, abs(closed - numeric))
    return CheckResult(
        5,
        "theta-integral oracle",
        worst <= 1e-10,
        f"max |closed - quadrature| = {worst:.3e} over 100 seeded draws, tol 1e-10",
    )


def check_unitarity_suite() -> CheckResult:
    """|t|^2 + |r|^2 = 1, |det S| = 1, and the w1 = 0 reduction to the delta comb."""
    rng = random.Random(_SEED)
    worst_unitarity = 0.0
    worst_det = 0.0
    for _ in range(1000):
        w0 = rng.uniform(-5.0, 5.0)
        w1 = rng.uniform(-3.0, 3.0)
        k = (1.0 - rng.uniform(0.0, 1.0)) * 50.0
        amps = delta_prime_amplitudes(CombCouplings(w0=w0, w1=w1, a=1.0), k)
        for r in (amps.rR, amps.rL):
            worst_unitarity = max(
                worst_unitarity, abs(abs(amps.t) ** 2 + abs(r) ** 2 - 1.0)
            )
        worst_det = max(worst_det, abs(abs(s_matrix_det(amps)) - 1.0))
    worst_reduction = 0.0
    for _ in range(100):
        w0 = rng.uniform(-5.0, 5.0)
        k = (1.0 - rng.uniform(0.0, 1.0)) * 50.0
        prime = delta_prime_amplitudes(CombCouplings(w0=w0, w1=0.0, a=1.0), k)
        plain = _delta_amplitudes(w0, k)
        worst_reduction = max(
            worst_reduction,
            abs(prime.t - plain.t),
            abs(prime.rR - plain.rR),
            abs(prime.rL - plain.rL),
        )
    passed = worst_unitarity <= 1e-12 and worst_det <= 1e-12 and worst_reduction <= 1e-15
    return CheckResult(
        6,
        "unitarity suite",
        passed,
        f"unitarity defect {worst_unitarity:.2e}, |det S| defect {worst_det:.2e} "
        f"(tol 1e-12, 1000 draws); delta reduction defect {worst_reduction:.2e} (tol 1e-15)",
    )


def check_band_reduction() -> CheckResult:
    """w1 = 0 roots satisfy the delta-comb relation; huge-w0 edges pin to n pi/a."""
    c = CombCouplings(w0=10.0, w1=0.0, a=1.0)
    worst = 0.0
    for theta in (0.0, 0.3, 1.0, 2.0, math.pi):
        for k in dispersion(c, theta, n_bands=3):
            resid = abs(
                math.cos(theta) - math.cos(k) - 10.0 * math.sin(k) / (2.0 * k)
            )
            worst = max(worst, resid)
    pinning = 0.0
    strong = CombCouplings(w0=1e8, w1=0.0, a=1.0)
    for n, band in enumerate(band_structure(strong, 3, 2), start=1):
        target = n * math.pi
        pinning = max(
            pinning, abs(band.k_min - target) / target, abs(band.k_max - target) / target
        )
    passed = worst <= 1e-10 and pinning <= 1e-3
    return CheckResult(
        7,
        "band reduction",
        passed,
        f"max secular residual {worst:.3e} (tol 1e-10); "
        f"edge pinning to n*pi/a off by {pinning:.3e} relative at w0=1e8 (tol 1e-3)",
    )


def check_non_analyticity() -> CheckResult:
    """Pure-delta comb: a E = (g/8pi)(ln g - 1) + O(g^2 ln g) with g = gamma a,
    whose g ln g term makes E non-analytic at g = 0."""
    worst = 0.0
    for g in (1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2):
        res = comb_energy(CombCouplings(w0=g, w1=0.0, a=1.0))
        law = g * (math.log(g) - 1.0) / (8.0 * math.pi)
        bound = 0.01 * g * g * abs(math.log(g)) + res.abs_err + res.tail_bound
        worst = max(worst, abs(res.value - law) / bound)
    return CheckResult(
        8,
        "small-coupling non-analyticity",
        worst <= 1.0,
        "a E against (g/8pi)(ln g - 1) at g = gamma a in (1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1e-2): "
        f"worst deviation {worst:.2f} of its bound 0.01 g^2|ln g| + abs_err + tail_bound",
    )


def check_asymptotic_vanishing() -> CheckResult:
    """|E| decreases with spacing and lands on the -pi/(24a) law by a = 20."""
    spacings = (1.0, 2.0, 4.0, 8.0, 20.0)
    values = [
        abs(comb_energy(CombCouplings(w0=5.0, w1=0.5, a=a)).value) for a in spacings
    ]
    decreasing = all(v1 > v2 for v1, v2 in zip(values, values[1:]))
    law = math.pi / (24.0 * 20.0)
    ratio = values[-1] / law
    # the energy approaches -pi/(24 a) for any fixed couplings, so at a = 20
    # it is still ~6e-3 in magnitude; a fixed sub-1e-6 threshold there is
    # unreachable and convergence onto the law is the meaningful statement
    passed = decreasing and 0.9 < ratio < 1.0 and values[-1] < 7e-3
    return CheckResult(
        9,
        "asymptotic vanishing",
        passed,
        f"|E| over a in {spacings}: {[f'{v:.3e}' for v in values]} strictly "
        f"decreasing = {decreasing}; |E(20)| = {ratio:.4f} * pi/480",
    )


def check_validity_guard() -> CheckResult:
    """Both integrands are finite, and their positivity sentinel silent, on a
    seeded battery of supported inputs that includes the free corners."""
    rng = random.Random(_SEED)
    values = []
    try:
        for i in range(300):
            g = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-300.0, 150.0)
            omega = (-1.0, 1.0, rng.uniform(-1.0, 1.0))[i % 3]
            if omega == 1.0:  # needs w1 -> oo; w1 = 1e200 forces gamma = 0
                c = CombCouplings(w0=1.0, w1=1e200, a=1.0)
            else:
                c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
            thetas = (0.0, math.pi, rng.uniform(-math.pi, math.pi))
            # one x anywhere in [1e-300, 40], one in [5, 40]
            for x in (10.0 ** rng.uniform(-300.0, math.log10(40.0)), rng.uniform(5.0, 40.0)):
                values.append(spectral_integrand(c, x))
                values += [theta_integrand(c, x, theta) for theta in thetas]
    except ValidityViolationError as exc:
        return CheckResult(10, "validity guard", False, f"after {len(values)} evaluations: {exc}")
    nonfinite = sum(not math.isfinite(v) for v in values)
    return CheckResult(
        10,
        "validity guard",
        nonfinite == 0,
        f"{len(values)} integrand evaluations at gamma a in {{0}} u [1e-300, 1e150], "
        f"|Omega| <= 1, x in [1e-300, 40]: {nonfinite} non-finite (zero required), "
        "no positivity violation",
    )


def run_all() -> list[CheckResult]:
    """Run the ten checks in order and return their results."""
    return [
        check_mixed_bc_constant(),
        check_dirichlet_constant(),
        check_free_comb_zero(),
        check_plate_formula(),
        check_theta_integral_oracle(),
        check_unitarity_suite(),
        check_band_reduction(),
        check_non_analyticity(),
        check_asymptotic_vanishing(),
        check_validity_guard(),
    ]
