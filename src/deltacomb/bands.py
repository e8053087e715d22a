"""Band structure of a periodic comb of identical point potentials.

For Bloch phase theta = q a the comb spectrum is the zero set in k > 0 of
the secular function of the delta-delta' comb (spectral_function),

    g(k) = Omega cos(theta) + h(k a),  h(x) = cos x + (gamma a / 2x) sin x,

the band equation cos(q a) = [e^{iak} det S + e^{-iak}]/(2t) of one
scatterer's amplitudes with its denominator cleared,

    g(k) = -D(k)/(4k (1 + w1^2)) [2t cos(theta) - e^{iak} det S - e^{-iak}]

(D as in scattering, nonzero for k > 0), so it stays finite where t = 0
(|w1| = 1, flat bands).

h has the Kronig-Penney structure: h(n pi) = (-1)^n exactly and |h| >= 1
outside band n's phase window.  So whenever 1 + gamma a/2 >= |Omega| (else
the lowest band reaches imaginary k), band n's root at any theta is the one
zero of g on [n pi/a, (n+1) pi/a], and g's end values are known exactly:
Omega cos(theta) + (-1)^n at the lower end (1 + gamma a/2 + Omega cos(theta)
for band 0), Omega cos(theta) - (-1)^n at the upper end.  dispersion solves
each band with one Brent run from those values (refine_root, which takes
them as given and never evaluates an end; it is internal to this module,
outside __all__), so edges at multiples of pi/a (touching bands, pure-delta
combs, k = 0) come out exact.

band_structure solves only its theta = 0 and theta = pi columns that way:
inside a band the discriminant is monotone in k, so k_n(theta) is monotone
on [0, pi] and each interior sample is the one root between the previous
column's root and the band's theta = pi edge.  h does not depend on theta, so
1 +- Omega cos(theta) are formed once per column and each interior sample is
solved by Newton's method with the analytic slope of _secular_and_slope, the
one form of the secular function that spectral_function evaluates too,
started from the linear extrapolation of the previous two columns.  A
sample is accepted only once one probe root_tol k away shows a sign change,
which is refine_root's guarantee; a zero or non-finite slope, a step out of
the bracket or no such certificate within _NEWTON_STEPS steps falls back to
dispersion's Brent solve at that theta.  Each solve takes one float,
root_tol (default 1e-12), the relative accuracy of a band momentum.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from ._record import Record
from .errors import OutsideValidityDomainError, RootScanError
from .scattering import CombCouplings, one_plus_omega_cos

__all__ = [
    "Band",
    "spectral_function",
    "dispersion",
    "band_structure",
]

# 1 + gamma a/2 + Omega cos(theta), the k -> 0 value of the secular function,
# cancels for gamma a < 0; there it counts as zero within this, so the
# attractive boundary 1 + gamma a/2 = |Omega| keeps its k = 0 edge
_ZERO_TOL = 1e-12

# an end value |Omega cos(theta) + h(n pi)| below this, at n pi >= pi, puts
# the root within about sqrt(2 _END_ZERO) = ulp(pi)/2 of n pi, so the end is
# the rounded root; at theta = pi and |Omega| = 1 that value is 2 cos^2(pi/2)
# = 7.5e-33, as pi is not a double
_END_ZERO = math.ulp(math.pi) ** 2 / 8.0

# Newton steps per interior sample of band_structure before Brent takes over
_NEWTON_STEPS = 12

_EPS = sys.float_info.epsilon
_TWO_EPS = 2.0 * _EPS
# refine_root halves its bracket at least every fourth step, and a bracket
# of doubles cannot be halved more than about 2100 times
_MAX_BRENT_STEPS = 4 * 2100

# theta = +q a here; the opposite labeling appears in the literature, but all
# spectra are even in theta so the choice is observationally irrelevant.


class Band(Record):
    """One band: momentum samples over a theta grid plus its edge interval."""

    __slots__ = ("index", "thetas", "ks", "k_min", "k_max")

    def __init__(self, index: int, thetas: tuple[float, ...], ks: tuple[float, ...],
                 k_min: float, k_max: float):
        self._set(index, thetas, ks, k_min, k_max)


def spectral_function(c: CombCouplings, k: float, theta: float) -> float:
    """Secular function g(k) = Omega cos(theta) + cos(ka) + (gamma/2k) sin(ka).

    Evaluated by _secular_and_slope from 1 + Omega cos theta and
    1 - Omega cos theta, each a sum of non-negative terms, so nothing cancels
    at a band edge, where Omega cos theta + cos(ka) is small: not at band 0's
    bottom, nor where Omega cos theta -> 1.  Defined for finite k >= 0
    (anything else raises ValueError); at k = 0 the removable singularity is
    replaced by its limit 1 + Omega cos(theta) + gamma a / 2.
    """
    if not 0.0 < k < math.inf:
        if k == 0.0:
            return one_plus_omega_cos(c.omega, theta) + 0.5 * c.gamma * c.a
        raise ValueError(f"momentum must be finite and >= 0, got k = {k!r}")
    d, e = one_plus_omega_cos(c.omega, theta), one_plus_omega_cos(-c.omega, theta)
    return _secular_and_slope(0.5 * c.gamma, c.a, d, e, k)[0]


def _secular_and_slope(g2: float, a: float, d: float, e: float, k: float) -> tuple[float, float]:
    """The secular function at k > 0, Omega cos(theta) + cos x + g2 sin(x)/k
    with x = k a and g2 = gamma/2, and its slope in k, from d = 1 + Omega
    cos(theta) and e = 1 - Omega cos(theta).

    Where cos x > 0 it is d - (1 - cos x), else (1 + cos x) - e, with
    1 -+ cos x = sin^2 x/(1 +- cos x): near a band edge both terms of a pair
    may be small, and each is formed without cancellation.  sin x and cos x
    serve both values.
    """
    x = k * a
    s, co = math.sin(x), math.cos(x)
    f = d - s * s / (1.0 + co) if co > 0.0 else s * s / (1.0 - co) - e
    return f + g2 * (s / k), g2 * ((x * co - s) / k / k) - a * s


def refine_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    root_tol: float,
) -> float:
    """Brent's (1973) root of f in [lo, hi], finite with lo < hi, from the
    end values flo = f(lo) and fhi = f(hi), which must be nonzero and of
    opposite sign; none of this is checked, and f is never evaluated at an end.

    Inverse quadratic or secant steps are taken while they shrink the
    bracket fast enough, otherwise the step is a bisection.  A bracket that
    has not halved in three steps forces a bisection, so the count is at
    most four times bisection's: simple roots converge superlinearly (a
    handful of evaluations), multiple roots, where interpolation stalls,
    take up to that bound.  The search stops when the bracket [b, c] around
    the root is narrower than root_tol * max(|b|, |c|) and returns its end b
    with the smaller |f|, so a sign change of f lies within that width of
    the result.  A NaN value of f and running out of steps, which the forced
    bisections keep out of reach, raise RootScanError rather than return a
    point that is not a root.
    """
    # The loop's floating-point operations and their order are fixed on
    # purpose: any change moves roots in their last bits.  Only interpreter
    # work is hoisted or carried (2 eps, root_tol/2, c - b, |f| at a, b and c),
    # and max() and abs(d) > tol are spelled as comparisons, which round nothing.
    half_rtol = 0.5 * root_tol
    # b: best estimate; c: the other end of the bracket; a: previous b
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    afa = afc = abs(fa)
    afb = abs(fb)
    d = e = b - a
    halved_at, stalled = abs(c - b), 0
    for _ in range(_MAX_BRENT_STEPS):
        if afc < afb:
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
            afa, afb, afc = afb, afc, afb
        ab, ac = abs(b), abs(c)
        tol = _TWO_EPS * ab + half_rtol * (ac if ac > ab else ab)
        cb = c - b
        m = 0.5 * cb
        if abs(m) <= tol:
            return b
        width = abs(cb)
        if width <= 0.5 * halved_at:
            halved_at, stalled = width, 0
        else:
            stalled += 1
        step = m
        if stalled >= 3:
            e = m
        elif abs(e) >= tol and afa > afb:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, step = d, p / q
            else:
                e = m
        else:
            e = m
        d = step
        a, fa, afa = b, fb, afb
        b += d if d > tol or d < -tol else math.copysign(tol, m)
        fb = f(b)
        afb = abs(fb)
        if not afb > 0.0:
            if fb == 0.0:
                return b
            raise RootScanError(f"f is NaN at x = {b!r} in [{lo}, {hi}]")
        if (fb > 0.0) == (fc > 0.0):
            c, fc, afc = a, fa, afa
            d = e = b - a
    raise RootScanError(
        f"root refinement did not converge in [{lo}, {hi}] after "
        f"{_MAX_BRENT_STEPS} steps"
    )


def _root(c: CombCouplings, n: int, theta: float, root_tol: float) -> float:
    """Band n's root at theta, the one zero on [n pi/a, (n+1) pi/a].

    The end values are exact, not evaluated, and an end that is not a root
    gets a nonzero value of the sign the secular function has just inside,
    as refine_root requires.  An end value that is zero, or below _END_ZERO
    at k a = n pi > 0, is band n's own edge when the band lies on that side
    of it: the upper end for gamma >= 0, the lower end for gamma <= 0.  Any
    other such end is the neighbouring band's, and the secular function just
    inside has the sign of h at that end.
    """
    g = c.gamma * c.a
    d, e = one_plus_omega_cos(c.omega, theta), one_plus_omega_cos(-c.omega, theta)
    parity = 1.0 if n % 2 == 0 else -1.0  # h(n pi) = (-1)^n
    h_lo = 1.0 + 0.5 * g if n == 0 else parity
    # Omega cos(theta) + h at the ends, that is d or -e
    f_lo, f_hi = (d, -e) if parity > 0.0 else (-e, d)
    if n == 0:
        f_lo += 0.5 * g
        if g < 0.0 and abs(f_lo) <= _ZERO_TOL:
            f_lo = 0.0
    elif abs(f_lo) < _END_ZERO:
        f_lo = 0.0
    lo, hi = n * math.pi / c.a, (n + 1) * math.pi / c.a
    if abs(f_hi) < _END_ZERO:
        if g >= 0.0:
            return hi
        f_hi = -parity
    if f_lo == 0.0:
        if g <= 0.0:
            return lo
        f_lo = h_lo
    return refine_root(lambda k: spectral_function(c, k, theta), lo, hi, f_lo, f_hi, root_tol)


def dispersion(
    c: CombCouplings, theta: float, n_bands: int = 1, root_tol: float = 1e-12
) -> list[float]:
    """Momenta k_n(theta) of the first n_bands bands, band n's in
    [n pi/a, (n+1) pi/a], each within root_tol k of the root.

    Exactly even in theta (|theta| is used).  Touching bands both report the
    shared momentum, and band 0 reports k = 0 where it reaches the zero mode.
    A root_tol outside (0, 1) raises ValueError (an error of 1 k or more
    allows 0 and 2 k alike); combs with 1 + gamma a/2 < |Omega|, whose lowest
    band reaches imaginary k, and spacings so small that n_bands pi/a
    overflows raise OutsideValidityDomainError.
    """
    if not 0 < root_tol < 1:
        raise ValueError(f"root_tol must lie in (0, 1), got {root_tol!r}")
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    theta = abs(float(theta))
    if not theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    if 1.0 + 0.5 * c.gamma * c.a < abs(c.omega) - _ZERO_TOL:
        raise OutsideValidityDomainError(
            f"1 + gamma a/2 < |Omega| at (w0, w1, a) = ({c.w0!r}, {c.w1!r}, "
            f"{c.a!r}): the lowest band reaches imaginary k"
        )
    if n_bands * math.pi / c.a == math.inf:
        raise OutsideValidityDomainError(
            f"band {n_bands - 1}'s upper edge {n_bands} pi/a overflows at "
            f"(w0, w1, a) = ({c.w0!r}, {c.w1!r}, {c.a!r})"
        )
    return [_root(c, n, theta, root_tol) for n in range(n_bands)]


def band_edges(
    c: CombCouplings, n_bands: int, root_tol: float = 1e-12
) -> list[tuple[float, float]]:
    """The first n_bands bands' [k_min, k_max], from band_structure(c, n_bands,
    2); outside __all__, kept by name for the benchmark's tracer to time."""
    return [(b.k_min, b.k_max) for b in band_structure(c, n_bands, 2, root_tol)]


def _newton_root(
    g2: float, a: float, d: float, e: float, near: float, far: float, guess: float, tol: float
) -> float | None:
    """The root between near and far by Newton's method, or None.

    A bracket no wider than tol hi needs no evaluation and gives near (flat
    bands have near == far).  Otherwise it starts at guess if that lies
    strictly inside the bracket, else at the midpoint, and every iterate
    stays strictly inside, so k > 0.  A Newton step shorter than tol k is
    accepted once the secular function changes sign between k and a probe
    tol k away in the direction of the step: the root and k + step then lie
    in that interval, within tol k of each other.
    A zero or non-finite slope, a step out of the bracket, a probe outside it
    and no sign change within _NEWTON_STEPS steps give None.
    """
    lo, hi = (near, far) if near <= far else (far, near)
    if hi - lo <= tol * hi:
        return near
    k = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        if not lo < k < hi:
            return None
        f, slope = _secular_and_slope(g2, a, d, e, k)
        if not 0.0 < abs(slope) < math.inf:
            return None
        if f == 0.0:
            return k
        step = -f / slope
        if abs(step) < tol * k:
            probe = k + math.copysign(tol * k, step)
            if lo < probe < hi:
                fp = _secular_and_slope(g2, a, d, e, probe)[0]
                if fp < 0.0 if f > 0.0 else fp > 0.0:
                    return k + step
        k += step
    return None


def band_structure(
    c: CombCouplings, n_bands: int = 4, n_theta: int = 101, root_tol: float = 1e-12
) -> tuple[Band, ...]:
    """The first n_bands bands, each sampled on a uniform closed theta grid
    over [-pi, pi].

    Every Band of one call holds the same thetas tuple (the same object).
    The grid is exactly mirror-symmetric (thetas[i] == -thetas[-1-i], with
    theta = 0.0 in the middle for odd n_theta); only theta >= 0 is solved and
    samples at -theta are copies.  The theta = 0 and theta = pi columns are
    the band edges (including k = 0 where a band reaches the zero mode),
    solved by dispersion.  Each interior sample is a Newton root certified by
    a sign change within root_tol k (_newton_root) or, where that fails,
    dispersion's own Brent solve at that theta, bit for bit; either lies
    within root_tol k of the root.  A band narrower than that can put such a
    root outside its edges, which are solved to root_tol too; it is then
    moved to the nearer edge, still within root_tol k of the root, so every
    sample lies in [k_min, k_max].  Flat bands give k_min = k_max, touching
    bands share an edge exactly, and a band reaching the zero mode starts at
    k_min = 0.
    """
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    # the integer ratio is formed first, so the ends are exactly -pi and pi
    # and the grid's mirror image is its exact negation
    m = n_theta - 1
    thetas = tuple(math.pi * ((2 * i - m) / m) for i in range(n_theta))
    upper = thetas[n_theta // 2 :]
    # the interior theta > 0 columns (upper[0] is 0 for odd n_theta, upper[-1]
    # is pi), each with its 1 +- Omega cos(theta), shared by every band
    columns = [
        (t, one_plus_omega_cos(c.omega, t), one_plus_omega_cos(-c.omega, t))
        for t in upper[n_theta % 2 : -1]
    ]
    g2 = 0.5 * c.gamma
    bands = []
    for n, (k_zero, k_pi) in enumerate(
        zip(dispersion(c, 0.0, n_bands, root_tol), dispersion(c, math.pi, n_bands, root_tol))
    ):
        k_min, k_max = min(k_zero, k_pi), max(k_zero, k_pi)
        ks = [k_zero] * (n_theta % 2)
        k_prev = k = k_zero
        for theta, d, e in columns:
            root = _newton_root(g2, c.a, d, e, k, k_pi, 2.0 * k - k_prev, root_tol)
            if root is None:
                root = _root(c, n, theta, root_tol)
            k_prev, k = k, root
            ks.append(k)
        ks.append(k_pi)
        if min(ks) < k_min or max(ks) > k_max:
            ks = [min(max(k, k_min), k_max) for k in ks]
        bands.append(
            Band(
                index=n,
                thetas=thetas,
                ks=tuple(ks[::-1][: n_theta - len(ks)] + ks),
                k_min=k_min,
                k_max=k_max,
            )
        )
    return tuple(bands)
