"""Band structure of a periodic comb of identical point potentials.

For Bloch phase theta = q a the comb spectrum is the zero set in k > 0 of
a secular function.  Two equivalent forms are provided:

* the general amplitude-based band equation (band_rhs), valid for any comb
  built by repeating one scatterer: cos(q a) = [e^{iak} det S + e^{-iak}]/(2t);

* the closed form for the delta-delta' comb (spectral_function),

      g(k) = Omega cos(theta) + cos(k a) + (gamma / 2k) sin(k a),

  which equals 2 t (cos(theta) - band_rhs) up to the nonvanishing
  prefactor -4 k (1 + w1^2) / D(k), so both share their zeros.

Single-theta roots (dispersion, and the theta = 0 and theta = pi columns
behind band_edges) are located by scanning in steps of pi/(8 a) (well below
the ~pi/a root spacing of these oscillatory functions) and refining each
bracket with Brent's method.  Grazing zeros where a band touches its
neighbour (e.g. the free comb at theta = 0) produce no sign change; the scan
detects the local extremum pointing at zero, refines it by golden-section
search and counts the root twice.  Two caveats follow from that: tangential
edges are located only to ~1e-8 relative accuracy (root refinement cannot
help without a sign change), and gaps so narrow that |g| stays below ~1e-9
across them are reported as touching bands.

band_structure does not scan: inside a band the discriminant is monotone
in k (the Kronig-Penney property), so k_n(theta) is monotone on [0, pi] and
each sample is the one root between the previous column's root and the
band's theta = pi edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import (
    InvalidLatticeSpacingError,
    NoSignChangeError,
    OutsideValidityDomainError,
    PerfectReflectionError,
    RootScanError,
)
from .quadrature import QuadratureConfig, refine_root
from .scattering import CombCouplings, ScatteringAmplitudes

__all__ = [
    "Band",
    "BandStructure",
    "band_rhs",
    "spectral_function",
    "dispersion",
    "band_edges",
    "band_structure",
]

AmplitudeProvider = Callable[[float], ScatteringAmplitudes]
Source = Union[CombCouplings, AmplitudeProvider]

# k a at which root scans start
_SCAN_ORIGIN = 1e-9

# theta = +q a here; the opposite labeling appears in the literature, but all
# spectra are even in theta so the choice is observationally irrelevant.


@dataclass(frozen=True)
class Band:
    """One band: momentum samples over a theta grid plus its edge interval."""

    index: int
    a: float
    thetas: Tuple[float, ...]
    ks: Tuple[float, ...]
    k_min: float
    k_max: float

    @property
    def qs(self) -> Tuple[float, ...]:
        return tuple(t / self.a for t in self.thetas)


@dataclass(frozen=True)
class BandStructure:
    a: float
    bands: Tuple[Band, ...]


def band_rhs(amps_at: AmplitudeProvider, k: float, a: float) -> float:
    """RHS of the band equation cos(q a) = [e^{iak} det S + e^{-iak}] / (2 t).

    Unitarity makes the expression real for real k; the imaginary residue is
    discarded after a sanity check.  The check must allow for cancellation in
    the numerator: as k -> 0 both terms approach opposite unimodular values
    while |t| ~ k, so roundoff of order eps in the numerator is amplified to
    roughly eps / |t| in the quotient.  Residues beyond that scale (or beyond
    1e-10 of the real part when |t| is O(1)) flag a non-unitary source.
    """
    if not a > 0:
        raise InvalidLatticeSpacingError(f"a must be positive, got {a}")
    amps = amps_at(k)
    t = amps.t
    if t == 0:
        raise PerfectReflectionError(
            f"zero transmission at k = {k}; the comb spectrum collapses to "
            "the perfectly reflecting point spectrum"
        )
    det = amps.t * amps.t - amps.rR * amps.rL
    phase = cmath.exp(1j * k * a)
    val = (phase * det + 1.0 / phase) / (2.0 * t)
    roundoff = 16.0 * math.ulp(1.0) * (abs(det) + 1.0) / (2.0 * abs(t))
    if abs(val.imag) > max(1e-10 * max(1.0, abs(val.real)), roundoff):
        raise ValueError(
            f"band-equation RHS has imaginary part {val.imag:.3e} at k = {k}; "
            "amplitudes do not look unitary"
        )
    return val.real


def spectral_function(c: CombCouplings, k: float, theta: float) -> float:
    """Secular function g(k) = Omega cos(theta) + cos(ka) + (gamma/2k) sin(ka).

    Defined for k >= 0; at k = 0 the removable singularity is replaced by its
    limit Omega cos(theta) + 1 + gamma a / 2.
    """
    if k < 0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    if k == 0.0:
        return c.omega * math.cos(theta) + 1.0 + 0.5 * c.gamma * c.a
    return (
        c.omega * math.cos(theta)
        + math.cos(k * c.a)
        + 0.5 * c.gamma * math.sin(k * c.a) / k
    )


def _golden_min(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimizer; 80 fixed iterations, deterministic."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _probe_extremum(
    secular: Callable[[float], float],
    left: Tuple[float, float],
    mid: Tuple[float, float],
    right: Tuple[float, float],
    cfg: QuadratureConfig,
) -> List[float]:
    """Classify a sign-preserving dip toward zero.

    Returns two roots if the dip actually crosses zero (a pair of nearby
    simple roots), a doubled root if it grazes zero tangentially, and
    nothing if it is a genuine extremum away from zero.
    """
    sgn = 1.0 if mid[1] > 0 else -1.0
    x = _golden_min(lambda t: sgn * secular(t), left[0], right[0])
    fx = secular(x)
    if fx == 0.0:
        return [x, x]
    if (fx > 0) != (mid[1] > 0):
        return [
            refine_root(secular, left[0], x, cfg),
            refine_root(secular, x, right[0], cfg),
        ]
    scale = max(1.0, abs(left[1]), abs(right[1]))
    if abs(fx) <= 1e-9 * scale:
        return [x, x]
    return []


def _scan_roots(
    secular: Callable[[float], float],
    a: float,
    n_roots: int,
    cfg: QuadratureConfig,
) -> List[float]:
    """First n_roots positive zeros of the secular function, in order.

    The scan starts at k = _SCAN_ORIGIN/a (k = 0 is excluded from the
    spectrum); an exact float zero at the scan origin is treated as the
    excluded k -> 0 boundary, not as a band state.  Tangential zeros appear
    twice.

    Exact zeros AT a sample are common, not exotic: samples sit at
    ka = 1e-9 + m pi/8, and cos(n pi +- 1e-9) rounds to +-1 exactly, so for
    gamma = 0 every band-touching point coincides with a sample zero.  Such
    a zero's multiplicity is settled by the neighbouring nonzero samples:
    equal signs on both sides mean the curve grazed zero (double root),
    opposite signs mean a plain crossing that happened to land on the grid.
    """
    step = math.pi / (8.0 * a)
    k = _SCAN_ORIGIN / a
    f = secular(k)
    k_limit = k + (2.0 * math.pi / a) * (n_roots + 4)
    roots: List[float] = []
    last_sign = 0 if f == 0.0 else (1 if f > 0 else -1)
    pending_zero: Optional[float] = None
    pending_sign_before = 0
    prev2: Optional[Tuple[float, float]] = None
    prev = (k, f)
    while len(roots) < n_roots and prev[0] < k_limit:
        k = prev[0] + step
        f = secular(k)
        if f == 0.0:
            if pending_zero is not None:
                # consecutive sample zeros: no analytic secular function
                # here does this; count the earlier one once and move on
                roots.append(pending_zero)
            pending_zero = k
            pending_sign_before = last_sign
            prev2 = None
            prev = (k, f)
            continue
        sign = 1 if f > 0 else -1
        if pending_zero is not None:
            if pending_sign_before == sign and pending_sign_before != 0:
                roots.extend((pending_zero, pending_zero))
            else:
                roots.append(pending_zero)
            pending_zero = None
        elif prev[1] != 0.0 and (prev[1] > 0) != (f > 0):
            roots.append(refine_root(secular, prev[0], k, cfg))
        elif (
            prev2 is not None
            and prev[1] != 0.0
            and prev2[1] != 0.0
            and abs(prev[1]) < abs(prev2[1])
            and abs(prev[1]) < abs(f)
            and (prev2[1] > 0) == (prev[1] > 0) == (f > 0)
        ):
            roots.extend(_probe_extremum(secular, prev2, prev, (k, f), cfg))
        last_sign = sign
        prev2 = prev
        prev = (k, f)
    if pending_zero is not None and len(roots) < n_roots:
        roots.append(pending_zero)
    if len(roots) < n_roots:
        raise RootScanError(
            f"found {len(roots)} of {n_roots} requested roots while scanning "
            f"[{_SCAN_ORIGIN / a:.3e}, {k_limit:.6g}]"
        )
    return roots[:n_roots]


def _resolve_source(
    source: Source, theta: float, a: Optional[float]
) -> Tuple[Callable[[float], float], float]:
    """Secular function and lattice spacing for either kind of source."""
    if isinstance(source, CombCouplings):
        return (lambda k: spectral_function(source, k, theta)), source.a
    if a is None:
        raise ValueError("lattice spacing a is required for amplitude callables")
    costh = math.cos(theta)
    return (lambda k: band_rhs(source, k, a) - costh), a


def dispersion(
    source: Source,
    theta: float,
    n_bands: int = 1,
    cfg: Optional[QuadratureConfig] = None,
    a: Optional[float] = None,
) -> List[float]:
    """First n_bands positive spectrum momenta k_n(theta), increasing.

    source is either CombCouplings (closed-form secular function) or a
    callable k -> ScatteringAmplitudes (general comb; pass the spacing a).
    theta enters through cos(theta) only, so the result is exactly even in
    theta (|theta| is used internally).  Doubly degenerate momenta, where
    neighbouring bands touch, appear twice.
    """
    cfg = cfg or QuadratureConfig()
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    theta = abs(float(theta))
    if not theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    secular, aa = _resolve_source(source, theta, a)
    return _scan_roots(secular, aa, n_bands, cfg)


Edge = Tuple[float, float]  # (k, theta) with theta = 0 or theta = pi


def _edges(
    source: Source,
    n_bands: int,
    cfg: Optional[QuadratureConfig],
    a: Optional[float],
) -> List[Tuple[Edge, Edge]]:
    """Lower and upper edge of the first n_bands bands, each with the theta
    (0 or pi) whose root it is.

    The k -> 0 limit of each column is the secular function at the scan
    origin, for either kind of source.  Where it vanishes to rounding, the
    band bottom is the excluded zero mode: the scan drops an exact zero
    there, and a rounding residue gives no root or a spurious one within the
    first scan step, so that column's edge becomes k = 0 instead.  Opposite
    signs in the two columns put k -> 0 inside a band, which then continues
    to imaginary k.  For couplings the limit is Omega cos(theta) + 1 +
    gamma a/2 and a negative value in either column already means
    1 + gamma a/2 < |Omega|; the amplitude form has no fixed overall sign,
    so only the opposite-sign case is detected there.
    """
    cfg = cfg or QuadratureConfig()
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    origin = []
    for theta in (0.0, math.pi):
        secular, aa = _resolve_source(source, theta, a)
        origin.append(secular(_SCAN_ORIGIN / aa))
    tol = 1e-12 * max(1.0, abs(origin[0]), abs(origin[1]))
    if min(origin) < -tol and (
        isinstance(source, CombCouplings) or max(origin) > tol
    ):
        raise OutsideValidityDomainError(
            f"secular function at k -> 0 is {origin[0]:.6g} at theta = 0 and "
            f"{origin[1]:.6g} at theta = pi: the lowest band reaches imaginary k"
        )
    need = n_bands + 1
    merged: List[Edge] = []
    for theta, g0 in zip((0.0, math.pi), origin):
        roots = dispersion(source, theta, need, cfg, a)
        if abs(g0) <= tol:
            first_step = math.pi / (8.0 * aa)
            roots = [0.0] + [k for k in roots if k >= first_step]
        merged += [(k, theta) for k in roots]
    merged.sort()
    return [(merged[2 * n], merged[2 * n + 1]) for n in range(n_bands)]


def band_edges(
    source: Source,
    n_bands: int,
    cfg: Optional[QuadratureConfig] = None,
    a: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """Edge intervals [k_min, k_max] of the first n_bands bands.

    Band edges are spectrum momenta at theta = 0 or theta = pi; merging the
    two sorted root lists and pairing consecutive entries yields the bands
    (flat bands give k_min = k_max, touching bands share an endpoint).  Where
    the secular function vanishes in the k -> 0 limit at theta = 0 or
    theta = pi, the excluded zero mode is restored as the bottom edge of the
    lowest band.  Sources whose lowest band reaches imaginary k raise
    OutsideValidityDomainError: couplings with 1 + gamma a/2 < |Omega|, and
    any source whose k -> 0 limit lies strictly inside a band.
    """
    return [(lo[0], hi[0]) for lo, hi in _edges(source, n_bands, cfg, a)]


def _band_root(
    source: Source,
    theta: float,
    near: float,
    far: float,
    edges: Tuple[float, float],
    cfg: QuadratureConfig,
    a: Optional[float],
) -> float:
    """The band's root at theta, known to lie between near and far.

    near is the root at the previous theta column, accurate to root_tol, so
    a step in theta that moves the root by less than that can leave the root
    just outside [near, far]; the band's whole edge interval is then the
    bracket.  A bracket already within root_tol needs no evaluation (flat
    bands have near == far).  A k = 0 end (a restored zero mode) is moved to
    the scan origin, since amplitude sources have t = 0 or a pole at k = 0.
    """
    lo, hi = sorted((near, far))
    if hi - lo <= cfg.root_tol * hi:
        return near
    secular, aa = _resolve_source(source, theta, a)
    floor = _SCAN_ORIGIN / aa
    for lo, hi in ((lo, hi), edges):
        try:
            return refine_root(secular, max(lo, floor), hi, cfg)
        except NoSignChangeError:
            pass
    raise RootScanError(
        f"secular function keeps its sign across the band [{edges[0]!r}, "
        f"{edges[1]!r}] at theta = {theta!r}"
    )


def band_structure(
    source: Source,
    n_bands: int = 4,
    n_theta: int = 101,
    cfg: Optional[QuadratureConfig] = None,
    a: Optional[float] = None,
) -> BandStructure:
    """Sample k_n(theta) on a uniform closed theta grid over [-pi, pi].

    The grid is exactly mirror-symmetric (thetas[i] == -thetas[-1-i], with
    theta = 0.0 in the middle for odd n_theta); only theta >= 0 is solved and
    samples at -theta are copies.  The theta = 0 and theta = pi columns are
    the band edges (including a restored k = 0 zero mode).
    """
    cfg = cfg or QuadratureConfig()
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    # the integer ratio is formed first, so the ends are exactly -pi and pi
    # and the grid's mirror image is its exact negation
    m = n_theta - 1
    thetas = tuple(math.pi * ((2 * i - m) / m) for i in range(n_theta))
    upper = thetas[n_theta // 2 :]
    aa = source.a if isinstance(source, CombCouplings) else a
    bands = []
    for n, ((k_min, theta_min), (k_max, _)) in enumerate(
        _edges(source, n_bands, cfg, a)
    ):
        k_zero, k_pi = (k_min, k_max) if theta_min == 0.0 else (k_max, k_min)
        ks = []
        prev = k_zero
        for theta in upper:
            if theta == 0.0:
                k = k_zero
            elif theta == math.pi:
                k = k_pi
            else:
                k = _band_root(source, theta, prev, k_pi, (k_min, k_max), cfg, a)
            ks.append(k)
            prev = k
        bands.append(
            Band(
                index=n,
                a=aa,
                thetas=thetas,
                ks=tuple(ks[::-1][: n_theta - len(ks)] + ks),
                k_min=k_min,
                k_max=k_max,
            )
        )
    return BandStructure(a=aa, bands=tuple(bands))
