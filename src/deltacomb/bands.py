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
each band with one Brent run from those values, so edges at multiples of
pi/a (touching bands, pure-delta combs, k = 0) come out exact.

band_structure solves only its theta = 0 and theta = pi columns that way:
inside a band the discriminant is monotone in k, so k_n(theta) is monotone
on [0, pi] and each interior sample is the one root between the previous
column's root and the band's theta = pi edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import NoSignChangeError, OutsideValidityDomainError, RootScanError
from .quadrature import QuadratureConfig, refine_root
from .scattering import CombCouplings, one_plus_omega_cos

__all__ = [
    "Band",
    "BandStructure",
    "spectral_function",
    "dispersion",
    "band_edges",
    "band_structure",
]

# 1 + gamma a/2 + Omega cos(theta), the k -> 0 value of the secular function,
# cancels for gamma a < 0; there it counts as zero within this, so the
# attractive boundary 1 + gamma a/2 = |Omega| keeps its k = 0 edge
_ZERO_TOL = 1e-12

# theta = +q a here; the opposite labeling appears in the literature, but all
# spectra are even in theta so the choice is observationally irrelevant.


@dataclass(frozen=True)
class Band:
    """One band: momentum samples over a theta grid plus its edge interval."""

    index: int
    thetas: Tuple[float, ...]
    ks: Tuple[float, ...]
    k_min: float
    k_max: float


@dataclass(frozen=True)
class BandStructure:
    a: float
    bands: Tuple[Band, ...]


def spectral_function(c: CombCouplings, k: float, theta: float) -> float:
    """Secular function g(k) = Omega cos(theta) + cos(ka) + (gamma/2k) sin(ka).

    Evaluated as (1 + Omega cos theta) - 2 sin^2(ka/2) + (gamma/2) sin(ka)/k,
    with 1 + Omega cos theta a sum of non-negative terms, so nothing cancels
    at band 0's bottom, where all three terms are small.  Defined for finite
    k >= 0 (anything else raises ValueError); at k = 0 the removable
    singularity is replaced by its limit 1 + Omega cos(theta) + gamma a / 2.
    """
    if not 0.0 < k < math.inf:
        if k == 0.0:
            return one_plus_omega_cos(c.omega, theta) + 0.5 * c.gamma * c.a
        raise ValueError(f"momentum must be finite and >= 0, got k = {k!r}")
    x = k * c.a
    half = math.sin(0.5 * x)
    d = one_plus_omega_cos(c.omega, theta)
    return d - 2.0 * half * half + 0.5 * c.gamma * (math.sin(x) / k)


def _root(c: CombCouplings, n: int, theta: float, cfg: QuadratureConfig) -> float:
    """Band n's root at theta, the one zero on [n pi/a, (n+1) pi/a].

    The end values are exact, not evaluated.  An exact zero at an end is
    band n's own edge when the band lies on that side of it: the upper end
    for gamma >= 0, the lower end for gamma <= 0.  Any other end zero is the
    neighbouring band's, and the secular function just inside has the sign
    of h at that end.
    """
    g = c.gamma * c.a
    oc = c.omega * math.cos(theta)
    parity = 1.0 if n % 2 == 0 else -1.0  # h(n pi) = (-1)^n
    h_lo = 1.0 + 0.5 * g if n == 0 else parity
    # band 0's lower value sums non-negative terms for g >= 0: nothing cancels
    f_lo = one_plus_omega_cos(c.omega, theta) + 0.5 * g if n == 0 else oc + parity
    f_hi = oc - parity
    if n == 0 and g < 0.0 and abs(f_lo) <= _ZERO_TOL:
        f_lo = 0.0
    lo, hi = n * math.pi / c.a, (n + 1) * math.pi / c.a
    if f_hi == 0.0:
        if g >= 0.0:
            return hi
        f_hi = -parity
    if f_lo == 0.0:
        if g <= 0.0:
            return lo
        f_lo = h_lo
    ends = {lo: f_lo, hi: f_hi}
    return refine_root(
        lambda k: ends[k] if k in ends else spectral_function(c, k, theta),
        lo,
        hi,
        cfg,
    )


def dispersion(
    c: CombCouplings,
    theta: float,
    n_bands: int = 1,
    cfg: Optional[QuadratureConfig] = None,
) -> List[float]:
    """Momenta k_n(theta) of the first n_bands bands, band n's in
    [n pi/a, (n+1) pi/a].

    Exactly even in theta (|theta| is used).  Touching bands both report the
    shared momentum, and band 0 reports k = 0 where it reaches the zero mode.
    Combs with 1 + gamma a/2 < |Omega|, whose lowest band reaches imaginary
    k, and spacings so small that n_bands pi/a overflows raise
    OutsideValidityDomainError.
    """
    cfg = cfg or QuadratureConfig()
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
    return [_root(c, n, theta, cfg) for n in range(n_bands)]


def band_edges(
    c: CombCouplings,
    n_bands: int,
    cfg: Optional[QuadratureConfig] = None,
) -> List[Tuple[float, float]]:
    """Edge intervals [k_min, k_max] of the first n_bands bands.

    The edges are a band's momenta at theta = 0 and theta = pi, the two
    columns of a 2-point band_structure.  Flat bands give k_min = k_max,
    touching bands share an endpoint exactly, and a band reaching the zero
    mode starts at k_min = 0.
    """
    return [(b.k_min, b.k_max) for b in band_structure(c, n_bands, 2, cfg).bands]


def _band_root(
    c: CombCouplings,
    theta: float,
    near: float,
    far: float,
    edges: Tuple[float, float],
    cfg: QuadratureConfig,
) -> float:
    """The band's root at theta, known to lie between near and far.

    near is the root at the previous theta column, accurate to root_tol, so
    a step in theta that moves the root by less than that can leave the root
    just outside [near, far]; the band's whole edge interval is then the
    bracket.  A bracket already within root_tol needs no evaluation (flat
    bands have near == far).
    """
    lo, hi = (near, far) if near <= far else (far, near)
    if hi - lo <= cfg.root_tol * hi:
        return near
    secular = lambda k: spectral_function(c, k, theta)  # noqa: E731
    for lo, hi in ((lo, hi), edges):
        try:
            return refine_root(secular, lo, hi, cfg)
        except NoSignChangeError:
            pass
    raise RootScanError(
        f"secular function keeps its sign across the band [{edges[0]!r}, "
        f"{edges[1]!r}] at theta = {theta!r}"
    )


def band_structure(
    c: CombCouplings,
    n_bands: int = 4,
    n_theta: int = 101,
    cfg: Optional[QuadratureConfig] = None,
) -> BandStructure:
    """Sample k_n(theta) on a uniform closed theta grid over [-pi, pi].

    The grid is exactly mirror-symmetric (thetas[i] == -thetas[-1-i], with
    theta = 0.0 in the middle for odd n_theta); only theta >= 0 is solved and
    samples at -theta are copies.  The theta = 0 and theta = pi columns are
    the band edges (including k = 0 where a band reaches the zero mode).
    """
    cfg = cfg or QuadratureConfig()
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    # the integer ratio is formed first, so the ends are exactly -pi and pi
    # and the grid's mirror image is its exact negation
    m = n_theta - 1
    thetas = tuple(math.pi * ((2 * i - m) / m) for i in range(n_theta))
    upper = thetas[n_theta // 2 :]
    bands = []
    for n, (k_zero, k_pi) in enumerate(
        zip(dispersion(c, 0.0, n_bands, cfg), dispersion(c, math.pi, n_bands, cfg))
    ):
        edges = (min(k_zero, k_pi), max(k_zero, k_pi))
        ks, k = [], k_zero
        for theta in upper[:-1]:  # upper[-1] is pi
            k = k_zero if theta == 0.0 else _band_root(c, theta, k, k_pi, edges, cfg)
            ks.append(k)
        ks.append(k_pi)
        bands.append(
            Band(
                index=n,
                thetas=thetas,
                ks=tuple(ks[::-1][: n_theta - len(ks)] + ks),
                k_min=edges[0],
                k_max=edges[1],
            )
        )
    return BandStructure(a=c.a, bands=tuple(bands))
