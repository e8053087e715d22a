"""Adaptive Gauss-Kronrod quadrature and bracketed root refinement.

Self-contained numerical kernels: a 7/15 Gauss-Kronrod pair with the
classic QUADPACK-style error estimate, worst-interval-first adaptive
bisection on finite intervals, and derivative-free Brent iteration for root
refinement.  Breakpoints seed one adaptive run with a panel per piece
(QUADPACK's qagp), so one error budget covers them all.  The semi-infinite
energy integrals (cutoff, graded breakpoints and tail bound) are assembled
from one integrate_finite call in the energy module.

Everything here is deterministic: identical inputs produce bit-identical
results (intervals are split at midpoints, the work queue is ordered by
error magnitude with an insertion counter as tie-breaker, the unrolled
panel sums in one fixed order, and the final math.fsum sums are correctly
rounded in any order)."""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .errors import NoSignChangeError, RootScanError, ToleranceNotMetError

__all__ = [
    "QuadratureConfig",
    "integrate_finite",
    "refine_root",
]

_EPS = sys.float_info.epsilon
_TWO_EPS = 2.0 * _EPS
# refine_root halves its bracket at least every fourth step, and a bracket
# of doubles cannot be halved more than about 2100 times
_MAX_BRENT_STEPS = 4 * 2100
_UFLOW = sys.float_info.min

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half, descending) with
# their weights, and the weights of the embedded 7-point Gauss rule.  The
# Gauss nodes sit at the odd indices of _XGK plus the centre.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG
_RESABS_FLOOR = _UFLOW / (50.0 * _EPS)  # 50 eps resabs underflows below it


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits shared by all integrals and root searches.

    truncation_k is the momentum cutoff K of the energy integrals; None means
    K = 40/a, i.e. 40 in the reduced momentum k a, and an energy rejects a K
    whose K a lies outside (0, 1e6].  max_subdivisions bounds
    one integrate_finite call, so it applies to a whole energy, ladder and all.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000
    truncation_k: Optional[float] = None
    root_tol: float = 1e-12

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.root_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.truncation_k is not None and not self.truncation_k > 0:
            raise ValueError("truncation_k must be positive when given")


def _panel(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """One 7/15 Gauss-Kronrod panel: (integral estimate, error estimate).

    Unrolled: each sum adds the centre term, then the node pairs j = 0..6 in
    turn.  That order is fixed on purpose; any other changes the last bits.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fc = f(center)
    d0, d1, d2, d3 = half * _X0, half * _X1, half * _X2, half * _X3
    d4, d5, d6 = half * _X4, half * _X5, half * _X6
    l0, r0 = f(center - d0), f(center + d0)
    l1, r1 = f(center - d1), f(center + d1)
    l2, r2 = f(center - d2), f(center + d2)
    l3, r3 = f(center - d3), f(center + d3)
    l4, r4 = f(center - d4), f(center + d4)
    l5, r5 = f(center - d5), f(center + d5)
    l6, r6 = f(center - d6), f(center + d6)

    kc = _K7 * fc
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    resg = _G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5
    resk = (kc + _K0 * (l0 + r0) + _K1 * s1 + _K2 * (l2 + r2) + _K3 * s3
            + _K4 * (l4 + r4) + _K5 * s5 + _K6 * (l6 + r6))
    resabs = (abs(kc) + _K0 * (abs(l0) + abs(r0)) + _K1 * (abs(l1) + abs(r1))
              + _K2 * (abs(l2) + abs(r2)) + _K3 * (abs(l3) + abs(r3))
              + _K4 * (abs(l4) + abs(r4)) + _K5 * (abs(l5) + abs(r5))
              + _K6 * (abs(l6) + abs(r6)))

    # QUADPACK-style scaling of the raw |K15 - G7| difference: compare it to
    # the variation of f over the panel so that the estimate stays honest for
    # both smooth and rough integrands.
    h = 0.5 * resk
    resasc = (_K7 * abs(fc - h) + _K0 * (abs(l0 - h) + abs(r0 - h))
              + _K1 * (abs(l1 - h) + abs(r1 - h)) + _K2 * (abs(l2 - h) + abs(r2 - h))
              + _K3 * (abs(l3 - h) + abs(r3 - h)) + _K4 * (abs(l4 - h) + abs(r4 - h))
              + _K5 * (abs(l5 - h) + abs(r5 - h)) + _K6 * (abs(l6 - h) + abs(r6 - h)))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _RESABS_FLOOR:
        err = max(_EPS * 50.0 * resabs, err)
    return value, err


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: Optional[QuadratureConfig] = None,
    breaks: Sequence[float] = (),
) -> Tuple[float, float]:
    """Adaptive quadrature of f on [lo, hi].

    lo and hi are finite and breaks are interior points, strictly increasing
    inside (lo, hi), else ValueError; each piece between them starts as one
    panel.  The worst panel anywhere is split next, and the test below
    applies to the summed error.

    Returns (value, abs_err) with abs_err <= max(abs_tol, rel_tol * |value|),
    or raises ToleranceNotMetError after max_subdivisions splits or on a NaN
    estimate.
    """
    cfg = cfg or QuadratureConfig()
    edges = [lo, *breaks, hi]
    if not (-math.inf < lo and hi < math.inf
            and all(p < q for p, q in zip(edges, edges[1:]))):
        raise ValueError(f"need finite lo < breaks < hi, strictly increasing, got {edges}")

    # heap entries: (-err, insertion counter, lo, hi, value, err)
    heap = []
    for counter, (plo, phi) in enumerate(zip(edges, edges[1:])):
        value, err = _panel(f, plo, phi)
        heapq.heappush(heap, (-err, counter, plo, phi, value, err))
    total_value = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    counter = len(heap)
    splits = 0

    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_value)):
        if splits >= cfg.max_subdivisions:
            raise ToleranceNotMetError(
                f"error estimate {total_err:.3e} above tolerance after "
                f"{splits} subdivisions on [{lo}, {hi}]"
            )
        _, _, wlo, whi, wval, werr = heapq.heappop(heap)
        mid = 0.5 * (wlo + whi)
        if not (wlo < mid < whi):
            # interval width at rounding limit; nothing further to gain
            heapq.heappush(heap, (-werr, counter, wlo, whi, wval, werr))
            counter += 1
            break
        lval, lerr = _panel(f, wlo, mid)
        rval, rerr = _panel(f, mid, whi)
        total_value += (lval + rval) - wval
        total_err += (lerr + rerr) - werr
        heapq.heappush(heap, (-lerr, counter, wlo, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, counter + 1, mid, whi, rval, rerr))
        counter += 2
        splits += 1

    # fsum is correctly rounded, so the heap's order of terms cannot matter
    value = math.fsum(item[4] for item in heap)
    err = math.fsum(item[5] for item in heap)
    if not err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise ToleranceNotMetError(
            f"error estimate {err:.3e} above tolerance on [{lo}, {hi}]"
        )
    return value, err


def refine_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: Optional[QuadratureConfig] = None,
) -> float:
    """Brent's (1973) root of f in a sign-changing bracket [lo, hi].

    Inverse quadratic or secant steps are taken while they shrink the
    bracket fast enough, otherwise the step is a bisection.  A bracket that
    has not halved in three steps forces a bisection, so the count is at
    most four times bisection's: simple roots converge superlinearly (a
    handful of evaluations), multiple roots, where interpolation stalls,
    take up to that bound.  The search stops when the bracket [b, c] around
    the root is narrower than cfg.root_tol * max(|b|, |c|) and returns its
    end b with the smaller |f|, so the root lies within that width of the
    result.  An endpoint where f is exactly zero is returned as is; a
    bracket without a sign change raises NoSignChangeError, and one with a
    non-finite end ValueError.  A NaN value of f, at an end or inside, and
    running out of steps, which the forced bisections keep out of reach,
    raise RootScanError rather than return a point that is not a root.
    """
    cfg = cfg or QuadratureConfig()
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if not abs(flo) > 0.0:
        if flo == 0.0:
            return lo
        raise RootScanError(f"f is NaN at x = {lo!r} in [{lo}, {hi}]")
    fhi = f(hi)
    if not abs(fhi) > 0.0:
        if fhi == 0.0:
            return hi
        raise RootScanError(f"f is NaN at x = {hi!r} in [{lo}, {hi}]")
    if (flo > 0) == (fhi > 0):
        raise NoSignChangeError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign"
        )
    # The loop's floating-point operations and their order are fixed on
    # purpose: any change moves roots in their last bits.  Only interpreter
    # work is hoisted or carried (2 eps, root_tol/2, c - b, |f| at a, b and c),
    # and max() and abs(d) > tol are spelled as comparisons, which round nothing.
    half_rtol = 0.5 * cfg.root_tol
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
