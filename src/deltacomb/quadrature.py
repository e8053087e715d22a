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
error magnitude with an insertion counter as tie-breaker, and the final
sums run over intervals sorted by position).
"""

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
    """One 7/15 Gauss-Kronrod panel: (integral estimate, error estimate)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fc = f(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    pairs = []
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        pairs.append((f1, f2))
        fsum = f1 + f2
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))

    # QUADPACK-style scaling of the raw |K15 - G7| difference: compare it to
    # the variation of f over the panel so that the estimate stays honest for
    # both smooth and rough integrands.
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
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

    breaks are interior points, strictly increasing inside (lo, hi); each
    piece between them starts as one panel.  The worst panel anywhere is
    split next, and the test below applies to the summed error.

    Returns (value, abs_err) with abs_err <= max(abs_tol, rel_tol * |value|),
    or raises ToleranceNotMetError after max_subdivisions splits.
    """
    cfg = cfg or QuadratureConfig()
    edges = [lo, *breaks, hi]
    if not all(p < q for p, q in zip(edges, edges[1:])):
        raise ValueError(f"need lo < breaks < hi, strictly increasing, got {edges}")

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

    # re-sum in positional order: deterministic and well conditioned
    intervals = sorted(heap, key=lambda item: item[2])
    value = math.fsum(item[4] for item in intervals)
    err = math.fsum(item[5] for item in intervals)
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
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
    bracket without a sign change raises NoSignChangeError.  Running out of
    steps, which the forced bisections keep out of reach, raises
    RootScanError rather than return an unconverged point.
    """
    cfg = cfg or QuadratureConfig()
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChangeError(
            f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign"
        )
    # b: best estimate; c: the other end of the bracket; a: previous b
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    halved_at, stalled = abs(c - b), 0
    for _ in range(_MAX_BRENT_STEPS):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * cfg.root_tol * max(abs(b), abs(c))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(c - b) <= 0.5 * halved_at:
            halved_at, stalled = abs(c - b), 0
        else:
            stalled += 1
        step = m
        if stalled >= 3:
            e = m
        elif abs(e) >= tol and abs(fa) > abs(fb):
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
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise RootScanError(
        f"root refinement did not converge in [{lo}, {hi}] after "
        f"{_MAX_BRENT_STEPS} steps"
    )
