"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Self-contained numerical kernels: a 7/15 Gauss-Kronrod pair with the
classic QUADPACK-style error estimate and worst-interval-first adaptive
bisection on finite intervals.  Breakpoints seed one adaptive run with a
panel per piece (QUADPACK's qagp), so one error budget covers them all.  The
semi-infinite energy integrals (cutoff, graded breakpoints, the tail's
rule and its allowance) are assembled from one integrate_finite call
in the energy module.
integrate_finite is a tool of the energy and verification modules, not
public surface: __all__ is empty.  Root refinement (Brent) and its root_tol
live in the bands module, its only caller.

Everything here is deterministic: identical inputs produce bit-identical
results (intervals are split at midpoints, the work queue is ordered by
error magnitude with an insertion counter as tie-breaker, the unrolled
panel sums in one fixed order, and the final math.fsum sums are correctly
rounded in any order)."""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Callable, Sequence

from .errors import ToleranceNotMetError

__all__ = []

_EPS = sys.float_info.epsilon
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
# Below _RESABS_FLOOR a panel's values may be subnormal, where rounding is
# absolute in u = 2^-1074: a sum or difference there is exact, and a product
# or quotient that lands there is off by at most u/2.  The energies' f_s
# (less the comb's phi/2pi) takes at most 4 such roundings that reach its
# value unscaled (2u), and 3 that it divides by about x, u/2 over 2 pi x
# each, about 0.14 u/x in all (0.17 u/x measured with the unscaled ones, on
# the comb at Omega = -1 and subnormal g), under u/2 over a ladder decade.
# The 8 weighted products of resk add at most 4u, 2u per unit width once
# scaled by half, and value = resk half rounds once more, u/2 at any width.
# So a panel of nonzero values on [lo, hi] carries at most u (4 (hi - lo) + 1).
_SUBNORMAL = math.ulp(0.0)


# the splits one integrate_finite call may take; an energy is one call, so
# this bounds a whole energy, ladder and all
_MAX_SUBDIVISIONS = 2000


def _panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, float]:
    """One 7/15 Gauss-Kronrod panel: (integral estimate, error estimate,
    rounding floor), where the floor is the least the error estimate can be:
    50 eps resabs, or u (4 (hi - lo) + 1) where that would underflow (resabs
    at most _RESABS_FLOOR, see _SUBNORMAL), and 0.0 where every value is 0.

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
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 0.0
    if resabs > 0.0:  # tested unscaled: scaling can round a nonzero panel to 0
        resabs *= abs(half)
        if resabs > _RESABS_FLOOR:
            floor = _EPS * 50.0 * resabs
        else:
            floor = _SUBNORMAL * (4.0 * (hi - lo) + 1.0)
        err = max(floor, err)
    return value, err, floor


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float,
    rel_tol: float,
    breaks: Sequence[float] = (),
    *,
    shift: float = 0.0,
    shift_err: float = 0.0,
) -> tuple[float, float]:
    """Adaptive quadrature of f on [lo, hi], plus the constant shift.

    lo and hi are finite and breaks are interior points, strictly increasing
    inside (lo, hi), else ValueError; each piece between them starts as one
    panel.  The worst panel anywhere is split next, and the test below
    applies to the summed error.  shift is a part of the result known in
    closed form: it is added to the value, so that the relative tolerance
    applies to the whole result.  shift_err bounds how far shift may be
    from what it stands for; it is part of abs_err, and of the rounding
    floor, since no split can lower it.

    Returns (value, abs_err) with abs_err <= max(abs_tol, rel_tol * |value|),
    or raises ToleranceNotMetError after _MAX_SUBDIVISIONS splits, on a NaN
    estimate, or as soon as the panels' summed rounding floors (see _panel)
    exceed the tolerance.  Splitting cannot lower that floor: the resabs of
    a panel's pieces sum to its own, up to how well a coarse resabs
    estimates the integral of |f| (within 2% on seeded combs).
    """
    edges = [lo, *breaks, hi]
    if not (-math.inf < lo and hi < math.inf
            and all(p < q for p, q in zip(edges, edges[1:]))):
        raise ValueError(f"need finite lo < breaks < hi, strictly increasing, got {edges}")

    # heap entries: (-err, insertion counter, lo, hi, value, err, floor)
    heap = []
    for counter, (plo, phi) in enumerate(zip(edges, edges[1:])):
        value, err, floor = _panel(f, plo, phi)
        heapq.heappush(heap, (-err, counter, plo, phi, value, err, floor))
    total_value = math.fsum([shift, *(item[4] for item in heap)])
    total_err = math.fsum([shift_err, *(item[5] for item in heap)])
    total_floor = math.fsum([shift_err, *(item[6] for item in heap)])
    counter = len(heap)
    splits = 0

    while total_err > (tol := max(abs_tol, rel_tol * abs(total_value))):
        if total_floor > tol:
            raise ToleranceNotMetError(
                f"rounding floor {total_floor:.3e} of the error estimate is above "
                f"the tolerance {tol:.3e} after {splits} subdivisions on [{lo}, {hi}]"
            )
        if splits >= _MAX_SUBDIVISIONS:
            raise ToleranceNotMetError(
                f"error estimate {total_err:.3e} above tolerance after "
                f"{splits} subdivisions on [{lo}, {hi}]"
            )
        _, _, wlo, whi, wval, werr, wfloor = heapq.heappop(heap)
        mid = 0.5 * (wlo + whi)
        if not (wlo < mid < whi):
            # interval width at rounding limit; nothing further to gain
            heapq.heappush(heap, (-werr, counter, wlo, whi, wval, werr, wfloor))
            counter += 1
            break
        lval, lerr, lfloor = _panel(f, wlo, mid)
        rval, rerr, rfloor = _panel(f, mid, whi)
        total_value += (lval + rval) - wval
        total_err += (lerr + rerr) - werr
        total_floor += (lfloor + rfloor) - wfloor
        heapq.heappush(heap, (-lerr, counter, wlo, mid, lval, lerr, lfloor))
        heapq.heappush(heap, (-rerr, counter + 1, mid, whi, rval, rerr, rfloor))
        counter += 2
        splits += 1

    # fsum is correctly rounded, so the heap's order of terms cannot matter
    value = math.fsum([shift, *(item[4] for item in heap)])
    err = math.fsum([shift_err, *(item[5] for item in heap)])
    if not err <= max(abs_tol, rel_tol * abs(value)):
        raise ToleranceNotMetError(
            f"error estimate {err:.3e} above tolerance on [{lo}, {hi}]"
        )
    return value, err
