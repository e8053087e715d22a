"""Regularized vacuum energy per unit cell of the delta-delta' comb.

After subtracting the free-line contribution and the single-potential
(self-energy) term, the vacuum energy per cell collapses to one momentum
integral

    E = integral_0^oo dk I(k).

In the reduced variables x = k a and g = gamma a the spacing drops out of
the integrand, I(k) = f(k a; gamma a, Omega), so that

    E(gamma, Omega, a) = (1/a) integral_0^oo dx f(x; gamma a, Omega),

which is where the -pi/(24 a) and pi/(48 a) laws come from.  f is the
Bloch-phase average of the subtracted integrand

    F(x, theta) = A / (B + C cos theta) + x - g/(g + 2x),

    A = -x g cosh x + (g - 2 x^2) sinh x,
    B = 2 x cosh x + g sinh x,
    C = 2 x Omega

(a times the momentum-space A(k), B(k), C(k)), carried out in closed form:

    f(x) = (1/2 pi) [ A / sqrt(B^2 - C^2) + x - g/(g + 2x) ].

Only gamma >= 0 is supported (attractive combs bind states below k = 0 and
need a separate treatment), and B^2 > C^2 then holds for every x > 0, a
fact this module re-checks on each evaluation as a bug sentinel.

Numerical strategy
------------------
F and f are exponentially small differences of O(x) quantities once
x >> 1, so a single formula cannot be evaluated accurately everywhere:

* x <= 5: the written formulas, with the denominators regrouped into
  sums of non-negative terms, e.g. B + C cos theta = 4x sinh^2(x/2)
  + g sinh(x) + 2x (1 + Omega cos theta), and 1 + Omega cos theta
  itself expanded about the nearer of theta = 0, pi so nothing cancels.

* x > 5: rearranged forms in which the subtraction of the large terms
  has been performed analytically.  With R = 2x + g, S = 2x - g,
  P = g - x R, Q = 2 x^2 - x g - g, eps = e^{-2x}:

      2 pi f = (Q eps - P phi) / (R sqrt(1 + y)),
      y   = eps (2 R S + S^2 eps - 16 x^2 Omega^2) / R^2,
      phi = sqrt(1 + y) - 1 = y / (1 + sqrt(1 + y)),

  and analogously for F with T = 4 x Omega e^{-x}:

      F = [2x (4x^2 - g^2 - 2g) eps - P T cos theta]
          / [R (R + S eps + T cos theta)].

  No positive exponential appears, so the forms stay finite (and
  machine-accurate, by comparison with high-precision evaluation) for
  arbitrarily large x.

Every energy integral (comb, plate and the closed-form limit curves) is
computed once in x, at unit spacing, and divided by a.  It is truncated at
X = 40, i.e. at K = 40/a in momentum, beyond which |f| < e^{-80}-ish, and
the discarded tail is reported as an explicit bound obtained from the
integrand's own magnitude near X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import OutsideValidityDomainError, ValidityViolationError
from .quadrature import QuadratureConfig, integrate_finite
from .scattering import CombCouplings

__all__ = [
    "EnergyResult",
    "theta_integrand",
    "spectral_integrand",
    "theta_integral_numeric",
    "comb_energy",
    "plate_energy",
    "plate_energy_closed",
    "plate_average_closed",
    "dirichlet_limit_integrand",
    "mixed_limit_integrand",
    "small_coupling_ratio",
    "validity_check_count",
    "validity_violation_count",
    "reset_validity_counters",
]

_TWO_PI = 2.0 * math.pi

# crossover between the literal and the exponentially-rearranged forms;
# both are good to ~1e-13 relative at x = 5, so the seam is invisible
_REARRANGED_ABOVE = 5.0

# Validity bookkeeping: every integrand evaluation checks B^2 - C^2 > 0
# (resp. B + C cos theta > 0) and counts the check.  A violation raises
# ValidityViolationError; for gamma >= 0, |Omega| <= 1 it is provably
# unreachable, so the violation counter staying at zero is part of the
# verification suite.  Plain module ints: evaluations are single-threaded
# within one quadrature call and the counters are diagnostics, not state
# the numerics depend on.
_checks_performed = 0
_violations = 0


def validity_check_count() -> int:
    """Number of integrand-level positivity checks performed so far."""
    return _checks_performed


def validity_violation_count() -> int:
    """Number of failed positivity checks (each also raised)."""
    return _violations


def reset_validity_counters() -> None:
    global _checks_performed, _violations
    _checks_performed = 0
    _violations = 0


def _count_check(quantity: float, context: str) -> None:
    global _checks_performed, _violations
    _checks_performed += 1
    if not quantity > 0.0:
        _violations += 1
        raise ValidityViolationError(
            f"positivity violated: {context} = {quantity!r}; this cannot "
            "happen for gamma >= 0 and |Omega| <= 1 and indicates a bug"
        )


def _require_supported(c: CombCouplings) -> None:
    if c.gamma < 0:
        raise OutsideValidityDomainError(
            f"gamma = {c.gamma} < 0 (attractive comb): bound states appear "
            "and the subtracted vacuum energy is not defined here"
        )


@dataclass(frozen=True)
class EnergyResult:
    """Energy value with its quadrature error and truncation-tail bound.

    value excludes the (bounded) tail beyond truncation_k.
    """

    value: float
    abs_err: float
    truncation_k: float
    tail_bound: float

    @property
    def total_error(self) -> float:
        return self.abs_err + self.tail_bound


def _one_plus_omega_cos(omega: float, theta: float) -> float:
    """1 + Omega cos(theta) as a sum of non-negative terms.

    The naive form cancels when Omega cos(theta) -> -1 (Omega -> -1 at
    theta = 0, or Omega -> +1 at theta = pi); expanding about the nearer
    endpoint keeps every addend >= 0.
    """
    if omega <= 0.0:
        half = math.sin(0.5 * theta)
        return (1.0 + omega) - 2.0 * omega * half * half
    half = math.cos(0.5 * theta)
    return (1.0 - omega) + 2.0 * omega * half * half


def theta_integrand(c: CombCouplings, k: float, theta: float) -> float:
    """Subtracted vacuum-energy integrand F(k, theta) at fixed Bloch phase.

    Evaluated in x = k a and g = gamma a, in which it does not depend on a.
    k = 0 returns the series limit: -1 for gamma > 0, else 0 (in the
    marginal free-type case Omega cos theta = -1 with gamma = 0 the true
    k -> 0 limit is -2 on that measure-zero phase; the generic limit is
    kept, and no quadrature ever samples the endpoint).
    """
    _require_supported(c)
    if k < 0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    x, g, om = k * c.a, c.gamma * c.a, c.omega
    if k == 0.0:
        return -1.0 if g > 0 else 0.0
    costh = math.cos(theta)
    if x <= _REARRANGED_ABOVE:
        sh = math.sinh(x)
        sh2 = math.sinh(0.5 * x)
        A = -x * g * math.cosh(x) + (g - 2.0 * x * x) * sh
        den = (
            4.0 * x * sh2 * sh2
            + g * sh
            + 2.0 * x * _one_plus_omega_cos(om, theta)
        )
        _count_check(den, "B + C cos(theta)")
        return A / den + x - g / (g + 2.0 * x)
    eps = math.exp(-2.0 * x)
    r, s = 2.0 * x + g, 2.0 * x - g
    p = g - x * r
    t_small = 4.0 * x * om * math.exp(-x)
    num = 2.0 * x * (4.0 * x * x - g * g - 2.0 * g) * eps - p * t_small * costh
    den = r + s * eps + t_small * costh
    _count_check(den, "e^{-x}-scaled B + C cos(theta)")
    return num / (r * den)


def spectral_integrand(c: CombCouplings, k: float) -> float:
    """Bloch-phase-averaged integrand I(k) = (1/2pi)[A/sqrt(B^2-C^2) + ak
    - gamma/(gamma+2k)], evaluated in x = k a and g = gamma a,
    cancellation-free on both sides of the x = 5 crossover."""
    _require_supported(c)
    if k < 0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    x, g, om = k * c.a, c.gamma * c.a, c.omega
    if k == 0.0:
        return -1.0 / _TWO_PI if g > 0 else 0.0
    if x <= _REARRANGED_ABOVE:
        sh = math.sinh(x)
        sh2 = math.sinh(0.5 * x)
        abs_om = abs(om)
        A = -x * g * math.cosh(x) + (g - 2.0 * x * x) * sh
        b_minus = 4.0 * x * sh2 * sh2 + g * sh + 2.0 * x * (1.0 - abs_om)
        b_plus = 2.0 * x * math.cosh(x) + g * sh + 2.0 * x * abs_om
        # b_plus >= b_minus, and the product can underflow at tiny g
        _count_check(b_minus, "B - |C|")
        root = math.sqrt(b_minus) * math.sqrt(b_plus)
        return (A / root + x - g / (g + 2.0 * x)) / _TWO_PI
    eps = math.exp(-2.0 * x)
    r, s = 2.0 * x + g, 2.0 * x - g
    p = g - x * r
    q = 2.0 * x * x - x * g - g
    delta = eps * (2.0 * r * s + s * s * eps - 16.0 * x * x * om * om)
    y = delta / (r * r)
    _count_check(1.0 + y, "e^{-2x}-scaled B^2 - C^2")
    root = math.sqrt(1.0 + y)
    phi = y / (1.0 + root)
    return (q * eps - p * phi) / (r * root) / _TWO_PI


def theta_integral_numeric(
    c: CombCouplings, k: float, cfg: Optional[QuadratureConfig] = None
) -> Tuple[float, float]:
    """Direct Bloch-phase quadrature int_{-pi}^{pi} dtheta/(4 pi^2) F(k, theta).

    Independent cross-check of spectral_integrand's closed-form theta
    integral; returns (value, abs_err).
    """
    cfg = cfg or QuadratureConfig()
    _require_supported(c)
    value, err = integrate_finite(
        lambda th: theta_integrand(c, k, th), -math.pi, math.pi, cfg
    )
    norm = 4.0 * math.pi * math.pi
    return value / norm, err / norm


def _graded_breakpoints(g: float, X: float) -> List[float]:
    """Interior breakpoints for the subtracted integrand on [0, X] in x.

    The -g/(g+2x) subtraction varies on the scale x ~ g/2; for small g
    that layer sits far below the first quadrature nodes of [0, X] and the
    adaptive splitter can converge without ever sampling it (it did: a
    w0 = 1e-6 comb lost the layer's entire -w0 ln w0 signal).  A geometric
    ladder from two decades below the layer up to the bulk scale forces
    panels at every relevant magnitude.
    """
    breaks = []
    layer = 0.5 * g
    if 0.0 < layer < 0.01 * X:
        b = 0.01 * layer
        top = min(0.01 * X, 10.0)
        while b < top:
            breaks.append(b)
            b *= 10.0
    return breaks


def _tail_bound(f, X: float, rate: float) -> float:
    """Bound on |int_X^oo f| for f decaying at least like e^{-rate x}.

    Fits the envelope constant from the integrand itself at X and at
    0.95 X (the second sample guards against X landing near a zero of f)
    and integrates it: M e^{-rate X} / rate with M = 2 |f| e^{+rate x}
    folded in without ever forming the huge exponential.
    """
    probe = max(abs(f(X)), abs(f(0.95 * X)) * math.exp(-0.05 * rate * X))
    return 2.0 * probe / rate


def _energy_integral(
    f, g: float, a: float, cfg: QuadratureConfig, rate: float
) -> EnergyResult:
    """(1/a) int_0^oo dx f(x) for an integrand in x = k a at g = gamma a.

    Integrates over [0, X], X = 40 (truncation_k * a when configured), in one
    adaptive run seeded with the graded ladder for g, at abs_tol * a so that
    abs_tol holds in energy units, and bounds the tail beyond X for f
    decaying like e^{-rate x}.
    """
    X = 40.0 if cfg.truncation_k is None else cfg.truncation_k * a
    value, err = integrate_finite(
        f, 0.0, X, replace(cfg, abs_tol=cfg.abs_tol * a), _graded_breakpoints(g, X)
    )
    return EnergyResult(
        value=value / a,
        abs_err=err / a,
        truncation_k=X / a,
        tail_bound=_tail_bound(f, X, rate) / a,
    )


def comb_energy(
    c: CombCouplings, cfg: Optional[QuadratureConfig] = None
) -> EnergyResult:
    """Vacuum energy per unit cell, E = int_0^oo dk I(k).

    Integrates f(x) = I(x/a) over [0, 40] in x = k a, i.e. up to K = 40/a
    (or the configured truncation_k), and reports the neglected tail as a
    separate bound.
    """
    cfg = cfg or QuadratureConfig()
    _require_supported(c)
    unit = CombCouplings(w0=c.w0 * c.a, w1=c.w1, a=1.0)
    # f decays like x e^{-2x}, so e^{-1.5 x} is a safe envelope
    return _energy_integral(
        lambda x: spectral_integrand(unit, x), unit.gamma, c.a, cfg, 1.5
    )


def plate_energy(
    c: CombCouplings, theta: float, cfg: Optional[QuadratureConfig] = None
) -> EnergyResult:
    """Vacuum energy (1/2pi) int_0^oo dk F(k, theta) at fixed Bloch phase.

    For the free comb this is the quasi-periodic two-plate energy with
    closed form plate_energy_closed; averaging over theta with weight
    dtheta/(2 pi) recovers comb_energy.  Even in theta.
    """
    cfg = cfg or QuadratureConfig()
    _require_supported(c)
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    unit = CombCouplings(w0=c.w0 * c.a, w1=c.w1, a=1.0)
    # F decays only like x e^{-x} (the phase term keeps one e^{-x}): softer rate
    return _energy_integral(
        lambda x: theta_integrand(unit, x, theta) / _TWO_PI, unit.gamma, c.a, cfg, 0.75
    )


def plate_energy_closed(theta: float, a: float) -> float:
    """Closed form (1/2a)(|theta| - theta^2/(2 pi) - pi/3) of the free-comb
    plate energy at quasi-periodic phase theta in [-pi, pi]."""
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    t = abs(theta)
    return (t - t * t / _TWO_PI - math.pi / 3.0) / (2.0 * a)


def plate_average_closed(a: float) -> float:
    """Phase average int_{-pi}^{pi} dtheta/(2 pi) of plate_energy_closed.

    Exactly zero: the average of (|theta| - theta^2/2pi - pi/3) picks up
    pi/2 - pi/6 - pi/3, and the rational coefficient sum is carried out
    exactly so the cancellation is not left to floating point.
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    coeff = Fraction(1, 2) - Fraction(1, 6) - Fraction(1, 3)
    return float(coeff) * math.pi / (2.0 * a)


def dirichlet_limit_integrand(k: float, a: float) -> float:
    """Strong-coupling (gamma -> oo) limit of I(k): -ka e^{-ka} csch(ka)/(2 pi).

    Integrates to -pi/(24 a), the two-Dirichlet-plate energy.  k = 0
    returns the limit -1/(2 pi).
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if k < 0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    x = k * a
    if x == 0.0:
        return -1.0 / _TWO_PI
    eps = math.exp(-2.0 * x)
    return -(x / _TWO_PI) * 2.0 * eps / -math.expm1(-2.0 * x)


def mixed_limit_integrand(k: float, a: float) -> float:
    """Omega = gamma = 0 limit of I(k): -ka (tanh(ka) - 1)/(2 pi) >= 0.

    Integrates to +pi/(48 a).  Evaluated as ka e^{-2ka}-over-(1+e^{-2ka})
    so the large-ka cancellation 1 - tanh is analytic, not numeric.
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if k < 0:
        raise ValueError(f"momentum must be >= 0, got {k}")
    x = k * a
    eps = math.exp(-2.0 * x)
    return (x / _TWO_PI) * 2.0 * eps / (1.0 + eps)


def small_coupling_ratio(
    w0: float, a: float, cfg: Optional[QuadratureConfig] = None
) -> float:
    """comb_energy(pure-delta comb) / (w0 ln w0) for 0 < w0 < 1.

    The pure-delta comb (w1 = 0, i.e. Omega = -1, gamma = w0) has energy
    ~ w0 ln(w0) as w0 -> 0 -- not analytic at the free point, so the ratio
    tends to a finite constant instead of the energy having a power series.
    """
    if not 0.0 < w0 < 1.0:
        raise ValueError(f"w0 must lie in (0, 1) for the log ratio, got {w0}")
    c = CombCouplings(w0=w0, w1=0.0, a=a)
    return comb_energy(c, cfg).value / (w0 * math.log(w0))
