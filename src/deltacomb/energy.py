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
need a separate treatment), and B^2 > C^2 then holds for every x > 0.  So
is only g <= 1e150, below which no term overflows at ordinary x; both
integrands raise OutsideValidityDomainError outside these bounds.  A
denominator that is negative or NaN raises ValidityViolationError as a bug
sentinel; nothing is counted or stored between calls.

Numerical strategy
------------------
F and f are exponentially small differences of O(x) quantities once
x >> 1, so a single formula cannot be evaluated accurately everywhere:

* x <= 5: the written formulas divided through by x (by x^2 for F), with
  the denominators regrouped into sums of non-negative terms, e.g.
  (B + C cos theta)/x = 4 sinh^2(x/2) + g sinh(x)/x + 2 (1 + Omega cos
  theta), and 1 + Omega cos theta itself expanded about the nearer of
  theta = 0, pi so nothing cancels.  A scaled denominator underflows to 0
  only at the free corner g = 0, |Omega| = 1 (resp. 1 + Omega cos theta
  = 0), whose exact values f = 0 and F = x - 2 are returned there.

* x > 5: rearranged forms in which the subtraction of the large terms
  has been performed analytically.  With R = 2x + g, S = 2x - g,
  delta = (1 - Omega)(1 + Omega) and eps = e^{-2x}, U = R + S eps is
  2 e^{-x} B and V = sqrt(U^2 - 16 x^2 Omega^2 eps) is 2 e^{-x} sqrt(B^2 - C^2),
  so with D = U + V - 2R

      D    = eps (16 x^2 delta - 4 g^2) / (R - S eps + V),
      2 pi f = [(x R - g) D - 2 g^2 eps] / (R V),

  and analogously for F with P = g - x R and T = 4 x Omega e^{-x}:

      F = [2x (4x^2 - g^2 - 2g) eps - P T cos theta]
          / [R (R + S eps + T cos theta)].

  No positive exponential appears, so the forms stay machine-accurate (by
  comparison with high-precision evaluation) for large x.  Every term of f
  carries g^2, delta or D, so f keeps its relative accuracy near the free
  corner, where it is O(g^2) or O(delta), and is exactly 0 there.  Every
  term carries e^{-x} (e^{-2x} for f), so once that factor underflows
  (x ~ 745, resp. 372) 0.0 is returned, the value to double precision;
  below that no product overflows up to g = 1e150.

Every energy integral (comb and plate) is (1/a) int_0^X dx I(x/a) (resp.
F(x/a, theta)/2pi) at the caller's couplings, truncated at X = 40, i.e. at
K = 40/a in momentum, beyond which |f| < e^{-80}-ish; a spacing so small
that K overflows is a domain error.  The discarded tail is reported as an
explicit bound obtained from the integrand's own magnitude near X.

Each integral is one adaptive Gauss-Kronrod run over [0, X], seeded with a
graded ladder of breakpoints below the small-x layers (see
_graded_breakpoints) and, above the ladder, with the dyadic points X/2,
X/4, ... down to 2.  Bisection from [0, X] reaches those points anyway, so
seeding them keeps the panels bisection would reach and only skips the
parent panels it would compute and throw away.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import OutsideValidityDomainError, ValidityViolationError
from .quadrature import QuadratureConfig, integrate_finite
from .scattering import CombCouplings, one_plus_omega_cos

__all__ = [
    "EnergyResult",
    "theta_integrand",
    "spectral_integrand",
    "comb_energy",
    "plate_energy",
]

_TWO_PI = 2.0 * math.pi

# crossover between the literal and the exponentially-rearranged forms;
# both are good to ~1e-13 relative at x = 5, so the seam is invisible
_REARRANGED_ABOVE = 5.0


def _violation(quantity: float, context: str) -> None:
    """Raise the positivity sentinel for a denominator that is negative or
    NaN, which supported input cannot produce."""
    raise ValidityViolationError(
        f"positivity violated: {context} = {quantity!r}; this cannot "
        "happen for gamma >= 0 and |Omega| <= 1 and indicates a bug"
    )


# the integrands' g^2 sinh^2 x and (2x + g)^2 terms overflow for some
# x <= 5 from about g = 1e152 on; g = gamma a stops below that.  The limit
# lets g through up to 4 ulps above 1e150: from_reduced's round trip
# through w0 adds up to 3 ulps to a gamma given at 1e150
_MAX_GAMMA_A = 1e150 + 4.0 * math.ulp(1e150)


def _require_supported(c: CombCouplings) -> float:
    """g = gamma a; raises OutsideValidityDomainError unless gamma >= 0 and g
    is at most _MAX_GAMMA_A, naming c's values."""
    g = c.gamma * c.a
    if c.gamma < 0:
        raise OutsideValidityDomainError(
            f"gamma = {c.gamma} < 0 (attractive comb): bound states appear "
            "and the subtracted vacuum energy is not defined here"
        )
    if not g <= _MAX_GAMMA_A:
        raise OutsideValidityDomainError(
            f"gamma a exceeds {_MAX_GAMMA_A:g} at (w0, w1, a) = ({c.w0!r}, "
            f"{c.w1!r}, {c.a!r}), gamma = {c.gamma!r}, omega = {c.omega!r}: "
            "the energy integrands leave the double-precision range there"
        )
    return g


class EnergyResult(Record):
    """Energy value with its quadrature error and truncation-tail bound.

    value excludes the (bounded) tail beyond truncation_k.
    """

    __slots__ = ("value", "abs_err", "truncation_k", "tail_bound")

    def __init__(self, value: float, abs_err: float, truncation_k: float, tail_bound: float):
        self._set(value, abs_err, truncation_k, tail_bound)


def theta_integrand(c: CombCouplings, k: float, theta: float) -> float:
    """Subtracted vacuum-energy integrand F(k, theta) at fixed Bloch phase.

    Evaluated in x = k a and g = gamma a, in which it does not depend on a.
    k = 0 returns the series limit: -1 for gamma > 0, else 0 (in the
    marginal free-type case Omega cos theta = -1 with gamma = 0 the true
    k -> 0 limit is -2 on that measure-zero phase; the generic limit is
    kept, and no quadrature ever samples the endpoint).  k must be finite
    and >= 0, and theta finite; anything else raises ValueError.
    """
    a = c.a
    g = c.gamma * a
    if not 0.0 <= g <= _MAX_GAMMA_A:
        _require_supported(c)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not 0.0 < k < math.inf:
        if k == 0.0:
            return -1.0 if g > 0 else 0.0
        raise ValueError(f"momentum must be finite and >= 0, got k = {k!r}")
    x, om = k * a, c.omega
    x2 = 2.0 * x
    if x <= _REARRANGED_ABOVE:
        # A/x^2 over (B + C cos theta)/x^2, in which no term underflows
        sh = math.sinh(x)
        sh2 = math.sinh(0.5 * x)
        shx = sh / x
        num = g * (shx - math.cosh(x)) / x - 2.0 * sh
        den = 4.0 * sh2 * (sh2 / x) + (g * shx + 2.0 * one_plus_omega_cos(om, theta)) / x
        if not den > 0.0:
            if den == 0.0:  # sinh(x/2) underflows, g = 0, 1 + Omega cos theta = 0
                return x - 2.0
            _violation(den, "(B + C cos(theta))/x^2")
        return num / den + x - g / (g + x2)
    ex = math.exp(-x)
    if ex == 0.0:  # every term carries e^{-x}
        return 0.0
    eps = math.exp(-x2)
    r, s = x2 + g, x2 - g
    p = g - x * r
    t_small = 4.0 * x * om * ex
    costh = math.cos(theta)
    num = x2 * (4.0 * x * x - g * g - 2.0 * g) * eps - p * t_small * costh
    den = r + s * eps + t_small * costh
    if not den > 0.0:
        _violation(den, "e^{-x}-scaled B + C cos(theta)")
    return num / (r * den)


def spectral_integrand(c: CombCouplings, k: float) -> float:
    """Bloch-phase-averaged integrand I(k) = (1/2pi)[A/sqrt(B^2-C^2) + ak
    - gamma/(gamma+2k)], evaluated in x = k a and g = gamma a,
    cancellation-free on both sides of the x = 5 crossover, for finite k >= 0
    (else ValueError; k = 0 gives the limit, -1/2pi for gamma > 0, else 0)."""
    a = c.a
    g = c.gamma * a
    if not 0.0 <= g <= _MAX_GAMMA_A:
        _require_supported(c)
    if not 0.0 < k < math.inf:
        if k == 0.0:
            return -1.0 / _TWO_PI if g > 0 else 0.0
        raise ValueError(f"momentum must be finite and >= 0, got k = {k!r}")
    x, om = k * a, c.omega
    x2 = 2.0 * x
    if x <= _REARRANGED_ABOVE:
        # (B -+ |C|)/x; b_minus = 0 only where its x^2-sized term
        # underflows at g = 0, |Omega| = 1, where I = 0 for every x
        sh = math.sinh(x)
        ch = math.cosh(x)
        gs = g * (sh / x)
        sh2 = math.sinh(0.5 * x)
        abs_om = abs(om)
        b_minus = 4.0 * sh2 * sh2 + gs + 2.0 * (1.0 - abs_om)
        if not b_minus > 0.0:
            if b_minus == 0.0:
                return 0.0
            _violation(b_minus, "(B - |C|)/x")
        rho = math.sqrt(b_minus) * math.sqrt(2.0 * ch + gs + 2.0 * abs_om)
        # A/root + x = head/root for head = A + x root = x D/(root + 2x sinh x)
        # + g (sinh x - x cosh x), where D = root^2 - 4x^2 sinh^2 x is a sum of
        # non-negative terms, so nothing cancels as g -> 0 at |Omega| = 1;
        # rho = root/x and D/x^2 keep every term clear of underflow
        d = 4.0 * (1.0 - om * om) + gs * (4.0 * ch + gs)  # D/x^2
        head = d / rho * x / (rho + 2.0 * sh) + (gs - g * ch) / rho  # head/root
        return (head - g / (g + x2)) / _TWO_PI
    eps = math.exp(-x2)
    if eps == 0.0:  # every term carries e^{-2x}
        return 0.0
    r = x2 + g
    se = (x2 - g) * eps
    u = r + se
    xxe = 16.0 * x * x * eps
    v2 = u * u - xxe * om * om
    if not v2 > 0.0:
        _violation(v2, "e^{-2x}-scaled B^2 - C^2")
    v = math.sqrt(v2)
    gge = g * g * eps
    # D = U + V - 2R, formed from its own delta and g^2 terms
    d = (xxe * ((1.0 - om) * (1.0 + om)) - 4.0 * gge) / (r - se + v)
    return ((x * r - g) * d - 2.0 * gge) / (r * v) / _TWO_PI


def _graded_breakpoints(
    g: float, X: float, budget: float, width: float
) -> tuple[list[float], float]:
    """Interior breakpoints for the subtracted integrand on [0, X] in x, and
    the layer mass that the first panel may miss.

    The -g/(g+2x) subtraction varies on the scale x ~ g/2; for small g
    that layer sits far below the first quadrature nodes of [0, X] and the
    adaptive splitter can converge without ever sampling it (it did: a
    w0 = 1e-6 comb lost the layer's entire -w0 ln w0 signal).  A geometric
    ladder from two decades below the layer up to the bulk scale forces
    panels at every relevant magnitude.  A plate at g = 0 has no such layer
    but still has its phase step of width w (below), and grades on w.

    The ladder has a floor: its lowest rungs are dropped while the mass
    that the first panel [0, b] may step over stays under budget.  Two
    layers can sit below b.  The subtraction's is bounded by
    (g/pi) log1p(2b/g), four times its own integral over [0, b]; that also
    covers the sqrt(g)-wide layer of the phase-averaged comb at
    |Omega| = 1.  At a fixed phase, A / (B + C cos theta) ~ -2x^2/(x^2 + w^2)
    for small x, a step from 0 to -2 across x ~ w = width, where
    w^2 = g + 2 (1 + Omega cos theta); it is bounded by
    (2w/pi) atan(b/w), twice the step's own deficit over [0, b], and the
    comb passes width 0; at g = 0 the subtraction and its term vanish.  The
    bound is returned with the breakpoints, 0.0 when no rung was dropped,
    for the caller to add to the error it reports.
    """
    breaks, mass = [], 0.0
    layer = 0.5 * g if g > 0.0 else width
    if 0.0 < layer < 0.01 * X:
        b = max(0.01 * layer, math.ulp(0.0))  # a rung of 0 would never climb
        top = min(0.01 * X, 10.0)
        while b < top:
            m = (2.0 * width / math.pi) * math.atan2(b, width)
            if g > 0.0:
                m += (g / math.pi) * math.log1p(2.0 * b / g)
            if breaks and m < budget:
                breaks, mass = [b], m
            else:
                breaks.append(b)
            b *= 10.0
    return breaks, mass


def _tail_bound(f, X: float, rate: float) -> float:
    """Bound on |int_X^oo f| for f decaying at least like e^{-rate x}.

    Fits the envelope constant from the integrand itself at X and at
    0.95 X (the second sample guards against X landing near a zero of f)
    and integrates it: M e^{-rate X} / rate with M = 2 |f| e^{+rate x}
    folded in without ever forming the huge exponential.
    """
    probe = max(abs(f(X)), abs(f(0.95 * X)) * math.exp(-0.05 * rate * X))
    return 2.0 * probe / rate


# cap on the cutoff X = truncation_k a: the integrands are exactly 0 past
# x ~ 745, where e^{-x} underflows, and their polynomial terms stay finite up
# to x ~ 1e7 at the largest g, so a larger X only adds seeds over zeros
_MAX_CUTOFF = 1e6


def _energy_integral(
    f, g: float, a: float, cfg: QuadratureConfig, rate: float, width: float = 0.0
) -> EnergyResult:
    """(1/a) int_0^oo dx f(x) for an integrand in x = k a at g = gamma a.

    Integrates over [0, X], X = 40 (truncation_k * a when configured, which
    must lie in (0, _MAX_CUTOFF]), in one adaptive run seeded with the graded
    ladder for g and, above its top rung, with the dyadic points X/2, X/4,
    ... >= 2, at abs_tol * a (which must not underflow to 0) so that
    abs_tol holds in energy units, with K = X/a finite (else a domain error
    naming a), and bounds the tail beyond X for f decaying like e^{-rate x};
    width is a fixed phase's step width (see _graded_breakpoints), 0 for the
    comb.  Layer mass left below a floored
    ladder (at most half of abs_tol * a) is added to abs_err, and both
    tolerances of the run shrink by its share, so
    abs_err <= max(abs_tol, rel_tol |E|) still holds.
    """
    X = 40.0
    if cfg.truncation_k is not None:
        X = cfg.truncation_k * a
        if not 0.0 < X <= _MAX_CUTOFF:
            raise ValueError(
                f"truncation_k a = {X!r} is outside (0, {_MAX_CUTOFF:g}] at "
                f"truncation_k = {cfg.truncation_k!r}, a = {a!r}"
            )
    tol = cfg.abs_tol * a
    if not tol > 0.0:
        raise ValueError(
            f"abs_tol a = {tol!r} underflows at abs_tol = {cfg.abs_tol!r}, "
            f"a = {a!r}"
        )
    K = X / a
    if K == math.inf:
        raise OutsideValidityDomainError(f"the momentum cutoff {X:g}/a overflows at a = {a!r}")
    breaks, mass = _graded_breakpoints(g, X, 0.5 * tol, width)
    # X/2, X/4, ... down to 2: bisection of [0, X] reaches these points on
    # its way down anyway, so seeding them skips only the parent panels it
    # would compute and discard
    top = breaks[-1] if breaks else 0.0
    seed = 0.5 * X
    dyadic = []
    while seed >= 2.0 and seed > top:
        dyadic.append(seed)
        seed *= 0.5
    breaks += reversed(dyadic)
    share = 1.0 - mass / tol
    value, err = integrate_finite(
        f,
        0.0,
        X,
        cfg._replace(abs_tol=tol * share, rel_tol=cfg.rel_tol * share),
        breaks,
    )
    return EnergyResult(
        value=value / a,
        abs_err=(err + mass) / a,
        truncation_k=K,
        tail_bound=_tail_bound(f, X, rate) / a,
    )


def comb_energy(
    c: CombCouplings, cfg: QuadratureConfig | None = None
) -> EnergyResult:
    """Vacuum energy per unit cell, E = int_0^oo dk I(k).

    Integrates f(x) = I(x/a) over [0, 40] in x = k a, i.e. up to K = 40/a
    (or the configured truncation_k), and reports the neglected tail as a
    separate bound.
    """
    cfg = cfg or QuadratureConfig()
    a, g = c.a, _require_supported(c)
    # f decays like x e^{-2x}, so e^{-1.5 x} is a safe envelope
    return _energy_integral(lambda x: spectral_integrand(c, x / a), g, a, cfg, 1.5)


def plate_energy(
    c: CombCouplings, theta: float, cfg: QuadratureConfig | None = None
) -> EnergyResult:
    """Vacuum energy (1/2pi) int_0^oo dk F(k, theta) at fixed Bloch phase.

    For the free comb this is the quasi-periodic two-plate energy
    (1/2a)(|theta| - theta^2/(2 pi) - pi/3); averaging over theta with weight
    dtheta/(2 pi) recovers comb_energy.  Even in theta.
    """
    cfg = cfg or QuadratureConfig()
    a, g = c.a, _require_supported(c)
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    width = math.sqrt(g + 2.0 * one_plus_omega_cos(c.omega, theta))
    # F decays only like x e^{-x} (the phase term keeps one e^{-x}): softer rate
    return _energy_integral(
        lambda x: theta_integrand(c, x / a, theta) / _TWO_PI, g, a, cfg, 0.75, width
    )

