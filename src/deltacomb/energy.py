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
need a separate treatment), and B^2 > C^2 then holds for every x > 0.
Only g <= 1e150 is supported as well, since below it no term overflows at
ordinary x.  Both integrands raise OutsideValidityDomainError outside these
bounds.  A denominator that is negative or NaN raises
ValidityViolationError as a bug sentinel; nothing is counted or stored
between calls.

Numerical strategy
------------------
F and f are exponentially small differences of O(x) quantities once
x >> 1, so a single formula cannot be evaluated accurately everywhere:

* x <= 1/2: the written formulas divided through by x (by x^2 for F), with
  the denominators regrouped into sums of non-negative terms, e.g.
  (B + C cos theta)/x = 4 sinh^2(x/2) + g sinh(x)/x + 2 (1 + Omega cos
  theta), and 1 + Omega cos theta itself expanded about the nearer of
  theta = 0, pi so nothing cancels.  A scaled denominator underflows to 0
  only at the free corner g = 0, |Omega| = 1 (resp. 1 + Omega cos theta
  = 0), whose exact values f = 0 and F = x - 2 are returned there.
  The numerator of f still cancels at Omega = -1 for small g, the more
  so the larger x is (f comes out 2e-3 relative off at g = 3e-14, x =
  0.28, and with the wrong sign at g = 5.2e-12, x = 4.75), so this form
  stops at x = 1/2.

* x > 1/2: rearranged forms in which the subtraction of the large terms
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
  comparison with high-precision evaluation) from x = 1/2 up; below it the
  1 - eps in R - S eps = 2x (1 - eps) + g (1 + eps) cancels.  Every term
  of f carries g^2, delta or D, so f keeps its relative accuracy near the free
  corner, where it is O(g^2) or O(delta), and is exactly 0 there.  Every
  term carries e^{-x} (e^{-2x} for f), so once that factor underflows
  (x ~ 745, resp. 372) 0.0 is returned, the value to double precision;
  below that no product overflows up to g = 1e150.

Every energy integral (comb and plate) is (1/a) int_0^oo dx I(x/a) (resp.
F(x/a, theta)/2pi) at the caller's couplings.  Its only controls are two
floats, abs_tol and rel_tol: the reported abs_err is at most max(abs_tol,
rel_tol |E|).  The adaptive run stops at X = 5 = 2 x0 in x (x0 = 2.5, see
below), K = X/a in k.  Past X, f decays like e^{-2x} and F like e^{-x}, and
one Gauss-Laguerre rule on the integrand itself takes the tail: with t =
j (x - X), j = 2 for f and 1 for F,

    int_X^oo f dx = (1/j) int_0^oo e^{-t} [f(X + t/j) e^t] dt,

where the bracket is a slowly varying function of x (its leading term
rational in x, its corrections carrying e^{-t}).  The rule costs 12
evaluations of f and 28 of F, through the same integrands as the run.  Its
error is measured, not derived: against 25-digit Gauss-Legendre mpmath on
seeded points over the whole domain (tools/tail_rule_error.py), and
tail_bound reports a fixed share of the rule's sum |w e^t f|, at least
twice the worst error seen; it is exactly 0 at the free corner, where f
is.  A momentum (X + t/j)/a of the rule that overflows is a domain error.

Both integrands end in the subtracted term -g/(g + 2x) (over 2pi for f),
which holds almost all of a small-g energy in a layer g/2 wide at x = 0:
the pure-delta comb's (g/8pi)(ln g - 1).  Its integral is elementary, so
below the break x0 = 2.5 the quadrature integrates the integrand with that
term added back, and the term's integral over [0, x0], -(g/4pi) ln(1 + 2
x0/g), is added exactly.  What is left has one thin layer at most, sqrt(g
+ 2 delta) wide for f and w = sqrt(g + 2 (1 + Omega cos theta)) wide for
F, present only near the free corner or the marginal phase.

Both layers have a closed form, and one rule serves them (see
_energy_integral, which builds the one integrand): where the layer is
thinner than the bulk scale 0.4, the run integrates the integrand less the
layer's shape below x0 and adds the shape's integral over [0, x0] exactly.
The comb's layer is the paper's non-analytic part.  With s = g + delta and
r = sqrt(x^2 + s), what is left of 2 pi f below x0 is phi(x; s) = x -
x^2/r = x s/(r (r + x)) up to O(s x) (see _comb_layer_mass), and

    int_0^x0 phi dx = (s/2) [asinh(x0/sqrt s) - x0/(x0 + sqrt(x0^2 + s))],

which carries the energy's -(s ln s)/8pi; the comb subtracts phi where
sqrt s < 0.4.  A plate's layer is the step psi(x) = -2x^2/(x^2 + w^2) from
0 to -2: what is left of F below x0 is x + psi up to O(x^2 + g) (see
_plate_layer_mass), and

    int_0^x0 psi dx = -2 (x0 - w atan(x0/w));

the plate subtracts psi where w < 0.4.  The comb is the Bloch-phase
average of its plates, the paper's continuous sum of fixed-phase zeta
functions, and so are the layers: the theta-average of w/2, the only part
of -2 (x0 - w atan(x0/w)) odd in w, carries the comb's -(s ln s)/8pi.

Each integral is one adaptive Gauss-Kronrod run over [0, X], seeded with
breakpoints at that layer's own scale, w 10^j for a layer w wide (see
_graded_breakpoints), and with the break x0 = X/2.
A layer thinner than the bulk scale 0.4 gets a ladder from j = -1 up to
0.4, a wider one the rung j = 0 alone, and either keeps a rung j <= 2 up to
0.7 x0 = 1.75.  Without a rung at w, a layer 0.4 to x0 wide fails the first
panel of [0, x0] and costs a bisection.  Bisection from [0, X] reaches x0
anyway, so seeding it keeps the panels bisection would reach and only skips
the parent panel it would compute and throw away.
The ladder's lowest rungs are dropped while the derived bound on what the
first panel may miss stays under a tenth of the smaller of abs_tol a and
rel_tol times the size of the closed forms' sum (never under eps abs_tol
a, or 2^-1074), and that bound is added to abs_err.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import OutsideValidityDomainError, ValidityViolationError
from .quadrature import _EPS, _SUBNORMAL, integrate_finite
from .scattering import CombCouplings, one_plus_omega_cos

__all__ = [
    "EnergyResult",
    "theta_integrand",
    "spectral_integrand",
    "comb_energy",
    "plate_energy",
]

_TWO_PI = 2.0 * math.pi

# crossover between the literal and the exponentially-rearranged forms; the
# module docstring says why it sits at 1/2
_REARRANGED_ABOVE = 0.5


def _violation(quantity: float, context: str) -> None:
    """Raise the positivity sentinel for a denominator that is negative or
    NaN, which supported input cannot produce."""
    raise ValidityViolationError(
        f"positivity violated: {context} = {quantity!r}; this cannot "
        "happen for gamma >= 0 and |Omega| <= 1 and indicates a bug"
    )


# in the x > 1/2 forms, F's 2x (4x^2 - g^2 - 2g) overflows before it meets
# its e^{-2x} from about g = 3.5e152 on (at x near 745, where e^{-x} is still
# nonzero), and f's 4 g^2 e^{-2x} from about g = 1.1e154 on; g = gamma a
# stops below both
_MAX_GAMMA_A = 1e150


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
    """Energy value with its quadrature error and truncation-tail allowance.

    value includes the tail beyond truncation_k, taken by a fixed
    Gauss-Laguerre rule; abs_err is the adaptive run's own error, and
    tail_bound the rule's error allowance, measured against mpmath.
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
    - gamma/(gamma+2k)], evaluated in x = k a and g = gamma a by the
    literal form up to x = 1/2 and the rearranged one above, for finite k >= 0
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
        d = 4.0 * ((1.0 - om) * (1.0 + om)) + gs * (4.0 * ch + gs)  # D/x^2
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


# below x0 the energies add their subtracted term back (see the module
# docstring); the cutoff X = 2 x0 lies above it, and it is the one seed
_LAYER_BREAK = 2.5
# the bulk scale: the ladder's rungs below it grade a thin layer, and only
# there may its floor drop them (the layer masses are derived below it)
_BULK = 0.4
# rungs stop below 0.7 x0: a layer wider than that mostly lets [0, x0]
# pass in one panel, and a rung there would add one
_RUNG_CAP = 0.7 * _LAYER_BREAK


def _graded_breakpoints(width: float, budget: float, mass) -> tuple[list[float], float]:
    """Interior breakpoints for a layer of the given width at x = 0, and the
    layer mass that the first panel may miss.

    A layer far below the first quadrature nodes of [0, X] can be stepped
    over by the adaptive splitter, which then converges without ever
    sampling it (a w0 = 1e-6 comb once lost its entire -w0 ln w0 signal
    that way), and one that reaches them fails the first panel of [0, x0].
    So the rungs sit at the layer's own scale, w 10^j: from j = -1 for a
    layer thinner than _BULK, whose ladder forces panels at every relevant
    magnitude, and from j = 0 for a wider one.  Every rung below _BULK is
    kept, and so is one with j <= 2 below _RUNG_CAP = 0.7 x0; a layer
    _RUNG_CAP or wider gets none.

    The ladder has a floor: its lowest rungs are dropped while mass(b), a
    bound on what the first panel [0, b] may miss, stays under budget.  It
    acts only below _BULK, and mass is called only there.  The bound is
    returned with the breakpoints, 0.0 when no rung was dropped, for the
    caller to add to the error it reports.
    """
    breaks, dropped = [], 0.0
    if not 0.0 < width < _RUNG_CAP:
        return breaks, dropped
    b, j = (0.1 * width, -1) if width < _BULK else (width, 0)
    while b < _BULK:
        m = mass(b)
        if breaks and m < budget:
            breaks, dropped = [b], m
        else:
            breaks.append(b)
        b, j = 10.0 * b, j + 1
    if j <= 2 and b < _RUNG_CAP:
        breaks.append(b)
    return breaks, dropped


def _comb_layer_mass(s: float):
    """Bound on what one panel [0, b], b < 0.4, may miss of the comb's
    remainder f_s - phi/2pi at s = g + delta, sqrt(s) < 0.4 (see
    comb_energy), as a function of b: s b^2/2pi.  It is derived only below
    0.4, and the ladder consults it only there (_BULK): a rung at or above
    0.4 is always kept.

    With sigma = sinh(x)/x, eta = (sinh(x/2)/(x/2))^2, v = 1 - |Omega| (so
    delta = v (2 - v)) and r = sqrt(x^2 + s), the small-x form reads 2 pi f_s
    = x d/(rho (rho + 2 sinh x)) - g (cosh x - sigma)/rho, where d = D/x^2 =
    4s + 4g (sigma cosh x - 1) + g^2 sigma^2 and rho^2 = b_- b_+ with b_- =
    (B - |C|)/x = r^2 + x^2 (eta - 1) + g (sigma - 1) + v^2 and b_+ = (B +
    |C|)/x = 4 + 2 (cosh x - 1) + g sigma - 2v.  The ladder runs only where
    g + 2 delta < 0.16, so v < 0.041, v <= 0.52 s and v^2 <= 0.27 s^2.
    For x <= 0.4: d/4s - 1 is in [0, 0.69 x^2 + 0.27 g], b_-/r^2 - 1 in [0,
    0.17 x^2 + 0.27 s], b_+/4 - 1 in [-0.26 s, 0.26 (x^2 + s)] and sigma in
    [1, 1.027].  With rho = 2 r p, the first term is phi (d/4s)(r + x)/(p (r
    p + x sigma)) = phi (1 + e), |e| <= 0.75 (x^2 + s), and the second lies
    in [0, 0.18 g x].  As phi (x^2 + s) <= x s, |2 pi f_s - phi| <= 0.93 s x
    (the seeded supremum is s x/6).  A Kronrod panel integrates x exactly
    with positive weights, so its estimate Q and the integral I each have
    |.| <= 0.93 s b^2/(2 * 2pi), and |Q - I| <= s b^2/2pi.
    """
    return lambda b: s * (b * b) / _TWO_PI


def _plate_layer_mass(g: float, w: float):
    """Bound on what one panel [0, b], b < 0.4, may miss of a plate's
    remainder (F_s - psi)/2pi at w = sqrt(g + 2q), q = 1 + Omega cos theta
    (see plate_energy), as a function of b: the smaller of 0.68 (b^2/3 + g)
    b/2pi and 0.7 (w^2 + g + 1e-26 b^2) b/2pi.  Like _comb_layer_mass it is
    derived only below 0.4, where the ladder consults it.

    With sigma = sinh(x)/x and eta = (sinh(x/2)/(x/2))^2, the small-x form
    reads F_s = x + N/D with N = -2 x^2 sigma - g (cosh x - sigma) and D =
    x^2 eta + g sigma + 2q = (x^2 + w^2)(1 + e), where e = [x^2 (eta - 1) +
    g (sigma - 1)]/(x^2 + w^2) >= 0.  The series of eta - 1, sigma - 1,
    sigma - eta and cosh x - sigma have non-negative coefficients, so over
    x^2 they grow with x: for x <= 0.4 they are at most 0.0838, 0.1681,
    0.0843 and 0.3387 times x^2, and termwise sigma - 1 <= 2 (sigma - eta).
    Let u = x^2/(x^2 + w^2), and note 2q <= w^2 and g <= w^2.

    First, F_s - psi - x = T1 + T2 with T2 = -g (cosh x - sigma)/D, |T2| <=
    0.339 g u, and T1 = -2u [x^2 (sigma - eta) + 2q (sigma - 1)]/((x^2 +
    w^2)(1 + e)), |T1| <= 2u (sigma - eta)(u + 2 (1 - u)) <= 0.169 x^2.  So
    |F_s - psi - x| <= 0.34 (x^2 + g) (the seeded supremum is (x^2 + g)/6).

    Second, at w = g = 0 the remainder is e0 = 2 - x coth(x/2), and F_s -
    psi - x - e0 = -g (cosh x - sigma)/D + 2 (sigma/eta) g (sigma - 1)/D +
    2 (1 - u) [(sigma/eta)/(1 + e) - 1].  The first two terms have opposite
    signs and are at most 0.339 g and 2 (1.0134)(0.1681) g = 0.341 g.  As
    0 <= sigma/eta - 1 = (x/2) coth(x/2) - 1 <= x^2/12, e <= (0.0838 x^2 +
    0.1681 g) u and (1 - u) x^2 = u w^2, the last is at most 0.168 w^2 +
    0.085 g.  With g <= w^2, |F_s - psi - x - e0| <= 0.168 w^2 + 0.426 g <=
    0.35 (w^2 + g) (the seeded supremum is (w^2 + g)/24).  The Taylor
    series of e0 = 2 - 2y coth y, y = x/2, has coefficients 4 zeta(2n)/pi^2n
    in magnitude, so past its degree-22 terms e0 is at most 4.02
    (x/2pi)^24 off it.

    A Kronrod panel has positive weights summing to b and integrates x, x^2
    and any polynomial of degree 22 exactly.  So its estimate Q and the
    integral I each have |.| <= 0.34 (b^3/3 + g b)/2pi by the first bound,
    and by the second |Q - I| <= [0.7 (w^2 + g) b + 8.1 b (b/2pi)^24]/2pi,
    under 0.7 (w^2 + g + 1e-26 b^2) b/2pi for b < 0.4.  The second bound
    lets the floor drop the rungs of a step far thinner than the tolerance.
    """
    return lambda b: min(0.68 * (b * b / 3.0 + g), 0.7 * (w * w + g + 1e-26 * (b * b))) * b / _TWO_PI


# the adaptive run stops at x = X = 5 = 2 x0 (k = X/a); past it one
# Gauss-Laguerre rule on the integrand itself takes the tail (see _tail_integral)
_TAIL_FROM = 5.0
# each energy's tail as (j, rule, fraction): t = j (x - X), the rule's (node t,
# weight w times e^t) pairs, int_0^oo q(t) dt ~ sum w e^t q(t) (Abramowitz &
# Stegun 25.4.45-46), each the 60-digit mpmath value rounded once, and the
# rule's error allowance as a share of sum |w e^t q|.  The comb's f decays
# like e^{-2x} and takes 12 nodes; a plate's F like e^{-x}, whose t puts the
# pole of its 1/(2x + g) terms nearer the nodes, and takes 28.  Against
# mpmath on 1,000 seeded points each (tools/tail_rule_error.py) the worst
# error was 5.9e-13 of that sum for the comb, where its leading term nearly
# cancels, and 2.3e-15 for a plate; each fraction is over twice that
_COMB_TAIL = (2, (
    (0.11572211735802068, 0.2972096360444108),
    (0.6117574845151307, 0.6964629804305972),
    (1.5126102697764188, 1.1077813946157522),
    (2.8337513377435073, 1.5384642390428291),
    (4.5992276394183484, 1.9983276062742428),
    (6.844525453115177, 2.5007457691008668),
    (9.621316842456867, 3.0653215182823863),
    (13.006054993306348, 3.7232891107827717),
    (17.116855187462257, 4.529814029981735),
    (22.151090379397004, 5.597258461835321),
    (28.487967250984, 7.212995460925877),
    (37.09912104446692, 10.543837461910082),
), 1.5e-12)
_PLATE_TAIL = (1, (
    (0.050734624849873886, 0.13022074926060362),
    (0.26748726864074107, 0.30351398729912993),
    (0.6581366283547915, 0.4779926108992999),
    (1.2239718083849078, 0.6539725970626479),
    (1.9667676124737776, 0.8320114557082765),
    (2.8888833260303217, 1.0127178127378054),
    (3.9933116592501143, 1.1967515604810923),
    (5.283736062843443, 1.3848368639207318),
    (6.7646034042435055, 1.5777796557871289),
    (8.441216328271324, 1.7764896694435897),
    (10.31985046299326, 1.9820083925610064),
    (12.407903414460671, 2.1955451299309883),
    (14.71408516413575, 2.4185243902837925),
    (17.248663415608057, 2.6526493611555093),
    (20.023783329951712, 2.899988685994909),
    (23.053890135030297, 3.163097755912598),
    (26.35629737440132, 3.4451924655619814),
    (29.95196683359618, 3.7504051524070983),
    (33.86660551658446, 4.0841738743602125),
    (38.13225441019465, 4.453857164330028),
    (42.78967237077258, 4.869749397765457),
    (47.89207163362274, 5.346852052184398),
    (53.5112979596643, 5.908181954632223),
    (59.74879608464124, 6.591519030727657),
    (66.75697728390647, 7.464901246815901),
    (74.78677815233917, 8.668786010105753),
    (84.31783710722705, 10.56614753427921),
    (96.58242062752731, 14.64469151725447),
), 6e-15)


def _tail_integral(f, c: CombCouplings, tail) -> tuple[float, float]:
    """(int_X^oo f(c, x/a) dx, its allowance) in x units, X = _TAIL_FROM, for
    tail = (j, rule, fraction): with t = j (x - X), (1/j) sum w e^t f(c, (X +
    t/j)/a) over the rule, and fraction times (1/j) sum |w e^t f|, which is
    0.0 where f vanishes at every node.  The last node's momentum is the
    largest an energy evaluates f at: where it overflows, a domain error
    naming a is raised before any evaluation."""
    j, rule, fraction = tail
    X, a = _TAIL_FROM, c.a
    x_last = X + rule[-1][0] / j
    if x_last / a == math.inf:
        raise OutsideValidityDomainError(f"the tail's last momentum {x_last:.4g}/a overflows at a = {a!r}")
    total = total_abs = 0.0
    for t, we in rule:
        term = we * f(c, (X + t / j) / a)
        total += term
        total_abs += abs(term)
    return total / j, fraction * (total_abs / j)


def _energy_integral(
    f, c: CombCouplings, abs_tol: float, rel_tol: float, tail, width: float = 0.0, thin=None,
) -> EnergyResult:
    """int_0^oo dk f(c, k) = (1/a) int_0^oo dx f(c, x/a) for an integrand f
    at the couplings c (spectral_integrand, say), in x = k a and g = gamma a.

    Integrates over [0, X], X = _TAIL_FROM = 2 x0, x0 = _LAYER_BREAK, in one
    adaptive run seeded with the break x0, at abs_tol * a (both tolerances
    must be positive, and abs_tol * a must not underflow to 0, else
    ValueError) so that abs_tol holds in energy units.  The tail past X is
    taken by the rule tail = (j, rule, fraction) on f itself (see
    _tail_integral), before the run: its value is added to the value, and
    its allowance, measured against mpmath, is reported as tail_bound, not
    in abs_err.  Every momentum f is evaluated at must be finite, the tail's
    last node (X + t/j)/a the largest, else a domain error naming a (raised
    by _tail_integral before any evaluation).

    f carries the subtracted term -(1/2pi) g/(g + 2x).  Below x0 the run
    integrates f with that term added back, less the shape of a thin layer
    where there is one, and adds the integrals of both over [0, x0] exactly,
    as constants inside its tolerance test with the tail's value:
    -(g/4pi) ln(1 + 2 x0/g) for the term, and for the layer the second of
    thin = (shape, int_0^x0 shape dx, mass), whose shape is a function of x.
    abs_err covers the rounding of these constants: 8 eps of each (a few
    roundings of the logs, quotients and products), or 2 ulps of 0.0 where
    the products and their sum land among the subnormals.

    What layer is left below x0 is width wide (0 for none), and rungs at its
    own scale, up to 0.7 x0, grade on it below the seed x0 (see
    _graded_breakpoints), with mass(b) bounding what a panel [0, b], b <
    0.4, may miss; a layer under 0.4 wide comes with its thin triple.  The
    floor drops only rungs below 0.4 whose mass is under a tenth of the
    smaller of abs_tol a and rel_tol times the constants' sum, which is set
    before any evaluation and follows the size of the energy, and never
    under eps abs_tol a, or 2^-1074 where that underflows: the rounding
    that each panel of nonzero values carries anyway (see
    quadrature._SUBNORMAL).  The dropped mass is added to abs_err, in the
    run's tolerance test, so abs_err <= max(abs_tol, rel_tol |E|) still
    holds.
    """
    x0, X, a = _LAYER_BREAK, _TAIL_FROM, c.a
    g = c.gamma * a
    if not (abs_tol > 0 and rel_tol > 0):
        raise ValueError("tolerances must be strictly positive")
    tol = abs_tol * a
    if not tol > 0.0:
        raise ValueError(f"abs_tol a = {tol!r} underflows at abs_tol = {abs_tol!r}, a = {a!r}")
    tail_value, bound = _tail_integral(f, c, tail)
    sub = 0.0
    if g > 0.0:
        # ln(1 + 2 x0/g): 2 x0/g overflows for g below ~1e-308, and the
        # difference of logs rounds to 0 for g above ~1e16; g times the
        # quotient keeps the bits of a subnormal g
        L = math.log1p(2.0 * x0 / g) if g >= 1.0 else math.log(g + 2.0 * x0) - math.log(g)
        sub = -g * (L / (2.0 * _TWO_PI))
    shape, layer, mass = thin or (None, 0.0, None)
    shift = sub + layer + tail_value
    budget = max(_EPS * tol, _SUBNORMAL, 0.1 * min(tol, rel_tol * abs(shift)))
    breaks, dropped = _graded_breakpoints(width, budget, mass)
    # bisection of [0, X] reaches x0 on its way down anyway, so seeding it
    # skips only the parent panel it would compute and discard
    breaks.append(x0)
    rounding = 0.0
    if sub or layer:
        rounding = max(8.0 * _EPS * (abs(sub) + abs(layer)), 2.0 * _SUBNORMAL)

    def integrand(x: float) -> float:
        if x < x0:
            # g/((g + 2x) 2pi) with g alone over a normal denominator: where
            # g is subnormal it rounds once (see quadrature._SUBNORMAL)
            return f(c, x / a) + g / ((g + 2.0 * x) * _TWO_PI) - (shape(x) if shape else 0.0)
        return f(c, x / a)

    value, err = integrate_finite(
        integrand, 0.0, X, tol, rel_tol, breaks, shift=shift, shift_err=dropped + rounding,
    )
    return EnergyResult(value=value / a, abs_err=err / a, truncation_k=X / a, tail_bound=bound / a)


def comb_energy(c: CombCouplings, abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> EnergyResult:
    """Vacuum energy per unit cell, E = int_0^oo dk I(k), with abs_err at
    most max(abs_tol, rel_tol |E|).

    Integrates f(x) = I(x/a) over [0, X] in x = k a, i.e. up to K = X/a
    (X as in _energy_integral), and takes the tail past X by the 12-point
    rule of _COMB_TAIL, with its allowance as tail_bound.

    Below x0 = 2.5 what remains of f after its subtracted term (see
    _energy_integral), f_s, has one layer, the paper's non-analytic part:
    with s = g + delta, delta = 1 - Omega^2 and r = sqrt(x^2 + s), 2 pi f_s
    ~ phi = x - x^2/r = x s/(r (r + x)) for small x, g and delta (D/x^2 ->
    4s, root -> 2x r in the small-x form).  Where that layer is thin, 0 <
    sqrt s < 0.4, the run integrates f_s - phi/2pi, whose layer holds O(s^2
    ln s), and adds int_0^x0 phi/2pi = (s/2)[asinh(x0/sqrt s) - x0/(x0 +
    sqrt(x0^2 + s))]/2pi, which carries the -(s ln s)/8pi of the energy.  A
    thicker comb integrates f_s itself.  The ladder grades on sqrt(g + 2
    delta).
    """
    g = _require_supported(c)
    om = c.omega
    delta = (1.0 - om) * (1.0 + om)
    s = g + delta
    root = math.sqrt(s)
    thin = None
    if 0.0 < root < _BULK:
        x0 = _LAYER_BREAK
        bracket = math.asinh(x0 / root) - x0 / (x0 + math.sqrt(x0 * x0 + s))

        def phi(x: float) -> float:
            # phi/2pi = x s/(r (r + x) 2pi) with s alone over a normal
            # denominator: where s is subnormal it rounds once
            r = math.sqrt(x * x + s)
            return s / (r * (r / x + 1.0) * _TWO_PI)

        thin = (phi, s * (bracket / (2.0 * _TWO_PI)), _comb_layer_mass(s))  # (s/2) bracket/2pi
    return _energy_integral(
        spectral_integrand, c, abs_tol, rel_tol, _COMB_TAIL, math.sqrt(g + 2.0 * delta), thin,
    )


def plate_energy(
    c: CombCouplings, theta: float, abs_tol: float = 1e-10, rel_tol: float = 1e-8
) -> EnergyResult:
    """Vacuum energy (1/2pi) int_0^oo dk F(k, theta) at fixed Bloch phase.

    For the free comb this is the quasi-periodic two-plate energy
    (1/2a)(|theta| - theta^2/(2 pi) - pi/3); averaging over theta with weight
    dtheta/(2 pi) recovers comb_energy.  Even in theta.

    Below x0 = 2.5 what remains of F after its subtracted term, F_s, is x
    plus the step psi = -2x^2/(x^2 + w^2) from 0 to -2, w^2 = g + 2 (1 +
    Omega cos theta), up to O(x^2 + g) (see _plate_layer_mass).  Where that
    layer is thin, w < 0.4, the run integrates (F_s - psi)/2pi and adds
    int_0^x0 psi/2pi = -2 (x0 - w atan(x0/w))/2pi.

    Past X = 5 (see _energy_integral) the 28-point rule of _PLATE_TAIL
    takes the tail, with its allowance as tail_bound.
    """
    g = _require_supported(c)
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    w = math.sqrt(g + 2.0 * one_plus_omega_cos(c.omega, theta))
    thin = None
    if w < _BULK:
        # psi/2pi = -2/((1 + (w/x)^2) 2pi), which stays finite where x^2 and
        # w^2 underflow; atan2 gives w atan(x0/w) = 0 at w = 0
        thin = (lambda x: -2.0 / ((1.0 + (w / x) * (w / x)) * _TWO_PI),
                -2.0 * (_LAYER_BREAK - w * math.atan2(_LAYER_BREAK, w)) / _TWO_PI,
                _plate_layer_mass(g, w))
    return _energy_integral(
        lambda c, k: theta_integrand(c, k, theta) / _TWO_PI, c, abs_tol, rel_tol, _PLATE_TAIL, w, thin,
    )
