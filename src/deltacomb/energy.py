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
rel_tol |E|).  The adaptive run stops at X = 10 in x, K = X/a in k (a K
that overflows is a domain error).  Past X, F is a series in e^{-x}: its
e^{-2x} term depends on the phase only through d2 = 1 - 2 Omega^2 cos^2
theta, and its e^{-x} and e^{-3x} terms are odd in Omega cos theta.  So
f, the phase average of F/2pi, leads with that e^{-2x} term at the
average of d2, delta, and one series (_tail_lead) serves both energies.
Gauss-Laguerre rules integrate its terms over [X, oo) for the value.  The
tail bound, the integral over [X, oo) of a closed-form majorant of what
they leave out, is O(e^{-4X}) and set before any evaluation.

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
_graded_breakpoints), and with the dyadic points x0, 2 x0, ... below X.
A layer thinner than the bulk scale 0.4 gets a ladder from j = -1 up to
0.4, a wider one the rung j = 0 alone, and either keeps a rung j <= 2 up to
0.7 x0 = 1.75.  Without a rung at w, a layer 0.4 to x0 wide fails the first
panel of [0, x0] and costs a bisection.  Bisection from [0, X] reaches the
dyadic points anyway, so seeding them keeps the panels bisection would
reach and only skips the parent panels it would compute and throw away.
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
    """Energy value with its quadrature error and truncation-tail bound.

    value includes the leading terms of the tail beyond truncation_k, and
    tail_bound bounds the rest.
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
# docstring); the cutoff X lies above it, so it is the lowest dyadic seed
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


# the adaptive run stops at x = X = 10 (k = X/a); past it both integrands
# are series in e^{-x}, whose leading terms are added in closed form
_TAIL_FROM = 10.0
# (node, weight) of the 8-point Gauss-Laguerre rule, int_0^oo e^{-t} q(t) dt
# ~ sum w q(t) (Abramowitz & Stegun 25.4.45, table 25.9), for the e^{-2x} and
# e^{-3x} terms
_LAGUERRE = (
    (0.170279632305101, 0.3691885893416375),
    (0.9037017767993799, 0.41878678081434295),
    (2.2510866298661307, 0.1757949866371718),
    (4.266700170287659, 0.03334349226121565),
    (7.0459054023934655, 0.0027945362352256725),
    (10.758516010180996, 9.076508773358213e-05),
    (15.740678641278004, 8.485746716272531e-07),
    (22.863131736889265, 1.0480011748715104e-09),
)
# the 12-point rule, for a plate's e^{-x} term: in t = x - X its u, v have
# their pole at t = -X - g/2, half as far from the nodes as in an e^{-2x}
# term's t = 2 (x - X); there the 8-point rule is off by up to 2.01e-13 of
# its sum of |w q| (at g = 5.0), and this one by 6.4e-16
_LAGUERRE_12 = (
    (0.11572211735802068, 0.2647313710554432),
    (0.6117574845151307, 0.37775927587313796),
    (1.5126102697764188, 0.24408201131987756),
    (2.8337513377435073, 0.09044922221168093),
    (4.5992276394183484, 0.020102381154634096),
    (6.844525453115177, 0.0026639735418653157),
    (9.621316842456867, 0.00020323159266299939),
    (13.006054993306348, 8.365055856819799e-06),
    (17.116855187462257, 1.6684938765409103e-07),
    (22.151090379397004, 1.342391030515004e-09),
    (28.487967250984, 3.0616016350350207e-12),
    (37.09912104446692, 8.148077467426241e-16),
)
# the rules' error and rounding on each leading term, as a fraction of its
# sum of |w q|, with a margin over 2: against mpmath at 40 + log10 g digits
# on 300 values of g from 1e-3 to 1e4 (and 1e10, 1e50, 1e150), at most
# 2.6e-14 for the e^{-2x} term (the comb's, at delta = 0, g = 5.7e-3; 3.0e-15
# at a plate's d2), 9.2e-15 for the e^{-3x} term and 6.4e-16 for the e^{-x}
# term
_RULE_ERR = 6e-14


def _tail_lead(g: float, cc: float, d2: float) -> tuple[float, float]:
    """(lead, _RULE_ERR sum |w q|): the leading terms of F/2pi at c = Omega
    cos theta = cc integrated over [X, oo), X = _TAIL_FROM, and the rule's
    error allowance.  A plate has d2 = 1 - 2 cc^2; the comb, their Bloch
    average, has cc = 0 and d2 = delta.

    With y = e^{-x}, R = 2x + g, u = g/R, v = x/R and s = (2x - g)/R, the
    rearranged form (module docstring) is F = (c1 y + b2 y^2)/(1 + z), z =
    a1 y + s y^2, with c1 = 4cv (x - u), b2 = 2xs - 4uv and a1 = 4cv, so

        F = c1 y + (b2 - a1 c1) y^2 + (c1 (a1^2 - s) - a1 b2) y^3 + O(y^4).

    As u + 2v = 1, b2 - a1 c1 = (x - u)(8 d2 v^2 - 2u^2) - 2u^2: the y^2 term
    depends on the phase through d2 alone, and the y and y^3 terms are odd
    in c, which averages to 0 over theta while d2 averages to delta.  In u
    and v nothing overflows up to g = 1e150.  Each term e^{-jx} q(x) of
    F/2pi is integrated as (e^{-jX}/j) int_0^oo e^{-t} q(X + t/j) dt, by the
    12-point rule for j = 1 and the 8-point rule otherwise (at c = 0 only j
    = 2).
    """
    X = _TAIL_FROM
    lead = lead_abs = 0.0
    for j in (1, 2, 3) if cc else (2,):
        total = total_abs = 0.0
        for t, w in _LAGUERRE_12 if j == 1 else _LAGUERRE:
            x = X + t / j
            r = 2.0 * x + g
            u, v = g / r, x / r
            if j == 2:
                uu = u * u
                q = (x - u) * (8.0 * d2 * (v * v) - 2.0 * uu) - 2.0 * uu
            else:  # c1 = a1 (x - u), and for j = 3 the y^3 coefficient
                a1 = 4.0 * cc * v
                q = a1 * (x - u)
                if j == 3:
                    s = (2.0 * x - g) / r
                    q = q * (a1 * a1 - s) - a1 * (2.0 * x * s - 4.0 * u * v)
            term = w * (q / _TWO_PI)
            total += term
            total_abs += abs(term)
        scale = math.exp(-j * X) / j
        lead += total * scale
        lead_abs += total_abs * scale
    return lead, _RULE_ERR * lead_abs


def _comb_tail_bound(g: float, delta: float) -> float:
    """A bound on int_X^oo |f - h| dx, X = _TAIL_FROM, for f's leading
    term h, _tail_lead's e^{-2x} term at d2 = delta.

    With R = 2x + g, u = g/R, v = x/R and eps = e^{-2x}, the rearranged form
    (module docstring) has D = eps (16 x^2 delta - 4 g^2)/(2R (1 + b)) and V
    = R (1 + al), so

        2 pi f = eps [(x - u)(8 delta v^2 - 2u^2)/((1 + al)(1 + b))
                      - 2u^2/(1 + al)],

    and 2 pi h is this at al = b = 0.  For x >= X = 10, (V/R)^2 - 1 = 2 s
    eps + s^2 eps^2 - 4 (1 - u)^2 Omega^2 eps with s = 1 - 2u lies in [-2
    eps, 2 eps + eps^2], so |al| <= 1.000001 eps, and b = (al - s eps)/2 has
    |b| <= 1.000001 eps.  As 0 < x - u <= x, v <= 1/2 and u <= g/(2X + g)
    =: m, |2 pi (f - h)| <= 1.00001 eps^2 [2x (2 delta + 2 m^2) + 2 m^2]:
    over [X, oo) that is e^{-4X} [(delta + m^2)(X + 1/4) + m^2/2], returned
    with a margin of 1.01.  It carries delta or m^2 (m <= min(1, g/2X)) in
    every term, so it vanishes at the free corner with f.
    """
    X = _TAIL_FROM
    m = g / (2.0 * X + g)
    return 1.01 * ((delta + m * m) * (X + 0.25) + 0.5 * m * m) * math.exp(-4.0 * X) / _TWO_PI


def _plate_tail_bound(g: float, cc: float) -> float:
    """A bound on int_X^oo |F/2pi - lead| dx, X = _TAIL_FROM, at c = Omega
    cos theta = cc, for _tail_lead's terms.

    In _tail_lead's notation, the rest of F is y^4 [2 c1 a1 s + b2 (a1^2 -
    s)] + y^5 [c1 s^2 + 2 b2 a1 s] + y^6 b2 s^2 - (c1 y + b2 y^2) z^3/(1 +
    z).  With p = |c|, |c1| <= 2px, |a1| <= 2p, |s| <= 1 and |b2| <= 2x +
    1/2, its y^4 part is at most (2x + 1/2)(1 + 8p^2 + 8p^4), and the others
    add under 63 y (2x + 1/2), 0.3% for x >= 10.  Over [X, oo) that is (1 +
    8p^2 + 8p^4)(X/2 + 1/4) e^{-4X}/2pi, returned with a margin of 1.01.
    Unlike the comb's, it does not vanish at the free corner.
    """
    p2 = cc * cc
    X = _TAIL_FROM
    return 1.01 * (1.0 + 8.0 * p2 * (1.0 + p2)) * (0.5 * X + 0.25) * math.exp(-4.0 * X) / _TWO_PI


def _energy_integral(
    f, c: CombCouplings, abs_tol: float, rel_tol: float, tail, width: float = 0.0, thin=None,
) -> EnergyResult:
    """int_0^oo dk f(c, k) = (1/a) int_0^oo dx f(c, x/a) for an integrand f
    at the couplings c (spectral_integrand, say), in x = k a and g = gamma a.

    Integrates over [0, X], X = _TAIL_FROM, in one adaptive run seeded with
    the dyadic points x0, 2 x0, ... below X, x0 = _LAYER_BREAK, at abs_tol
    * a (both tolerances must be positive, and abs_tol * a must not
    underflow to 0, else ValueError) so that abs_tol holds in energy units;
    K = X/a must be finite (else a domain error naming a).  The tail past X
    is tail = (lead, lead_err, bound) in x units (see _tail_lead): lead, the
    integral over [X, oo) of f's leading terms, is added to the value and
    lead_err, its error allowance, to abs_err; bound, a closed-form bound on
    what those terms leave out, is reported as tail_bound.  The tail costs
    no evaluation of f.

    f carries the subtracted term -(1/2pi) g/(g + 2x).  Below x0 the run
    integrates f with that term added back, less the shape of a thin layer
    where there is one, and adds the integrals of both over [0, x0] exactly,
    as constants inside its tolerance test with the tail's leading terms:
    -(g/4pi) ln(1 + 2 x0/g) for the term, and for the layer the second of
    thin = (shape, int_0^x0 shape dx, mass), whose shape is a function of x.
    abs_err covers the rounding of these constants: 8 eps of each (a few
    roundings of the logs, quotients and products), or 2 ulps of 0.0 where
    the products and their sum land among the subnormals.

    What layer is left below x0 is width wide (0 for none), and rungs at its
    own scale, up to 0.7 x0, grade on it below the dyadic seeds (see
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
    K = X / a
    if K == math.inf:
        raise OutsideValidityDomainError(f"the momentum cutoff {X:g}/a overflows at a = {a!r}")
    lead, lead_err, bound = tail
    sub = 0.0
    if g > 0.0:
        # ln(1 + 2 x0/g): 2 x0/g overflows for g below ~1e-308, and the
        # difference of logs rounds to 0 for g above ~1e16; g times the
        # quotient keeps the bits of a subnormal g
        L = math.log1p(2.0 * x0 / g) if g >= 1.0 else math.log(g + 2.0 * x0) - math.log(g)
        sub = -g * (L / (2.0 * _TWO_PI))
    shape, layer, mass = thin or (None, 0.0, None)
    shift = sub + layer + lead
    budget = max(_EPS * tol, _SUBNORMAL, 0.1 * min(tol, rel_tol * abs(shift)))
    breaks, dropped = _graded_breakpoints(width, budget, mass)
    # x0, 2 x0, ... below X: bisection of [0, X] reaches these points on its
    # way down anyway, so seeding them skips only the parent panels it would
    # compute and discard
    seed = x0
    while seed < X:
        breaks.append(seed)
        seed *= 2.0
    rounding = 0.0
    if sub or layer or lead_err:
        rounding = max(8.0 * _EPS * (abs(sub) + abs(layer)) + lead_err, 2.0 * _SUBNORMAL)

    def integrand(x: float) -> float:
        if x < x0:
            # g/((g + 2x) 2pi) with g alone over a normal denominator: where
            # g is subnormal it rounds once (see quadrature._SUBNORMAL)
            return f(c, x / a) + g / ((g + 2.0 * x) * _TWO_PI) - (shape(x) if shape else 0.0)
        return f(c, x / a)

    value, err = integrate_finite(
        integrand, 0.0, X, tol, rel_tol, breaks, shift=shift, shift_err=dropped + rounding,
    )
    return EnergyResult(value=value / a, abs_err=err / a, truncation_k=K, tail_bound=bound / a)


def comb_energy(c: CombCouplings, abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> EnergyResult:
    """Vacuum energy per unit cell, E = int_0^oo dk I(k), with abs_err at
    most max(abs_tol, rel_tol |E|).

    Integrates f(x) = I(x/a) over [0, X] in x = k a, i.e. up to K = X/a
    (X as in _energy_integral), and adds the tail's leading term, the Bloch
    average of its plates' (see _tail_lead), with a bound on the rest as
    tail_bound (see _comb_tail_bound).

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
    tail = (*_tail_lead(g, 0.0, delta), _comb_tail_bound(g, delta))
    return _energy_integral(
        spectral_integrand, c, abs_tol, rel_tol, tail, math.sqrt(g + 2.0 * delta), thin,
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

    Past X = 10 (see _energy_integral) the run adds the tail's e^{-x},
    e^{-2x} and e^{-3x} terms (see _tail_lead), with a bound on the rest as
    tail_bound (see _plate_tail_bound).
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
    cc = c.omega * math.cos(theta)
    tail = (*_tail_lead(g, cc, 1.0 - 2.0 * (cc * cc)), _plate_tail_bound(g, cc))
    return _energy_integral(
        lambda c, k: theta_integrand(c, k, theta) / _TWO_PI, c, abs_tol, rel_tol, tail, w, thin,
    )
