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

Every energy integral (comb and plate) is (1/a) int_0^X dx I(x/a) (resp.
F(x/a, theta)/2pi) at the caller's couplings, truncated at K = X/a.  Its
only controls are two floats, abs_tol and rel_tol: the reported abs_err
is at most max(abs_tol, rel_tol |E|).  The cutoff is a numerical detail
that this module picks from abs_tol alone, with no option to set it: X =
20 unless abs_tol a/100 is under the tail bound there, else 40; a K that
overflows is a domain error.  The tail bound is the integral over [X, oo)
of a closed-form majorant of |f| (resp. |F|/2pi) read off the rearranged forms
(see comb_energy and plate_energy), so it is set before any evaluation.

Both integrands end in the subtracted term -g/(g + 2x) (over 2pi for f),
which holds almost all of a small-g energy in a layer g/2 wide at x = 0:
the pure-delta comb's (g/8pi)(ln g - 1).  Its integral is elementary, so
below the break x0 = 2.5 the quadrature integrates the integrand with that
term added back, and the term's integral over [0, x0], -(g/4pi) ln(1 + 2
x0/g), is added exactly.  What is left has one thin layer at most, sqrt(g
+ 2 delta) wide for f and sqrt(g + 2 (1 + Omega cos theta)) wide for F,
present only near the free corner or the marginal phase.

The comb's layer is the paper's non-analytic part, and it too has a closed
form.  With s = g + delta and r = sqrt(x^2 + s), what is left of 2 pi f
below x0 is phi(x; s) = x - x^2/r = x s/(r (r + x)) up to O(s x) (see
_comb_layer_mass), and

    int_0^x0 phi dx = (s/2) [asinh(x0/sqrt s) - x0/(x0 + sqrt(x0^2 + s))],

which carries the energy's -(s ln s)/8pi.  Where the layer is thin, s <
0.16, the comb integrates f - phi/2pi below x0 (with the g/(g + 2x) term
added back) and adds this integral/2pi exactly too.

Each integral is one adaptive Gauss-Kronrod run over [0, X], seeded with a
graded ladder of breakpoints below that layer (see _graded_breakpoints)
and, above the ladder, with the dyadic points x0, 2 x0, ... below X.
Bisection from [0, X] reaches those points anyway, so seeding them keeps
the panels bisection would reach and only skips the parent panels it
would compute and throw away.
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


def _graded_breakpoints(width: float, budget: float, mass) -> tuple[list[float], float]:
    """Interior breakpoints for a layer of the given width at x = 0, and the
    layer mass that the first panel may miss.

    A layer far below the first quadrature nodes of [0, X] can be stepped
    over by the adaptive splitter, which then converges without ever
    sampling it (a w0 = 1e-6 comb once lost its entire -w0 ln w0 signal
    that way).  A geometric ladder from two decades below the layer up to
    the bulk scale, 0.4 (a hundredth of the longest cutoff, 40), forces
    panels at every relevant magnitude; a layer 0.4 or wider gets none.

    The ladder has a floor: its lowest rungs are dropped while mass(b), a
    bound on what the first panel [0, b] may miss, stays under budget.  The
    bound is returned with the breakpoints, 0.0 when no rung was dropped,
    for the caller to add to the error it reports.
    """
    breaks, dropped = [], 0.0
    if 0.0 < width < 0.4:
        b = 0.01 * width
        while b < 0.4:
            m = mass(b)
            if breaks and m < budget:
                breaks, dropped = [b], m
            else:
                breaks.append(b)
            b *= 10.0
    return breaks, dropped


def _comb_layer_mass(s: float):
    """Bound on what one panel [0, b], b < 0.4, may miss of the comb's
    remainder f_s - phi/2pi at s = g + delta < 0.16 (see comb_energy), as a
    function of b: s b^2/2pi.

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


# below x0 the energies add their subtracted term back (see the module
# docstring); every cutoff lies above it, so it is the lowest dyadic seed
_LAYER_BREAK = 2.5
# the cutoffs in x = k a, tried in order against the tail bound
_CUTOFFS = (20.0, 40.0)
# covers the majorants' dropped 1 + O(e^{-x}) factors (under 1e-8 at x >= 20)
# and the rounding of the bound itself
_TAIL_MARGIN = 1.01


def _energy_integral(
    f, g: float, a: float, abs_tol: float, rel_tol: float, tail, width: float = 0.0, mass=None,
    layer: float = 0.0,
) -> EnergyResult:
    """(1/a) int_0^oo dx f(x) for an integrand in x = k a at g = gamma a.

    Integrates over [0, X] in one adaptive run seeded with the dyadic points
    x0, 2 x0, ... below X, x0 = _LAYER_BREAK, at abs_tol * a (both
    tolerances must be positive, and abs_tol * a must not underflow to 0,
    else ValueError) so that abs_tol holds in energy units.  tail(X) is a
    closed-form bound on int_X^oo |f| for X >= 20, up to a factor 1 +
    O(e^{-X}); the bound reported is _TAIL_MARGIN tail(X).  X is the first of
    _CUTOFFS whose bound is at most abs_tol a/100, else the last one; K =
    X/a must be finite (else a domain error naming a).  No cutoff costs an
    evaluation.

    Above x0, f carries the subtracted term -(1/2pi) g/(g + 2x); below it,
    for g > 0, f has that term added back, and the run adds the term's
    integral there, -(g/4pi) ln(1 + 2 x0/g), exactly, as a constant inside
    its tolerance test.  layer is the integral over [0, x0] of anything else
    that f subtracts below x0 (the comb's phi/2pi), added the same way.
    abs_err covers the rounding of both constants: 8 eps of each (a few
    roundings of the logs, quotients and products), or 2 ulps of 0.0 where
    the products and their sum land among the subnormals.

    What layer f has left below x0 is width wide (0 for none), and a ladder
    below the dyadic seeds grades on it (see _graded_breakpoints), with
    mass(b) bounding what a panel [0, b] may miss.  The floor drops only
    rungs whose mass is under eps abs_tol a, or under 2^-1074 where that
    underflows, the rounding that each panel of nonzero values carries
    anyway (see quadrature._SUBNORMAL).  A layer that the tolerance alone
    would let the floor drop can carry much of a small energy, and below eps
    abs_tol a its loss is rounding next to any energy of abs_tol or more.
    The dropped mass is added to abs_err, in the run's tolerance test, so
    abs_err <= max(abs_tol, rel_tol |E|) still holds.
    """
    x0 = _LAYER_BREAK
    if not (abs_tol > 0 and rel_tol > 0):
        raise ValueError("tolerances must be strictly positive")
    tol = abs_tol * a
    if not tol > 0.0:
        raise ValueError(f"abs_tol a = {tol!r} underflows at abs_tol = {abs_tol!r}, a = {a!r}")
    for X in _CUTOFFS:
        K = X / a
        if K == math.inf:
            raise OutsideValidityDomainError(f"the momentum cutoff {X:g}/a overflows at a = {a!r}")
        bound = _TAIL_MARGIN * tail(X)
        if bound <= 0.01 * tol:
            break
    breaks, dropped = _graded_breakpoints(width, max(_EPS * tol, _SUBNORMAL), mass)
    # x0, 2 x0, ... below X: bisection of [0, X] reaches these points on its
    # way down anyway, so seeding them skips only the parent panels it would
    # compute and discard
    seed = x0
    while seed < X:
        breaks.append(seed)
        seed *= 2.0
    sub = 0.0
    if g > 0.0:
        # ln(1 + 2 x0/g): 2 x0/g overflows for g below ~1e-308, and the
        # difference of logs rounds to 0 for g above ~1e16; g times the
        # quotient keeps the bits of a subnormal g
        L = math.log1p(2.0 * x0 / g) if g >= 1.0 else math.log(g + 2.0 * x0) - math.log(g)
        sub = -g * (L / (2.0 * _TWO_PI))
    rounding = 0.0
    if sub or layer:
        rounding = max(8.0 * _EPS * (abs(sub) + abs(layer)), 2.0 * _SUBNORMAL)
    value, err = integrate_finite(
        f, 0.0, X, tol, rel_tol, breaks, shift=sub + layer, shift_err=dropped + rounding,
    )
    return EnergyResult(value=value / a, abs_err=err / a, truncation_k=K, tail_bound=bound / a)


# a comb layer sqrt(s) wide under the ladder's bulk scale, 0.4, is thin
_THIN_LAYER = 0.16


def comb_energy(c: CombCouplings, abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> EnergyResult:
    """Vacuum energy per unit cell, E = int_0^oo dk I(k), with abs_err at
    most max(abs_tol, rel_tol |E|).

    Integrates f(x) = I(x/a) over [0, X] in x = k a, i.e. up to K = X/a
    (X as in _energy_integral), and reports the neglected tail as a separate
    bound.  In the rearranged form, V >= R (1 - 3 eps), R - S eps + V >= 2R
    (1 - 2 eps), 0 < x R - g <= x R and R >= max(2x, g), so |2 pi f| <= eps
    [2x delta + 2 (x + 1) m^2] (1 + O(eps)) with m = min(1, g/2x) falling in
    x: over [X, oo) that is e^{-2X} [delta (X + 1/2) + m(X)^2 (X + 3/2)], 0
    at the free corner.

    Below x0 = 2.5 what remains of f after its subtracted term (see
    _energy_integral), f_s, has one layer, the paper's non-analytic part:
    with s = g + delta, delta = 1 - Omega^2 and r = sqrt(x^2 + s), 2 pi f_s
    ~ phi = x - x^2/r = x s/(r (r + x)) for small x, g and delta (D/x^2 ->
    4s, root -> 2x r in the small-x form).  Where that layer is thin, 0 < s
    < 0.16, the run integrates f_s - phi/2pi, whose layer holds O(s^2 ln s),
    and adds int_0^x0 phi/2pi = (s/2)[asinh(x0/sqrt s) - x0/(x0 + sqrt(x0^2
    + s))]/2pi, which carries the -(s ln s)/8pi of the energy.  A thicker
    comb integrates f_s itself.  The ladder grades on sqrt(g + 2 delta).
    """
    a, g = c.a, _require_supported(c)
    om = c.omega
    delta = (1.0 - om) * (1.0 + om)
    s = g + delta
    x0 = _LAYER_BREAK  # a closure cell: f is evaluated per node
    layer = 0.0
    if 0.0 < s < _THIN_LAYER:
        def f(x: float) -> float:
            if x < x0:
                # phi/2pi = x s/(r (r + x) 2pi) with s alone over a normal
                # denominator: where g or s is subnormal, each term rounds
                # once, by at most 2^-1075 (see quadrature._SUBNORMAL)
                r = math.sqrt(x * x + s)
                return (spectral_integrand(c, x / a) + g / ((g + 2.0 * x) * _TWO_PI)
                        - s / (r * (r / x + 1.0) * _TWO_PI))
            return spectral_integrand(c, x / a)

        bracket = math.asinh(x0 / math.sqrt(s)) - x0 / (x0 + math.sqrt(x0 * x0 + s))
        layer = s * (bracket / (2.0 * _TWO_PI))  # (s/2) bracket/2pi
    else:
        def f(x: float) -> float:
            return spectral_integrand(c, x / a) + (g / (g + 2.0 * x) / _TWO_PI if x < x0 else 0.0)

    return _energy_integral(
        f, g, a, abs_tol, rel_tol,
        lambda X: (delta * (X + 0.5) + min(1.0, g / (2.0 * X)) ** 2 * (X + 1.5))
                  * math.exp(-2.0 * X) / _TWO_PI,
        math.sqrt(g + 2.0 * delta), _comb_layer_mass(s), layer,
    )


def plate_energy(
    c: CombCouplings, theta: float, abs_tol: float = 1e-10, rel_tol: float = 1e-8
) -> EnergyResult:
    """Vacuum energy (1/2pi) int_0^oo dk F(k, theta) at fixed Bloch phase.

    For the free comb this is the quasi-periodic two-plate energy
    (1/2a)(|theta| - theta^2/(2 pi) - pi/3); averaging over theta with weight
    dtheta/(2 pi) recovers comb_energy.  Even in theta.

    Beside its subtracted term, F has A / (B + C cos theta) ~ -2x^2/(x^2 +
    w^2) for small x, w^2 = g + 2 (1 + Omega cos theta): a step from 0 to -2
    that a panel [0, b] misses by at most (2w/pi) atan(b/w), twice the
    step's own deficit.  In the rearranged form, |4x^2 - g^2 - 2g| <= R^2,
    |P| <= x R and the denominator is at least R^2 (1 - 3 e^{-x}), so for x >= X,
    |F| <= [2x eps + 4x^2 |Omega cos theta| e^{-x}/(2X + g)] (1 + O(e^{-x})):
    over [X, oo) that is e^{-2X} (X + 1/2) + 4 |Omega cos theta| e^{-X} (X^2
    + 2X + 2)/(2X + g), which falls like the comb's e^{-2X} at Omega cos
    theta = 0.
    """
    a, g = c.a, _require_supported(c)
    if not -math.pi <= theta <= math.pi:
        raise ValueError(f"theta must lie in [-pi, pi], got {theta}")
    width = math.sqrt(g + 2.0 * one_plus_omega_cos(c.omega, theta))
    phase = abs(c.omega * math.cos(theta))
    x0 = _LAYER_BREAK
    return _energy_integral(
        lambda x: (theta_integrand(c, x / a, theta)
                   + (g / (g + 2.0 * x) if x < x0 else 0.0)) / _TWO_PI,
        g, a, abs_tol, rel_tol,
        lambda X: ((X + 0.5) * math.exp(-2.0 * X) + 4.0 * phase * math.exp(-X)
                   * (X * X + 2.0 * X + 2.0) / (2.0 * X + g)) / _TWO_PI,
        width, lambda b: (2.0 * width / math.pi) * math.atan2(b, width),
    )
