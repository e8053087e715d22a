"""Vacuum-energy integrands, closed-form limits, and the energy integrals.

Reference energies were frozen from runs cross-checked against the direct
Bloch-phase quadrature oracle and the closed-form limits; the quadrature
is deterministic, so agreement is to near machine precision.
"""

import importlib.util
import inspect
import math
import random
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacomb import (
    CombCouplings,
    OutsideValidityDomainError,
    ToleranceNotMetError,
    ValidityViolationError,
    comb_energy,
    plate_energy,
    spectral_integrand,
    theta_integrand,
)
import deltacomb.energy
from deltacomb.quadrature import _panel, integrate_finite
from deltacomb.scattering import one_plus_omega_cos
from deltacomb.verification import _dual_cell_misfit, _plate_energy_closed
from deltacomb.verification import _theta_integral_numeric

# the energies' default tolerances
ABS_TOL, REL_TOL = (
    inspect.signature(comb_energy).parameters[name].default for name in ("abs_tol", "rel_tol")
)

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------------- A, B, C


def _literal_integrands(c, k, theta):
    """F(k, theta) and I(k) from the literal momentum-space A, B, C, in
    80-digit decimal arithmetic so the large-ka cancellation is exact."""
    with localcontext() as ctx:
        ctx.prec = 80
        a, k, g, om = (Decimal(v) for v in (c.a, k, c.gamma, c.omega))
        e = (k * a).exp()
        ch, sh = (e + 1 / e) / 2, (e - 1 / e) / 2
        A = -a * k * g * ch + (g - 2 * a * k * k) * sh
        B = 2 * k * ch + g * sh
        C = 2 * k * om
        sub = a * k - g / (g + 2 * k)
        F = A / (B + C * Decimal(math.cos(theta))) + sub
        I = (A / (B * B - C * C).sqrt() + sub) / Decimal(TWO_PI)
        return float(F), float(I)


def test_abc_frozen_point():
    # k = a = gamma = 1: A = -cosh 1 - sinh 1 = -e, B = 2 cosh 1 + sinh 1,
    # C = 2 k Omega; the same point at a = 2 (k = 1/2, gamma = 1/2) has the
    # same x = ka and g = gamma a, hence the same integrands
    for a in (1.0, 2.0):
        c = CombCouplings.from_reduced(omega=0.25, gamma=1.0 / a, a=a)
        A, B, C = -math.e, 2.0 * math.cosh(1.0) + math.sinh(1.0), 2.0 * c.omega
        sub = 1.0 - 1.0 / 3.0
        closed = (A / math.sqrt(B * B - C * C) + sub) / TWO_PI
        assert spectral_integrand(c, 1.0 / a) == pytest.approx(closed, abs=1e-14)
        phased = A / (B + C * math.cos(0.7)) + sub
        assert theta_integrand(c, 1.0 / a, 0.7) == pytest.approx(phased, abs=1e-14)


def test_abc_positivity_in_band_regime():
    # B > 0 and B^2 > C^2 for gamma >= 0, |Omega| < 1, k > 0: each of the 24
    # evaluations passes the integrands' positivity check (a failed one
    # raises), on both sides of ka = 5
    values = []
    for gamma, omega in ((0.0, 0.5), (2.0, -0.9), (10.0, 0.0)):
        c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=1.0)
        for k in (0.01, 1.0, 5.0, 25.0):
            values += [spectral_integrand(c, k), theta_integrand(c, k, 2.0)]
    assert len(values) == 24
    assert all(math.isfinite(v) for v in values)


def test_positivity_sentinel_fires_beyond_the_supported_domain():
    # |Omega| >> 1 makes B - |C| and B + C cos(theta) negative: the sentinel
    # raises in the small-x forms (down to tiny x) and the rearranged ones
    beyond = SimpleNamespace(gamma=0.5, a=1.0, omega=1e6)
    for x in (1e-120, 1.0, 6.0):
        with pytest.raises(ValidityViolationError, match="positivity violated"):
            spectral_integrand(beyond, x)
        with pytest.raises(ValidityViolationError, match="positivity violated"):
            theta_integrand(beyond, x, math.pi)


def test_free_corner_returns_exact_values_below_underflow():
    # g = 0, |Omega| = 1: I = 0 for every x, and F = x - 2 where also
    # 1 + Omega cos(theta) = 0, down to x whose square underflows
    free = CombCouplings(w0=0.0, w1=0.0, a=1.0)  # Omega = -1
    # at x = 2^-1074 sinh(x/2) rounds to 0 and F's scaled denominator is 0
    for x in (1e-160, 1e-170, 1e-300, math.ulp(0.0)):
        assert spectral_integrand(free, x) == 0.0
        assert theta_integrand(free, x, 0.0) == -2.0
    stiff = CombCouplings(w0=1.0, w1=1e200, a=1.0)  # Omega = 1, gamma = 0
    assert spectral_integrand(stiff, 1e-170) == 0.0
    # I = 0 also on both sides of the seam: every term of the rearranged form
    # carries g^2, delta or D, and all three vanish here
    for x in [0.1 * i for i in range(1, 400)]:
        assert spectral_integrand(free, x) == spectral_integrand(stiff, x) == 0.0, x


def test_integrands_are_zero_where_exp_minus_x_underflows():
    # in the rearranged form every term carries e^{-x}: finite at every x, and
    # exactly 0 once e^{-x} underflows, also where x^2 overflows or k a is inf
    for c in (
        CombCouplings(w0=1.0, w1=0.3, a=10.0),
        CombCouplings(w0=0.0, w1=0.0, a=1.0),
        CombCouplings.from_reduced(omega=0.99, gamma=1e150, a=1.0),
    ):
        xs = [5.0 * 10.0 ** (i * (300.0 - math.log10(5.0)) / 300.0) for i in range(301)]
        for k in [x / c.a for x in xs] + [1e308]:
            values = [spectral_integrand(c, k)]
            values += [theta_integrand(c, k, th) for th in (0.0, 0.5, math.pi)]
            assert all(math.isfinite(v) for v in values), (c, k, values)
            if k * c.a > 746.0:
                assert values == [0.0] * 4, (c, k, values)


def _oracle(g, omega, x, thetas, dps=80):
    """I and F at each theta in dps-digit mpmath, from B -+ |C| and
    B + C cos(theta) as sums of non-negative terms and with A/root + x
    written as head/root (the identities the module documents); sinh x
    - x cosh x is the series -(x^3/3) 0F1(; 5/2; x^2/4), so nothing cancels
    at tiny x.  Returns I and the list of F."""
    with mpmath.workdps(dps):
        g, om, x = mpmath.mpf(g), mpmath.mpf(omega), mpmath.mpf(x)
        sh, ch, sh2 = mpmath.sinh(x), mpmath.cosh(x), mpmath.sinh(x / 2)
        smc = -(x**3) / 3 * mpmath.hyp0f1(2.5, x * x / 4)
        A = g * smc - 2 * x * x * sh
        sub = x - g / (g + 2 * x)
        b_minus = 4 * x * sh2**2 + g * sh + 2 * x * (1 - abs(om))
        root = mpmath.sqrt(b_minus * (2 * x * ch + g * sh + 2 * x * abs(om)))
        D = 4 * x * x * (1 - om * om) + g * sh * (4 * x * ch + g * sh)
        head = x * D / (root + 2 * x * sh) + g * smc
        I = (head / root - g / (g + 2 * x)) / (2 * mpmath.pi)
        Fs = [
            A / (4 * x * sh2**2 + g * sh + 2 * x * (1 + om * mpmath.cos(theta))) + sub
            for theta in thetas
        ]
        return float(I), [float(F) for F in Fs]


def test_integrands_against_mpmath_oracle():
    # seeded over gamma a in {0} u [1e-300, 1e150], Omega in {-1, 1} u (-1, 1),
    # x in [1e-300, 40] on both sides of the seam, theta in {0, pi} u (-pi, pi),
    # plus the free corner below underflow.  I and F have zeros (I vanishes
    # identically for the free comb), so the error is measured against
    # |value| plus the decay envelope, x e^{-2x} for I and x e^{-x} for F
    rng = random.Random(12345)
    points = [(0.0, -1.0, x) for x in (1e-170, 1e-160, 1e-155)]
    for i in range(120):
        g = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-300.0, 150.0)
        omega = (-1.0, 1.0, rng.uniform(-1.0, 1.0))[i % 3]
        points += [
            (g, omega, 10.0 ** rng.uniform(-300.0, math.log10(40.0))),
            (g, omega, rng.uniform(5.0, 40.0)),
        ]
    worst = {}
    for g, omega, x in points:
        # Omega = 1 only as w1 = 1e200, where gamma = 0 is forced
        if omega == 1.0:
            c = CombCouplings(w0=1.0, w1=1e200, a=1.0)
        else:
            c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
        thetas = (0.0, math.pi, rng.uniform(-math.pi, math.pi))
        I, Fs = _oracle(c.gamma, c.omega, x, thetas)
        side = "literal" if x <= deltacomb.energy._REARRANGED_ABOVE else "rearranged"
        errors = [abs(spectral_integrand(c, x) - I) / (abs(I) + x * math.exp(-2.0 * x))]
        errors += [
            abs(theta_integrand(c, x, theta) - F) / (abs(F) + x * math.exp(-x))
            for theta, F in zip(thetas, Fs)
        ]
        worst[side] = max(worst.get(side, 0.0), *errors)
    assert set(worst) == {"literal", "rearranged"}
    assert max(worst.values()) <= 1e-13, worst


def test_far_form_against_mpmath_oracle_near_the_free_corner():
    # in the rearranged form, I is O(g^2) or O(delta), delta = 1 - Omega^2, far
    # below the 2 x^2 e^{-2x}-sized terms of A and B: every term of the form
    # carries g^2, delta or D, so it is judged relative to |I| alone (down to
    # the smallest normal float, where I underflows), against the oracle at
    # 40 + 2x/ln 10 + 2 log10(1/g) + log10(1/delta) digits, and is exactly 0 at
    # g = delta = 0.  Omega = -1, Omega within 1e-15..1e-2 of -1, and Omega -> 1
    # through a large w1
    rng = random.Random(23)
    worst, exact = 0.0, 0
    for i in range(48):
        g = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-300.0, -2.0)
        kind = i % 3
        if kind == 0:
            c = CombCouplings.from_reduced(omega=-1.0, gamma=g, a=1.0)
        elif kind == 1:
            omega = -1.0 + 10.0 ** rng.uniform(-15.0, -2.0)
            c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
        else:
            w1 = 10.0 ** rng.uniform(1.0, 7.0)
            c = CombCouplings(w0=g * (1.0 + w1 * w1), w1=w1, a=1.0)
        x = 40.0 - rng.uniform(0.0, 35.0)
        g, omega = c.gamma, c.omega
        delta = (1.0 - omega) * (1.0 + omega)
        value = spectral_integrand(c, x)
        if g == 0.0 and delta == 0.0:
            assert value == 0.0, (c, x)
            exact += 1
            continue
        digits = 40.0 + 2.0 * x / math.log(10.0)
        digits += (2.0 * math.log10(1.0 / g) if g > 0.0 else 0.0)
        digits += (math.log10(1.0 / delta) if delta > 0.0 else 0.0)
        I, _ = _oracle(g, omega, x, (), dps=int(digits))
        worst = max(worst, abs(value - I) / max(abs(I), sys.float_info.min))
    assert exact == 4
    assert worst <= 1e-13, worst


def test_near_form_against_mpmath_oracle_close_to_omega_minus_1():
    # at 1 + Omega ~ 1e-8 the literal form's D/x^2 takes its 4 delta from
    # (1 - Omega)(1 + Omega): 1 - Omega^2 cancelled there, 3.7e-9 relative
    # off on [1e-3, 4.9], which put a tight comb energy 1e4 times its
    # abs_err off the log-form oracle
    rng = random.Random(8)
    worst = 0.0
    for i in range(40):
        omega = -1.0 + 10.0 ** rng.uniform(-8.5, -7.5)
        c = CombCouplings.from_reduced(omega=omega, gamma=(0.0, 1e-7)[i % 2], a=1.0)
        x = 10.0 ** rng.uniform(-3.0, math.log10(4.9))
        I, _ = _oracle(c.gamma, c.omega, x, ())
        worst = max(worst, abs(spectral_integrand(c, x) - I) / abs(I))
    assert worst <= 1e-12, worst


def test_rearranged_forms_against_mpmath_oracle_near_omega_minus_1():
    # at Omega = -1 and small g the literal f cancels between its two terms
    # for x of order 1: it had the wrong sign at the first pinned point (the
    # oracle is the same at 200 digits) and was 2.4e-5 and 8.2e-5 relative off
    # at the other two.  On [1/2, 5], Omega at and near -1 and theta near 0,
    # both integrands hold 1e-13 of |value| (I is exactly 0 at the free corner)
    rng = random.Random(38)
    combs = [
        (CombCouplings(w0=5.243050564839845e-12, w1=0.0, a=1.0), 4.746609935979363),
        (CombCouplings.from_reduced(omega=-1.0, gamma=1e-10, a=1.0), 2.0),
        (CombCouplings.from_reduced(omega=-1.0, gamma=4.1e-9, a=1.0), 3.0),
    ]
    for i in range(60):
        g = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-14.0, -2.0)
        omega = -1.0 if i % 2 == 0 else -1.0 + 10.0 ** rng.uniform(-15.0, -2.0)
        c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
        combs.append((c, rng.uniform(0.5, 5.0)))
    for c, x in combs:
        thetas = (0.0, 10.0 ** rng.uniform(-8.0, -1.0), rng.uniform(-math.pi, math.pi))
        I, Fs = _oracle(c.gamma, c.omega, x, thetas)
        pairs = [(spectral_integrand(c, x), I)]
        pairs += [(theta_integrand(c, x, theta), F) for theta, F in zip(thetas, Fs)]
        for value, exact in pairs:
            assert abs(value - exact) <= 1e-13 * abs(exact), (c, x, value, exact)


@pytest.mark.parametrize(
    "gamma,omega,a,k",
    [(1.0, 0.3, 1.0, 30.5), (7.0, -0.8, 2.0, 15.6), (0.0, 0.5, 1.0, 31.0)],
)
def test_abc_scaled_form_matches_direct(gamma, omega, a, k):
    # the rearranged x > 5 forms against the literal A, B, C formulas
    c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
    F, I = _literal_integrands(c, k, 1.0)
    assert abs(spectral_integrand(c, k) - I) <= 1e-13 * abs(I)
    assert abs(theta_integrand(c, k, 1.0) - F) <= 1e-13 * abs(F)


# ----------------------------------------------------------- integrands


def test_integrand_zero_momentum_limits():
    c = CombCouplings(w0=2.0, w1=0.5, a=1.0)
    assert theta_integrand(c, 0.0, 1.0) == -1.0
    assert spectral_integrand(c, 0.0) == -1.0 / TWO_PI
    zero_gamma = CombCouplings(w0=0.0, w1=0.5, a=1.0)
    assert theta_integrand(zero_gamma, 0.0, 1.0) == 0.0
    assert spectral_integrand(zero_gamma, 0.0) == 0.0
    # the limit connects continuously to small finite k
    assert abs(theta_integrand(c, 1e-9, 1.0) - (-1.0)) <= 1e-7
    assert abs(spectral_integrand(c, 1e-9) - (-1.0 / TWO_PI)) <= 1e-8


def test_integrand_rejects_negative_momentum_and_gamma():
    attractive = CombCouplings(w0=-1.0, w1=0.0, a=1.0)
    with pytest.raises(OutsideValidityDomainError):
        theta_integrand(attractive, 1.0, 0.0)
    with pytest.raises(OutsideValidityDomainError):
        spectral_integrand(attractive, 1.0)
    ok = CombCouplings(w0=1.0, w1=0.0, a=1.0)
    with pytest.raises(ValueError):
        theta_integrand(ok, -1.0, 0.0)
    with pytest.raises(ValueError):
        spectral_integrand(ok, -1.0)


def test_integrands_reject_non_finite_arguments_by_value():
    # a non-finite k or theta is a caller's error, not the bug sentinel
    c = CombCouplings(w0=1.0, w1=0.3, a=1.0)
    calls = [
        (lambda: spectral_integrand(c, math.nan), "k = nan"),
        (lambda: spectral_integrand(c, math.inf), "k = inf"),
        (lambda: theta_integrand(c, math.nan, 0.5), "k = nan"),
        (lambda: theta_integrand(c, math.inf, 0.5), "k = inf"),
        (lambda: theta_integrand(c, 1.0, math.nan), "theta must be finite, got nan"),
        (lambda: theta_integrand(c, 1.0, math.inf), "theta must be finite, got inf"),
        (lambda: theta_integrand(c, 1.0, -math.inf), "theta must be finite, got -inf"),
    ]
    for call, named in calls:
        with pytest.raises(ValueError, match=named):
            call()


def test_theta_integrand_parity_in_w1_is_exact():
    plus = CombCouplings(w0=3.0, w1=0.7, a=1.0)
    minus = CombCouplings(w0=3.0, w1=-0.7, a=1.0)
    for k in (0.1, 1.0, 7.0, 40.0):
        for theta in (0.0, 1.1, math.pi):
            assert theta_integrand(plus, k, theta) == theta_integrand(minus, k, theta)
        assert spectral_integrand(plus, k) == spectral_integrand(minus, k)


@given(
    omega=st.floats(0.0, 0.999),
    gamma=st.floats(0.0, 10.0),
    k=st.floats(1e-3, 30.0),
    theta=st.floats(0.0, math.pi),
)
@settings(deadline=None, max_examples=60)
def test_theta_integrand_omega_reflection(omega, gamma, k, theta):
    """F is invariant under (Omega, theta) -> (-Omega, pi - theta)."""
    c_plus = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=1.0)
    c_minus = CombCouplings.from_reduced(omega=-omega, gamma=gamma, a=1.0)
    f1 = theta_integrand(c_plus, k, theta)
    f2 = theta_integrand(c_minus, k, math.pi - theta)
    assert abs(f1 - f2) <= 1e-11 * max(1.0, abs(f1))


def test_spectral_integrand_against_direct_theta_quadrature():
    for gamma, omega, a, k in (
        (3.0, 0.4, 1.0, 2.0),
        (0.5, -0.9, 2.0, 0.3),
        (8.0, 0.99, 0.5, 11.0),  # k a > 5: the rearranged branch
    ):
        c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
        closed = spectral_integrand(c, k)
        numeric, err = _theta_integral_numeric(c, k)
        assert abs(closed - numeric) <= max(1e-12, 10.0 * err)


def test_spectral_integrand_exponential_envelope():
    # fit |I| <= M e^{-1.5 k} on k in [20, 25], then demand it out to k = 40
    c = CombCouplings(w0=5.0, w1=0.5, a=1.0)
    fit = [20.0 + 0.5 * i for i in range(11)]
    M = max(abs(spectral_integrand(c, k)) * math.exp(1.5 * k) for k in fit)
    for i in range(29):
        k = 26.0 + 0.5 * i
        assert abs(spectral_integrand(c, k)) <= M * math.exp(-1.5 * k)


# -------------------------------------------------------- energy integral


def test_comb_energy_mixed_constant():
    for a in (0.5, 1.0, 2.0):
        c = CombCouplings.from_reduced(omega=0.0, gamma=0.0, a=a)
        res = comb_energy(c)
        assert abs(res.value - math.pi / (48.0 * a)) <= 1e-8


def test_comb_energy_free_comb_is_zero():
    res = comb_energy(CombCouplings(w0=0.0, w1=0.0, a=1.0))
    assert abs(res.value) < 1e-10


def test_comb_energy_frozen_values():
    res1 = comb_energy(CombCouplings(w0=5.0, w1=0.5, a=1.0))
    assert res1.value == pytest.approx(-0.088003087940201, abs=1e-12)
    res2 = comb_energy(CombCouplings(w0=5.0, w1=0.5, a=2.0))
    assert res2.value == pytest.approx(-0.052612302882812, abs=1e-12)
    # error bookkeeping
    assert res1.abs_err < 5e-9
    # the run stops at k a = 5 and takes the tail by its Gauss-Laguerre rule,
    # whose allowance is far below abs_tol
    assert 0.0 < res1.tail_bound <= 1e-16
    assert res1.truncation_k == 5.0


def test_comb_energy_strong_coupling_approaches_dirichlet():
    res = comb_energy(CombCouplings(w0=1e6, w1=0.0, a=1.0))
    target = -math.pi / 24.0
    assert abs(res.value - target) / abs(target) <= 1e-3


def test_comb_energy_is_deterministic():
    c = CombCouplings(w0=3.0, w1=0.7, a=1.0)
    assert comb_energy(c) == comb_energy(c)


def _tail_samples(seed, n):
    """Seeded couplings over the supported range with a Bloch phase: g = 0,
    10^U(-6, 4) or 10^U(-300, 150), Omega at -1, within 1e-14 of -1 or 1, at
    0 or uniform, theta at 0, pi, 2.23, pi/2 (Omega cos theta = 0) or
    uniform, and a = 2^U{-6..6}."""
    rng = random.Random(seed)
    for i in range(n):
        g = 0.0 if i % 7 == 0 else 10.0 ** (rng.uniform(-6.0, 4.0) if i % 2 else rng.uniform(-300.0, 150.0))
        near = 10.0 ** rng.uniform(-16.0, -14.0)
        omega = (-1.0, -1.0 + max(near, 2.3e-16), 1.0 - near, 0.0, rng.uniform(-1.0, 1.0))[i % 5]
        theta = (0.0, math.pi, 2.23, 0.5 * math.pi, rng.uniform(-math.pi, math.pi))[i // 5 % 5]
        a = 2.0 ** rng.randint(-6, 6)
        yield CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a), theta


@pytest.fixture(scope="module")
def tails():
    """tools/tail_rule_error.py, which rebuilds the tail rules and holds the
    mpmath oracle of each tail that set the allowance fractions."""
    path = Path(__file__).resolve().parents[1] / "tools" / "tail_rule_error.py"
    spec = importlib.util.spec_from_file_location("tail_rule_error", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["_COMB_TAIL", "_PLATE_TAIL"])
def test_tail_rules_against_mpmath(tails, name):
    # the n nodes t are the zeros of the Laguerre polynomial L_n and the
    # weights w = t/((n + 1)^2 L_{n+1}(t)^2) (A&S 25.4.45), stored as w e^t;
    # each literal is its 60-digit value rounded once.  Strictly increasing,
    # so no zero is found twice
    j, rule, _ = getattr(deltacomb.energy, name)
    n = len(rule)
    assert (j, n) == {"_COMB_TAIL": (2, 12), "_PLATE_TAIL": (1, 28)}[name]
    assert all(s < t for (s, _), (t, _) in zip(rule, rule[1:]))
    assert list(rule) == tails.laguerre_rule(n)


def _hold_tails_to_their_bounds(tails, plate):
    """Each comb's (plate's) tail, one Gauss-Laguerre rule on its own
    integrand, lands within its allowance, the tail_bound it reports, of
    25-digit mpmath, on seeded couplings and at the corners: g = 0 and 1e150,
    Omega at and within 1e-14 of -1 and 1, Omega cos theta = 0, theta at 0,
    pi and 2.23, and combs whose f changes sign just past X, where the
    comb's rule is least accurate (the allowances were set from 1,000
    seeded points each, see tools/tail_rule_error.py)."""
    rng = random.Random(46)
    near_one = math.nextafter(1.0, 0.0)
    corners = [(CombCouplings.from_reduced(omega=om, gamma=g, a=1.0), theta)
               for g in (0.0, 1e150) for om in (-1.0, near_one, 0.0) for theta in (0.0, math.pi, 2.23)]
    zeros = [(CombCouplings.from_reduced(omega=om, gamma=tails.vanishing_g(rng.uniform(4.8, 8.0), om), a=1.0),
              0.5 * math.pi) for om in (-1.0 + 1e-12, -0.9999, 0.37, 0.9)]
    j, _, fraction = deltacomb.energy._PLATE_TAIL if plate else deltacomb.energy._COMB_TAIL
    for c, theta in corners + zeros + list(_tail_samples(47, 60)):
        g, omega = mpmath.mpf(c.gamma * c.a), mpmath.mpf(c.omega)
        value, allowance = tails.tail_of(c, theta) if plate else tails.tail_of(c)
        res = plate_energy(c, theta) if plate else comb_energy(c)
        assert res.tail_bound == allowance / c.a
        with mpmath.workdps(25):
            f = tails.plate_f(g, omega * mpmath.cos(theta)) if plate else tails.comb_f(g, omega)
        if allowance == 0.0:
            # f is 0.0 at every node only at the free corner or where the
            # comb's O(g^2) f underflows at delta = 0; the tail rounds to 0
            assert not plate and value == 0.0 and omega == -1, (c, theta)
            assert abs(tails.exact_tail(f, j, 2.0**-1074)) < 2.0**-1074, (c, theta)
            continue
        exact = tails.exact_tail(f, j, allowance / fraction)
        assert abs(value - exact) <= allowance, (c, theta, value, exact, allowance)


def test_comb_tail_bound_covers_the_dropped_tail(tails):
    _hold_tails_to_their_bounds(tails, plate=False)


def test_plate_tail_bound_covers_the_dropped_tail(tails):
    _hold_tails_to_their_bounds(tails, plate=True)


def test_tail_bounds_stay_within_a_small_factor_of_the_tail(tails):
    # the allowance is a fixed share of sum |w e^t f|, not a majorant: where
    # f keeps one sign past X it is that share of the tail itself, as for
    # the mixed comb (g = 0, Omega = 0, 2 pi f = 2x eps/(1 + eps)), a
    # near-free and a strong comb and plates at Omega cos theta = 0 and 1/2
    near = CombCouplings.from_reduced(omega=1.0 - 1e-6, gamma=0.0, a=1.0)
    mixed = CombCouplings.from_reduced(omega=0.0, gamma=0.0, a=2.0)
    strong = CombCouplings.from_reduced(omega=-1.0, gamma=1e8, a=0.5)
    for c, theta in ((near, None), (mixed, None), (strong, None), (mixed, 1.0), (near, math.pi / 3)):
        tail, _ = tails.tail_of(c, theta)
        res = comb_energy(c) if theta is None else plate_energy(c, theta)
        fraction = (deltacomb.energy._COMB_TAIL if theta is None else deltacomb.energy._PLATE_TAIL)[2]
        share = res.tail_bound * c.a / (fraction * abs(tail))
        assert 1.0 - 1e-15 <= share <= 1.0 + 1e-15, (c, theta, res, tail)


def test_comb_tail_is_the_bloch_average_of_the_plates(tails):
    # the comb is the Bloch average of its plates, f = (1/pi) int_0^pi F/2pi
    # dtheta, and so is its tail: the comb's 12-point rule lands within both
    # sides' allowances of (1/pi) int_0^pi of the plates' 28-point tails, by
    # integrate_finite in theta, whose own error is allowed too
    rng = random.Random(44)
    samples = [(g, om) for g in (0.0, 1.0, 1e10, 1e150) for om in (-1.0, 0.0, 0.99)]
    samples += [(10.0 ** rng.uniform(-8.0, 4.0), rng.uniform(-1.0, 1.0)) for _ in range(12)]
    for g, om in samples:
        c = CombCouplings.from_reduced(omega=om, gamma=g, a=1.0)
        tail, allowance = tails.tail_of(c)

        def plate(theta, part):
            return tails.tail_of(c, theta)[part] / math.pi

        plates_allowance, _ = integrate_finite(lambda t: plate(t, 1), 0.0, math.pi, 1e-300, 1e-6)
        # the plates' e^{-x}-sized odd terms cancel in the average, so the
        # theta run's rounding floor, 50 eps int |plate tail| <= 50 eps
        # plates_allowance/fraction, can exceed both allowances: the
        # tolerance takes twice that floor
        fraction = deltacomb.energy._PLATE_TAIL[2]
        tol = 0.25 * allowance + 100.0 * sys.float_info.epsilon * plates_allowance / fraction
        plates, err = integrate_finite(lambda t: plate(t, 0), 0.0, math.pi, tol, 1e-300)
        assert abs(tail - plates) <= allowance + 1.000001 * plates_allowance + err, (g, om, tail, plates)


# comb_energy and plate_energy(theta = 1) of w0 = 2, w1 = 0.5, frozen from
# the momentum-space integration over [0, max(40/a, 40)] that preceded the
# unit-spacing one
FROZEN_BY_SPACING = {
    0.05: (0.5774871097910744, -0.8909773516350036),
    2.0: (-0.04060249323067997, -0.05922576555834806),
    20.0: (-0.0061634314585801995, -0.0065169029531654266),
}


@pytest.mark.parametrize("a", sorted(FROZEN_BY_SPACING))
def test_energies_match_frozen_values_across_spacings(a):
    comb_value, plate_value = FROZEN_BY_SPACING[a]
    c = CombCouplings(w0=2.0, w1=0.5, a=a)
    comb = comb_energy(c)
    plate = plate_energy(c, 1.0)
    # both stop at k a = 5 and take their tail by a Gauss-Laguerre rule,
    # which the frozen runs integrated to 40
    for res, frozen in ((comb, comb_value), (plate, plate_value)):
        assert abs(res.value - frozen) <= res.abs_err + res.tail_bound
        assert res.truncation_k == pytest.approx(5.0 / a, rel=1e-15)
        assert 0.0 < res.tail_bound < 1e-14


def _count_calls(monkeypatch, name):
    """The argument tuples of every call to the energy module's integrand
    called name, which the energies evaluate through the module attribute."""
    calls = []
    counted = getattr(deltacomb.energy, name)

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(deltacomb.energy, name, counting)
    return calls


def test_comb_cutoff_is_5_and_agrees_with_a_run_to_20(monkeypatch):
    # every comb stops at x = 5 and takes the tail by the 12-point rule on f
    # itself, 12 evaluations besides the run's 15 a panel, with an allowance
    # far below abs_tol; the energy agrees with a run to 20 within both
    # energies' errors
    calls = _count_calls(monkeypatch, "spectral_integrand")
    rng = random.Random(33)
    for i in range(200):
        g = 0.0 if i % 10 == 0 else 10.0 ** rng.uniform(-12.0, 6.0)
        near = 10.0 ** rng.uniform(-12.0, -1.0)
        omega = (-1.0, -1.0 + near, 1.0 - near, rng.uniform(-1.0, 1.0))[i % 4]
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
        calls.clear()
        res = comb_energy(c)
        assert len(calls) % 15 == 12, (c, len(calls))
        assert res.truncation_k == 5.0 / a, (c, res)
        assert res.tail_bound * a <= 1e-6 * ABS_TOL, (c, res)
        with monkeypatch.context() as patch:
            patch.setattr(deltacomb.energy, "_TAIL_FROM", 20.0)
            full = comb_energy(c)
        assert full.truncation_k == 20.0 / a
        bound = res.abs_err + res.tail_bound + full.abs_err + full.tail_bound
        assert abs(res.value - full.value) <= bound, (c, res, full)


def test_comb_cutoff_stays_at_5_at_a_tight_tolerance(monkeypatch):
    # at abs_tol = 1e-16 the run still stops at 5, 15 evaluations a panel
    # and 12 for the tail, whose allowance stays under a fifth of even this
    # tolerance
    calls = _count_calls(monkeypatch, "spectral_integrand")
    for c in (CombCouplings(w0=1.0, w1=0.3, a=1.0), CombCouplings(w0=5.0, w1=0.5, a=2.0)):
        calls.clear()
        res = comb_energy(c, abs_tol=1e-16)
        assert len(calls) % 15 == 12, (c, len(calls))
        assert res.truncation_k * c.a == 5.0
        assert res.tail_bound <= 1e-16 / 5.0


def test_plate_cutoff_is_5_at_every_phase(monkeypatch):
    # F decays like x e^{-x} where Omega cos theta != 0: the plate stops at 5
    # as the comb does and takes the tail by the 28-point rule on F itself,
    # and agrees with a run to 40 within both energies' errors
    calls = _count_calls(monkeypatch, "theta_integrand")
    rng = random.Random(34)
    for _ in range(6):
        a = 2.0 ** rng.randint(-6, 6)
        omega, gamma = rng.uniform(-1.0, 0.99), 10.0 ** rng.uniform(-6.0, 2.0)
        c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
        theta = rng.uniform(-math.pi, math.pi)
        calls.clear()
        res = plate_energy(c, theta)
        assert res.truncation_k == 5.0 / a
        assert len(calls) % 15 == 28 % 15, (c, theta, len(calls))
        assert res.tail_bound * a <= 1e-6 * ABS_TOL, (c, theta, res)
        with monkeypatch.context() as patch:
            patch.setattr(deltacomb.energy, "_TAIL_FROM", 40.0)
            full = plate_energy(c, theta)
        bound = res.abs_err + res.tail_bound + full.abs_err + full.tail_bound
        assert abs(res.value - full.value) <= bound, (c, theta, res, full)


def test_comb_cutoff_past_the_double_range_is_a_domain_error():
    # abs_tol a is subnormal but positive, and the tail's last momentum, at
    # x = 5 + t_12/2 = 23.55 for the comb and 5 + t_28 = 101.6 for a plate,
    # overflows: a domain error naming a, not an integrand error at k = inf
    c = CombCouplings(w0=1.0, w1=0.3, a=1.3e-307)
    assert 1e-10 * c.a > 0.0 and 5.0 / c.a < math.inf
    with pytest.raises(OutsideValidityDomainError, match=f"23.55/a overflows at a = {c.a!r}"):
        comb_energy(c)
    c = CombCouplings(w0=1.0, w1=0.3, a=5e-307)
    with pytest.raises(OutsideValidityDomainError, match=f"101.6/a overflows at a = {c.a!r}"):
        plate_energy(c, 1.0)


def test_subnormal_energies_report_their_rounding():
    # a E of a few hundred U = 2^-1074: each panel of the ladder (about 160
    # rungs) rounds its value to that grid, and abs_err once read 0.0 for an
    # a E 9% off the law; the panels now carry that rounding as a floor, so
    # the energy either meets the law within its bounds or exits 3.  At
    # g = 2 U a ladder panel's resabs rounds to 0, though its values do not
    U = math.ulp(0.0)
    rng = random.Random(35)
    points = [(7.4e-323, 4.7e-194, 3.2e-322), (2.0 * U, 1.6e-160, 5.4e-320)]
    for _ in range(40):
        points.append((round(10.0 ** rng.uniform(0.0, 6.0)) * U, 10.0 ** rng.uniform(-290.0, -100.0),
                       10.0 ** rng.uniform(-322.0, -295.0)))
    met = 0
    for g, a, tol in points:
        c = CombCouplings(w0=g / a, w1=0.0, a=a)
        g = c.w0 * a
        try:
            res = comb_energy(c, abs_tol=tol / a)
        except ToleranceNotMetError:
            continue
        law = g * (math.log(g) - 1.0) / (8.0 * math.pi)
        assert abs(a * res.value - law) <= a * (res.abs_err + res.tail_bound), (g, a, tol, res)
        met += 1
    assert met > 20, met


def test_abs_tol_holds_in_energy_units_at_small_spacing():
    # the x integrals run at abs_tol * a; with abs_tol itself they would
    # report errors up to abs_tol / a here
    tols = (1e-10, 1e-14)
    for a in (0.01, 0.05):
        c = CombCouplings(w0=2.0, w1=0.5, a=a)
        mixed = CombCouplings.from_reduced(omega=0.0, gamma=0.0, a=a)
        for res in (comb_energy(c, *tols), comb_energy(mixed, *tols), plate_energy(c, 1.0, *tols)):
            assert res.abs_err <= 1e-10


def test_abs_err_meets_the_tolerance_over_seeded_points(monkeypatch):
    # one integrate_finite call per energy, whose stopping test covers the
    # whole integral: abs_err <= max(abs_tol, rel_tol |E|) wherever it
    # returns, also where ladder pieces of opposite sign nearly cancel
    calls = []
    counted = deltacomb.energy.integrate_finite

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return counted(*args, **kwargs)

    monkeypatch.setattr(deltacomb.energy, "integrate_finite", counting)
    rng = random.Random(5)
    points = [(CombCouplings.from_reduced(omega=-0.275, gamma=1.74, a=0.226), None)]
    for i in range(300):
        a = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        omega = rng.uniform(-1.0, 0.999)
        gamma = (0.0, rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-6.0, 0.0))[i % 3]
        theta = rng.uniform(-math.pi, math.pi) if i % 5 == 0 else None
        points.append((CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a), theta))
    for c, theta in points:
        calls.clear()
        res = comb_energy(c) if theta is None else plate_energy(c, theta)
        assert len(calls) == 1
        assert res.abs_err <= max(ABS_TOL, REL_TOL * abs(res.value)), (c, theta)


def _log_form_energy(g, omega, a, dps=30):
    """E = (1/2 pi a) int_0^oo [ln(alpha + sqrt(alpha^2 - Omega^2)) - x
    - ln(1 + g/2x)] dx with alpha = cosh x + (g/2x) sinh x, in dps-digit
    mpmath.  Integrating by parts (x h' = -2 pi f, and x h -> 0 at both ends)
    turns this into the energy integral of f, so it checks the whole energy
    without sharing f's formulas.  It stops at x = 40, past which |h| is
    below e^{-70}; the breakpoints sit at the layers g/2 and sqrt(g + 2 delta)
    and at every decade between them and 1."""
    with mpmath.workdps(dps):
        g, om = mpmath.mpf(g), mpmath.mpf(omega)

        def h(x):
            alpha = mpmath.cosh(x) + g / (2 * x) * mpmath.sinh(x)
            log_term = mpmath.log(alpha + mpmath.sqrt(alpha * alpha - om * om))
            return log_term - x - mpmath.log1p(g / (2 * x))

        width = mpmath.sqrt(g + 2 * (1 - om) * (1 + om))
        layers = [s for s in (g / 2, width) if 0 < s < 1]
        low = min(layers, default=mpmath.mpf(1))
        decades = [mpmath.mpf(10) ** k for k in range(int(mpmath.floor(mpmath.log10(low))), 0)]
        points = sorted({mpmath.mpf(0), *layers, *decades, 1, 2.5, 5, 10, 20, 40})
        return float(mpmath.quad(h, points) / (2 * mpmath.pi * a))


def test_comb_energy_against_the_log_form_oracle():
    # the whole energy, not just its integrand, against an independent
    # 30-digit integral over seeded combs and the thin-layer corners
    rng = random.Random(31)
    points = [(1.0, 0.3, 1.0), (50.0, 0.0, 1.0), (1e-4, -1.0, 1.0), (1e-6, -1.0, 1.0),
              (0.05, -0.99, 1.3)]
    for _ in range(3):
        points.append((10.0 ** rng.uniform(-3.0, 1.5), rng.uniform(-1.0, 0.99),
                       10.0 ** rng.uniform(-1.0, 1.0)))
    for g, omega, a in points:
        c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
        res = comb_energy(c)
        oracle = _log_form_energy(c.gamma * c.a, c.omega, c.a)
        assert abs(res.value - oracle) <= res.abs_err + res.tail_bound, (g, omega, a, res, oracle)


def test_comb_energy_with_mid_size_layers_against_the_log_form_oracle():
    # s = g + delta from 1e-10 to 0.3 with g/s in {0, 1/2, 1} (Omega at and
    # near -1), at tolerances tight enough to see a layer of O(s^2 ln s):
    # the remainder f_s - phi/2pi under the ladder, on both sides of the
    # thin-layer limit s = 0.16.  The first pinned comb misses by 67 times
    # abs_err + tail_bound with 1 - Omega^2 in the integrand's D/x^2, the
    # second by 1.27 times without the ladder
    rng = random.Random(3)
    points = [(9.39e-8, -0.99999999246, 0.833), (0.0, -0.99999998420, 0.387)]
    for i in range(12):
        s = 10.0 ** rng.uniform(-10.0, math.log10(0.3))
        g = (0.0, 0.5, 1.0)[i % 3] * s
        points.append((g, -math.sqrt(1.0 - (s - g)), 10.0 ** rng.uniform(-1.0, 1.0)))
    for g, omega, a in points:
        c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
        res = comb_energy(c, 1e-20, 1e-12)
        oracle = _log_form_energy(c.gamma * c.a, c.omega, c.a)
        assert abs(res.value - oracle) <= res.abs_err + res.tail_bound, (g, omega, a, res, oracle)


def test_near_free_comb_lands_on_its_pinned_oracle():
    # deltacomb energy --omega -0.9999999925 --gamma 1e-7 --a 1 --abs-tol
    # 1e-22 --rel-tol 1e-13 against the 40-digit log-form oracle; it once
    # printed -5.85336374803e-08 with an abs_err of 3.6e-21
    c = CombCouplings.from_reduced(omega=-0.9999999925, gamma=1e-7, a=1.0)
    res = comb_energy(c, 1e-22, 1e-13)
    assert abs(res.value + 5.853363758446837e-08) <= res.abs_err + res.tail_bound, res


def _comb_of_width(rng, i, lo, hi):
    """A seeded comb whose layer sqrt(g + 2 delta) is in [lo, hi) wide, with
    g/w^2 in {0, 1/2} or uniform, Omega on either side and a in [0.1, 10]."""
    while True:
        w = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        g = (0.0, 0.5, rng.random())[i % 3] * w * w
        delta = 0.5 * (w * w - g)
        if delta <= 1.0:
            omega = math.sqrt(1.0 - delta)
            if i % 2 or omega == 1.0:
                omega = -omega
            a = 10.0 ** rng.uniform(-1.0, 1.0)
            c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
            if lo <= math.sqrt(c.gamma * a + 2.0 * (1.0 - c.omega) * (1.0 + c.omega)) < hi:
                return c


def test_combs_with_rungs_past_the_bulk_scale_against_the_log_form_oracle():
    # a layer from 0.4 to 1.75 wide gets a rung at its width, and a thin one
    # from 0.004 up a ladder that runs past 0.4; each energy lands within
    # abs_err + tail_bound of the 30-digit oracle
    rng = random.Random(40)
    for lo, hi in ((0.004, 0.4), (0.4, 1.75)):
        for i in range(6):
            c = _comb_of_width(rng, i, lo, hi)
            res = comb_energy(c)
            oracle = _log_form_energy(c.gamma * c.a, c.omega, c.a)
            assert abs(res.value - oracle) <= res.abs_err + res.tail_bound, (c, res, oracle)


def _marginal_plate(rng, i, lowest, top):
    """A seeded plate whose layer w = sqrt(g + 2 (1 + Omega cos theta)) is
    about 10^lowest to top wide, at Omega near -1 and theta near 0 or at
    Omega near 1 and theta near pi, with g/w^2 0 or uniform and a in [0.1,
    10]; returns it with its theta."""
    w = 10.0 ** rng.uniform(lowest, math.log10(top))
    g = (0.0, rng.random())[i % 2] * w * w
    q = 0.5 * (w * w - g)  # 1 + Omega cos theta, split between Omega and theta
    r = rng.random()
    omega, theta = -(1.0 - r * q), 2.0 * math.asin(math.sqrt(min(1.0, 0.5 * (1.0 - r) * q)))
    if i % 3 == 1:
        omega, theta = -omega, math.pi - theta
    a = 10.0 ** rng.uniform(-1.0, 1.0)
    c = CombCouplings.from_reduced(omega=max(-1.0, min(omega, 1.0 - 2.0**-53)), gamma=g / a, a=a)
    return c, theta


def test_plates_near_the_marginal_phase_against_a_tight_run():
    # plates whose layer sqrt(g + 2 (1 + Omega cos theta)) is 1e-6 to 1.75
    # wide, at Omega near -1 and theta near 0 or at Omega near 1 and theta
    # near pi, land within abs_err + tail_bound of a run at abs_tol 1e-15
    rng = random.Random(40)
    for i in range(60):
        c, theta = _marginal_plate(rng, i, -6.0, 1.75)
        res, tight = plate_energy(c, theta), plate_energy(c, theta, 1e-15, 1e-13)
        assert abs(res.value - tight.value) <= res.abs_err + res.tail_bound, (c, theta, res, tight)


def test_subnormal_layers_cost_few_evaluations(monkeypatch):
    # at abs_tol a below ~2e-308 the floor's budget eps abs_tol a underflows;
    # a budget of 2^-1074 lets it drop the ladder of a subnormal g, whose
    # layer mass s b^2/2pi is under that, where it once walked ~163 rungs
    # (2,505 evaluations) before it exited 3.  Each energy either exits 3
    # or meets the law within its bounds, in under 200 evaluations
    calls = _count_calls(monkeypatch, "spectral_integrand")
    U = math.ulp(0.0)
    rng = random.Random(36)
    points = [(7.4e-323, 4.7e-194, 3.2e-322)]
    for _ in range(10):
        points.append((round(10.0 ** rng.uniform(0.0, 6.0)) * U, 10.0 ** rng.uniform(-290.0, -100.0),
                       10.0 ** rng.uniform(-322.0, -308.0)))
    for g, a, tol in points:
        c = CombCouplings(w0=g / a, w1=0.0, a=a)
        g = c.w0 * a
        calls.clear()
        try:
            res = comb_energy(c, abs_tol=tol / a)
        except ToleranceNotMetError:
            pass
        else:
            law = g * (math.log(g) - 1.0) / (8.0 * math.pi)
            assert abs(a * res.value - law) <= a * (res.abs_err + res.tail_bound), (g, a, tol, res)
        assert len(calls) < 200, (g, a, tol, len(calls))


def test_small_spacing_scales_exactly_at_equal_gamma_a():
    # E(gamma, Omega, a) = f(gamma a, Omega) / a; at a = 1e-5 the x
    # integral runs at abs_tol * a = 1e-15
    small = comb_energy(CombCouplings(w0=1e-3, w1=0.0, a=1e-5))
    unit = comb_energy(CombCouplings(w0=1e-8, w1=0.0, a=1.0))
    assert abs(1e-5 * small.value - unit.value) <= 1e-5 * small.abs_err + unit.abs_err


@pytest.mark.parametrize("w1", [0.0, 0.5])
def test_small_spacing_at_unit_coupling_scales_exactly(w1):
    # gamma a = 1e-8: at |Omega| = 1 the small-x integrand must not cancel
    # A/root against x, whose noise made w0 = 1, a = 1e-8 miss its tolerance
    small = comb_energy(CombCouplings(w0=1.0, w1=w1, a=1e-8))
    unit = comb_energy(CombCouplings(w0=1e-8, w1=w1, a=1.0))
    assert abs(1e-8 * small.value - unit.value) <= 1e-8 * small.abs_err + unit.abs_err


def test_gamma_a_above_the_limit_is_a_domain_error():
    # the integrands share the energies' limit: a typed error, not inf, NaN
    # or the positivity sentinel, at k = 0 and on either side of x = 5
    for c in (
        CombCouplings(w0=1e300, w1=0.0, a=1e10),  # gamma a overflows
        CombCouplings.from_reduced(omega=0.3, gamma=1e154, a=1.0),
        CombCouplings.from_reduced(omega=0.5, gamma=1e200, a=1.0),
        CombCouplings.from_reduced(omega=-1.0, gamma=1e150, a=1.1),
    ):
        with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
            comb_energy(c)
        with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
            plate_energy(c, 1.0)
        for k in (0.0, 1.0, 6.0):
            with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
                spectral_integrand(c, k)
            with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
                theta_integrand(c, k, 0.5)


def test_energies_at_extreme_magnitudes_are_finite_or_gated():
    # w0, |w1| and a log-uniform over 10^{+-300}: each energy returns finite
    # fields or stops at the gamma a > 1e150 gate, and the pure-delta combs at
    # g = gamma a <= 1e-3 meet check 8's law a E = (g/8pi)(ln g - 1) within
    # abs_err + tail_bound + 0.01 g^2 |ln g| / a.  (a E is not bit-exact at
    # equal g: the integrands see x/a times a.)
    rng = random.Random(2023)
    gated = near_free = 0
    for i in range(400):
        w0 = 10.0 ** rng.uniform(-300.0, 300.0)
        w1 = 0.0 if i % 2 == 0 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        a = 10.0 ** rng.uniform(-300.0, 300.0)
        theta = rng.uniform(-math.pi, math.pi)
        c = CombCouplings(w0=w0, w1=w1, a=a)
        try:
            comb, plate = comb_energy(c), plate_energy(c, theta)
        except OutsideValidityDomainError as exc:
            assert "gamma a exceeds" in str(exc), c
            gated += 1
            continue
        for res in (comb, plate):
            assert all(math.isfinite(v) for v in res._astuple()), (c, theta, res)
        g = c.gamma * a
        if w1 == 0.0 and 0.0 < g <= 1e-3:
            near_free += 1
            law = g * (math.log(g) - 1.0) / (8.0 * math.pi) / a
            bound = comb.abs_err + comb.tail_bound + 0.01 * g * g * abs(math.log(g)) / a
            assert abs(comb.value - law) <= bound, (c, comb, law)
    assert gated > 0 and near_free > 50, (gated, near_free)


@pytest.mark.parametrize("g", [1e-20, 1e-16, 1e-12])
def test_pure_delta_comb_lands_on_the_small_coupling_law(g):
    # the g/(g + 2x) layer is integrated in closed form and the ladder grades
    # the sqrt(g)-wide layer left in f_s, which holds half of the g ln g
    # signal; the floor once dropped both into abs_err (-3.6e-18 +- 8.1e-12
    # at g = 1e-12)
    res = comb_energy(CombCouplings(w0=g, w1=0.0, a=1.0))
    law = g * (math.log(g) - 1.0) / (8.0 * math.pi)
    assert abs(res.value - law) <= 0.01 * abs(law), (res, law)
    assert res.abs_err < abs(law)


@pytest.mark.parametrize("g", [1e-100, 1e-200])
def test_a_dropped_layer_costs_abs_err_its_mass_not_its_width(g):
    # far below the tolerance the floor drops the sqrt(g) layer, and what it
    # adds to abs_err is a few times the layer's g ln(1/g), not its sqrt(g)
    res = comb_energy(CombCouplings(w0=g, w1=0.0, a=1.0))
    law = g * (math.log(g) - 1.0) / (8.0 * math.pi)
    assert abs(res.value - law) <= res.abs_err <= 2.0 * g * math.log(1.0 / g)


def _ladder_comb(rng, i, lowest):
    """A seeded comb on which the ladder runs (g + 2 delta < 0.16), with s =
    g + delta from 10^lowest up, g/s in {0, 1/2, 1} or uniform and Omega on
    either side; returns it with its s."""
    while True:
        s = 10.0 ** rng.uniform(lowest, math.log10(0.16))
        g = (0.0, 0.5, 1.0, rng.random())[i % 4] * s
        omega = math.sqrt(1.0 - (s - g))
        if i % 3 or omega == 1.0:
            omega = -omega
        c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
        delta = (1.0 - c.omega) * (1.0 + c.omega)
        if 0.0 < c.gamma + delta and c.gamma + 2.0 * delta < 0.16:
            return c, c.gamma + delta


def test_comb_layer_mass_bounds_what_a_first_panel_misses():
    # the remainder 2 pi f_s - phi, f_s = f + (1/2pi) g/(g + 2x), is at most
    # 0.93 s x on [0, 0.4] (the bound _comb_layer_mass derives), against a
    # 100-digit A/root + x; and one Kronrod panel [0, b] of the integrand the
    # comb integrates misses at most mass(b) against a graded integral
    # within a thousandth of it, where its rounding (~1e-13 phi) is under
    # the bound
    rng = random.Random(41)
    worst = 0.0
    for i in range(40):
        c, s = _ladder_comb(rng, i, -30.0)
        for x in (10.0 ** rng.uniform(-12.0, math.log10(0.4)), rng.uniform(0.0, 0.4)):
            with mpmath.workdps(100):
                g, om, xm = (mpmath.mpf(v) for v in (c.gamma, c.omega, x))
                sh, ch = mpmath.sinh(xm), mpmath.cosh(xm)
                A = -xm * g * ch + (g - 2 * xm * xm) * sh
                root = mpmath.sqrt((2 * xm * ch + g * sh) ** 2 - (2 * xm * om) ** 2)
                r = mpmath.sqrt(xm * xm + g + (1 - om) * (1 + om))
                rest = A / root + xm - xm * (r * r - xm * xm) / (r * (r + xm))
                worst = max(worst, float(abs(rest) / (mpmath.mpf(s) * xm)))
    assert 0.1 < worst <= 0.93, worst
    for i in range(30):
        c, s = _ladder_comb(rng, i, -8.0)
        g = c.gamma

        def rest(x):
            r = math.sqrt(x * x + s)
            return (spectral_integrand(c, x) + g / ((g + 2.0 * x) * TWO_PI)
                    - s / (r * (r / x + 1.0) * TWO_PI))

        mass = deltacomb.energy._comb_layer_mass(s)
        for b in (0.1 * math.sqrt(s), math.sqrt(s), 10.0 * math.sqrt(s), 0.1, 0.399):
            if b >= 0.4:
                continue
            estimate = _panel(rest, 0.0, b)[0]
            breaks = [1e-4 * b * 3.0**k for k in range(9)]
            value, err = integrate_finite(rest, 0.0, b, 1e-3 * mass(b), 1e-300, breaks)
            assert abs(estimate - value) <= mass(b) - err, (c, b)


def test_plate_layer_mass_bounds_what_a_first_panel_misses():
    # the remainder F_s - psi - x, F_s = F + g/(g + 2x), is at most 0.34 (x^2
    # + g) on [0, 0.4] for any w, and within 0.35 (w^2 + g) of its value at
    # w = g = 0, 2 - x coth(x/2) (the bounds _plate_layer_mass derives),
    # against a 100-digit A/(B + C cos theta); and one Kronrod panel [0, b] of
    # the integrand the plate integrates misses at most mass(b) against a
    # graded integral within a thousandth of it, where its rounding (~eps
    # per value) is under the bound
    rng = random.Random(41)
    worst = worst_w = 0.0
    for i in range(40):
        c, theta = _marginal_plate(rng, i, -30.0, 0.4)
        for x in (10.0 ** rng.uniform(-12.0, math.log10(0.4)), rng.uniform(0.0, 0.4)):
            with mpmath.workdps(100):
                g, om, xm = (mpmath.mpf(v) for v in (c.gamma * c.a, c.omega, x))
                sh, ch = mpmath.sinh(xm), mpmath.cosh(xm)
                q = 1 + om * mpmath.cos(mpmath.mpf(theta))
                A = -xm * g * ch + (g - 2 * xm * xm) * sh
                rest = A / (2 * xm * ch + g * sh + 2 * xm * (q - 1)) + 2 * xm * xm / (xm * xm + g + 2 * q)
                worst = max(worst, float(abs(rest) / (xm * xm + g)))
                at_zero = 2 - xm * mpmath.coth(xm / 2)
                worst_w = max(worst_w, float(abs(rest - at_zero) / (g + 2 * q + g)))
    assert 0.1 < worst <= 0.34, worst
    assert 0.005 < worst_w <= 0.35, worst_w
    for i in range(30):
        c, theta = _marginal_plate(rng, i, -4.0, 0.4)
        a, g = c.a, c.gamma * c.a
        w = math.sqrt(g + 2.0 * one_plus_omega_cos(c.omega, theta))
        if not w < 0.4:
            continue

        def rest(x):
            return (theta_integrand(c, x / a, theta) + g / (g + 2.0 * x)
                    + 2.0 / (1.0 + (w / x) ** 2)) / TWO_PI

        mass = deltacomb.energy._plate_layer_mass(g, w)
        for b in (0.1 * w, w, 10.0 * w, 0.1, 0.399):
            if b >= 0.4:
                continue
            estimate = _panel(rest, 0.0, b)[0]
            breaks = [1e-4 * b * 3.0**k for k in range(9)]
            value, err = integrate_finite(rest, 0.0, b, 1e-3 * mass(b), 1e-300, breaks)
            assert abs(estimate - value) <= mass(b) - err, (c, theta, b)


def _no_mass(b):
    raise AssertionError(f"mass asked for at b = {b!r}")


def test_a_layer_of_mid_width_gets_one_rung_at_its_width():
    for w in (0.4, 0.5, 1.0, 1.23, 1.7499):
        assert deltacomb.energy._graded_breakpoints(w, 1.0, _no_mass) == ([w], 0.0)


def test_a_thin_layer_gets_a_ladder_from_a_decade_below_it():
    # w 10^j from j = -1: every rung below 0.4, and the next one too if it
    # is within two decades of w and below 1.75
    rng = random.Random(4)
    widths = [0.004, 0.0175, 0.02, 0.039, 0.1, 0.17, 0.2, 0.399, 1e-161]
    widths += [10.0 ** rng.uniform(-160.0, math.log10(0.4)) for _ in range(200)]
    for w in widths:
        breaks, dropped = deltacomb.energy._graded_breakpoints(w, 0.0, lambda b: 1.0)
        assert breaks[0] == 0.1 * w and dropped == 0.0, w
        assert all(hi == pytest.approx(10.0 * lo, rel=1e-15) for lo, hi in zip(breaks, breaks[1:]))
        top = breaks[-1]
        assert top < 0.4 or (top < 1.75 and top <= 100.0 * w * (1.0 + 1e-14)), (w, breaks)
        nxt = 10.0 * top
        assert nxt >= 0.4 and (nxt >= 1.75 or nxt > 100.0 * w * (1.0 + 1e-14) or top >= 0.4), (w, breaks)


def test_a_layer_of_zero_or_of_1_75_or_wider_gets_no_rung():
    for w in (0.0, 1.75, 2.0, 3.0, 100.0):
        assert deltacomb.energy._graded_breakpoints(w, 1.0, _no_mass) == ([], 0.0)


def test_the_floor_drops_only_rungs_below_the_bulk_scale():
    # a mass that may not be asked for at b >= 0.4 never is; the floor still
    # drops the low rungs, and the rung past 0.4 stays
    def mass(b):
        assert b < 0.4, b
        return b * b

    breaks, dropped = deltacomb.energy._graded_breakpoints(0.01, 2e-4, mass)
    assert breaks == pytest.approx([0.01, 0.1, 1.0], rel=1e-15)
    assert dropped == pytest.approx(1e-4, rel=1e-14)
    breaks, dropped = deltacomb.energy._graded_breakpoints(0.1, 1.0, mass)
    assert breaks == pytest.approx([0.1, 1.0], rel=1e-15) and dropped == pytest.approx(0.01)


def test_a_mid_width_layer_costs_one_panel_fewer(monkeypatch):
    # w = sqrt(g + 2 delta) = sqrt(2) at Omega = -0.5, gamma a = 0.5: with a
    # rung at w the first panels of [0, x0] pass, 45 evaluations for the
    # comb's run on [0, 5] and 12 for its tail, 45 and 28 for its plate at
    # theta = 1.  Without the rung [0, x0] fails and is bisected, one panel
    # (15 evaluations) more for each, and the values agree within both
    # runs' errors
    comb_calls = _count_calls(monkeypatch, "spectral_integrand")
    plate_calls = _count_calls(monkeypatch, "theta_integrand")
    c = CombCouplings.from_reduced(omega=-0.5, gamma=0.5, a=1.0)
    comb, plate = comb_energy(c), plate_energy(c, 1.0)
    assert (len(comb_calls), len(plate_calls)) == (57, 73)
    comb_calls.clear()
    plate_calls.clear()
    monkeypatch.setattr(deltacomb.energy, "_graded_breakpoints", lambda width, budget, mass: ([], 0.0))
    bare_comb, bare_plate = comb_energy(c), plate_energy(c, 1.0)
    assert (len(comb_calls), len(plate_calls)) == (72, 88)
    for res, bare in ((comb, bare_comb), (plate, bare_plate)):
        assert abs(res.value - bare.value) <= res.abs_err + bare.abs_err, (res, bare)


def test_a_generic_comb_takes_four_panels(monkeypatch):
    # the bench's generic probe: [0, 1.23], [1.23, 2.5] and [2.5, 5] with a
    # rung at its width 1.23, 45 evaluations, and 12 for the tail past 5
    calls = _count_calls(monkeypatch, "spectral_integrand")
    comb_energy(CombCouplings(w0=1.0, w1=0.3, a=1.0))
    assert len(calls) == 57


def test_energies_gate_the_gamma_a_their_integrands_see():
    # g = gamma a within a few ulps of the limit at spacings away from 1: an
    # energy either stops at the gate, naming c's own values, or comes back
    # finite
    rng = random.Random(7)
    limit = deltacomb.energy._MAX_GAMMA_A
    gated = 0
    for _ in range(40):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        g = limit * (1.0 + rng.randint(-8, 4) * 2.0**-52)
        c = CombCouplings.from_reduced(omega=rng.uniform(-1.0, 1.0), gamma=g / a, a=a)
        try:
            res = comb_energy(c)
        except OutsideValidityDomainError as exc:
            assert "gamma a exceeds" in str(exc) and f"{c.a!r}), gamma" in str(exc)
            gated += 1
        else:
            assert math.isfinite(res.value) and math.isfinite(res.abs_err)
    assert 0 < gated < 40


def test_gamma_a_at_the_limit_stays_finite():
    c = CombCouplings.from_reduced(omega=0.3, gamma=1e150, a=1.0)
    for res in (comb_energy(c), plate_energy(c, 1.0)):
        assert math.isfinite(res.value) and math.isfinite(res.abs_err)
        assert abs(res.value + math.pi / 24.0) <= 1e-6


def test_tiny_gamma_matches_gamma_zero(monkeypatch):
    # B^2 - C^2 underflows to 0 at gamma = 1e-300; its factors do not.  The
    # ladder's floor drops the layer, whose g ln g is in closed form, so the
    # cost stays near the gamma = 0 energy's (no panel per decade of
    # 1/gamma, and no x small enough for B - |C| to underflow at |Omega| = 1),
    # and at Omega = -1 the energy moves off the free one by the law (g/8pi)
    # (ln g - 1), up to O(g^2 ln g)
    calls = _count_calls(monkeypatch, "spectral_integrand")
    for omega in (0.5, -1.0):
        calls.clear()
        free = comb_energy(CombCouplings.from_reduced(omega=omega, gamma=0.0, a=1.0))
        at_zero = len(calls)
        for gamma in (1e-300, 1e-200):
            calls.clear()
            res = comb_energy(CombCouplings.from_reduced(omega=omega, gamma=gamma, a=1.0))
            assert len(calls) <= 2 * at_zero
            law = gamma * (math.log(gamma) - 1.0) / (8.0 * math.pi) if omega == -1.0 else 0.0
            assert abs(res.value - free.value - law) <= res.abs_err + free.abs_err


def test_plate_near_the_marginal_phase_keeps_its_step(monkeypatch):
    # At fixed theta the integrand steps from 0 to -2 across
    # x ~ sqrt(g + 2(1 + Omega cos theta)), a layer of mass half that width
    # (Omega = -1 here).  At theta = 0 the default tolerance agrees with a
    # tight one
    for w0 in (1e-14, 1e-16):
        c = CombCouplings(w0=w0, w1=0.0, a=1.0)
        loose = plate_energy(c, 0.0)
        tight = plate_energy(c, 0.0, abs_tol=1e-14)
        assert abs(loose.value - tight.value) <= loose.abs_err + tight.abs_err
    # gamma = 1e-30 moves the free plate by far less than abs_err
    c = CombCouplings(w0=1e-30, w1=0.0, a=1.0)
    for theta in (1e-8, 1e-7, 1e-6):
        res = plate_energy(c, theta)
        assert abs(res.value - _plate_energy_closed(theta, 1.0)) <= res.abs_err, theta
    # at gamma = 0 the step is w = 2 sin(theta/2) wide, and its closed form
    # carries the plate's non-analytic |theta|: each energy lands on (|theta|
    # - theta^2/2pi - pi/3)/2a within abs_err, in at most 135 evaluations at
    # the default tolerances and 240 at (1e-15, 1e-13) (the step integrated
    # under the ladder took 180-285 and 330-555)
    calls = _count_calls(monkeypatch, "theta_integrand")
    c = CombCouplings(w0=0.0, w1=0.0, a=1.0)
    for tols, cap in (((ABS_TOL, REL_TOL), 135), ((1e-15, 1e-13), 240)):
        for theta in (1e-9, 1e-6, 1.4e-6, 1e-5, 1e-3, 0.1):
            calls.clear()
            res = plate_energy(c, theta, *tols)
            assert abs(res.value - _plate_energy_closed(theta, 1.0)) <= res.abs_err, (tols, theta, res)
            assert len(calls) <= cap, (tols, theta, len(calls))


def test_comb_energy_agrees_with_an_unseeded_run_to_40(monkeypatch):
    # the run on [0, 5] starts split at the rung 1.23 and at x0 = 2.5, and
    # adds the tail past 5 by its rule; an unseeded run of f on [0, 40]
    # agrees within both errors
    calls = _count_calls(monkeypatch, "spectral_integrand")
    c = CombCouplings(w0=1.0, w1=0.3, a=1.0)
    res = comb_energy(c)
    assert 0 < len(calls) <= 140
    value, err = integrate_finite(lambda x: spectral_integrand(c, x), 0.0, 40.0, ABS_TOL, REL_TOL)
    assert abs(res.value - value) <= res.abs_err + err


@pytest.mark.parametrize(
    "w0, w1, a", [(1.0, 0.3, 1.0), (1e-6, 0.0, 1.0), (2.0, 0.5, 0.05), (2.0, 0.5, 20.0)]
)
def test_comb_energy_evaluates_through_the_module_integrand(monkeypatch, w0, w1, a):
    # bench/tracing.count_probes counts energy.evals.* at these four combs as
    # calls through the module attribute, and leaves out a counter at zero
    calls = _count_calls(monkeypatch, "spectral_integrand")
    comb_energy(CombCouplings(w0=w0, w1=w1, a=a))
    assert len(calls) > 0


def test_comb_energy_evaluations_do_not_grow_with_spacing(monkeypatch):
    calls = _count_calls(monkeypatch, "spectral_integrand")
    comb_energy(CombCouplings(w0=2.0, w1=0.5, a=1.0))
    at_unit = len(calls)
    calls.clear()
    comb_energy(CombCouplings(w0=2.0, w1=0.5, a=20.0))
    assert 0 < len(calls) <= at_unit


def test_comb_energy_rejects_attractive_comb():
    with pytest.raises(OutsideValidityDomainError):
        comb_energy(CombCouplings(w0=-0.5, w1=0.0, a=1.0))


def test_energy_equals_theta_average_of_plate_energy():
    # Fubini: averaging the fixed-phase plate energy over theta gives the
    # per-cell energy; the plate integrand is even in theta
    c = CombCouplings.from_reduced(omega=0.5, gamma=2.0, a=1.0)
    comb = comb_energy(c).value
    relaxed = (1e-8, 1e-7)
    avg, _ = integrate_finite(
        lambda th: plate_energy(c, th, *relaxed).value, 0.0, math.pi, *relaxed
    )
    assert abs(avg / math.pi - comb) <= 1e-8
    # near-free combs: the paper's Bloch-phase sum with both thin layers in
    # closed form, the comb's sqrt(s) layer and each plate's step, whose
    # theta-average carries the comb's -(s ln s)/8pi, agree within their
    # summed errors
    for omega, gamma, a in ((-0.999, 1e-4, 1.0), (0.9999, 1e-6, 2.0), (-1.0, 1e-8, 0.5)):
        dev, bound = _dual_cell_misfit(CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a))
        assert dev <= bound, (omega, gamma, a, dev, bound)


# ------------------------------------------------------------ plate energy


def test_plate_energy_closed_form_values():
    assert _plate_energy_closed(0.0, 1.0) == pytest.approx(-math.pi / 6.0, abs=1e-15)
    assert _plate_energy_closed(math.pi, 1.0) == pytest.approx(math.pi / 12.0, abs=1e-15)
    assert _plate_energy_closed(1.0, 2.0) == _plate_energy_closed(-1.0, 2.0)
    with pytest.raises(ValueError):
        _plate_energy_closed(4.0, 1.0)
    with pytest.raises(ValueError):
        _plate_energy_closed(0.0, -1.0)


def test_plate_energy_free_comb_matches_closed_form():
    free = CombCouplings(w0=0.0, w1=0.0, a=1.0)
    for theta in (0.0, 0.5, 1.5, math.pi):
        assert abs(plate_energy(free, theta).value - _plate_energy_closed(theta, 1.0)) <= 1e-8


def test_plate_energy_is_even_and_validated():
    c = CombCouplings(w0=2.0, w1=0.5, a=1.0)
    assert plate_energy(c, 1.1) == plate_energy(c, -1.1)
    with pytest.raises(ValueError):
        plate_energy(c, 3.5)
    with pytest.raises(OutsideValidityDomainError):
        plate_energy(CombCouplings(w0=-1.0, w1=0.0, a=1.0), 0.0)
