"""Vacuum-energy integrands, closed-form limits, and the energy integrals.

Reference energies were frozen from runs cross-checked against the direct
Bloch-phase quadrature oracle and the closed-form limits; the quadrature
is deterministic, so agreement is to near machine precision.
"""

import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacomb import (
    CombCouplings,
    OutsideValidityDomainError,
    QuadratureConfig,
    ValidityViolationError,
    comb_energy,
    integrate_finite,
    plate_energy,
    plate_energy_closed,
    spectral_integrand,
    theta_integrand,
)
import deltacomb.energy
from deltacomb.energy import _theta_integral_numeric

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
    for x in (1e-160, 1e-170, 1e-300):
        assert spectral_integrand(free, x) == 0.0
        assert theta_integrand(free, x, 0.0) == -2.0
    stiff = CombCouplings(w0=1.0, w1=1e200, a=1.0)  # Omega = 1, gamma = 0
    assert spectral_integrand(stiff, 1e-170) == 0.0


def _oracle(g, omega, x, thetas):
    """I and F at each theta in 80-digit mpmath, from B -+ |C| and
    B + C cos(theta) as sums of non-negative terms and with A/root + x
    written as head/root (the identities the module documents); sinh x
    - x cosh x is the series -(x^3/3) 0F1(; 5/2; x^2/4), so nothing cancels
    at tiny x.  Returns I and the list of F."""
    with mpmath.workdps(80):
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
    # x in [1e-300, 40] on both sides of x = 5, theta in {0, pi} u (-pi, pi),
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
        side = "x <= 5" if x <= 5.0 else "x > 5"
        errors = [abs(spectral_integrand(c, x) - I) / (abs(I) + x * math.exp(-2.0 * x))]
        errors += [
            abs(theta_integrand(c, x, theta) - F) / (abs(F) + x * math.exp(-x))
            for theta, F in zip(thetas, Fs)
        ]
        worst[side] = max(worst.get(side, 0.0), *errors)
    assert set(worst) == {"x <= 5", "x > 5"}
    assert max(worst.values()) <= 1e-13, worst


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
    tight = QuadratureConfig(abs_tol=1e-12)
    for gamma, omega, a, k in (
        (3.0, 0.4, 1.0, 2.0),
        (0.5, -0.9, 2.0, 0.3),
        (8.0, 0.99, 0.5, 11.0),  # k a > 5: the rearranged branch
    ):
        c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
        closed = spectral_integrand(c, k)
        numeric, err = _theta_integral_numeric(c, k, tight)
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
    assert 0.0 < res1.tail_bound < 1e-20
    assert res1.truncation_k == 40.0


def test_comb_energy_strong_coupling_approaches_dirichlet():
    res = comb_energy(CombCouplings(w0=1e6, w1=0.0, a=1.0))
    target = -math.pi / 24.0
    assert abs(res.value - target) / abs(target) <= 1e-3


def test_comb_energy_is_deterministic():
    c = CombCouplings(w0=3.0, w1=0.7, a=1.0)
    assert comb_energy(c) == comb_energy(c)


def test_comb_energy_truncation_override():
    # cut early enough that the discarded tail dwarfs quadrature noise,
    # then check the reported bound actually covers it
    cfg = QuadratureConfig(truncation_k=8.0)
    res = comb_energy(CombCouplings(w0=5.0, w1=0.5, a=1.0), cfg)
    assert res.truncation_k == 8.0
    full = comb_energy(CombCouplings(w0=5.0, w1=0.5, a=1.0))
    missing = abs(res.value - full.value)
    assert 1e-10 < missing <= res.tail_bound + full.tail_bound


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
    assert abs(comb.value - comb_value) <= comb.abs_err
    assert abs(plate.value - plate_value) <= plate.abs_err
    for res in (comb, plate):
        assert res.truncation_k == pytest.approx(40.0 / a, rel=1e-15)
        assert 0.0 < res.tail_bound < 1e-14


def test_abs_tol_holds_in_energy_units_at_small_spacing():
    # the x integrals run at abs_tol * a; with abs_tol itself they would
    # report errors up to abs_tol / a here
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-14)
    for a in (0.01, 0.05):
        c = CombCouplings(w0=2.0, w1=0.5, a=a)
        mixed = CombCouplings.from_reduced(omega=0.0, gamma=0.0, a=a)
        for res in (comb_energy(c, cfg), comb_energy(mixed, cfg), plate_energy(c, 1.0, cfg)):
            assert res.abs_err <= cfg.abs_tol


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
    cfg = QuadratureConfig()
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
        assert res.abs_err <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value)), (c, theta)


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
    for c in (
        CombCouplings(w0=1e300, w1=0.0, a=1e10),  # gamma a overflows
        CombCouplings.from_reduced(omega=0.3, gamma=1e154, a=1.0),
    ):
        with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
            comb_energy(c)
        with pytest.raises(OutsideValidityDomainError, match="gamma a exceeds"):
            plate_energy(c, 1.0)


def test_gamma_a_at_the_limit_stays_finite():
    c = CombCouplings.from_reduced(omega=0.3, gamma=1e150, a=1.0)
    for res in (comb_energy(c), plate_energy(c, 1.0)):
        assert math.isfinite(res.value) and math.isfinite(res.abs_err)
        assert abs(res.value + math.pi / 24.0) <= 1e-6


def test_tiny_gamma_matches_gamma_zero(monkeypatch):
    # B^2 - C^2 underflows to 0 at gamma = 1e-300; its factors do not.  The
    # ladder's floor leaves the layer of mass ~ gamma ln gamma to abs_err, so
    # the cost stays near the gamma = 0 energy's (no panel per decade of
    # 1/gamma, and no x small enough for B - |C| to underflow at |Omega| = 1)
    calls = []
    counted = deltacomb.energy.spectral_integrand

    def counting(c, k):
        calls.append(k)
        return counted(c, k)

    monkeypatch.setattr(deltacomb.energy, "spectral_integrand", counting)
    for omega in (0.5, -1.0):
        calls.clear()
        free = comb_energy(CombCouplings.from_reduced(omega=omega, gamma=0.0, a=1.0))
        at_zero = len(calls)
        for gamma in (1e-300, 1e-200):
            calls.clear()
            res = comb_energy(CombCouplings.from_reduced(omega=omega, gamma=gamma, a=1.0))
            assert len(calls) <= 2 * at_zero
            assert abs(res.value - free.value) <= res.abs_err + free.abs_err


def test_plate_near_the_marginal_phase_keeps_its_step():
    # At fixed theta the integrand steps from 0 to -2 across
    # x ~ sqrt(g + 2(1 + Omega cos theta)), a layer of mass half that width
    # that the ladder's floor must not drop (Omega = -1 here).  At theta = 0
    # the default tolerance agrees with a tight one, which keeps low rungs
    for w0 in (1e-14, 1e-16):
        c = CombCouplings(w0=w0, w1=0.0, a=1.0)
        loose = plate_energy(c, 0.0)
        tight = plate_energy(c, 0.0, QuadratureConfig(abs_tol=1e-14))
        assert abs(loose.value - tight.value) <= loose.abs_err + tight.abs_err
    # gamma = 1e-30 moves the free plate by far less than abs_err; at
    # gamma = 0 there is no gamma layer, and the ladder grades on the step
    for w0, thetas in ((1e-30, (1e-8, 1e-7, 1e-6)), (0.0, (1e-9, 1.4e-6, 1e-5, 1e-3))):
        c = CombCouplings(w0=w0, w1=0.0, a=1.0)
        for theta in thetas:
            res = plate_energy(c, theta)
            assert abs(res.value - plate_energy_closed(theta, 1.0)) <= res.abs_err, (w0, theta)


def test_dyadic_seeds_save_evaluations_and_keep_the_value(monkeypatch):
    # [0, 40] starts split at 2.5, 5, 10 and 20, where bisection would go
    # anyway; the unseeded run of the same integrand agrees within the errors
    calls = []
    counted = deltacomb.energy.spectral_integrand

    def counting(c, k):
        calls.append(k)
        return counted(c, k)

    monkeypatch.setattr(deltacomb.energy, "spectral_integrand", counting)
    c = CombCouplings(w0=1.0, w1=0.3, a=1.0)
    res = comb_energy(c)
    assert 0 < len(calls) <= 140
    value, err = integrate_finite(lambda x: counted(c, x), 0.0, 40.0, QuadratureConfig())
    assert abs(res.value - value) <= res.abs_err + err


@pytest.mark.parametrize(
    "w0, w1, a", [(1.0, 0.3, 1.0), (1e-6, 0.0, 1.0), (2.0, 0.5, 0.05), (2.0, 0.5, 20.0)]
)
def test_comb_energy_evaluates_through_the_module_integrand(monkeypatch, w0, w1, a):
    # bench/tracing.count_probes counts energy.evals.* at these four combs as
    # calls through the module attribute, and leaves out a counter at zero
    calls = []
    counted = deltacomb.energy.spectral_integrand

    def counting(c, k):
        calls.append(k)
        return counted(c, k)

    monkeypatch.setattr(deltacomb.energy, "spectral_integrand", counting)
    comb_energy(CombCouplings(w0=w0, w1=w1, a=a))
    assert len(calls) > 0


def test_comb_energy_evaluations_do_not_grow_with_spacing(monkeypatch):
    calls = []
    counted = deltacomb.energy.spectral_integrand

    def counting(c, k):
        calls.append(k)
        return counted(c, k)

    monkeypatch.setattr(deltacomb.energy, "spectral_integrand", counting)
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
    relaxed = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    avg, _ = integrate_finite(
        lambda th: plate_energy(c, th, relaxed).value, 0.0, math.pi, relaxed
    )
    assert abs(avg / math.pi - comb) <= 1e-8


# ------------------------------------------------------------ plate energy


def test_plate_energy_closed_form_values():
    assert plate_energy_closed(0.0, 1.0) == pytest.approx(-math.pi / 6.0, abs=1e-15)
    assert plate_energy_closed(math.pi, 1.0) == pytest.approx(math.pi / 12.0, abs=1e-15)
    assert plate_energy_closed(1.0, 2.0) == plate_energy_closed(-1.0, 2.0)
    with pytest.raises(ValueError):
        plate_energy_closed(4.0, 1.0)
    with pytest.raises(ValueError):
        plate_energy_closed(0.0, -1.0)


def test_plate_energy_free_comb_matches_closed_form():
    free = CombCouplings(w0=0.0, w1=0.0, a=1.0)
    for theta in (0.0, 0.5, 1.5, math.pi):
        assert abs(plate_energy(free, theta).value - plate_energy_closed(theta, 1.0)) <= 1e-8


def test_plate_energy_truncation_override():
    # as for comb_energy: the reported tail bound covers what an early cut drops
    c = CombCouplings(w0=5.0, w1=0.5, a=1.0)
    res = plate_energy(c, 1.0, QuadratureConfig(truncation_k=8.0))
    assert res.truncation_k == 8.0
    full = plate_energy(c, 1.0)
    missing = abs(res.value - full.value)
    assert 1e-10 < missing <= res.tail_bound + full.tail_bound


def test_plate_energy_is_even_and_validated():
    c = CombCouplings(w0=2.0, w1=0.5, a=1.0)
    assert plate_energy(c, 1.1) == plate_energy(c, -1.1)
    with pytest.raises(ValueError):
        plate_energy(c, 3.5)
    with pytest.raises(OutsideValidityDomainError):
        plate_energy(CombCouplings(w0=-1.0, w1=0.0, a=1.0), 0.0)
