"""Scattering amplitudes of the delta and delta-delta' potentials.

Frozen values below are hand-checked complex arithmetic; the property
tests exercise unitarity, the unimodular determinant, and the w1 = 0
reduction over the ranges the module contracts for.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacomb import (
    AmplitudePoleError,
    CombCouplings,
    InvalidLatticeSpacingError,
    OutsideValidityDomainError,
    delta_amplitudes,
    delta_prime_amplitudes,
    s_matrix_det,
)

strengths_w0 = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
strengths_w1 = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
momenta = st.floats(1e-3, 50.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- couplings


def test_derive_couplings_free():
    c = CombCouplings(w0=0.0, w1=0.0, a=1.0)
    assert c.omega == -1.0
    assert c.gamma == 0.0
    assert c.alpha == 1.0
    assert c.beta == 0.0


def test_derive_couplings_w1_unity_flags_alpha_beta():
    c = CombCouplings(w0=2.0, w1=1.0, a=1.0)
    assert c.omega == 0.0
    assert c.gamma == 1.0
    assert c.alpha is None and c.beta is None
    c = CombCouplings(w0=2.0, w1=-1.0, a=1.0)
    assert c.alpha is None and c.beta is None


def test_derive_couplings_generic():
    c = CombCouplings(w0=3.0, w1=2.0, a=0.5)
    assert c.omega == pytest.approx(3.0 / 5.0, abs=1e-15)
    assert c.gamma == pytest.approx(3.0 / 5.0, abs=1e-15)
    assert c.alpha == pytest.approx(-3.0, abs=1e-15)
    assert c.beta == pytest.approx(-1.0, abs=1e-15)


def test_gamma_tracks_w0_sign():
    for w0 in (-2.0, -0.5, 0.5, 7.0):
        c = CombCouplings(w0=w0, w1=1.7, a=1.0)
        assert math.copysign(1.0, c.gamma) == math.copysign(1.0, w0)
    assert CombCouplings(w0=3.0, w1=0.0, a=1.0).gamma == 3.0  # gamma = w0 at w1 = 0


def test_lattice_spacing_must_be_positive():
    with pytest.raises(InvalidLatticeSpacingError):
        CombCouplings(w0=1.0, w1=0.0, a=0.0)
    with pytest.raises(InvalidLatticeSpacingError):
        CombCouplings(w0=1.0, w1=0.0, a=-2.0)
    for a in (math.inf, math.nan):
        with pytest.raises(InvalidLatticeSpacingError):
            CombCouplings(w0=1.0, w1=0.0, a=a)


def test_couplings_must_be_finite():
    for w0, w1 in ((math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(OutsideValidityDomainError):
            CombCouplings(w0=w0, w1=w1, a=1.0)


def test_huge_w1_reduces_without_overflow():
    # w1^2 overflows; the w1^-2 forms give the Omega = 1, gamma = 0 limit
    c = CombCouplings(w0=1.0, w1=1e200, a=1.0)
    assert c.omega == 1.0 and c.gamma == 0.0
    # and agree with the direct forms where both are representable
    for w1 in (1.5, -3.0, 1e3):
        c = CombCouplings(w0=2.0, w1=w1, a=1.0)
        assert c.omega == pytest.approx((w1 * w1 - 1.0) / (w1 * w1 + 1.0), rel=1e-15)
        assert c.gamma == pytest.approx(2.0 / (1.0 + w1 * w1), rel=1e-15)


def test_from_reduced_endpoints():
    c = CombCouplings.from_reduced(omega=-1.0, gamma=2.0, a=1.0)
    assert c.w1 == 0.0 and c.w0 == 2.0  # w0 = 2 gamma/(1 - omega) = 4/2
    with pytest.raises(ValueError):
        CombCouplings.from_reduced(omega=1.0, gamma=0.0, a=1.0)
    with pytest.raises(ValueError):
        CombCouplings.from_reduced(omega=-1.5, gamma=0.0, a=1.0)


@given(
    omega=st.floats(-0.999, 0.995),
    gamma=st.floats(-5.0, 5.0),
    a=st.floats(0.1, 10.0),
)
@settings(deadline=None)
def test_from_reduced_roundtrip(omega, gamma, a):
    c = CombCouplings.from_reduced(omega=omega, gamma=gamma, a=a)
    assert c.w1 >= 0.0
    assert abs(c.omega - omega) <= 1e-12
    assert abs(c.gamma - gamma) <= 1e-12 * max(1.0, abs(gamma))


# --------------------------------------------------------------- amplitudes


def test_delta_free():
    amps = delta_amplitudes(0.0, 1.0)
    assert amps.t == 1.0 and amps.rR == 0.0 and amps.rL == 0.0


def test_delta_frozen_example():
    # t = 2i/(2i - 2) = (1 - i)/2, r = 2/(2i - 2) = -(1 + i)/2
    amps = delta_amplitudes(2.0, 1.0)
    assert abs(amps.t - (0.5 - 0.5j)) <= 1e-15
    assert abs(amps.rR - (-0.5 - 0.5j)) <= 1e-15
    assert amps.rR == amps.rL
    assert abs(abs(amps.t) ** 2 + abs(amps.rR) ** 2 - 1.0) <= 1e-15


def test_delta_strong_coupling_is_reflecting():
    amps = delta_amplitudes(1e12, 1.0)
    assert abs(amps.t) <= 1e-11
    assert abs(amps.rR + 1.0) <= 1e-11


def test_delta_prime_free_and_reduction_example():
    free = delta_prime_amplitudes(CombCouplings(w0=0.0, w1=0.0, a=1.0), 0.7)
    assert free.t == 1.0 and free.rR == 0.0 and free.rL == 0.0
    prime = delta_prime_amplitudes(CombCouplings(w0=1.0, w1=0.0, a=1.0), 1.0)
    plain = delta_amplitudes(1.0, 1.0)
    assert abs(prime.t - plain.t) <= 1e-15
    assert abs(prime.rR - plain.rR) <= 1e-15
    assert abs(prime.rL - plain.rL) <= 1e-15


def test_delta_prime_w1_unity_perfectly_reflecting():
    # D = 4 + 2i: t = 0, rR = (-4 - 2i)/(4 + 2i) = -1, rL = (4 - 2i)/(4 + 2i)
    amps = delta_prime_amplitudes(CombCouplings(w0=2.0, w1=1.0, a=1.0), 1.0)
    assert amps.t == 0.0
    assert amps.rR == -1.0
    assert abs(amps.rL - (0.6 - 0.8j)) <= 1e-15
    assert abs(abs(amps.rL) - 1.0) <= 1e-15  # unitarity with |t| = 0


def test_delta_prime_huge_w1_is_finite_and_unitary():
    # w1^2 overflows past |w1| ~ 1.3e154; the amplitudes are formed over w1^2
    for w1 in (1e200, -1e200):
        amps = delta_prime_amplitudes(CombCouplings(w0=1.0, w1=w1, a=1.0), 1.0)
        assert amps.t == -1.0
        assert abs(abs(amps.t) ** 2 + abs(amps.rR) ** 2 - 1.0) <= 1e-15
        assert abs(s_matrix_det(amps) - 1.0) <= 1e-15
    # and agree with the direct forms where w1^2 is representable
    for w1 in (1.5, -3.0, 1e3):
        amps = delta_prime_amplitudes(CombCouplings(w0=2.0, w1=w1, a=1.0), 0.7)
        s = w1 * w1
        den = 1.4 * (s + 1.0) + 2.0j
        assert abs(amps.t - (-1.4 * (s - 1.0) / den)) <= 1e-15
        assert abs(amps.rR - (-2.8 * w1 - 2.0j) / den) <= 1e-15
        assert abs(amps.rL - (2.8 * w1 - 2.0j) / den) <= 1e-15


def test_amplitudes_on_positive_imaginary_axis_are_real():
    # Wick-rotated momentum k = i kappa makes the delta amplitudes real
    amps = delta_amplitudes(2.0, 0.5j)
    assert abs(amps.t.imag) == 0.0 and abs(amps.rR.imag) == 0.0
    assert amps.t == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_amplitude_poles_raise():
    # 2ik = w0 on the positive imaginary axis (bound-state momentum)
    with pytest.raises(AmplitudePoleError):
        delta_amplitudes(-2.0, 1.0j)
    with pytest.raises(AmplitudePoleError):
        delta_prime_amplitudes(CombCouplings(w0=-4.0, w1=1.0, a=1.0), 1.0j)


# -------------------------------------------------------------- S-matrix det


def test_det_free_is_one():
    assert s_matrix_det(delta_prime_amplitudes(CombCouplings(0.0, 0.0, 1.0), 2.0)) == 1.0


def test_det_frozen_example():
    # (2 - 2i)/(2 + 2i) = -i
    det = s_matrix_det(delta_amplitudes(2.0, 1.0))
    assert abs(det - (-1j)) <= 1e-15


def test_det_threshold_limit_is_minus_one():
    # t(0)^2 - rR(0) rL(0) -> -1 for w0 != 0
    for w0, w1 in ((2.0, 0.0), (2.0, 0.7), (-3.0, 1.4)):
        det = s_matrix_det(
            delta_prime_amplitudes(CombCouplings(w0=w0, w1=w1, a=1.0), 1e-9)
        )
        assert abs(det + 1.0) <= 1e-7


@given(w0=strengths_w0, w1=strengths_w1, k=momenta)
@settings(deadline=None)
def test_unitarity(w0, w1, k):
    amps = delta_prime_amplitudes(CombCouplings(w0=w0, w1=w1, a=1.0), k)
    assert abs(abs(amps.t) ** 2 + abs(amps.rR) ** 2 - 1.0) <= 1e-12
    assert abs(abs(amps.t) ** 2 + abs(amps.rL) ** 2 - 1.0) <= 1e-12


@given(w0=strengths_w0, w1=strengths_w1, k=momenta)
@settings(deadline=None)
def test_det_matches_closed_form_and_is_unimodular(w0, w1, k):
    amps = delta_prime_amplitudes(CombCouplings(w0=w0, w1=w1, a=1.0), k)
    det = s_matrix_det(amps)
    den = 2.0 * k * (w1 * w1 + 1.0) + 1j * w0
    closed = (2.0 * k * (w1 * w1 + 1.0) - 1j * w0) / den
    assert abs(det - closed) <= 1e-13
    assert abs(abs(det) - 1.0) <= 1e-12


@given(w0=strengths_w0, k=momenta)
@settings(deadline=None)
def test_delta_prime_reduces_to_delta(w0, k):
    prime = delta_prime_amplitudes(CombCouplings(w0=w0, w1=0.0, a=1.0), k)
    plain = delta_amplitudes(w0, k)
    assert abs(prime.t - plain.t) <= 1e-15
    assert abs(prime.rR - plain.rR) <= 1e-15
    assert abs(prime.rL - plain.rL) <= 1e-15
