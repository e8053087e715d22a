"""Band-structure extraction: secular functions, dispersion, edges.

Irrational reference roots were frozen from an independent fine-step
scan-and-bisect oracle (1e-4 grid, 200 bisections); rational ones (n pi,
(n + 1/2) pi) are exact statements about the secular functions.
"""

import cmath
import inspect
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltacomb import (
    CombCouplings,
    OutsideValidityDomainError,
    ScatteringAmplitudes,
    band_structure,
    delta_prime_amplitudes,
    dispersion,
    s_matrix_det,
    spectral_function,
)
import deltacomb.bands
from deltacomb.bands import _secular_and_slope, band_edges
from deltacomb.verification import _delta_amplitudes

FREE = CombCouplings(w0=0.0, w1=0.0, a=1.0)
MIXED = CombCouplings(w0=0.0, w1=1.0, a=1.0)  # Omega = gamma = 0
KP = CombCouplings(w0=10.0, w1=0.0, a=1.0)
ROOT_TOL = inspect.signature(dispersion).parameters["root_tol"].default

# Kronig-Penney w0 = 10, a = 1: first three roots at theta = 0 and theta = pi.
# k = 2 pi (theta = 0) and k = pi, 3 pi (theta = pi) are exact; the others are
# oracle values.
KP_ROOTS_0 = (2.284453709564703, 2.0 * math.pi, 7.463676172029721)
KP_ROOTS_PI = (math.pi, 4.761288969346805, 3.0 * math.pi)


def _free_amps(k):
    return ScatteringAmplitudes(t=1.0, rR=0.0, rL=0.0, k=k)


def _band_rhs(amps_at, k, a):
    """The amplitude-route oracle: RHS of the band equation
    cos(q a) = [e^{iak} det S + e^{-iak}] / (2 t), real for unitary
    amplitudes at real k, so the imaginary part is dropped."""
    amps = amps_at(k)
    phase = cmath.exp(1j * k * a)
    return ((phase * s_matrix_det(amps) + 1.0 / phase) / (2.0 * amps.t)).real


# ------------------------------------------------- amplitude-route oracle


def test_band_rhs_free_is_cosine():
    for k in (0.3, 1.0, 2.7, 9.1):
        assert _band_rhs(_free_amps, k, 1.5) == pytest.approx(
            math.cos(1.5 * k), abs=1e-12
        )


def test_band_rhs_kronig_penney():
    w0 = 10.0
    for k in (0.5, 1.3, 4.0, 12.0):
        expected = math.cos(k) + (w0 / (2.0 * k)) * math.sin(k)
        got = _band_rhs(lambda kk: _delta_amplitudes(w0, kk), k, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_band_rhs_delta_prime_closed_form():
    # for Omega != 0 the RHS equals -(cos ka + (gamma/2k) sin ka)/Omega, and
    # spectral_function is Omega (cos theta - RHS)
    rng = np.random.default_rng(42)
    for _ in range(50):
        w0 = rng.uniform(0.0, 8.0)
        w1 = rng.uniform(1.1, 2.5) * rng.choice((-1.0, 1.0))
        a = rng.uniform(0.3, 3.0)
        k = rng.uniform(0.05, 20.0)
        theta = rng.uniform(0.0, math.pi)
        c = CombCouplings(w0=w0, w1=w1, a=a)
        rhs = _band_rhs(lambda kk, c=c: delta_prime_amplitudes(c, kk), k, a)
        closed = -(math.cos(k * a) + 0.5 * c.gamma * math.sin(k * a) / k) / c.omega
        assert abs(rhs - closed) <= 1e-10 * max(1.0, abs(closed))
        secular = c.omega * (math.cos(theta) - rhs)
        assert abs(spectral_function(c, k, theta) - secular) <= 1e-10 * max(
            1.0, abs(secular)
        )


# ------------------------------------------------------- secular functions


def test_spectral_function_limits_and_examples():
    assert spectral_function(FREE, 0.0, 0.0) == 0.0
    # Omega = -1, gamma = 2: limit is -1 + 1 + gamma a/2 = 1
    c = CombCouplings.from_reduced(omega=-1.0, gamma=2.0, a=1.0)
    assert spectral_function(c, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # mixed comb: g = cos(ka) for every theta, to rounding of the O(1) terms
    # of 1 - 2 sin^2(ka/2) (k = 11 sits near a zero of cos, 95 ulps of cos k)
    for k in (0.5, 2.0, 11.0):
        value = spectral_function(MIXED, k, 0.0)
        assert abs(value - math.cos(k)) <= 2.0 * math.ulp(1.0)
        for theta in (1.0, math.pi):
            assert spectral_function(MIXED, k, theta) == value
    with pytest.raises(ValueError):
        spectral_function(FREE, -1.0, 0.0)


def test_spectral_function_rejects_non_finite_momentum_by_value():
    c = CombCouplings(w0=1.0, w1=0.3, a=10.0)
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"got k = {k!r}"):
            spectral_function(c, k, 0.5)


def _band_bottom_oracle(c, theta):
    """Band 0's root of (1 + Omega cos theta) - 2 sin^2(ka/2) + (gamma/2)
    sin(ka)/k in 100-digit mpmath, at c's and theta's exact float values
    (1 - cos theta ~ 5e-61 at theta = 1e-30 still keeps 40 digits)."""
    with mpmath.workdps(100):
        om, gamma, a = mpmath.mpf(c.omega), mpmath.mpf(c.gamma), mpmath.mpf(c.a)
        d = 1 + om * mpmath.cos(mpmath.mpf(theta))

        def f(k):
            return d - 2 * mpmath.sin(k * a / 2) ** 2 + gamma / 2 * mpmath.sin(k * a) / k

        # small-k start from f ~ d + g/2 - (ka)^2 (1 + g/6)/2
        g = gamma * a
        k = mpmath.findroot(f, mpmath.sqrt(2 * (d + g / 2) / (1 + g / 6)) / a)
        assert 0 < k < mpmath.pi / a
        return float(k)


def test_band_bottom_at_small_gamma_a_matches_mpmath():
    # near the bottom of band 0 all three terms of the secular function are
    # O((ka)^2); formed as Omega cos(theta) + cos(ka) + ..., the O(1) parts
    # cancelled and cos(ka) rounded to 1 below ka ~ 1e-8, so the root missed
    # root_tol from gamma a ~ 1e-8 down (105x too large at gamma a = 1e-20)
    rng = np.random.default_rng(2718)
    for i in range(60):
        a = 10.0 ** rng.uniform(-2.0, 2.0)
        g = 10.0 ** rng.uniform(-60.0, -2.0)
        omega = -1.0 if i % 2 == 0 else -1.0 + 10.0 ** rng.uniform(-15.0, -2.0)
        theta = 0.0 if i % 3 == 0 else 10.0 ** rng.uniform(-30.0, -2.0)
        c = CombCouplings.from_reduced(omega=omega, gamma=g / a, a=a)
        expected = _band_bottom_oracle(c, theta)
        got = dispersion(c, theta)[0]
        assert abs(got - expected) <= 1e-12 * expected, (g, omega, theta, a)


def _bisected_root_oracle(c, n, theta):
    """Band n's root of Omega cos(theta) + cos(ka) + (gamma/2k) sin(ka) on
    [n pi/a, (n + 1) pi/a], bisected 200 times in 60-digit mpmath at c's and
    theta's exact float values (Omega cos theta = 1 - 7.5e-33 at Omega = -1
    and the double nearest pi)."""
    with mpmath.workdps(60):
        om, gamma, a = mpmath.mpf(c.omega), mpmath.mpf(c.gamma), mpmath.mpf(c.a)
        oc = om * mpmath.cos(mpmath.mpf(theta))

        def f(k):
            return oc + mpmath.cos(k * a) + gamma / (2 * k) * mpmath.sin(k * a)

        lo, hi = n * mpmath.pi / a, (n + 1) * mpmath.pi / a
        lo_positive = (1 + oc + gamma * a / 2 if n == 0 else f(lo)) > 0
        assert (f(hi) > 0) != lo_positive
        for _ in range(200):
            mid = (lo + hi) / 2
            if (f(mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        return float(lo)


def test_band_edges_where_omega_cos_theta_nears_1_match_mpmath():
    # where Omega cos(theta) -> 1 the secular function's 1 + Omega cos theta
    # and 1 - cos(ka) are both near 2 at an edge; their difference cancelled,
    # which put band 1's edge at Omega = -1, theta = pi, gamma a = 1e-6 1.3e-10
    # off, 132 times root_tol.  At Omega cos(theta) = -cos(1e-8), which rounds
    # to -1, the end value 1 + Omega cos theta = 5e-17 is not a zero either
    for omega, theta in ((-1.0, math.pi), (1.0 - 2.0**-40, 0.0), (-1.0, 1e-8)):
        for g in (1e-4, 1e-5, 1e-6):
            c = CombCouplings.from_reduced(omega=omega, gamma=g, a=1.0)
            for n, k in enumerate(dispersion(c, theta, 4)):
                expected = _bisected_root_oracle(c, n, theta)
                assert abs(k - expected) <= ROOT_TOL * expected, (omega, theta, g, n, k, expected)


def test_general_secular_vanishes_at_closed_form_roots():
    # the two secular functions differ by a nonvanishing prefactor, so the
    # closed-form roots must annihilate the amplitude-based one
    rng = np.random.default_rng(777)
    for _ in range(100):
        w0 = rng.uniform(0.1, 8.0)
        w1 = rng.uniform(-2.5, 2.5)
        if abs(abs(w1) - 1.0) < 1e-3:
            w1 = 1.5
        a = rng.uniform(0.3, 3.0)
        theta = rng.uniform(0.0, math.pi)
        c = CombCouplings(w0=w0, w1=w1, a=a)
        for k in dispersion(c, theta, 2):
            # 2 t cos(theta) - e^{-ika} - e^{ika} det S, the amplitude-form
            # secular function, written through the amplitude-route oracle
            amps = delta_prime_amplitudes(c, k)
            f = (_band_rhs(lambda kk, c=c: delta_prime_amplitudes(c, kk), k, a)
                 - math.cos(theta)) * 2.0 * abs(amps.t)
            assert abs(f) <= 1e-10


# -------------------------------------------------------------- dispersion


def test_dispersion_free_comb():
    ks = dispersion(FREE, math.pi / 2.0, 3)
    for got, expected in zip(ks, (0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi)):
        assert abs(got - expected) <= 1e-10


def test_dispersion_free_comb_band_0_at_small_theta():
    # band 0's lower-end value 1 + Omega cos(theta) = 2 sin^2(theta/2) is
    # tiny here but not zero, so the root is k = theta/a, not the edge k = 0
    for a in (0.5, 1.0, 2.0):
        free = CombCouplings(w0=0.0, w1=0.0, a=a)
        assert dispersion(free, 0.0)[0] == 0.0
        for theta in (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            k = dispersion(free, theta)[0]
            assert abs(k - theta / a) <= 1e-12 * theta / a


def test_dispersion_is_exactly_even_in_theta():
    for theta in (0.4, 1.3, 2.9):
        assert dispersion(KP, theta, 3) == dispersion(KP, -theta, 3)


def test_dispersion_kronig_penney_frozen_roots():
    got0 = dispersion(KP, 0.0, 3)
    gotpi = dispersion(KP, math.pi, 3)
    for got, expected in zip(got0, KP_ROOTS_0):
        assert abs(got - expected) <= 1e-10
    for got, expected in zip(gotpi, KP_ROOTS_PI):
        assert abs(got - expected) <= 1e-10
    # every root satisfies the Kronig-Penney band equation
    for theta, roots in ((0.0, got0), (math.pi, gotpi)):
        for k in roots:
            resid = math.cos(theta) - math.cos(k) - 10.0 * math.sin(k) / (2.0 * k)
            assert abs(resid) <= 1e-10


def test_dispersion_strong_coupling_pins_to_multiples_of_pi():
    strong = CombCouplings(w0=1e8, w1=0.0, a=1.0)
    for n, k in enumerate(dispersion(strong, 1.0, 2), start=1):
        assert abs(k - n * math.pi) / (n * math.pi) <= 1e-6


def test_dispersion_validation():
    with pytest.raises(ValueError):
        dispersion(FREE, 0.0, 0)
    with pytest.raises(ValueError):
        dispersion(FREE, 4.0, 1)  # |theta| > pi
    with pytest.raises(ValueError, match="got -4.0"):
        dispersion(FREE, -4.0, 1)  # the theta given, not its |theta|
    with pytest.raises(ValueError):
        dispersion(FREE, math.nan, 1)


# ------------------------------------------------------------------- edges


def test_band_edges_free_comb_touching_bands():
    edges = band_edges(FREE, 3)
    assert edges[0][0] == 0.0  # zero mode restored as the bottom edge
    for n, (lo, hi) in enumerate(edges):
        assert abs(lo - n * math.pi) <= 2e-9
        assert abs(hi - (n + 1) * math.pi) <= 2e-9
    # zero gaps: consecutive bands share the endpoint exactly
    assert edges[0][1] == edges[1][0]
    assert edges[1][1] == edges[2][0]


def test_band_edges_free_comb_scales_with_spacing():
    a = 2.5
    edges = band_edges(CombCouplings(w0=0.0, w1=0.0, a=a), 3)
    for n, (lo, hi) in enumerate(edges):
        assert abs(lo - n * math.pi / a) <= 2e-9
        assert abs(hi - (n + 1) * math.pi / a) <= 2e-9


@pytest.mark.parametrize("a", [1.0, 2.5])
def test_band_edges_at_multiples_of_pi_are_exact(a):
    # free comb: band 0 runs from the zero mode to pi/a, both ends exact
    assert band_edges(CombCouplings(w0=0.0, w1=0.0, a=a), 1)[0] == (0.0, math.pi / a)
    # Kronig-Penney: every band's upper edge is the bracket end (n + 1) pi/a
    for n, (_, hi) in enumerate(band_edges(CombCouplings(w0=10.0, w1=0.0, a=a), 4)):
        assert hi == (n + 1) * math.pi / a


def test_free_comb_edges_are_bracket_ends_without_evaluation(monkeypatch):
    # every edge of the free comb is an end of its bracket, taken as is; at
    # theta = pi the end value 1 - |Omega cos theta| is 2 cos^2(pi/2) =
    # 7.5e-33, not 0, as pi is not a double, and still counts as zero
    calls = []
    inner = deltacomb.bands.spectral_function
    monkeypatch.setattr(
        deltacomb.bands, "spectral_function", lambda *args: calls.append(args) or inner(*args)
    )
    for a in (1.0, 2.5):
        free = CombCouplings(w0=0.0, w1=0.0, a=a)
        assert dispersion(free, 0.0, 6) == [2 * ((n + 1) // 2) * math.pi / a for n in range(6)]
        assert dispersion(free, math.pi, 6) == [(2 * (n // 2) + 1) * math.pi / a for n in range(6)]
    assert calls == []


def test_band_edges_where_gamma_a_overflows():
    # gamma a = 1e310 is not a double; every edge sits at (n + 1) pi/a
    a = 1e10
    tol = ROOT_TOL
    for n, (lo, hi) in enumerate(band_edges(CombCouplings(w0=1e300, w1=0.0, a=a), 3)):
        target = (n + 1) * math.pi / a
        assert abs(lo - target) <= tol * target
        assert abs(hi - target) <= tol * target


def test_band_edges_secular_calls(monkeypatch):
    calls = 0
    inner = deltacomb.bands.spectral_function

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(deltacomb.bands, "spectral_function", counted)
    band_edges(CombCouplings(w0=3.0, w1=0.4, a=1.0), 8)
    # 16 roots, each one Brent solve from exact bracket-end values
    assert calls <= 160


_DECADES = st.floats(-300.0, 300.0)
_SIGNS = st.sampled_from((-1.0, 1.0))


@given(s0=_SIGNS, e0=_DECADES, s1=_SIGNS, e1=_DECADES, ea=st.floats(-323.0, 300.0))
@settings(deadline=None, max_examples=200)
def test_bands_lie_in_their_brackets_or_raise(s0, e0, s1, e1, ea):
    c = CombCouplings(w0=s0 * 10.0**e0, w1=s1 * 10.0**e1, a=10.0**ea)
    margin = 1.0 + 0.5 * c.gamma * c.a - abs(c.omega)
    assume(not -1e-12 <= margin < 0.0)  # rounding slack at the boundary
    if margin < 0.0 or 3.0 * math.pi / c.a == math.inf:
        # the lowest band at imaginary k, or band 2's upper edge overflows
        with pytest.raises(OutsideValidityDomainError):
            band_edges(c, 3)
        return
    for n, (lo, hi) in enumerate(band_edges(c, 3)):
        assert n * math.pi / c.a <= lo <= hi <= (n + 1) * math.pi / c.a


def test_band_edges_mixed_comb_flat_bands():
    edges = band_edges(MIXED, 3)
    for n, (lo, hi) in enumerate(edges):
        assert lo == hi  # exactly flat: theta never enters the secular function
        assert abs(lo - (n + 0.5) * math.pi) <= 1e-10


def test_band_edges_kronig_penney():
    edges = band_edges(KP, 3)
    expected = [
        (KP_ROOTS_0[0], KP_ROOTS_PI[0]),
        (KP_ROOTS_PI[1], KP_ROOTS_0[1]),
        (KP_ROOTS_0[2], KP_ROOTS_PI[2]),
    ]
    for (lo, hi), (elo, ehi) in zip(edges, expected):
        assert abs(lo - elo) <= 1e-9
        assert abs(hi - ehi) <= 1e-9
    # ordered and disjoint
    for (lo, hi), (lo2, hi2) in zip(edges, edges[1:]):
        assert lo < hi
        assert hi <= lo2 + 1e-12


def test_band_edges_collapse_in_dirichlet_limit():
    strong = CombCouplings(w0=1e8, w1=0.0, a=1.0)
    for n, (lo, hi) in enumerate(band_edges(strong, 3), start=1):
        target = n * math.pi
        assert abs(lo - target) / target <= 1e-6
        assert abs(hi - target) / target <= 1e-6


# ---------------------------------------------------------- band_structure


def test_band_structure_kronig_penney_shape():
    bands = band_structure(KP, n_bands=2, n_theta=21)
    assert type(bands) is tuple and len(bands) == 2
    for band in bands:
        ks = np.asarray(band.ks)
        assert len(band.thetas) == 21 and len(ks) == 21
        # monotone along 0 <= theta <= pi and continuous on this grid
        half = ks[10:]
        diffs = np.diff(half)
        assert np.all(diffs >= 0.0) or np.all(diffs <= 0.0)
        assert np.max(np.abs(np.diff(ks))) < 0.5
        assert np.all(ks >= band.k_min - 1e-9)
        assert np.all(ks <= band.k_max + 1e-9)
    # the grid and the samples are even in theta, exactly
    for n_theta in (21, 100, 101):
        for band in band_structure(KP, n_bands=2, n_theta=n_theta):
            th, ks = band.thetas, band.ks
            assert th[0] == -math.pi and th[-1] == math.pi
            assert all(th[i] == -th[-1 - i] for i in range(n_theta))
            assert all(ks[i] == ks[-1 - i] for i in range(n_theta))
            if n_theta % 2:
                assert th[n_theta // 2] == 0.0


@pytest.mark.parametrize("c", [KP, FREE, MIXED, CombCouplings(w0=3.0, w1=-1.5, a=0.3)])
@pytest.mark.parametrize("n_theta", [2, 3, 21])
def test_band_structure_bands_share_one_thetas_tuple(c, n_theta):
    # the CSV writer formats the theta columns once for all bands, from the
    # first band's theta >= 0 half
    bands = band_structure(c, n_bands=3, n_theta=n_theta)
    assert all(b.thetas is bands[0].thetas for b in bands)


@pytest.mark.parametrize(
    "c",
    [
        CombCouplings(w0=2.7, w1=0.4, a=1.3),
        CombCouplings(w0=3.0, w1=-1.5, a=0.3),
        CombCouplings.from_reduced(omega=0.0, gamma=2.0, a=1.3),
        FREE,
        CombCouplings.from_reduced(omega=0.3, gamma=-1.4, a=1.0),
    ],
    ids=["generic", "big-w1", "flat", "free", "attractive"],
)
@pytest.mark.parametrize("n_theta", [2, 3, 4, 100, 101])
def test_band_structure_is_an_exact_mirror(c, n_theta):
    # the CSV writer formats only the theta >= 0 half and reuses its text for
    # -theta, and a flat band's one k once: the grid negates exactly, the
    # -theta samples equal their mirrors, and a band with k_min == k_max
    # holds no other k
    for band in band_structure(c, n_bands=4, n_theta=n_theta):
        th, ks = band.thetas, band.ks
        assert all(th[i] == -th[-1 - i] for i in range(n_theta))
        assert all(ks[i] == ks[-1 - i] for i in range(n_theta))
        if band.k_min == band.k_max:
            assert set(ks) == {band.k_min}


def _assert_matches_dispersion(source, n_bands, n_theta):
    """Every sample lies in its band and matches the per-column solve."""
    tol = 2.0 * ROOT_TOL
    bands = band_structure(source, n_bands, n_theta)
    for j, theta in enumerate(bands[0].thetas):
        column = [band.ks[j] for band in bands]
        for band, k in zip(bands, column):
            assert band.k_min <= k <= band.k_max
        if abs(theta) in (0.0, math.pi):
            # edge columns are the band edges themselves
            assert all(k in (b.k_min, b.k_max) for b, k in zip(bands, column))
            continue
        for k, ref in zip(column, dispersion(source, theta, n_bands)):
            assert abs(k - ref) <= tol * max(1.0, ref)


def test_band_structure_matches_per_column_dispersion():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        c = CombCouplings.from_reduced(
            omega=rng.uniform(-1.0, 0.95), gamma=rng.uniform(0.0, 8.0),
            a=rng.uniform(0.3, 3.0),
        )
        _assert_matches_dispersion(c, 5, 31)
    _assert_matches_dispersion(CombCouplings(w0=1e8, w1=0.0, a=1.0), 3, 31)
    _assert_matches_dispersion(CombCouplings.from_reduced(0.0, 2.0, 1.3), 4, 31)
    _assert_matches_dispersion(CombCouplings(w0=0.0, w1=0.0, a=1.7), 4, 31)


def test_band_structure_secular_calls_per_sample(monkeypatch):
    calls = 0
    inner = deltacomb.bands.spectral_function

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(deltacomb.bands, "spectral_function", counted)
    band_structure(CombCouplings(w0=3.0, w1=0.4, a=1.0), 8, 401)
    # at most 8 secular evaluations per output sample, band edges included
    assert calls <= 8 * (8 * 401)


def test_band_structure_newton_evaluations_per_interior_sample(monkeypatch):
    kernel = brent = 0

    def counted_kernel(*args):
        nonlocal kernel
        kernel += 1
        return _secular_and_slope(*args)

    def counted_brent(*args):
        nonlocal brent
        brent += 1
        return spectral_function(*args)

    monkeypatch.setattr(deltacomb.bands, "_secular_and_slope", counted_kernel)
    monkeypatch.setattr(deltacomb.bands, "spectral_function", counted_brent)
    band_structure(CombCouplings(w0=3.0, w1=0.4, a=1.0), 8, 401)
    # Brent's evaluations go through the same kernel; the rest are Newton's,
    # 199 interior theta > 0 columns per band, certificate probes included
    assert 0 < kernel - brent <= 5 * (8 * 199)


def test_flat_bands_cost_no_evaluations(monkeypatch):
    kernel = 0

    def counted(*args):
        nonlocal kernel
        kernel += 1
        return _secular_and_slope(*args)

    monkeypatch.setattr(deltacomb.bands, "_secular_and_slope", counted)
    inner = deltacomb.bands.spectral_function
    brent = []
    monkeypatch.setattr(
        deltacomb.bands, "spectral_function", lambda *args: brent.append(args) or inner(*args)
    )
    c = CombCouplings.from_reduced(omega=0.0, gamma=2.0, a=1.3)
    bands = band_structure(c, 8, 101)
    assert all(len(set(band.ks)) == 1 for band in bands)
    # every kernel call is one of the edge columns' Brent evaluations
    assert brent and kernel == len(brent)
    assert {theta for _, _, theta in brent} == {0.0, math.pi}


def _column_dispersion(c, n_bands, n_theta):
    """The theta >= 0 half of each band, each sample from dispersion."""
    m = n_theta - 1
    upper = [math.pi * ((2 * i - m) / m) for i in range(n_theta)][n_theta // 2 :]
    return [tuple(ks) for ks in zip(*(dispersion(c, theta, n_bands) for theta in upper))]


_BAND_COMBS = [CombCouplings(w0=3.0, w1=0.4, a=1.0), FREE, KP]


@pytest.mark.parametrize("c", _BAND_COMBS)
def test_band_structure_without_newton_is_column_dispersion(monkeypatch, c):
    monkeypatch.setattr(deltacomb.bands, "_newton_root", lambda *args: None)
    for n_theta in (21, 40):
        got = [band.ks[n_theta // 2 :] for band in band_structure(c, 4, n_theta)]
        assert got == _column_dispersion(c, 4, n_theta)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda *args: (_secular_and_slope(*args)[0], 0.0),
        lambda *args: (_secular_and_slope(*args)[0], math.nan),
    ],
    ids=("zero-slope", "nan-slope"),
)
@pytest.mark.parametrize("c", _BAND_COMBS)
def test_band_structure_falls_back_to_brent_exactly(monkeypatch, c, kernel):
    monkeypatch.setattr(deltacomb.bands, "_secular_and_slope", kernel)
    for n_theta in (21, 40):
        got = [band.ks[n_theta // 2 :] for band in band_structure(c, 4, n_theta)]
        assert got == _column_dispersion(c, 4, n_theta)


@given(s0=_SIGNS, e0=_DECADES, s1=_SIGNS, e1=_DECADES, ea=st.floats(-323.0, 300.0))
# a band 3e-11 wide at k = 5 pi, under root_tol k: its Brent samples once
# fell outside its edges
@example(s0=-1.0, e0=-10.0, s1=-1.0, e1=7.3595033119105e-13, ea=-1.0)
@settings(deadline=None, max_examples=200)
def test_band_structure_matches_dispersion_or_raises(s0, e0, s1, e1, ea):
    c = CombCouplings(w0=s0 * 10.0**e0, w1=s1 * 10.0**e1, a=10.0**ea)
    margin = 1.0 + 0.5 * c.gamma * c.a - abs(c.omega)
    assume(not -1e-12 <= margin < 0.0)  # rounding slack at the boundary
    if margin < 0.0 or 3.0 * math.pi / c.a == math.inf:
        with pytest.raises(OutsideValidityDomainError):
            band_structure(c, 3, 9)
        return
    _assert_matches_dispersion(c, 3, 9)


def _precondition_combs(rng):
    """Seeded combs at the edges of refine_root's precondition: the free comb
    (touching bands), Omega = 0 (flat bands), Omega = -1, the attractive
    boundary 1 + gamma a/2 = |Omega| and both, and gamma a log-uniform in
    10^[-300, 300] of either sign where the bands are real."""
    combs = [CombCouplings(w0=0.0, w1=0.0, a=rng.uniform(0.5, 2.0))]
    for _ in range(12):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        omega = rng.uniform(-1.0, 0.99)
        combs += [
            CombCouplings.from_reduced(omega=0.0, gamma=rng.uniform(0.1, 5.0) / a, a=a),
            CombCouplings.from_reduced(omega=-1.0, gamma=10.0 ** rng.uniform(-3.0, 3.0) / a, a=a),
            CombCouplings.from_reduced(omega=omega, gamma=2.0 * (abs(omega) - 1.0) / a, a=a),
            # both at once, within the boundary's 1e-12 slack
            CombCouplings.from_reduced(omega=-1.0, gamma=-rng.uniform(0.0, 2e-12) / a, a=a),
        ]
        for _ in range(3):
            ga = 10.0 ** rng.uniform(-300.0, 300.0)
            sign = -1.0 if ga < 2.0 * (1.0 - abs(omega)) and rng.random() < 0.5 else 1.0
            combs.append(CombCouplings.from_reduced(omega=omega, gamma=sign * ga / a, a=a))
    return combs


def test_refine_root_is_called_within_its_precondition(monkeypatch):
    # refine_root trusts its caller: a finite bracket lo < hi whose end
    # values are nonzero and of opposite sign
    inner = deltacomb.bands.refine_root
    calls = []

    def checked(f, lo, hi, flo, fhi, root_tol):
        calls.append((lo, hi, flo, fhi))
        assert -math.inf < lo < hi < math.inf
        assert abs(flo) > 0.0 and abs(fhi) > 0.0 and (flo > 0.0) != (fhi > 0.0)
        return inner(f, lo, hi, flo, fhi, root_tol)

    monkeypatch.setattr(deltacomb.bands, "refine_root", checked)
    rng = random.Random(2018)
    for c in _precondition_combs(rng):
        for root_tol in (ROOT_TOL, 1e-6):
            band_structure(c, 6, 21, root_tol)
            for _ in range(4):
                dispersion(c, rng.uniform(-math.pi, math.pi), 6, root_tol)
    assert len(calls) >= 1000


def test_band_structure_rejects_bands_at_imaginary_k():
    # w0 = -3: 1 + gamma a/2 = -0.5 < |Omega| = 1
    attractive = CombCouplings(w0=-3.0, w1=0.0, a=1.0)
    with pytest.raises(OutsideValidityDomainError):
        band_edges(attractive, 3)
    with pytest.raises(OutsideValidityDomainError):
        band_structure(attractive, 3, 11)


def test_band_structure_attractive_comb_with_real_bands():
    # gamma < 0 but 1 + gamma a/2 = 0.95 >= |Omega| = 0.5: every band is real
    c = CombCouplings.from_reduced(omega=0.5, gamma=-0.1, a=1.0)
    _assert_matches_dispersion(c, 4, 31)
    for band in band_structure(c, 4, 31):
        for theta, k in zip(band.thetas, band.ks):
            assert abs(spectral_function(c, k, theta)) <= 1e-10


def test_band_structure_at_the_attractive_boundary():
    # 1 + gamma a/2 = 0.3 = |Omega|: at theta = pi the secular function
    # vanishes as k -> 0 only to rounding, and must still give band 0 its
    # zero-mode edge rather than a spurious root just above k = 0
    c = CombCouplings.from_reduced(omega=0.3, gamma=-1.4, a=1.0)
    at_pi = [k for k in dispersion(c, math.pi, 4) if k >= math.pi / 8.0]
    merged = sorted(dispersion(c, 0.0, 4) + [0.0] + at_pi)
    edges = band_edges(c, 3)
    assert edges == [(merged[2 * n], merged[2 * n + 1]) for n in range(3)]
    assert edges[0][0] == 0.0
    _assert_matches_dispersion(c, 3, 31)
    assert band_structure(c, 3, 31)[0].ks[0] == 0.0


def test_band_structure_free_comb_passes_through_zero():
    lowest = band_structure(FREE, n_bands=2, n_theta=9)[0]
    assert lowest.thetas[4] == 0.0
    assert lowest.ks[4] == 0.0  # zero mode restored at theta = 0
    assert lowest.ks[0] == pytest.approx(math.pi, abs=1e-8)


@pytest.mark.parametrize("band_function", [dispersion, band_structure, band_edges])
def test_root_tol_validation(band_function):
    # a root_tol of 1 or more accepts any momentum in [0, 2k]
    for root_tol in (0.0, -1e-12, 1.0, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="root_tol"):
            band_function(KP, 2, root_tol=root_tol)
    assert band_function(KP, 2, root_tol=0.5)


def test_band_structure_validation():
    with pytest.raises(ValueError):
        band_structure(FREE, n_bands=1, n_theta=1)
