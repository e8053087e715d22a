"""Tests for the adaptive Gauss-Kronrod kernels and root refinement."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacomb import (
    CombCouplings, comb_energy, dispersion, plate_energy, quadrature, spectral_integrand,
)
import deltacomb.bands
import deltacomb.energy
from deltacomb.bands import refine_root
from deltacomb.energy import _energy_integral
from deltacomb.errors import RootScanError, ToleranceNotMetError
from deltacomb.cli import EXIT_DOMAIN, EXIT_NUMERIC, main
from deltacomb.quadrature import integrate_finite

# the energies' default abs_tol and rel_tol
TOLS = (1e-10, 1e-8)

# (integrand, lo, hi, exact value).  The battery mixes single-panel-exact
# integrands with ones that force subdivision (Runge spike, endpoint sqrt).
CLOSED_FORMS = [
    (lambda x: math.sin(x), 0.0, math.pi, 2.0),
    (lambda x: math.cos(x), 0.0, math.pi, 0.0),
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: math.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0)),
    (lambda x: math.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (
        lambda x: math.exp(-x) * math.cos(10.0 * x),
        0.0,
        5.0,
        (1.0 - math.exp(-5.0) * (math.cos(50.0) - 10.0 * math.sin(50.0))) / 101.0,
    ),
]


@pytest.mark.parametrize("f,lo,hi,exact", CLOSED_FORMS)
def test_closed_form_battery(f, lo, hi, exact):
    value, err = integrate_finite(f, lo, hi, *TOLS)
    # the reported estimate must bound the true error (honesty), and the
    # default tolerances must actually be met
    assert abs(value - exact) <= max(10.0 * err, 1e-13)
    assert err <= max(1e-10, 1e-8 * abs(value))


def test_respects_requested_tolerance():
    value, err = integrate_finite(lambda x: math.sqrt(x), 0.0, 1.0, 1e-13, 1e-13)
    assert err <= max(1e-13, 1e-13 * abs(value))
    assert abs(value - 2.0 / 3.0) <= 1e-12


def test_deterministic_bit_identical_repeat():
    runs = [
        integrate_finite(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, *TOLS)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def _loop_panel(f, lo, hi):
    """The 7/15 panel written as a loop over node pairs: the oracle that the
    unrolled quadrature._panel must reproduce bit for bit."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    eps, uflow = quadrature._EPS, quadrature._UFLOW
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fc = f(center)
    resg = wg[3] * fc
    resk = wgk[7] * fc
    resabs = abs(resk)
    pairs = []
    for j in range(7):
        dx = half * xgk[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        pairs.append((f1, f2))
        fsum = f1 + f2
        if j % 2 == 1:
            resg += wg[(j - 1) // 2] * fsum
        resk += wgk[j] * fsum
        resabs += wgk[j] * (abs(f1) + abs(f2))

    reskh = 0.5 * resk
    resasc = wgk[7] * abs(fc - reskh)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += wgk[j] * (abs(f1 - reskh) + abs(f2 - reskh))

    value = resk * half
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 0.0
    if resabs > 0.0:
        resabs *= abs(half)
        if resabs > uflow / (50.0 * eps):
            floor = eps * 50.0 * resabs
        else:
            floor = math.ulp(0.0) * (4.0 * (hi - lo) + 1.0)
        err = max(floor, err)
    return value, err, floor


def test_panel_matches_the_loop_oracle_bit_for_bit():
    rng = random.Random(20181)
    combs = [
        CombCouplings(w0=1.0, w1=0.3, a=1.0),
        CombCouplings(w0=1e-6, w1=0.0, a=1.0),
        CombCouplings.from_reduced(omega=0.99, gamma=40.0, a=1.0),
    ]
    # at scales 1e-300 .. 1e-290 resabs falls on both sides of the floor
    # 1e-308 / (50 eps) ~ 2e-294 above which err is raised to 50 eps resabs
    floor = quadrature._UFLOW / (50.0 * quadrature._EPS)
    tiny = [(lambda x, s=10.0 ** -rng.uniform(290.0, 300.0): s * math.cos(3.0 * x))
            for _ in range(4)]
    integrands = [(lambda x, c=c: spectral_integrand(c, x)) for c in combs] + [
        lambda x: math.sin(7.0 * x - 3.0),
        lambda x: 0.0,
        lambda x: -2.5,  # resasc == 0
    ]
    sides = set()
    for f in integrands + tiny:
        for _ in range(200):
            lo = rng.uniform(0.0, 40.0)
            hi = lo + 10.0 ** rng.uniform(-9.0, 1.5)
            assert quadrature._panel(f, lo, hi) == _loop_panel(f, lo, hi)
            if f in tiny:
                # the value of the panel of |f| is resabs
                sides.add(_loop_panel(lambda x: abs(f(x)), lo, hi)[0] > floor)
    assert sides == {True, False}


@given(
    c0=st.floats(-10, 10),
    c1=st.floats(-10, 10),
    c2=st.floats(-10, 10),
    c3=st.floats(-10, 10),
)
@settings(deadline=None)
def test_cubics_integrated_exactly(c0, c1, c2, c3):
    """Both embedded rules integrate cubics exactly, so one panel suffices."""
    lo, hi = -2.0, 3.0

    def f(x):
        return c0 + x * (c1 + x * (c2 + x * c3))

    def antider(x):
        return x * (c0 + x * (c1 / 2 + x * (c2 / 3 + x * c3 / 4)))

    exact = antider(hi) - antider(lo)
    value, _ = integrate_finite(f, lo, hi, *TOLS)
    assert abs(value - exact) <= 1e-9 * max(1.0, abs(exact))


def test_interval_must_be_ordered():
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (-math.inf, 0.0),
                   (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: 1.0, lo, hi, *TOLS)


def test_breaks_seed_one_panel_per_piece():
    # |x - 0.3| is linear on each side of its kink, so with a break there
    # the two seed panels are exact and no split is needed
    calls = []

    def f(x):
        calls.append(x)
        return abs(x - 0.3)

    value, err = integrate_finite(f, 0.0, 1.0, *TOLS, breaks=(0.3,))
    assert len(calls) == 2 * 15
    assert abs(value - 0.29) <= 1e-15 and err <= 1e-10
    for breaks in ((0.6, 0.3), (0.3, 0.3), (0.0,), (1.0,), (-0.5,), (1.5,), (math.nan,)):
        with pytest.raises(ValueError):
            integrate_finite(f, 0.0, 1.0, *TOLS, breaks=breaks)


def test_tolerance_not_met_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 8)
    with pytest.raises(ToleranceNotMetError, match="after 8 subdivisions"):
        integrate_finite(lambda x: x ** -0.5, 0.0, 1.0, 1e-13, 1e-13)
    # a NaN estimate meets no tolerance
    for f in (lambda x: math.nan, lambda x: math.nan if x > 0.7 else x):
        with pytest.raises(ToleranceNotMetError):
            integrate_finite(f, 0.0, 1.0, *TOLS)


def test_the_split_budget_bounds_a_whole_energy(capsys, monkeypatch):
    # one integrate_finite call covers an energy, ladder and all; the comb
    # at Omega = -0.99, gamma a = 1e-3 needs 7 splits of it at abs_tol 1e-15
    # and rel_tol 1e-13
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    argv = ["energy", "--omega", "-0.99", "--gamma", "1e-3", "--a", "1",
            "--abs-tol", "1e-15", "--rel-tol", "1e-13"]
    assert main(argv) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: ")
    assert "above tolerance after 3 subdivisions" in err


def test_config_validation(capsys):
    # the energies' tolerances are two floats, checked before any evaluation
    c = CombCouplings(w0=1.0, w1=0.3, a=1.0)
    for bad in (0.0, -1.0, math.nan):
        for tols in ({"abs_tol": bad}, {"rel_tol": bad}):
            with pytest.raises(ValueError, match="^tolerances must be strictly positive$"):
                comb_energy(c, **tols)
            with pytest.raises(ValueError, match="^tolerances must be strictly positive$"):
                plate_energy(c, 1.0, **tols)
    # before the underflow test of abs_tol a, which would misname a negative one
    with pytest.raises(ValueError, match="^tolerances must be strictly positive$"):
        comb_energy(CombCouplings(w0=1.0, w1=0.0, a=1e-300), abs_tol=-1.0)
    assert main(["energy", "--w0", "1", "--a", "1", "--rel-tol", "nan"]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", "error: tolerances must be strictly positive\n")


def test_a_rounding_floor_above_the_tolerance_stops_before_splitting():
    # 50 eps resabs of cos on [0, 10] is ~7e-14, far above rel_tol |sin 10|
    # at 1e-16, and splitting cannot lower it: the run stops after its first
    # panel instead of after _MAX_SUBDIVISIONS splits, and names the floor
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    with pytest.raises(ToleranceNotMetError, match=r"rounding floor \S+ .* after 0 subdivisions"):
        integrate_finite(f, 0.0, 10.0, 1e-300, 1e-16)
    assert len(calls) == 15


def test_shift_enters_the_value_and_the_tolerance_test():
    # a closed-form part of the result is added exactly and judged with it:
    # 1 + 1e6 at rel_tol 1e-8 allows errors near 1e-2, far above the 1e-8 the
    # integral alone would need
    tols = (1e-300, 1e-8)
    value, err = integrate_finite(lambda x: 2.0 * x, 0.0, 1.0, *tols, shift=1e6)
    assert value == 1e6 + 1.0
    spiky = lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-6)
    plain = integrate_finite(spiky, 0.0, 1.0, *tols)
    shifted = integrate_finite(spiky, 0.0, 1.0, *tols, shift=1e6)
    assert abs(shifted[0] - 1e6 - plain[0]) <= shifted[1] + plain[1]
    assert plain[1] <= 1e-8 * abs(plain[0]) < shifted[1] <= 1e-8 * abs(shifted[0])
    # the shift's own error is part of abs_err and of the rounding floor: a
    # run whose shift_err alone exceeds the tolerance stops before splitting
    value, err = integrate_finite(lambda x: 2.0 * x, 0.0, 1.0, *tols, shift=1e6, shift_err=1e-3)
    assert value == 1e6 + 1.0 and 1e-3 <= err <= 1e-8 * value
    with pytest.raises(ToleranceNotMetError, match="rounding floor 2.000e-02 .* after 0 subdivisions"):
        integrate_finite(spiky, 0.0, 1.0, *tols, shift=1e6, shift_err=2e-2)


# Semi-infinite integrals are integrate_finite on [0, X] in x = k a plus a
# closed-form tail bound, assembled once by the energy module.  Its integrand
# is a function of the couplings and k, like spectral_integrand; at gamma = 0
# it has no subtracted term to add back.


def _decay(c, k):
    return math.exp(-k * c.a)


def _free(a):
    return CombCouplings(w0=0.0, w1=0.0, a=a)


def test_semi_infinite_exponential():
    res = _energy_integral(_decay, _free(1.0), *TOLS, lambda X: math.exp(-X))
    # the tail at 20 is above abs_tol/100, so the target is 1 - e^{-40}
    assert res.truncation_k == 40.0
    assert abs(res.value - (1.0 - math.exp(-40.0))) <= max(10.0 * res.abs_err, 1e-13)
    assert res.tail_bound == deltacomb.energy._TAIL_MARGIN * math.exp(-40.0)
    assert abs(res.value + res.tail_bound - 1.0) <= 1e-12


def test_semi_infinite_k_exp():
    res = _energy_integral(
        lambda c, k: k * _decay(c, k), _free(1.0), *TOLS, lambda X: (X + 1.0) * math.exp(-X)
    )
    assert res.truncation_k == 40.0
    assert abs(res.value - 1.0) <= max(10.0 * res.abs_err, 1e-13)
    true_tail = 41.0 * math.exp(-40.0)
    assert true_tail <= res.tail_bound <= 1.01 * true_tail


def test_semi_infinite_truncation_override(monkeypatch):
    # the cutoffs are in x = k a: a cutoff X stops the run at K = X/a, and
    # the result is (1/a) times the x integral
    monkeypatch.setattr(deltacomb.energy, "_CUTOFFS", (10.0,))
    for a in (1.0, 2.0):
        res = _energy_integral(_decay, _free(a), *TOLS, lambda X: math.exp(-X))
        assert res.truncation_k == 10.0 / a
        assert abs(res.value - (1.0 - math.exp(-10.0)) / a) <= 1e-12
        assert res.tail_bound >= math.exp(-10.0) / a


def _brent(f, lo, hi, root_tol=1e-12):
    """refine_root on a bracket whose end values are f's own."""
    return refine_root(f, lo, hi, f(lo), f(hi), root_tol)


def test_refine_root_cosine():
    root = _brent(math.cos, 1.0, 2.0)
    assert abs(root - math.pi / 2.0) <= 1e-11
    root = _brent(math.sin, 3.0, 3.5)
    assert abs(root - math.pi) <= 1e-11


def test_refine_root_tightens_with_tolerance():
    loose = _brent(math.cos, 1.0, 2.0, 1e-4)
    assert abs(loose - math.pi / 2.0) <= 1e-3
    tight = _brent(math.cos, 1.0, 2.0, 1e-14)
    assert abs(tight - math.pi / 2.0) <= 1e-13


def test_refine_root_multiple_root_converges_within_bisection_bound():
    # interpolation stalls at a fifth-order root; forced bisections keep the
    # count within four times bisection's (about 44 halvings here)
    for c in (0.3, 1.234567, 2.9):
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return (x - c) ** 5

        root = refine_root(f, 0.0, 3.0, (0.0 - c) ** 5, (3.0 - c) ** 5, 1e-12)
        assert abs(root - c) <= 1e-12 * c
        assert calls <= 4 * 45


def test_refine_root_raises_when_steps_run_out(monkeypatch):
    monkeypatch.setattr(deltacomb.bands, "_MAX_BRENT_STEPS", 10)
    with pytest.raises(RootScanError):
        _brent(lambda x: (x - 0.3) ** 5, 0.0, 3.0)


def test_refine_root_raises_on_nan_values_by_point():
    def inner(x):  # NaN on (0.2, 0.9); the first secant step lands at 0.5
        return math.nan if 0.2 < x < 0.9 else x - 0.5

    with pytest.raises(RootScanError, match="x = 0.5 "):
        _brent(inner, 0.0, 1.0)


def _loop_refine_root(f, lo, hi, flo, fhi, root_tol):
    """Brent's loop as written before its interpreter work was trimmed: the
    oracle that bands.refine_root must reproduce bit for bit."""
    eps = deltacomb.bands._EPS
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    halved_at, stalled = abs(c - b), 0
    for _ in range(deltacomb.bands._MAX_BRENT_STEPS):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * eps * abs(b) + 0.5 * root_tol * max(abs(b), abs(c))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(c - b) <= 0.5 * halved_at:
            halved_at, stalled = abs(c - b), 0
        else:
            stalled += 1
        step = m
        if stalled >= 3:
            e = m
        elif abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, step = d, p / q
            else:
                e = m
        else:
            e = m
        d = step
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise RootScanError("out of steps")


def _band_brackets(monkeypatch, rng):
    """(f, lo, hi, flo, fhi, root_tol) of every refine_root call that
    dispersion makes for eight bands on an 11-point theta grid over [0, pi],
    on five combs, one touching and one flat, at three root_tol values."""
    brackets = []

    def recorded(*args):
        brackets.append(args)
        return refine_root(*args)

    monkeypatch.setattr(deltacomb.bands, "refine_root", recorded)
    combs = [CombCouplings(w0=0.0, w1=0.0, a=rng.uniform(0.5, 2.0)),  # touching
             CombCouplings.from_reduced(omega=0.0, gamma=2.5, a=1.3)]  # flat
    combs += [CombCouplings.from_reduced(omega=rng.uniform(-0.9, 0.9),
                                         gamma=rng.uniform(0.1, 5.0),
                                         a=rng.uniform(0.5, 3.0)) for _ in range(3)]
    for c in combs:
        for tol in (1e-4, 1e-12, 1e-15):
            for i in range(11):
                dispersion(c, math.pi * i / 10, 8, root_tol=tol)
    monkeypatch.undo()
    return brackets


def test_refine_root_matches_the_loop_oracle_bit_for_bit(monkeypatch):
    rng = random.Random(20182)
    brackets = _band_brackets(monkeypatch, rng)
    band_count = len(brackets)
    for tol in (1e-4, 1e-12, 1e-15):

        def add(f, lo, hi):
            brackets.append((f, lo, hi, f(lo), f(hi), tol))

        for _ in range(100):
            lo = rng.uniform(-4.0, 4.0)
            hi = lo + rng.uniform(1.0, 3.0)
            f = rng.choice((math.cos, math.sin))
            if (f(lo) > 0) != (f(hi) > 0):
                add(f, lo, hi)
            # negative brackets and brackets straddling 0
            r = rng.uniform(-3.0, 1.0)
            add(lambda x, r=r: x - r, -3.0 - rng.random(), 1.0 + rng.random())
            add(lambda x, r=r: (x - r) * (x + 5.0), r - rng.random(), r + rng.random())
        for _ in range(20):
            # the fifth-order root stalls interpolation into forced bisections
            add(lambda x: (x - 0.3) ** 5, rng.uniform(-1.0, 0.29), rng.uniform(0.31, 3.0))
    assert band_count >= 1000 and len(brackets) >= 2000
    for f, lo, hi, flo, fhi, tol in brackets:
        # the same root from the same sequence of evaluation points
        runs = []
        for solve in (_loop_refine_root, refine_root):
            xs = []
            root = solve(lambda x: xs.append(x) or f(x), lo, hi, flo, fhi, tol)
            runs.append((root, xs))
        assert runs[1] == runs[0]
        # the end values come from the caller: no end is evaluated
        assert lo not in runs[1][1] and hi not in runs[1][1]
