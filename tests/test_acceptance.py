"""Acceptance gate: the ten numbered verification checks, one test each.

The checks themselves live in deltacomb.verification so the same battery is
reachable from `deltacomb verify`.  Here each one becomes a pytest case that
prints its [PASS]/[FAIL] line and asserts the outcome, so a red criterion is
visible both in the -v listing and in the captured detail.
"""

import pytest

from deltacomb import EnergyResult, ValidityViolationError, verification
from deltacomb.verification import run_all


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all()}


def _gate(results, number):
    r = results[number]
    status = "PASS" if r.passed else "FAIL"
    print(f"[{status}] {r.number:2d} {r.name}: {r.detail}")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_criterion_01_mixed_bc_constant(results):
    _gate(results, 1)


def test_criterion_02_dirichlet_constant(results):
    _gate(results, 2)


def test_criterion_03_free_comb_zero(results):
    _gate(results, 3)


def test_criterion_04_plate_formula(results):
    _gate(results, 4)


def test_criterion_05_theta_integral_oracle(results):
    _gate(results, 5)


def test_criterion_06_unitarity_suite(results):
    _gate(results, 6)


def test_criterion_07_band_reduction(results):
    _gate(results, 7)


def test_criterion_08_non_analyticity(results):
    _gate(results, 8)


def test_criterion_09_asymptotic_vanishing(results):
    _gate(results, 9)


def test_criterion_10_validity_guard(results):
    _gate(results, 10)


# ------------------------------------- the checks fail on a shifted energy


def test_check_03_fails_on_plate_energies_shifted_by_1e_8(monkeypatch):
    plate_energy = verification.plate_energy

    def shifted(c, theta, *tols):
        res = plate_energy(c, theta, *tols)
        return EnergyResult(res.value + 1e-8 / c.a, res.abs_err, res.truncation_k, res.tail_bound)

    monkeypatch.setattr(verification, "plate_energy", shifted)
    assert not verification.check_free_comb_zero().passed


def test_check_02_fails_on_a_comb_energy_shifted_by_1e_8(monkeypatch):
    comb_energy = verification.comb_energy

    def shifted(c, *tols):
        res = comb_energy(c, *tols)
        return EnergyResult(res.value + 1e-8, res.abs_err, res.truncation_k, res.tail_bound)

    monkeypatch.setattr(verification, "comb_energy", shifted)
    assert not verification.check_dirichlet_constant().passed


def test_check_08_fails_on_comb_energies_shifted_by_1e_8(monkeypatch):
    comb_energy = verification.comb_energy

    def shifted(c, *tols):
        res = comb_energy(c, *tols)
        return EnergyResult(res.value + 1e-8, res.abs_err, res.truncation_k, res.tail_bound)

    monkeypatch.setattr(verification, "comb_energy", shifted)
    assert not verification.check_non_analyticity().passed


def test_check_10_fails_when_the_positivity_sentinel_fires(monkeypatch):
    def violating(c, x):
        raise ValidityViolationError("positivity violated: test")

    monkeypatch.setattr(verification, "spectral_integrand", violating)
    r = verification.check_validity_guard()
    assert not r.passed
    assert r.detail == "after 0 evaluations: positivity violated: test", r.detail
