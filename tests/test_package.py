"""The package's public import surface."""

import importlib

import deltacomb
from deltacomb import Band, CombCouplings, EnergyResult

# names that were public once and have been removed from every module
REMOVED = {
    "scattering": ("derive_couplings",),
    "bands": ("BlochParams", "spectral_function_general"),
    "quadrature": ("integrate_semi_infinite",),
    "energy": (
        "IntegrandABC",
        "integrand_abc",
        "validity_check_count",
        "validity_violation_count",
        "reset_validity_counters",
        "plate_average_closed",
        "small_coupling_ratio",
        "theta_integral_numeric",
        "mixed_limit_integrand",
    ),
}

# attributes that were removed from public classes
REMOVED_ATTRIBUTES = {
    Band: ("qs", "a"),
    CombCouplings: ("alpha", "beta"),
    EnergyResult: ("total_error",),
}


def test_public_names_resolve_and_removed_names_are_gone():
    for name in deltacomb.__all__:
        assert getattr(deltacomb, name) is not None
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"deltacomb.{module}")
        for name in mod.__all__:
            assert getattr(mod, name) is not None
        for name in names:
            assert name not in deltacomb.__all__ and not hasattr(deltacomb, name)
            assert name not in mod.__all__ and not hasattr(mod, name)


def test_removed_attributes_are_gone():
    band = deltacomb.band_structure(CombCouplings(w0=1.0, w1=0.3, a=2.0), 1, 2).bands[0]
    couplings = CombCouplings(w0=1.0, w1=1.0, a=2.0)
    energy = EnergyResult(value=0.0, abs_err=0.0, truncation_k=1.0, tail_bound=0.0)
    for obj in (band, couplings, energy):
        for name in REMOVED_ATTRIBUTES[type(obj)]:
            assert not hasattr(obj, name)


def test_public_surface_does_not_grow():
    assert len(deltacomb.__all__) <= 32
