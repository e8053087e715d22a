"""The package's public import surface."""

import importlib

import deltacomb

# names that were public once and have been removed from every module
REMOVED = {
    "scattering": ("derive_couplings",),
    "bands": ("BlochParams", "spectral_function_general"),
    "quadrature": ("integrate_semi_infinite",),
    "energy": ("IntegrandABC", "integrand_abc"),
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
