"""The package's public import surface."""

import ast
import importlib
from pathlib import Path

import deltacomb
from deltacomb import Band, CombCouplings, EnergyResult

# names that were public once and have been removed from every module
REMOVED = {
    "scattering": ("derive_couplings", "delta_amplitudes"),
    "bands": (
        "BlochParams",
        "spectral_function_general",
        "band_rhs",
        "AmplitudeProvider",
        "BandStructure",
    ),
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
        "dirichlet_limit_integrand",
        "plate_energy_closed",
    ),
    "errors": ("PerfectReflectionError", "InvalidLatticeSpacingError", "AmplitudePoleError"),
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
        for name in getattr(mod, "__all__", ()):
            assert getattr(mod, name) is not None
        for name in names:
            assert name not in deltacomb.__all__ and not hasattr(deltacomb, name)
            assert name not in getattr(mod, "__all__", ()) and not hasattr(mod, name)


def test_removed_attributes_are_gone():
    band = deltacomb.band_structure(CombCouplings(w0=1.0, w1=0.3, a=2.0), 1, 2)[0]
    couplings = CombCouplings(w0=1.0, w1=1.0, a=2.0)
    energy = EnergyResult(value=0.0, abs_err=0.0, truncation_k=1.0, tail_bound=0.0)
    for obj in (band, couplings, energy):
        for name in REMOVED_ATTRIBUTES[type(obj)]:
            assert not hasattr(obj, name)


def test_public_surface_does_not_grow():
    # the package re-exports each module's __all__ and nothing else
    modules = ("errors", "quadrature", "scattering", "bands", "energy")
    names = [n for m in modules for n in importlib.import_module(f"deltacomb.{m}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(deltacomb.__all__) == sorted(["__version__", *names])
    assert len(deltacomb.__all__) == 24


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so it is the one module left out
    for path in sorted(Path(deltacomb.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"
