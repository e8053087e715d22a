"""The package's public import surface."""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest

import deltacomb
from deltacomb import (
    Band,
    CombCouplings,
    EnergyResult,
    ScatteringAmplitudes,
)
from deltacomb._record import Record
from deltacomb.verification import CheckResult

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
    "quadrature": ("integrate_semi_infinite", "QuadratureConfig"),
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
    "errors": (
        "PerfectReflectionError",
        "InvalidLatticeSpacingError",
        "AmplitudePoleError",
        "NoSignChangeError",
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
        for name in (*REMOVED_ATTRIBUTES[type(obj)], "_replace"):
            assert not hasattr(obj, name)


def test_public_surface_does_not_grow():
    # the package re-exports each module's __all__ and nothing else
    modules = ("errors", "quadrature", "scattering", "bands", "energy")
    names = [n for m in modules for n in importlib.import_module(f"deltacomb.{m}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(deltacomb.__all__) == sorted(["__version__", *names])
    assert len(deltacomb.__all__) == 19


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


# one record of each type, and one of the same type that differs in one field
RECORDS = [
    (CombCouplings(w0=1.0, w1=0.5, a=2.0), CombCouplings(w0=1.0, w1=0.5, a=3.0)),
    (
        ScatteringAmplitudes(t=0.6j, rR=0.8, rL=-0.8, k=1 + 0j),
        ScatteringAmplitudes(t=0.6j, rR=0.8, rL=0.8, k=1 + 0j),
    ),
    (
        Band(index=0, thetas=(0.0, 1.0), ks=(0.5, 0.75), k_min=0.5, k_max=1.0),
        Band(index=0, thetas=(0.0, 1.0), ks=(0.5, 0.8), k_min=0.5, k_max=1.0),
    ),
    (
        EnergyResult(value=-0.1, abs_err=1e-12, truncation_k=40.0, tail_bound=1e-15),
        EnergyResult(value=-0.2, abs_err=1e-12, truncation_k=40.0, tail_bound=1e-15),
    ),
    (CheckResult(1, "check", True, "ok"), CheckResult(1, "check", False, "ok")),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, other", RECORDS, ids=RECORD_IDS)
def test_records_cannot_be_changed(record, other):
    before = repr(record)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("record, other", RECORDS, ids=RECORD_IDS)
def test_records_compare_and_hash_by_type_and_values(record, other):
    twin = type(record).__new__(type(record))
    twin.__setstate__(record._astuple())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record != other and not record == other
    values = record._astuple()
    assert values == tuple([getattr(record, name) for name in record._fields])
    assert record != values and values != record and record != list(values)
    # a record of another type never equals this one, even with its values,
    # nor does one of a class with the same fields
    partners = [type(r) for r, _ in RECORDS if len(type(r).__slots__) == len(values)]
    partners.append(type("Twin", (Record,), {"__slots__": type(record).__slots__}))
    for partner in partners:
        same_values = partner.__new__(partner)
        same_values.__setstate__(values)
        assert same_values._astuple() == values
        assert (same_values == record) == (partner is type(record))


@pytest.mark.parametrize("record, other", RECORDS, ids=RECORD_IDS)
def test_records_survive_copy_and_pickle(record, other):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is type(record) and twin == record
        assert hash(twin) == hash(record) and repr(twin) == repr(record)


def test_record_subclasses_keep_their_base_fields():
    # a subclass that declares no slots of its own, or no new ones, reads its
    # fields from the nearest base that lists them
    fields = ("value", "abs_err", "truncation_k", "tail_bound")
    for namespace in ({"__slots__": ()}, {}):
        sub = type("Sub", (EnergyResult,), namespace)
        record = sub(1.0, 2.0, 3.0, 4.0)
        assert record.value == 1.0 and record.tail_bound == 4.0
        assert record._astuple() == (1.0, 2.0, 3.0, 4.0)
        assert record._fields == fields
        assert repr(record) == "Sub(value=1.0, abs_err=2.0, truncation_k=3.0, tail_bound=4.0)"
        assert record != sub(1.0, 2.0, 3.0, 5.0) and record == sub(1.0, 2.0, 3.0, 4.0)
        assert record != EnergyResult(1.0, 2.0, 3.0, 4.0)
        assert copy.deepcopy(record) == record


def test_record_repr_matches_the_dataclass_text():
    assert repr(EnergyResult(value=-0.1, abs_err=1e-12, truncation_k=20.0, tail_bound=0.0)) == (
        "EnergyResult(value=-0.1, abs_err=1e-12, truncation_k=20.0, tail_bound=0.0)"
    )
    assert repr(CombCouplings(w0=1.0, w1=0.5, a=2.0)) == (
        "CombCouplings(w0=1.0, w1=0.5, a=2.0, omega=-0.6, gamma=0.8)"
    )
