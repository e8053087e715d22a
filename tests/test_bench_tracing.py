"""The benchmark's tracer (bench/tracing.py) against the library it traces.

The tracer rebinds deltacomb module attributes by name and counts the calls
that pass through them.  A renamed target, a changed call signature or a call
path that bypasses a rebound name breaks a traced benchmark run without
failing any library test, so these tests run the tracer itself.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from deltacomb import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

PROBES = {
    "energy.evals.generic",
    "energy.evals.w0_small",
    "energy.evals.a_small",
    "energy.evals.a_large",
    "bands.secular_per_root",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    return [
        (modname, attr)
        for table in (tracing.SPAN_TARGETS, tracing.LEAF_TARGETS)
        for modname, names in table.items()
        for attr in names
    ]


def test_install_rebinds_every_target_and_uninstall_restores_it(tracing):
    before = {t: getattr(sys.modules[t[0]], t[1]) for t in targets(tracing)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (modname, attr), orig in before.items():
            assert getattr(sys.modules[modname], attr) is not orig
    finally:
        tracer.uninstall()
    for (modname, attr), orig in before.items():
        assert getattr(sys.modules[modname], attr) is orig


def test_traced_cli_calls_pass_through_the_rebound_names(tracing, capsys):
    argvs = (
        ("energy", "--w0", "1", "--w1", "0.3", "--a", "1"),
        ("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1",
         "--gamma-count", "2", "--omega-min", "-1", "--omega-max", "0", "--omega-count", "2"),
        ("bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "5"),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate(argvs):
            tracer.op = op
            assert tracer.call("cli.main", cli.main, list(argv)) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    energies = {"energy.comb_energy", "scattering.CombCouplings", "quadrature.integrate_finite"}
    expected = (energies, energies, {"scattering.CombCouplings", "bands.band_structure", "bands.dispersion"})
    leaves = ("spectral_integrand", "spectral_integrand", "spectral_function")
    inc = tracer.inclusive_leaf_calls()
    for op, names in enumerate(expected):
        assert names <= {s.name for s in tracer.spans if s.op == op}
        root = next(s for s in tracer.spans if s.op == op and s.parent is None)
        assert inc[root.id][leaves[op]] > 0
    metrics = tracing.layer_metrics(tracer, [1, 4, 10])
    assert metrics["energy.points"] == 5 and metrics["scattering.couplings_per_op"] > 0
    assert all(math.isfinite(v) for v in metrics.values())


def test_count_probes_report_every_probe(tracing):
    probes = tracing.count_probes()
    assert set(probes) == PROBES
    assert all(v > 0 for v in probes.values())


def test_integrand_timing_is_finite(tracing):
    assert math.isfinite(tracing.integrand_ns())
