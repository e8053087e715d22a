"""The benchmark's tracer (bench/tracing.py) against the library it traces.

The tracer rebinds deltacomb module attributes by name and counts the calls
that pass through them.  A renamed target, a changed call signature or a call
path that bypasses a rebound name breaks a traced benchmark run without
failing any library test, so these tests run the tracer itself.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltacomb import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

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


# a process that has imported deltacomb.cli alone traces one energy and one
# bands op: the tracer's install() itself must load the energy and bands
# modules, through cli's names, before it rebinds their leaves
_FRESH_TRACE = """
import contextlib, importlib.util, io, json, sys
import deltacomb.cli as cli
loaded = [m for m in ("deltacomb.energy", "deltacomb.bands") if m in sys.modules]
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [tracer.call("cli.main", cli.main, argv) for argv in (
            ["energy", "--w0", "1", "--w1", "0.3", "--a", "1"],
            ["bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "5"],
        )]
finally:
    tracer.uninstall()
inc = tracer.inclusive_leaf_calls()
roots = [s.id for s in tracer.spans if s.parent is None]
print(json.dumps({"loaded": loaded, "codes": codes, "leaves": [inc[r] for r in roots]}))
"""


def test_tracer_loads_the_modules_a_fresh_cli_process_has_not():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_TRACE, str(TRACING)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == [] and seen["codes"] == [cli.EXIT_OK, cli.EXIT_OK]
    energy, bands = seen["leaves"]
    assert energy["spectral_integrand"] > 0 and bands["spectral_function"] > 0
