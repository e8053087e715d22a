"""End-to-end CLI tests: invocation, serialization, exit codes.

main() is called in-process with an argv list; stdout is captured and
parsed back, which doubles as the round-trip test for the >= 15 significant
digit float serialization contract.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import argparse
import ast
import inspect
import random

import pytest

from deltacomb import CombCouplings, __version__, band_structure, cli, comb_energy, errors, plate_energy
from deltacomb import energy
from deltacomb.bands import band_edges, dispersion
from deltacomb.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)


SRC = Path(__file__).resolve().parents[1] / "src"

# runs `python -m deltacomb.cli argv...`; with "blocked" as its first
# argument, every `import numpy` and `import dataclasses` in the run raises
# ImportError
_FRESH_RUN = """
import runpy, sys
if sys.argv.pop(1) == "blocked":
    sys.modules["numpy"] = sys.modules["dataclasses"] = None
sys.argv[0] = "deltacomb"
runpy.run_module("deltacomb.cli", run_name="__main__", alter_sys=True)
"""


def run_python(code, *argv, timeout=60, flags=()):
    """Exit code, stdout and stderr of a fresh `python flags... -c code
    argv...` that imports deltacomb from SRC; a run that outlasts timeout
    seconds is killed and fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_fresh(mode, *argv, timeout=60):
    """Exit code, stdout and stderr of a fresh `deltacomb argv...`."""
    return run_python(_FRESH_RUN, mode, *argv, timeout=timeout)


def run_loaded(*argv):
    """Exit code, stdout, stderr and which of deltacomb.energy,
    deltacomb.quadrature, deltacomb.bands, deltacomb.sweeps and json a fresh
    `deltacomb argv...` loaded, and deltacomb.cli if it imported a second copy
    of the cli it runs as __main__."""
    watch = ("('deltacomb.cli', 'deltacomb.energy', 'deltacomb.quadrature', 'deltacomb.bands', "
             "'deltacomb.sweeps', 'json')")
    code, out, err = run_python(
        "import atexit, sys\n"
        f"atexit.register(lambda: print(sorted(set({watch}) & set(sys.modules)), file=sys.stderr))\n"
        + _FRESH_RUN,
        "open", *argv,
    )
    *err, loaded = err.splitlines(keepends=True)
    return code, out, "".join(err), set(ast.literal_eval(loaded))


# the modules an energy command loads, and a bands command does not
ENERGY = {"deltacomb.energy", "deltacomb.quadrature"}


def run_without_numpy(*argv):
    """Exit code and stdout of a fresh `deltacomb argv...` that can import
    neither numpy nor dataclasses, checked equal (stderr too) to those of a
    fresh run that can."""
    blocked = run_fresh("blocked", *argv)
    assert blocked == run_fresh("open", *argv)
    return blocked[:2]


def assert_pure_delta_law(row, g, a):
    """The energy row of a pure-delta comb at g = gamma a meets check 8's law
    a E = (g/8pi)(ln g - 1) within abs_err + tail_bound + 0.01 g^2 |ln g| / a."""
    law = g * (math.log(g) - 1.0) / (8.0 * math.pi) / a
    bound = float(row["abs_err"]) + float(row["tail_bound"]) + 0.01 * g * g * abs(math.log(g)) / a
    assert abs(float(row["value"]) - law) <= bound, (row, law)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


# ----------------------------------------------------------------- energy


def test_energy_csv(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--omega", "0", "--gamma", "0", "--a", "1"
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 1
    assert set(rows[0]) == {"value", "abs_err", "truncation_k", "tail_bound"}
    assert abs(float(rows[0]["value"]) - math.pi / 48.0) <= 1e-8
    # the run stops at k a = 5; past it a Gauss-Laguerre rule on f takes the
    # tail, and its allowance is far below abs_tol
    assert float(rows[0]["truncation_k"]) == 5.0
    assert 0.0 < float(rows[0]["tail_bound"]) < 1e-15


def test_energy_json_matches_csv_bit_for_bit(capsys):
    args = ("energy", "--w0", "5", "--w1", "0.5", "--a", "2")
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out_json)
    assert payload["command"] == "energy"
    assert payload["parameters"]["w0"] == 5.0
    assert payload["parameters"]["a"] == 2.0
    assert payload["tolerances"]["abs_tol"] == 1e-10
    # repr-based CSV floats round-trip exactly, so the two formats agree
    csv_value = float(parse_csv(out_csv)[0]["value"])
    assert csv_value == payload["rows"][0]["value"]
    assert csv_value == pytest.approx(-0.052612302882812, abs=1e-12)


def test_csv_floats_carry_full_precision(capsys):
    _, out, _ = run_cli(capsys, "energy", "--w0", "5", "--a", "1")
    cell = parse_csv(out)[0]["value"]
    mantissa = cell.lstrip("-0.").replace(".", "").rstrip("0")
    assert len(mantissa) >= 15


def test_output_file(tmp_path, capsys):
    path = tmp_path / "energy.csv"
    code, out, _ = run_cli(
        capsys, "energy", "--w0", "1", "--a", "1", "--output", str(path)
    )
    assert code == EXIT_OK
    assert out == ""
    rows = parse_csv(path.read_text())
    assert float(rows[0]["value"]) < 0.0


# ------------------------------------------------------------- CSV writer


def csv_oracle(header, rows):
    """The CSV text of the csv module, floats written with repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def test_csv_text_matches_the_csv_module(capsys):
    nan = math.nan
    specials = [0.0, -0.0, nan, float("nan"), math.inf, -math.inf, 5e-324, -5e-324, 1.7e308]
    fixed = [
        (0.0, -0.0, 0, -0.0, 0.0),
        (1, 1.0, -1, -1.0, 1.0, 1),
        (1.0, 1, 2.0, 2, nan, nan, float("nan")),
    ]
    rng = random.Random(20261018)
    for trial in range(40):
        # a few values, so rows repeat them, and an int next to its equal float
        n = rng.randint(-3, 3)
        pool = [rng.uniform(-10.0, 10.0) for _ in range(5)] + [n, float(n)]
        pool.append(10.0 ** rng.randint(-320, 308))
        width = rng.randint(1, 7)
        header = tuple(f"c{i}" for i in range(width))
        rows = [tuple(rng.choice(pool + specials) for _ in range(width)) for _ in range(30)]
        if trial == 0:
            rows = fixed + rows
        args = argparse.Namespace(format="csv", output=None)
        cli._emit(args, {}, header, rows)
        assert capsys.readouterr().out == csv_oracle(header, rows)


def _bands_cases():
    """Seeded bands argvs: generic couplings (some with |w1| > 1), flat
    (Omega = 0) and touching free combs (k = 0.0 at the zero mode), a in
    [1e-2, 10], every listed n_theta and both n_bands; then fixed edge
    cases."""
    rng = random.Random(20261019)
    kinds = ("generic", "big-w1", "flat", "touching")
    for i, (kind, n_theta) in enumerate(
        (kind, n_theta) for kind in kinds for n_theta in (2, 3, 4, 21, 101)
    ):
        if kind == "generic":
            couplings = ("--w0", repr(rng.uniform(0.0, 6.0)), "--w1", repr(rng.uniform(-0.9, 0.9)))
        elif kind == "big-w1":
            w1 = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 4.0)
            couplings = ("--w0", repr(rng.uniform(0.0, 6.0)), "--w1", repr(w1))
        elif kind == "flat":
            couplings = ("--omega", "0", "--gamma", repr(rng.uniform(0.0, 5.0)))
        else:
            couplings = ("--omega", "-1", "--gamma", "0")
        a = 10.0 ** rng.uniform(-2.0, 1.0)
        n_bands = "18"[i % 2]
        argv = ("bands", *couplings, "--a", repr(a), "--n-bands", n_bands, "--n-theta", str(n_theta))
        yield pytest.param(argv, id=f"{kind}-{n_bands}x{n_theta}")
    # q = theta/a far out at both ends of the double range, an attractive
    # comb with real bands, and an even grid (no theta = 0 column)
    generic = ("--w0", "2.7", "--w1", "0.4")
    for a in ("1e-300", "1e300", "1e308"):
        argv = ("bands", *generic, "--a", a, "--n-bands", "3", "--n-theta", "21")
        yield pytest.param(argv, id=f"a={a}-3x21")
    argv = ("bands", "--omega", "0.3", "--gamma", "-1.4", "--a", "1", "--n-bands", "3", "--n-theta", "21")
    yield pytest.param(argv, id="attractive-3x21")
    argv = ("bands", *generic, "--a", "1.3", "--n-bands", "8", "--n-theta", "100")
    yield pytest.param(argv, id="generic-8x100")


@pytest.mark.parametrize("argv", list(_bands_cases()))
def test_bands_csv_matches_the_csv_module(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    args = cli._build_parser("bands").parse_args(argv)
    c = cli._resolve_couplings(args, args.a)
    bands = band_structure(c, n_bands=args.n_bands, n_theta=args.n_theta)
    rows = [
        (band.index, theta, theta / c.a, k, band.k_min, band.k_max)
        for band in bands
        for theta, k in zip(band.thetas, band.ks)
    ]
    expected = csv_oracle(("band", "theta", "q", "k", "k_min", "k_max"), rows)
    # as lists of lines, which pytest reports by the first differing line
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
    path = tmp_path / "bands.csv"
    assert run_cli(capsys, *argv, "--output", str(path)) == (EXIT_OK, "", "")
    assert path.read_bytes() == out.encode()


def _unwritable(tmp_path, where):
    """An --output path that cannot be written: under a missing directory, a
    directory, or empty."""
    return {"missing-dir": str(tmp_path / "missing" / "x.csv"), "a-dir": str(tmp_path), "empty": ""}[where]


@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "empty"])
@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--w0", "1", "--a", "1"),
        ("bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "5"),
    ],
    ids=lambda v: v[0],
)
def test_unwritable_output_exits_2(tmp_path, argv, where):
    path = _unwritable(tmp_path, where)
    code, out, err = run_fresh("open", *argv, "--output", path)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error:") and repr(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "empty"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (("energy", "--w0", "1", "--a", "1"), "comb_energy"),
        (("bands", "--w0", "3", "--a", "1", "--n-bands", "8", "--n-theta", "20001"),
         "band_structure"),
    ],
    ids=("energy", "bands"),
)
def test_unwritable_output_is_rejected_before_the_work(monkeypatch, capsys, tmp_path, argv,
                                                       name, where):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{name} ran although --output cannot be written")

    monkeypatch.setattr(cli, name, unreachable, raising=False)
    path = _unwritable(tmp_path, where)
    code, out, err = run_cli(capsys, *argv, "--output", path)
    assert (code, out) == (EXIT_DOMAIN, "")
    reason = "Is a directory" if where == "a-dir" else "No such file or directory"
    assert err == f"error: cannot write --output {path!r}: {reason}\n"


def test_a_failed_run_leaves_an_existing_output_file_alone(capsys, tmp_path):
    # the early check does not open the file, which would truncate it
    path = tmp_path / "x.csv"
    path.write_text("old\n")
    code, out, err = run_cli(capsys, "energy", "--w0", "-1", "--a", "1", "--output", str(path))
    assert (code, out, path.read_text()) == (EXIT_DOMAIN, "", "old\n")
    assert run_cli(capsys, "energy", "--w0", "1", "--a", "1", "--output", str(path)) == (
        EXIT_OK, "", "")
    assert run_cli(capsys, "energy", "--w0", "1", "--a", "1") == (EXIT_OK, path.read_text(), "")


def test_cli_does_not_import_csv():
    code, out, err = run_python("import sys, deltacomb.cli; print('csv' in sys.modules)")
    assert (code, out, err) == (0, "False\n", "")


def test_cli_does_not_import_dataclasses_or_inspect():
    code, out, err = run_python(
        "import sys\n"
        "before = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "import deltacomb.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))"
    )
    assert (code, out, err) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("bands", "--w0", "3", "--w1", "0.4", "--a", "1.3", "--n-bands", "4", "--n-theta", "11"),
        ("bands", "--omega", "0", "--gamma", "2", "--a", "2", "--n-bands", "4", "--n-theta", "11"),
        ("bands", "--omega", "-1", "--gamma", "0", "--a", "3", "--n-bands", "4", "--n-theta", "11"),
        ("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1",
         "--gamma-count", "3", "--omega-min", "-1", "--omega-max", "0.5",
         "--omega-count", "3"),
        ("energy", "--w0", "5", "--w1", "0.5", "--a", "2"),
    ],
    ids=("bands", "bands-flat", "bands-touching", "scan-couplings", "energy"),
)
def test_csv_cells_parse_back_to_the_json_rows(capsys, argv):
    code, out_csv, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    json_rows = json.loads(out_json)["rows"]
    csv_rows = parse_csv(out_csv)
    assert len(csv_rows) == len(json_rows) > 0
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row)
        for name, cell in csv_row.items():
            # hex compares bits, so -0.0 and 0.0 differ
            assert float(cell).hex() == float(json_row[name]).hex(), (name, cell)


# ------------------------------------------------------------------ plate


def test_plate_free_comb(capsys):
    code, out, _ = run_cli(
        capsys, "plate", "--w0", "0", "--a", "1", "--theta", "0"
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert set(row) == {"theta", "value", "abs_err", "truncation_k", "tail_bound"}
    assert abs(float(row["value"]) + math.pi / 6.0) <= 1e-8
    assert float(row["theta"]) == 0.0
    # the free plate at theta = 0 has F ~ x e^{-x}; past k a = 5 a
    # Gauss-Laguerre rule on F takes the tail
    assert float(row["truncation_k"]) == 5.0
    assert 0.0 < float(row["tail_bound"]) < 1e-15


@pytest.mark.parametrize("couplings", [("--gamma", "1"), ("--gamma", "0"), ("--gamma", "1e6")])
def test_plate_cutoff_is_5_where_its_phase_term_vanishes(capsys, couplings):
    # at Omega cos theta = 0, F decays like e^{-2x}, as the comb's f does:
    # the plate stops at k a = 5 as every plate does and reports the
    # allowance of its 28-point rule on F, fraction times sum |w e^t F/2pi|
    code, out, _ = run_cli(capsys, "plate", "--omega", "0", *couplings, "--a", "1", "--theta", "1",
                           "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert row["truncation_k"] == 5.0
    c = CombCouplings.from_reduced(omega=0.0, gamma=float(couplings[1]), a=1.0)
    plate = lambda c, k: energy.theta_integrand(c, k, 1.0) / (2.0 * math.pi)  # noqa: E731
    _, allowance = energy._tail_integral(plate, c, energy._PLATE_TAIL)
    assert 0.0 < row["tail_bound"] == pytest.approx(allowance, rel=1e-15)


def test_plate_near_its_rounding_floor_meets_a_tight_tolerance(capsys):
    # at gamma a = 4.37, Omega = -1, theta = 2.23 and a = 0.526 the panels'
    # rounding floor alone is about 0.987 of the tolerance at (1e-15, 1e-13),
    # so the tail's error allowance must stay far below the rest of it
    code, out, err = run_cli(capsys, "plate", "--omega", "-1", "--gamma", repr(4.37 / 0.526),
                             "--a", "0.526", "--theta", "2.23", "--abs-tol", "1e-15", "--rel-tol", "1e-13")
    assert code == EXIT_OK, err
    (row,) = parse_csv(out)
    value, abs_err = float(row["value"]), float(row["abs_err"])
    assert abs_err <= max(1e-15, 1e-13 * abs(value)), row


# ------------------------------------------------------------------ bands


def test_bands_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "bands", "--w0", "10", "--a", "1", "--n-bands", "2", "--n-theta", "5",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 2 * 5
    assert set(rows[0]) == {"band", "theta", "q", "k", "k_min", "k_max"}
    first = [r for r in rows if r["band"] == "0"]
    assert len(first) == 5
    # a = 1, so q == theta
    assert all(float(r["q"]) == float(r["theta"]) for r in rows)
    # per-band edges are constant columns; first band is [~2.2844, pi]
    assert len({r["k_min"] for r in first}) == 1
    assert abs(float(first[0]["k_min"]) - 2.284453709564703) <= 1e-9
    assert abs(float(first[0]["k_max"]) - math.pi) <= 1e-9
    # samples stay inside the edges
    for r in rows:
        assert float(r["k_min"]) - 1e-9 <= float(r["k"]) <= float(r["k_max"]) + 1e-9


# ------------------------------------------------------------- cold start


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--w0", "5", "--w1", "0.5", "--a", "2"),
        ("plate", "--omega", "0", "--gamma", "0", "--a", "1", "--theta", "1"),
        ("bands", "--w0", "10", "--a", "1", "--n-bands", "2", "--n-theta", "5"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_single_evaluations_start_without_numpy(capsys, argv, fmt):
    code, out = run_without_numpy(*argv, "--format", fmt)
    assert code == EXIT_OK
    # the fresh process prints what the in-process call prints
    assert run_cli(capsys, *argv, "--format", fmt) == (EXIT_OK, out, "")


def test_failing_single_evaluations_start_without_numpy():
    code, out = run_without_numpy("energy", "--omega", "0", "--gamma", "-1", "--a", "1")
    assert (code, out) == (EXIT_DOMAIN, "")
    code, out = run_without_numpy(
        "energy", "--w0", "1", "--a", "1", "--abs-tol", "1e-300", "--rel-tol", "1e-14"
    )
    assert (code, out) == (EXIT_NUMERIC, "")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("energy", "--w0", "5", "--w1", "0.5", "--a", "2"), ENERGY),
        (("energy", "--w0", "5", "--a", "2", "--format", "json"), {*ENERGY, "json"}),
        (("plate", "--w0", "1", "--a", "1", "--theta", "1"), ENERGY),
        (("bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "5"), {"deltacomb.bands"}),
        (("bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "5", "--format", "json"),
         {"deltacomb.bands", "json"}),
        (("scan-a", "--w0", "5", "--a-min", "1", "--a-max", "2", "--count", "2"),
         {*ENERGY, "deltacomb.sweeps"}),
        (("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1", "--gamma-count", "2",
          "--omega-min", "-1", "--omega-max", "0", "--omega-count", "2"),
         {*ENERGY, "deltacomb.sweeps"}),
        (("ratio-w0", "--count", "2"), {*ENERGY, "deltacomb.sweeps"}),
    ],
    ids=("energy", "energy-json", "plate", "bands", "bands-json", "scan-a", "scan-couplings",
         "ratio-w0"),
)
def test_a_command_loads_only_its_own_modules(capsys, argv, loaded):
    code, out, err, seen = run_loaded(*argv)
    assert seen == loaded
    # and prints what the in-process call prints
    assert (code, out, err) == run_cli(capsys, *argv) == (EXIT_OK, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--w0", "1", "--a", "0"),
        ("energy", "--w0", "inf", "--a", "1", "--format", "json"),
        ("bands", "--omega", "1", "--gamma", "0", "--a", "1"),
        ("plate", "--w1", "1", "--a", "1", "--theta", "0"),
        ("bands", "--omega", "0.5", "--gamma", "1e308", "--a", "4"),
    ],
    ids=("a-zero", "w0-inf", "omega-one", "w1-alone", "w0-overflow"),
)
def test_a_coupling_error_loads_no_library_module(capsys, argv):
    # the couplings are resolved before the command's module is imported
    code, out, err, seen = run_loaded(*argv)
    assert (code, out, seen) == (EXIT_DOMAIN, "", set())
    assert err.startswith("error: ") and (code, out, err) == run_cli(capsys, *argv)


def test_an_overflowing_reduced_coupling_is_named_as_given(capsys):
    # w0 = 2 gamma/(1 - omega) = 4e308 overflows; the error once named
    # (w0, w1) = (inf, 1.73...), a w0 the run was never given
    code, out, err = run_cli(capsys, "bands", "--omega", "0.5", "--gamma", "1e308", "--a", "4")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error: ") and "gamma" in err and "inf" not in err


def test_an_attractive_comb_exits_2_from_the_energy_module():
    # gamma < 0 is the energy module's own domain rule (bands allow it)
    code, out, err, seen = run_loaded("energy", "--w0", "-1", "--a", "1")
    assert (code, out, seen) == (EXIT_DOMAIN, "", ENERGY)
    assert "attractive comb" in err


def test_importing_the_package_loads_no_submodule():
    code, out, err = run_python(
        "import sys\n"
        "import deltacomb\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltacomb')))\n"
        "import deltacomb.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltacomb')))"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "['deltacomb']",
        "['deltacomb', 'deltacomb._record', 'deltacomb.cli', 'deltacomb.errors', "
        "'deltacomb.scattering']",
    ]


def test_from_deltacomb_import_cli_loads_no_library_module():
    code, out, err = run_python(
        "import sys\n"
        "from deltacomb import cli\n"
        "print(sorted({'deltacomb.energy', 'deltacomb.bands'} & set(sys.modules)))"
    )
    assert (code, out, err) == (0, "[]\n", "")


def test_from_deltacomb_import_any_submodule_leaves_the_surface_unloaded():
    # a `from deltacomb import m` asks the package for m before importing it
    names = sorted(p.stem for p in (SRC / "deltacomb").glob("*.py") if p.stem != "__init__")
    code, out, err = run_python(
        "import sys\n"
        "import deltacomb\n"
        "for name in sys.argv[1:]:\n"
        "    exec(f'from deltacomb import {name}')\n"
        "    print(name, '__all__' in vars(deltacomb))",
        *names,
    )
    assert (code, err) == (0, "") and len(names) >= 9
    assert out.splitlines() == [f"{name} False" for name in names]


def test_star_import_binds_exactly_all():
    code, out, err = run_python(
        "import deltacomb\n"
        "names = {}\n"
        "exec('from deltacomb import *', names)\n"
        "names.pop('__builtins__')\n"
        "print(sorted(names) == sorted(deltacomb.__all__), len(deltacomb.__all__))\n"
        "print(set(deltacomb.__all__) <= set(dir(deltacomb)))\n"
        "print(deltacomb.energy.comb_energy is deltacomb.comb_energy)"
    )
    assert (code, out, err) == (0, "True 19\nTrue\nTrue\n", "")


def test_cli_imports_no_typing_without_site():
    # -S leaves out site, whose .pth files may import typing themselves
    code, out, err = run_python(
        "import sys, deltacomb.cli; print('typing' in sys.modules)", flags=("-S",)
    )
    assert (code, out, err) == (0, "False\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan-a", "--w0", "5", "--w1", "0.5", "--a-min", "0.5", "--a-max", "4", "--count", "3"),
        ("scan-couplings", "--a", "1.5", "--gamma-min", "0", "--gamma-max", "2",
         "--gamma-count", "2", "--omega-min", "-1", "--omega-max", "0.6", "--omega-count", "3"),
        ("ratio-w0", "--a", "2", "--w0-min", "1e-5", "--w0-max", "0.1", "--count", "3"),
        ("verify",),
    ],
    ids=lambda v: v[0],
)
def test_sweeps_and_verify_run_without_numpy(capsys, argv):
    code, out = run_without_numpy(*argv)
    assert code == EXIT_OK
    assert run_cli(capsys, *argv) == (EXIT_OK, out, "")


# ------------------------------------------------------------------ scans


def test_scan_a(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan-a", "--w0", "5", "--w1", "0.5",
        "--a-min", "1", "--a-max", "4", "--count", "3",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [float(r["a"]) for r in rows] == [1.0, 2.5, 4.0]
    energies = [float(r["energy"]) for r in rows]
    assert all(e < 0.0 for e in energies)
    # |E| decreases with spacing
    assert abs(energies[0]) > abs(energies[1]) > abs(energies[2])
    assert energies[0] == pytest.approx(-0.088003087940201, abs=1e-10)


def test_scan_couplings_grid_and_signs(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan-couplings", "--a", "1",
        "--gamma-min", "0", "--gamma-max", "1", "--gamma-count", "2",
        "--omega-min", "-1", "--omega-max", "0", "--omega-count", "2",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 4
    # gamma is the outer loop
    grid = [(float(r["gamma"]), float(r["omega"])) for r in rows]
    assert grid == [(0.0, -1.0), (0.0, 0.0), (1.0, -1.0), (1.0, 0.0)]
    by = {g: r for g, r in zip(grid, rows)}
    assert by[(0.0, -1.0)]["sign"] == "0"  # free comb
    assert by[(0.0, 0.0)]["sign"] == "1"  # mixed comb, E = pi/48 > 0
    assert by[(1.0, -1.0)]["sign"] == "-1"  # pure delta comb
    assert by[(1.0, 0.0)]["sign"] == "-1"


def test_scan_couplings_signs_follow_the_error_bound_at_large_spacings(capsys):
    # at a = 1e15 every nonzero energy is near 1e-16 and its bound near 1e-22:
    # a sign of 0 for |E| under a fixed 1e-14 once hid all three of them
    code, out, _ = run_cli(
        capsys,
        "scan-couplings", "--a", "1e15",
        "--gamma-min", "0", "--gamma-max", "1e-14", "--gamma-count", "2",
        "--omega-min", "-1", "--omega-max", "0", "--omega-count", "2",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [r["sign"] for r in rows] == ["0", "1", "-1", "-1"]
    assert (rows[0]["energy"], rows[0]["abs_err"]) == ("0.0", "0.0")  # free comb
    assert float(rows[1]["energy"]) == pytest.approx(math.pi / 48e15, rel=1e-8)  # mixed comb
    for row in rows[1:]:
        assert abs(float(row["energy"])) > 1e5 * float(row["abs_err"])


def test_ratio_w0(capsys):
    code, out, _ = run_cli(
        capsys,
        "ratio-w0", "--a", "1",
        "--w0-min", "1e-3", "--w0-max", "1e-2", "--count", "2",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    ratios = [float(r["ratio"]) for r in rows]
    assert ratios[0] == pytest.approx(0.04555437201, abs=1e-9)
    assert ratios[1] == pytest.approx(0.04849652509, abs=1e-9)
    # energy column is consistent with the ratio definition
    for r in rows:
        w0, e = float(r["w0"]), float(r["energy"])
        assert float(r["ratio"]) == pytest.approx(e / (w0 * math.log(w0)), rel=1e-12)


@pytest.mark.parametrize(
    "sweep, point",
    [
        (
            ("scan-a", "--w0", "5", "--w1", "0.5", "--a-min", "0.5", "--a-max", "4",
             "--count", "3"),
            lambda r: ("--w0", "5", "--w1", "0.5", "--a", r["a"]),
        ),
        (
            ("scan-couplings", "--a", "1.5", "--gamma-min", "0", "--gamma-max", "2",
             "--gamma-count", "2", "--omega-min", "-1", "--omega-max", "0.6",
             "--omega-count", "3"),
            lambda r: ("--omega", r["omega"], "--gamma", r["gamma"], "--a", "1.5"),
        ),
        (
            ("ratio-w0", "--a", "2", "--w0-min", "1e-5", "--w0-max", "0.1", "--count", "3"),
            lambda r: ("--w0", r["w0"], "--a", "2"),
        ),
    ],
    ids=("scan-a", "scan-couplings", "ratio-w0"),
)
def test_sweep_rows_match_single_evaluations(capsys, sweep, point):
    code, out, _ = run_cli(capsys, *sweep)
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) in (3, 6)
    for row in rows:
        code, out, _ = run_cli(capsys, "energy", *point(row))
        assert code == EXIT_OK
        (single,) = parse_csv(out)
        assert (row["energy"], row["abs_err"]) == (single["value"], single["abs_err"])


# ------------------------------------------------------------ verification


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    assert "10/10 checks passed" in out
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out


# -------------------------------------------------------------- exit codes


def test_domain_errors_exit_2(capsys):
    # attractive comb
    code, _, err = run_cli(capsys, "energy", "--omega", "0", "--gamma", "-1", "--a", "1")
    assert code == EXIT_DOMAIN and "gamma" in err
    # omega outside [-1, 1)
    code, _, _ = run_cli(capsys, "energy", "--omega", "1", "--gamma", "0", "--a", "1")
    assert code == EXIT_DOMAIN
    # no couplings at all
    code, _, err = run_cli(capsys, "energy", "--a", "1")
    assert code == EXIT_DOMAIN and "parameterization" in err
    # both parameterizations at once
    code, _, _ = run_cli(
        capsys, "energy", "--w0", "1", "--omega", "0", "--gamma", "0", "--a", "1"
    )
    assert code == EXIT_DOMAIN
    # --w1 without --w0
    code, _, _ = run_cli(capsys, "energy", "--w1", "0.5", "--a", "1")
    assert code == EXIT_DOMAIN
    # non-positive or non-finite lattice spacing
    code, _, _ = run_cli(capsys, "energy", "--w0", "5", "--a", "-1")
    assert code == EXIT_DOMAIN
    for argv in (("energy",), ("plate", "--theta", "0")):
        code, out, _ = run_cli(capsys, *argv, "--w0", "1", "--a", "inf")
        assert code == EXIT_DOMAIN and out == ""
    # non-finite coupling
    code, out, err = run_cli(capsys, "energy", "--w0", "nan", "--a", "1")
    assert code == EXIT_DOMAIN and "finite" in err and out == ""
    # attractive comb whose lowest band reaches imaginary k
    code, out, err = run_cli(capsys, "bands", "--w0", "-3", "--a", "1")
    assert code == EXIT_DOMAIN and "imaginary k" in err and out == ""
    # bad scan grids
    code, _, _ = run_cli(
        capsys,
        "scan-couplings", "--a", "1",
        "--gamma-min", "-1", "--gamma-max", "1",
        "--omega-min", "-0.5", "--omega-max", "0.5",
    )
    assert code == EXIT_DOMAIN
    code, _, _ = run_cli(
        capsys, "ratio-w0", "--w0-min", "0.5", "--w0-max", "0.1"
    )
    assert code == EXIT_DOMAIN
    # half a reduced parameterization, and grids of a single point
    for argv, message in (
        (("energy", "--omega", "0", "--a", "1"), "--omega and --gamma must be given together"),
        (("scan-a", "--w0", "1", "--a-min", "1", "--a-max", "2", "--count", "1"),
         "need --count >= 2"),
        (("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1",
          "--gamma-count", "1", "--omega-min", "-0.5", "--omega-max", "0.5"),
         "need --gamma-count >= 2 and --omega-count >= 2"),
        (("ratio-w0", "--count", "1"), "need --count >= 2"),
    ):
        assert run_cli(capsys, *argv) == (EXIT_DOMAIN, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("scan-a", "--w0", "1", "--a-min", "1", "--a-max", "inf", "--count", "3"), "--a-max"),
        (("scan-a", "--w0", "1", "--a-min=-inf", "--a-max", "1"), "--a-min"),
        (("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "inf",
          "--omega-min", "-1", "--omega-max", "0"), "--gamma-max"),
        (("scan-couplings", "--a", "1", "--gamma-min=-inf", "--gamma-max", "1",
          "--omega-min", "-1", "--omega-max", "0"), "--gamma-min"),
        (("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1",
          "--omega-min=-inf", "--omega-max", "0"), "--omega-min"),
        (("scan-couplings", "--a", "1", "--gamma-min", "0", "--gamma-max", "1",
          "--omega-min", "-1", "--omega-max", "inf"), "--omega-max"),
    ],
    ids=("a-max", "a-min", "gamma-max", "gamma-min", "omega-min", "omega-max"),
)
def test_sweep_bounds_must_be_finite(capsys, argv, flag):
    # rejected as given, not after a grid built from them has turned to nan
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert flag in err and "inf" in err.partition(", got ")[2] and "nan" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--w0", "1e300", "--a", "1e10"),
        ("energy", "--omega", "0.3", "--gamma", "1e160", "--a", "1"),
        ("plate", "--omega", "0.3", "--gamma", "1e160", "--a", "1", "--theta", "1"),
        ("plate", "--omega", "0.3", "--gamma", "1e154", "--a", "1", "--theta", "1",
         "--format", "json"),
        # the same w0 and a as the strong-law test below, but w1 = 1e70 puts
        # gamma a = 1e170 out of range
        ("energy", "--w0", "1e300", "--w1", "1e70", "--a", "1e10"),
        ("energy", "--omega", "0.99", "--gamma", "1.001e150", "--a", "1"),
    ],
)
def test_huge_gamma_a_exits_2(capsys, argv):
    # a typed error naming the caller's values, not a NaN row, an overflowed
    # inf or the positivity sentinel
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert "gamma a exceeds" in err
    assert "(w0, w1, a) = (" in err and ", gamma = " in err and ", omega = " in err
    assert "bug" not in err and "inf" not in err


def test_huge_w0_a_with_gamma_a_in_range_meets_the_strong_law(capsys):
    # w0 a = 1e310 overflows but gamma a = 1e110 is in range: not exit 2
    # ("w0 a overflows") as when the energy was taken at unit spacing, but
    # check 2's strong law
    code, out, err = run_cli(capsys, "energy", "--w0", "1e300", "--w1", "1e100", "--a", "1e10")
    assert (code, err) == (EXIT_OK, "")
    (row,) = parse_csv(out)
    g, a = 1e110, 1e10  # Omega = 1
    law = math.pi * (-1 / 24 + 1 / (12 * g) - 1 / (4 * g * g)) / a
    assert abs(float(row["value"]) - law) <= float(row["abs_err"]) + float(row["tail_bound"])


@pytest.mark.parametrize("omega", ["-1", "-0.5", "0.3", "0.99"])
def test_gamma_at_the_limit_gives_a_finite_energy(capsys, omega):
    code, out, err = run_cli(capsys, "energy", "--omega", omega, "--gamma", "1e150", "--a", "1")
    assert (code, err) == (EXIT_OK, "")
    (row,) = parse_csv(out)
    assert all(math.isfinite(float(cell)) for cell in row.values())


def test_tiny_pure_delta_at_tiny_tolerance_stays_off_the_sentinel(capsys):
    # gamma a = 1e-300 with abs_tol 1e-300 keeps the ladder's low rungs, so
    # the quadrature samples x ~ 1e-300 at |Omega| = 1
    code, out, err = run_cli(
        capsys, "plate", "--w0", "1e-300", "--a", "1", "--theta", "0", "--abs-tol", "1e-300"
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert abs(float(row["value"]) + math.pi / 6.0) <= float(row["abs_err"])
    # the comb meets that tolerance (it used to exit 3 on the rounding noise
    # of the x > 5 form) and lands on check 8's law
    code, out, err = run_cli(capsys, "energy", "--w0", "1e-300", "--a", "1", "--abs-tol", "1e-300")
    assert (code, err) == (EXIT_OK, "")
    assert_pure_delta_law(parse_csv(out)[0], 1e-300, 1.0)


def test_huge_w1_gives_finite_energy(capsys):
    # w1^2 overflows, but Omega = 1 and gamma = 0 are representable: E ~ 0
    code, out, _ = run_cli(capsys, "energy", "--w0", "1", "--w1", "1e200", "--a", "1")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert math.isfinite(float(row["value"]))
    assert abs(float(row["value"])) <= float(row["abs_err"]) + 1e-14


@pytest.mark.parametrize("a", ["1e-12", "1e-11", "1e-10", "1e-3", "1"])
@pytest.mark.parametrize("couplings", [("--w0", "0"), ("--w0", "1", "--w1", "1e200")])
def test_free_corner_energy_is_exactly_zero(capsys, couplings, a):
    # gamma = 0, |Omega| = 1: the integrand is 0 for every x, so the energy
    # and its error are exact at every spacing, even where abs_tol a is tiny
    code, out, err = run_cli(capsys, "energy", *couplings, "--a", a)
    assert (code, err) == (EXIT_OK, "")
    (row,) = parse_csv(out)
    assert (row["value"], row["abs_err"], row["tail_bound"]) == ("0.0", "0.0", "0.0")


def test_a_tolerance_under_the_rounding_floor_exits_3_before_splitting(capsys, monkeypatch):
    # the estimate stalls at the panels' 50 eps resabs: the run once took its
    # 2,000 splits (over 60,000 evaluations) before it exited 3
    import deltacomb.energy

    calls = []
    counted = deltacomb.energy.spectral_integrand

    def counting(c, k):
        calls.append(k)
        return counted(c, k)

    monkeypatch.setattr(deltacomb.energy, "spectral_integrand", counting)
    code, out, err = run_cli(
        capsys, "energy", "--w0", "1", "--a", "1", "--abs-tol", "1e-300", "--rel-tol", "1e-14"
    )
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("numerical failure: rounding floor ") and "above the tolerance" in err
    assert len(calls) <= 200


def test_numeric_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "energy", "--w0", "1", "--a", "1", "--abs-tol", "1e-300", "--rel-tol", "1e-14"
    )
    assert code == EXIT_NUMERIC
    assert "numerical failure" in err


# main's exit code and stderr prefix for every error class of the package
# and for ValueError: the OutsideValidityDomainError family is a domain error
EXIT_BY_ERROR = {
    errors.DeltaCombError: (EXIT_NUMERIC, "numerical failure: "),
    errors.OutsideValidityDomainError: (EXIT_DOMAIN, "error: "),
    errors.ValidityViolationError: (EXIT_NUMERIC, "numerical failure: "),
    errors.ToleranceNotMetError: (EXIT_NUMERIC, "numerical failure: "),
    errors.RootScanError: (EXIT_NUMERIC, "numerical failure: "),
    ValueError: (EXIT_DOMAIN, "error: "),
}


def test_every_error_class_has_an_exit_code():
    assert {getattr(errors, name) for name in errors.__all__} == set(EXIT_BY_ERROR) - {ValueError}


@pytest.mark.parametrize("exc_type", list(EXIT_BY_ERROR), ids=lambda t: t.__name__)
def test_exit_codes_follow_the_error_hierarchy(capsys, monkeypatch, exc_type):
    def fail(*args):
        raise exc_type("raised by the library")

    monkeypatch.setattr(cli, "comb_energy", fail)
    code, prefix = EXIT_BY_ERROR[exc_type]
    assert run_cli(capsys, "energy", "--w0", "1", "--a", "1") == (
        code, "", prefix + "raised by the library\n"
    )


def test_tiny_spacing_meets_the_pure_delta_law(capsys):
    # abs_tol a = 1e-310 is subnormal but positive: once a tolerance not met
    # (exit 3), now a finite energy on check 8's law at g = 1e-300
    code, out, err = run_cli(capsys, "energy", "--w0", "1", "--a", "1e-300")
    assert (code, err) == (EXIT_OK, "")
    assert_pure_delta_law(parse_csv(out)[0], 1e-300, 1e-300)


@pytest.mark.parametrize("command", [("energy",), ("plate", "--theta", "1")])
@pytest.mark.parametrize("a", ["1e-308", "1e-310"])
def test_cutoff_overflow_at_tiny_spacing_exits_2(capsys, command, a):
    # K = 5/a overflows: a domain error naming a, not an inf row (or an
    # integrand error naming k = inf)
    code, out, err = run_cli(capsys, command[0], "--w0", "1", "--w1", "0.3", "--a", a, *command[1:])
    assert (code, out) == (EXIT_DOMAIN, "")
    assert f"a = {float(a)!r}" in err and "inf" not in err


def test_cutoff_that_just_overflows_exits_2(capsys):
    # the comb's tail reaches k = 23.55/a, which overflows just below a =
    # 23.55/DBL_MAX = 1.31e-307, where abs_tol a is still a positive
    # subnormal: exit 2 naming a
    code, out, err = run_cli(capsys, "energy", "--w0", "1", "--w1", "0.3", "--a", "1.3e-307")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "23.55/a overflows" in err and "a = 1.3e-307" in err and "inf" not in err


@pytest.mark.parametrize("root_tol", ["1", "inf"])
def test_root_tol_of_one_or_more_exits_2(capsys, root_tol):
    # Brent returned a bracket end before its first step and every Newton
    # bracket counted as flat: band 0's k_min read 0.0 (a false zero mode,
    # the true edge is 1.5427) and band 1's pi (3.8795), with exit 0
    argv = ("bands", "--w0", "3", "--a", "1", "--n-bands", "2", "--n-theta", "3")
    code, out, err = run_cli(capsys, *argv, "--root-tol", root_tol)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("error: ") and "root_tol" in err


@pytest.mark.parametrize("command", [("energy",), ("plate", "--theta", "1")])
def test_subnormal_gamma_a_returns(command):
    # in a child with a timeout: at g = 1e-322 the ladder's first rung
    # 0.01 g/2 underflowed to 0 and never climbed, so the run never returned
    code, out, err = run_fresh("open", command[0], "--w0", "1e-322", "--a", "1", *command[1:], timeout=10)
    assert (code, err) == (EXIT_OK, "")
    (row,) = parse_csv(out)
    assert all(math.isfinite(float(cell)) for cell in row.values())
    if command == ("energy",):
        assert_pure_delta_law(row, 1e-322, 1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ("energy", "--w0", "1", "--a", "1e-320"),
        ("plate", "--w0", "1", "--a", "1e-320", "--theta", "1"),
        ("scan-a", "--w0", "1", "--a-min", "1e-320", "--a-max", "1e-319", "--count", "2"),
    ],
    ids=("energy", "plate", "scan-a"),
)
def test_abs_tol_a_underflow_exits_2(argv):
    # abs_tol a underflowed to 0 and the layer-mass share divided by it:
    # an uncaught ZeroDivisionError, exit 1
    code, out, err = run_fresh("open", *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "abs_tol a = 0.0" in err and "abs_tol = 1e-10" in err and "a = 1e-320" in err
    assert "Traceback" not in err


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--w0", "1"])  # missing required --a
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


# ----------------------------------------------------------------- parser

ALL_COMMANDS = "{energy,plate,bands,scan-a,scan-couplings,ratio-w0,verify}"

# argv after the command name that every command's parser accepts
VALID_ARGS = {
    "energy": ("--w0", "1", "--a", "1"),
    "plate": ("--w0", "1", "--a", "1", "--theta", "0.5"),
    "bands": ("--omega", "0", "--gamma", "1", "--a", "1", "--n-bands", "2"),
    "scan-a": ("--w0", "1", "--a-min", "1", "--a-max", "2"),
    "scan-couplings": ("--a", "1", "--gamma-min", "0", "--gamma-max", "1",
                       "--omega-min", "-1", "--omega-max", "0"),
    "ratio-w0": ("--count", "3", "--format", "json"),
    "verify": (),
}


def parse_exit(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_every_command_has_parser_cases():
    assert list(VALID_ARGS) == list(cli._COMMANDS)
    assert ALL_COMMANDS == "{" + ",".join(cli._COMMANDS) + "}"


@pytest.mark.parametrize("command", list(VALID_ARGS))
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command):
    full = cli._build_parser().parse_args
    help_ = parse_exit(capsys, main, (command, "-h"))
    assert help_ == parse_exit(capsys, full, (command, "-h"))
    assert help_[0] == 0 and help_[1].startswith(f"usage: deltacomb {command} ")
    bad = (command, *VALID_ARGS[command], "--no-such-flag")
    code, out, err = parse_exit(capsys, main, bad)
    assert (code, out, err) == parse_exit(capsys, full, bad)
    # the top-level usage line still lists every command, not just this one
    assert (code, out) == (2, "") and ALL_COMMANDS in err
    assert err.endswith("error: unrecognized arguments: --no-such-flag\n")


def test_top_level_parser_output(capsys):
    code, out, err = parse_exit(capsys, main, ["-h"])
    assert (code, err) == (0, "") and ALL_COMMANDS in out
    for name, (help_, _, _) in cli._COMMANDS.items():
        assert f"    {name}" in out and help_.split()[0] in out
    assert parse_exit(capsys, main, ["--version"]) == (0, __version__ + "\n", "")
    code, out, err = parse_exit(capsys, main, [])
    assert (code, out) == (2, "") and ALL_COMMANDS in err
    assert err.endswith("error: the following arguments are required: command\n")
    code, out, err = parse_exit(capsys, main, ["no-such-command"])
    assert (code, out) == (2, "") and ALL_COMMANDS in err
    assert "error: argument command: invalid choice: 'no-such-command'" in err


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    built = []

    def spy(name, add_args):
        def add_args_spy(p):
            built.append(name)
            add_args(p)
        return add_args_spy

    spied = {
        name: (help_, add_args and spy(name, add_args), func)
        for name, (help_, add_args, func) in cli._COMMANDS.items()
    }
    monkeypatch.setattr(cli, "_COMMANDS", spied)
    cli._build_parser()
    assert built == [name for name in spied if name != "verify"]  # verify takes no options
    for name in spied:
        built.clear()
        assert parse_exit(capsys, main, (name, "-h"))[0] == 0
        assert built == ([] if name == "verify" else [name])


# the tolerance options each command reads, in the order of its JSON tolerances
QUAD_OPTIONS = ("abs_tol", "rel_tol")
TOLERANCES = {
    "energy": QUAD_OPTIONS,
    "plate": QUAD_OPTIONS,
    "bands": ("root_tol",),
    "scan-a": QUAD_OPTIONS,
    "scan-couplings": QUAD_OPTIONS,
    "ratio-w0": QUAD_OPTIONS,
    "verify": (),
}
# values other than the defaults, and a grid small enough for a sweep to be
# quick; no command reads truncation_k or max_subdivisions: the energies pick
# their own cutoff, and the quadrature's split budget is a constant
NON_DEFAULT = {"abs_tol": 1e-9, "rel_tol": 1e-7, "max_subdivisions": 3000, "truncation_k": 30.0,
               "root_tol": 1e-11}
SMALL_GRID = {"scan-a": ("--count", "2"), "scan-couplings": ("--gamma-count", "2", "--omega-count", "2")}


def _flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", list(VALID_ARGS))
def test_each_command_takes_the_tolerances_it_reads(capsys, command):
    names = TOLERANCES[command]
    assert list(TOLERANCES) == list(VALID_ARGS)
    args = cli._build_parser(command).parse_args([command, *VALID_ARGS[command]])
    assert set(NON_DEFAULT) & set(vars(args)) == set(names)
    # each command states its library functions' tolerance defaults without
    # importing them
    defaults = {}
    for name, functions in (("abs_tol", (comb_energy, plate_energy)),
                            ("rel_tol", (comb_energy, plate_energy)),
                            ("root_tol", (dispersion, band_structure, band_edges))):
        (defaults[name],) = {inspect.signature(f).parameters[name].default for f in functions}
    assert {n: getattr(args, n) for n in names} == {n: defaults[n] for n in names}
    # an option the command does not read is a usage error, not ignored
    for name in set(NON_DEFAULT) - set(names):
        code, out, err = parse_exit(capsys, main, (command, *VALID_ARGS[command], _flag(name), "1e-6"))
        assert (code, out) == (2, "") and f"unrecognized arguments: {_flag(name)}" in err
    if command == "verify":
        return
    options = [arg for n in names for arg in (_flag(n), repr(NON_DEFAULT[n]))]
    argv = (command, *VALID_ARGS[command], *SMALL_GRID.get(command, ()), *options, "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    record = [(n, v, type(v)) for n, v in json.loads(out)["tolerances"].items()]
    assert record == [(n, NON_DEFAULT[n], type(NON_DEFAULT[n])) for n in names]
