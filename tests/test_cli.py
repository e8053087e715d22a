"""End-to-end CLI tests: invocation, serialization, exit codes.

main() is called in-process with an argv list; stdout is captured and
parsed back, which doubles as the round-trip test for the >= 15 significant
digit float serialization contract.
"""

import csv
import io
import json
import math

import pytest

from deltacomb.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)


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
    assert float(rows[0]["truncation_k"]) == 40.0


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
    assert float(row["truncation_k"]) == 40.0
    assert 0.0 < float(row["tail_bound"]) < 1e-14


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


def test_huge_w1_gives_finite_energy(capsys):
    # w1^2 overflows, but Omega = 1 and gamma = 0 are representable: E ~ 0
    code, out, _ = run_cli(capsys, "energy", "--w0", "1", "--w1", "1e200", "--a", "1")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert math.isfinite(float(row["value"]))
    assert abs(float(row["value"])) <= float(row["abs_err"]) + 1e-14


def test_numeric_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "energy", "--w0", "5", "--a", "1",
        "--abs-tol", "1e-30", "--max-subdivisions", "2",
    )
    assert code == EXIT_NUMERIC
    assert "numerical failure" in err


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
