"""Output checks for benchmark ops, stdlib only and independent of deltacomb.

Each op's stdout is parsed (CSV or JSON, as the op asked for) and checked
against what the op expects: the exit code, the row count, finite energies
and errors, the closed-form energies of the mixed (pi/(48a)) and free (0)
combs, k_min <= k <= k_max and a small closed-form secular residual for band
rows, and, for a seeded sample of energy rows, agreement with this module's
own quadrature of the closed-form integrand I(k) within the reported error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from typing import Dict, List, Optional, Tuple

from workloads import Op, adjacent_ref

_TWO_PI = 2.0 * math.pi

# energy rows per run compared with reference_energy
REFERENCE_SAMPLES = 24


def parse_rows(argv, stdout: str) -> List[Dict[str, float]]:
    """Output rows as dicts of floats; raises ValueError on malformed output."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        payload = json.loads(stdout)
        return [{k: float(v) for k, v in row.items()} for row in payload["rows"]]
    lines = list(csv.reader(io.StringIO(stdout)))
    if not lines:
        raise ValueError("empty CSV output")
    header = lines[0]
    return [{h: float(v) for h, v in zip(header, line, strict=True)} for line in lines[1:]]


def spectral_I(k: float, gamma: float, omega: float, a: float) -> float:
    """Closed-form Bloch-averaged integrand (1/2pi)[A/sqrt(B^2-C^2) + ak - gamma/(gamma+2k)].

    B -/+ |C| are written as sums of non-negative terms; valid for ka up to a
    few hundred, which covers the range integrated below.
    """
    x = k * a
    sh, ch, sh2 = math.sinh(x), math.cosh(x), math.sinh(0.5 * x)
    big_a = -a * k * gamma * ch + (gamma - 2.0 * a * k * k) * sh
    b_minus = 4.0 * k * sh2 * sh2 + gamma * sh + 2.0 * k * (1.0 - abs(omega))
    b_plus = 2.0 * k * ch + gamma * sh + 2.0 * k * abs(omega)
    return (big_a / math.sqrt(b_minus * b_plus) + a * k - gamma / (gamma + 2.0 * k)) / _TWO_PI


def _gauss_legendre(n: int) -> List[Tuple[float, float]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


_GL10 = _gauss_legendre(10)
_GL20 = _gauss_legendre(20)


def reference_energy(gamma: float, omega: float, a: float) -> Tuple[float, float]:
    """(E, own error) by composite Gauss-Legendre over [1e-15, 25/a].

    Panels double in width from 1e-15 up to 1/a, resolving the k ~ gamma/2
    layer at any gamma, then have width 0.5/a up to ka = 25, beyond which
    |I| < 1e-20.  The error is the summed |GL20 - GL10| over panels.
    """
    breaks = [1e-15]
    while breaks[-1] < 1.0 / a:
        breaks.append(breaks[-1] * 2.0)
    top = 25.0 / a
    while breaks[-1] < top:
        breaks.append(breaks[-1] + 0.5 / a)
    values, errors = [], []
    for lo, hi in zip(breaks, breaks[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        g20 = h * math.fsum(w * spectral_I(c + h * x, gamma, omega, a) for x, w in _GL20)
        g10 = h * math.fsum(w * spectral_I(c + h * x, gamma, omega, a) for x, w in _GL10)
        values.append(g20)
        errors.append(abs(g20 - g10))
    return math.fsum(values), math.fsum(errors)


def secular(k: float, theta: float, gamma: float, omega: float, a: float) -> float:
    """g(k) = Omega cos(theta) + cos(ka) + (gamma/2k) sin(ka), with its k -> 0 limit."""
    if k == 0.0:
        return omega * math.cos(theta) + 1.0 + 0.5 * gamma * a
    return omega * math.cos(theta) + math.cos(k * a) + 0.5 * gamma * math.sin(k * a) / k


def _secular_tol(k: float, gamma: float, omega: float, a: float) -> float:
    # roots are bisected to 1e-12 relative width (|g| <= |g'| dk), tangential
    # ones accepted at |g| <= 1e-9 of the secular scale
    slope = a + 0.5 * gamma * a + (0.5 * gamma / k if k > 0.0 else 0.0)
    return 1e-9 * (1.0 + abs(omega) + 0.5 * gamma * a) + 1e-10 * slope * max(k, 1.0)


def _energy_fields(op: Op, row: Dict[str, float]) -> Tuple[float, float, float, float, float, float]:
    """(value, abs_err, tail, gamma, omega, a) of an energy row of any command."""
    value = row["energy"] if "energy" in row else row["value"]
    tail = row.get("tail_bound", 0.0)
    gamma, omega, a = op.gamma, op.omega, op.a
    if op.kind == "scan-couplings":
        gamma, omega = row["gamma"], row["omega"]
    elif op.kind == "scan-a":
        a = row["a"]
    elif op.kind == "ratio-w0":
        gamma = row["w0"]
    return value, row["abs_err"], tail, gamma, omega, a


ENERGY_KINDS = ("energy", "energy-mixed", "energy-free", "edge", "scan-a", "scan-couplings", "ratio-w0")


def check_op(op: Op, code: int, stdout: str) -> Tuple[Optional[str], bool, List[Dict[str, float]]]:
    """(failure reason or None, whether the output is wrong, parsed rows).

    An op fails when its outcome differs from the expected one.  Its output is
    wrong, not merely failed, when it exited 0 with rows that do not check
    out, or crashed instead of ending in exit 0, 2 or 3.
    """
    rows: List[Dict[str, float]] = []
    if code == 0:
        try:
            rows = parse_rows(op.argv, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable output: {exc}", True, []
        if op.exit == 0 and op.rows is not None and len(rows) != op.rows:
            return f"{len(rows)} rows, expected {op.rows}", True, rows
        for row in rows:
            reason = _check_row(op, row)
            if reason:
                return reason, True, rows
    if code not in (0, 2, 3):
        return f"exit {code}", True, rows
    if code != op.exit:
        return f"exit {code}, expected {op.exit}", False, rows
    return None, False, rows


def _check_row(op: Op, row: Dict[str, float]) -> Optional[str]:
    if op.argv[0] == "plate":
        return None if math.isfinite(row["value"]) else f"non-finite plate value {row['value']}"
    if op.argv[0] == "bands":
        k, lo, hi, theta = row["k"], row["k_min"], row["k_max"], row["theta"]
        slack = 1e-9 * max(1.0, hi)
        if not (lo - slack <= k <= hi + slack):
            return f"band {int(row['band'])} k={k!r} outside [{lo!r}, {hi!r}]"
        res = abs(secular(k, theta, op.gamma, op.omega, op.a))
        if not res <= _secular_tol(k, op.gamma, op.omega, op.a):
            return f"secular residual {res:.3e} at k={k!r}, theta={theta!r}"
        return None
    value, err, tail, gamma, omega, a = _energy_fields(op, row)
    if not (math.isfinite(value) and math.isfinite(err)):
        return f"non-finite energy row value={value} abs_err={err}"
    bound = err + tail + 4.0 * math.ulp(max(abs(value), 1e-300))
    if omega == 0.0 and gamma == 0.0 and abs(value - math.pi / (48.0 * a)) > bound:
        return f"mixed comb {value!r} != pi/(48a) = {math.pi / (48.0 * a)!r}"
    if omega == -1.0 and gamma == 0.0 and abs(value) > bound:
        return f"free comb energy {value!r} != 0"
    return None


def sampled_reference_check(samples: List[Tuple[int, Op, Dict[str, float]]], seed: int,
                            count: int) -> Dict[int, str]:
    """Compare a seeded sample of (op index, op, energy row) with reference_energy.

    Returns a failure message per op index whose sampled row disagrees.
    """
    picked = random.Random(f"reference-sample:{seed}").sample(samples, min(count, len(samples)))
    failures = {}
    for j, op, row in picked:
        value, err, tail, gamma, omega, a = _energy_fields(op, row)
        ref, ref_err = reference_energy(gamma, omega, a)
        if abs(value - ref) > err + tail + ref_err + 1e-15 * max(1.0, abs(ref)):
            failures[j] = f"{' '.join(op.argv)}: row {row} differs from reference {ref!r} (+-{ref_err:.1e})"
    return failures


def account(ops: List[Op], first: Dict[int, Tuple[int, str, str]], records: List[tuple],
            refs: List[float], seed: int) -> Dict[str, object]:
    """Check a timed loop's outputs and turn its records into end-to-end figures.

    first maps an op's index in the list to its first (exit code, stdout,
    stderr); records hold (index, op_s, output_same_as_first) per op run, and
    refs the reference times, refs[i] right before op i and refs[i + 1] after.
    """
    reasons: Dict[int, str] = {}
    wrong: List[str] = []
    rows: Dict[int, int] = {}
    samples = []
    for j, (code, stdout, stderr) in sorted(first.items()):
        op = ops[j]
        reason, is_wrong, parsed = check_op(op, code, stdout)
        if reason:
            note = stderr.strip()[:160]
            reasons[j] = f"{' '.join(op.argv)}: {reason}" + (f" ({note})" if note else "")
            if is_wrong:
                wrong.append(reasons[j])
        else:
            rows[j] = len(parsed)
            if op.kind in ENERGY_KINDS and code == 0:
                samples.extend((j, op, row) for row in parsed)
    mismatched = sampled_reference_check(samples, seed, REFERENCE_SAMPLES)
    wrong.extend(mismatched.values())
    reasons.update(mismatched)
    rel, op_ms, done_rows, failed = [], [], 0, 0
    for i, (j, op_s, same) in enumerate(records):
        rel.append(op_s / adjacent_ref(refs, i))
        op_ms.append(1e3 * op_s)
        if not same:
            wrong.append(f"{' '.join(ops[j].argv)}: output differs between repeats")
        if j in reasons or not same:
            failed += 1
        else:
            done_rows += rows[j]
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "failures": sorted(set(reasons.values())),
        "reference_rows_checked": min(REFERENCE_SAMPLES, len(samples)),
        "op_rel_p50": statistics.median(rel),
        "op_rel_p90": statistics.quantiles(rel, n=10)[8],
        "rows_per_ref": done_rows / sum(rel),
        "ok_frac": 1.0 - failed / len(records),
        "raw.op_ms_p50": statistics.median(op_ms),
        "run.ops": len(records),
    }
