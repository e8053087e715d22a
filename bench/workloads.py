"""Seeded workload definitions, the cold-cli reference, the closed timed loop
and the pinned environment.

Stdlib only, and never imports deltacomb: the reference defined here must
cost the same on every commit of the library, and the op lists must depend on
nothing but the workload name and the seed.

An op is one deltacomb CLI invocation (its argv after the program name) with
the outcome the benchmark expects from it.  Ops come in fixed cycles of kinds,
so the mix of kinds in a run does not depend on the seed; the seed only draws
the couplings, spacings and grid limits inside each kind's range.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("cold-cli", "sweep-energy", "bands-grid")

# Pinned for every measured and every reference process: `import numpy` would
# otherwise start OpenBLAS worker threads that the CLI never uses.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# A run records at least this many ops, so op_rel_p90 has 15 samples beyond it.
MIN_OPS = 150

# A timed loop stops here whatever it has reached, so a run ends within 180 s.
LOOP_CAP_S = 110.0

# Ops replayed in-process, untraced and traced, by the traced pass.
TRACE_OPS = {"cold-cli": 30, "sweep-energy": 24, "bands-grid": 9}

# Cycles of op kinds in a workload's op list; the timed loop goes round the list.
LIST_CYCLES = {"cold-cli": 2, "sweep-energy": 24, "bands-grid": 8}

# Stdlib modules imported by the cold-cli reference interpreter.
REF_MODULES = "argparse, json, csv"
# The reference prints how many deltacomb modules it imported (always 0).
REF_CODE = (
    f"import {REF_MODULES}\n"
    "import sys\n"
    "sys.stdout.write(str(sum(m.split('.')[0] == 'deltacomb' for m in sys.modules)))\n"
)

# setup_s is reported in seconds at a host speed where the reference
# interpreter takes this long (about its time on a 2-vCPU x86-64 VM)
REF_NOMINAL_S = 0.1


def adjacent_ref(refs: List[float], i: int) -> float:
    """Reference time for op i: the mean of refs[i], run just before it, and refs[i + 1] after it."""
    return 0.5 * (refs[i] + refs[i + 1])


@dataclass(frozen=True)
class Op:
    """One CLI invocation and its expected outcome.

    kind names the generator branch; exit is the expected exit code; rows the
    expected number of output rows; omega and gamma are the reduced couplings
    implied by the argv, computed here independently of the library, and a
    the spacing.  Sweeps leave unset what their rows carry.
    """

    kind: str
    argv: Tuple[str, ...]
    exit: int = 0
    rows: Optional[int] = None
    omega: Optional[float] = None
    gamma: Optional[float] = None
    a: Optional[float] = None


def _f(x: float) -> str:
    return f"{x:.6g}"


def reduced(w0: float, w1: float) -> Tuple[float, float]:
    """(omega, gamma) for direct couplings, overflow-safe for huge |w1|."""
    if abs(w1) > 1.0:
        inv = 1.0 / (w1 * w1)
        return (1.0 - inv) / (1.0 + inv), w0 * inv / (1.0 + inv)
    s = w1 * w1
    return (s - 1.0) / (s + 1.0), w0 / (1.0 + s)


def _direct(rng: random.Random) -> Tuple[List[str], float, float, float]:
    w0 = float(_f(rng.uniform(0.2, 5.0)))
    w1 = float(_f(rng.uniform(0.0, 0.9)))
    a = float(_f(rng.uniform(0.5, 3.0)))
    om, g = reduced(w0, w1)
    return ["--w0", _f(w0), "--w1", _f(w1), "--a", _f(a)], om, g, a


def _fmt(i: int) -> List[str]:
    return ["--format", "json"] if i % 2 else []


# Edge slice: expected outcomes are the ones ROADMAP aim 3 sets (finite answer
# or exit 2), not what the library does today.
EDGE_SLICE = (
    (("energy", "--w0", "1", "--a", "1e-8"), 0, (-1.0, 1.0, 1e-8)),
    (("energy", "--omega", "0.5", "--gamma", "1e-300", "--a", "1"), 0, (0.5, 1e-300, 1.0)),
    (("energy", "--w0", "1", "--w1", "1e200", "--a", "1"), 0, reduced(1.0, 1e200) + (1.0,)),
    (("energy", "--w0", "nan", "--a", "1"), 2, (None, None, None)),
    (("energy", "--w0", "-1", "--a", "1"), 2, (None, None, None)),
)


def _cold_cycle(rng: random.Random, cycle: int) -> List[Op]:
    ops = []
    for i in range(2):
        args, om, g, a = _direct(rng)
        ops.append(Op("energy", ("energy", *args, *_fmt(i)), rows=1, omega=om, gamma=g, a=a))
    for i in range(2):
        om = float(_f(rng.uniform(-0.9, 0.9)))
        g = float(_f(rng.uniform(0.1, 5.0)))
        a = float(_f(rng.uniform(0.5, 3.0)))
        argv = ("energy", "--omega", _f(om), "--gamma", _f(g), "--a", _f(a), *_fmt(i))
        ops.append(Op("energy", argv, rows=1, omega=om, gamma=g, a=a))
    a = float(_f(rng.uniform(0.5, 3.0)))
    ops.append(Op("energy-mixed", ("energy", "--omega", "0", "--gamma", "0", "--a", _f(a), *_fmt(cycle)),
                  rows=1, omega=0.0, gamma=0.0, a=a))
    a = float(_f(rng.uniform(0.5, 3.0)))
    ops.append(Op("energy-free", ("energy", "--w0", "0", "--a", _f(a), *_fmt(cycle + 1)),
                  rows=1, omega=-1.0, gamma=0.0, a=a))
    for i in range(2):
        args, om, g, a = _direct(rng)
        theta = float(_f(rng.uniform(-math.pi, math.pi)))
        ops.append(Op("plate", ("plate", *args, "--theta", _f(theta), *_fmt(i)),
                      rows=1, omega=om, gamma=g, a=a))
    for i in range(2):
        args, om, g, a = _direct(rng)
        argv = ("bands", *args, "--n-bands", "3", "--n-theta", "21", *_fmt(i))
        ops.append(Op("bands", argv, rows=63, omega=om, gamma=g, a=a))
    for argv, code, (om, g, a) in EDGE_SLICE:
        ops.append(Op("edge", argv, exit=code, rows=1 if code == 0 else 0, omega=om, gamma=g, a=a))
    return ops


def _sweep_cycle(rng: random.Random, cycle: int) -> List[Op]:
    # sized so the three kinds cost about the same (4-6k integrand calls), which
    # keeps the run's median op inside one dense cluster of costs
    a = float(_f(rng.uniform(0.5, 2.0)))
    scan_c = Op(
        "scan-couplings",
        ("scan-couplings", "--a", _f(a), "--gamma-min", "0", "--gamma-max", _f(rng.uniform(2.0, 4.0)),
         "--gamma-count", "5", "--omega-min", "-1", "--omega-max", _f(rng.uniform(0.3, 0.8)),
         "--omega-count", "5"),
        rows=25, a=a,
    )
    w0 = float(_f(rng.uniform(0.5, 5.0)))
    w1 = float(_f(rng.uniform(0.0, 0.9)))
    om, g = reduced(w0, w1)
    scan_a = Op(
        "scan-a",
        ("scan-a", "--w0", _f(w0), "--w1", _f(w1), "--a-min", "0.05", "--a-max", "20", "--count", "25"),
        rows=25, omega=om, gamma=g,
    )
    a = float(_f(rng.uniform(0.5, 2.0)))
    ratio = Op(
        "ratio-w0",
        ("ratio-w0", "--a", _f(a), "--w0-min", "1e-6", "--w0-max", _f(rng.uniform(0.1, 0.3)),
         "--count", "13"),
        rows=13, omega=-1.0, a=a,
    )
    return [scan_c, scan_a, ratio]


def _bands_cycle(rng: random.Random, cycle: int) -> List[Op]:
    grid = ("--n-bands", "8", "--n-theta", "101")
    args, om, g, a = _direct(rng)
    generic = Op("bands", ("bands", *args, *grid), rows=808, omega=om, gamma=g, a=a)
    g = float(_f(rng.uniform(0.5, 5.0)))
    a = float(_f(rng.uniform(0.5, 2.0)))
    flat = Op("bands-flat", ("bands", "--omega", "0", "--gamma", _f(g), "--a", _f(a), *grid),
              rows=808, omega=0.0, gamma=g, a=a)
    a = float(_f(rng.uniform(0.5, 2.0)))
    touching = Op("bands-touching", ("bands", "--omega", "-1", "--gamma", "0", "--a", _f(a), *grid),
                  rows=808, omega=-1.0, gamma=0.0, a=a)
    return [generic, flat, touching]


_CYCLES = {"cold-cli": _cold_cycle, "sweep-energy": _sweep_cycle, "bands-grid": _bands_cycle}


def generate(workload: str, seed: int) -> List[Op]:
    """The workload's distinct op list: a pure function of (workload, seed)."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops: List[Op] = []
    for cycle in range(LIST_CYCLES[workload]):
        ops.extend(_CYCLES[workload](rng, cycle))
    return ops


def cycle_length(workload: str) -> int:
    return len(generate(workload, 0)) // LIST_CYCLES[workload]


def digest(ops: List[Op]) -> str:
    """Stable digest of an op list, for the purity self-test across processes."""
    blob = json.dumps([[op.kind, list(op.argv), op.exit, op.rows] for op in ops])
    return hashlib.sha256(blob.encode()).hexdigest()


def pinned_env(root: str) -> Dict[str, str]:
    """Environment for every child: pinned threads and the checkout's src as PYTHONPATH."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def closed_loop(ops: List[Op], cycle: int, seconds: float, run_op: Callable, run_ref: Callable):
    """Run ops in list order, one at a time, with run_ref() before the first and after each.

    run_op(argv) returns (exit code, stdout, stderr, wall s, extra).  The loop
    runs for `seconds`, then on until it has MIN_OPS ops and a whole number of
    cycles.  Only the first output of each distinct op is kept; a repeat is
    recorded as whether it matched.  Returns (first outputs by op index,
    records of (op index, wall s, same output), reference times, extras,
    elapsed s).
    """
    first, records, extras = {}, [], []
    start = time.perf_counter()
    refs = [run_ref()]
    while True:
        j = len(records) % len(ops)
        code, out, err, op_s, extra = run_op(ops[j].argv)
        refs.append(run_ref())
        extras.append(extra)
        if j not in first:
            first[j] = (code, out, err)
        records.append((j, op_s, first[j][:2] == (code, out)))
        n, elapsed = len(records), time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and n >= MIN_OPS and n % cycle == 0):
            return first, records, refs, extras, elapsed
