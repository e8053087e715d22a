"""Layered benchmark of deltacomb with reference-normalized timing.

Run from the root of a checkout:

    python3 bench/run.py --workload {cold-cli,sweep-energy,bands-grid} \
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, op_rel_p50, op_rel_p90, rows_per_ref, ok_frac, peak_rss_mb); with
--trace 1 they are the per-layer ones listed in BENCHMARK.json.  The line
before it records the environment, the failures and, with --trace 1, the
end-to-end figures of the same run; .bench_out/ receives a report per run and
the spans of the traced pass.

Timing.  Raw seconds on a small shared VM drift by tens of percent between
runs, so every op is timed next to a fixed reference that does not use
deltacomb, and reported as op time / reference time: a slow phase of the host
stretches both.  cold-cli alternates each CLI process with a fresh
interpreter that imports a fixed list of stdlib modules; the in-process
workloads run fixed stdlib code shaped like their ops and about as long as
one (references.py) between ops.  Each op is divided by the mean of the
references right before and right after it.
setup_s, the time until the first op can start, is measured SETUPS times per
run between reference interpreters in the same way; the median ratio is
reported in seconds at a nominal host speed (REF_NOMINAL_S per reference
interpreter), and the raw median as raw.setup_s.

Workloads are closed loops with one client: the next op starts when the
previous op and its reference have ended, and at most one child is busy.  A run
measures for --seconds and then until it has at least MIN_OPS ops and ends on
a whole cycle of op kinds, so every run has the same mix.

Correctness.  correct is false when an op exited 0 with output that fails
the checks in checks.py, crashed, gave different output on a repeat, or when
one of the benchmark's self-tests failed: the op list is a pure function of
the seed (in this process and in the worker), neither reference imports
deltacomb, the traced pass reproduces the untraced outputs, and the count
probes repeat exactly.  failed counts every op whose outcome differs from
the expected one, including the cold-cli edge slice that the library does
not handle yet; ok_frac is 1 - failed / attempted.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import references
import workloads

SETUPS = 5  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0


def _spawn_wait(argv, root, env):
    """Run one child to completion: (exit code, stdout, stderr, wall s, rusage).

    os.wait4 gives this child's own rusage, so reference children never mix
    into the CLI children's memory or CPU figures.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), wall, usage


class Worker:
    """A worker.py process; its set-up time runs until its ready line."""

    def __init__(self, root, env, workload, seed, seconds, trace, mode):
        here = os.path.dirname(os.path.abspath(__file__))
        argv = [sys.executable, os.path.join(here, "worker.py"), workload, str(seed),
                str(seconds), "1" if trace else "0", mode]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.finish("quit")
            raise RuntimeError(f"worker for {workload} exited before it was ready")
        self.digest = json.loads(line)["digest"]

    def finish(self, command: str) -> dict:
        """Send go or quit; wait for the process; its result line if it ran."""
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        if command == "go":
            if code != 0 or not out.strip():
                raise RuntimeError(f"worker exited with {code} without a result")
            return json.loads(out.strip().splitlines()[-1])
        return {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def cold_ref(root, env, problems) -> float:
    """Wall time of one reference interpreter, which must import no deltacomb."""
    code, out, _, wall, _ = _spawn_wait([sys.executable, "-c", workloads.REF_CODE], root, env)
    if code != 0 or out != "0":
        problems.append(f"reference interpreter exited {code} with output {out!r}")
    return wall


def measure_setups(set_up, root, env, problems):
    """Run set_up() SETUPS times, each between two reference interpreters.

    Returns (setup_s, raw median seconds).  setup_s is the median of set-up
    time / adjacent reference time, scaled by REF_NOMINAL_S back to
    seconds at a fixed nominal host speed, so that host drift between runs
    cancels as it does for the op timings.
    """
    raw, refs = [], [cold_ref(root, env, problems)]
    for _ in range(SETUPS):
        raw.append(set_up())
        refs.append(cold_ref(root, env, problems))
    rel = [s / workloads.adjacent_ref(refs, i) for i, s in enumerate(raw)]
    return workloads.REF_NOMINAL_S * statistics.median(rel), statistics.median(raw)


def run_cold(root, env, ops, seconds, seed, problems):
    """cold-cli: one fresh CLI process per op, alternating with a reference interpreter.

    Set-up is the untimed first invocation, which fills the page cache.
    """
    cli = [sys.executable, "-m", "deltacomb.cli"]
    setup_s, raw_setup_s = measure_setups(lambda: _spawn_wait(cli + list(ops[0].argv), root, env)[3],
                                          root, env, problems)
    first, records, refs, usage, elapsed = workloads.closed_loop(
        ops, workloads.cycle_length("cold-cli"), seconds,
        lambda argv: _spawn_wait(cli + list(argv), root, env), lambda: cold_ref(root, env, problems))
    result = checks.account(ops, first, records, refs, seed)
    result.update({"setup_s": setup_s, "raw.setup_s": raw_setup_s,
                   "peak_rss_mb": max(u.ru_maxrss for u in usage) / 1024.0,
                   "raw.wall_s": elapsed, "raw.cpu_s": sum(u.ru_utime + u.ru_stime for u in usage)})
    return result


def run_worker(root, env, workload, seed, seconds, trace, mode, ops, problems):
    """Start workers one after another; the last one does the work.

    In the timed mode each start is a measured set-up (see measure_setups).
    """
    workers = []

    def set_up():
        if workers:
            workers[-1].finish("quit")
        workers.append(Worker(root, env, workload, seed, seconds, trace, mode))
        if workers[-1].digest != workloads.digest(ops):
            problems.append("the worker generated a different op list for the same seed")
        return workers[-1].setup_s

    try:
        if mode == "timed":
            setup_s, raw_setup_s = measure_setups(set_up, root, env, problems)
        else:
            set_up()
        result = workers[-1].finish("go")
    finally:
        if workers:
            workers[-1].kill()
    if mode == "timed":
        result.update({"setup_s": setup_s, "raw.setup_s": raw_setup_s})
    return result


def selftest_static(workload, seed, ops):
    """Self-tests that need no deltacomb: op-list purity and a clean reference."""
    problems = []
    if workloads.digest(workloads.generate(workload, seed)) != workloads.digest(ops):
        problems.append("the op list differs between two generations with one seed")
    if workloads.digest(workloads.generate(workload, seed + 1)) == workloads.digest(ops):
        problems.append("the op list does not depend on the seed")
    for reference in set(references.REFERENCES.values()):
        reference()
    if any(name.split(".")[0] == "deltacomb" for name in sys.modules):
        problems.append("an in-process reference imported deltacomb")
    return problems


E2E = ("setup_s", "op_rel_p50", "op_rel_p90", "rows_per_ref", "ok_frac", "peak_rss_mb")
E2E_UNITS = {"setup_s": "s", "op_rel_p50": "ref", "op_rel_p90": "ref", "rows_per_ref": "rows/ref",
             "ok_frac": "fraction", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "deltacomb", "cli.py")):
        print(f"no deltacomb sources under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = workloads.pinned_env(root)
    ops = workloads.generate(args.workload, args.seed)
    problems = selftest_static(args.workload, args.seed, ops)

    if args.workload == "cold-cli":
        result = run_cold(root, env, ops, args.seconds, args.seed, problems)
        if args.trace:
            traced = run_worker(root, env, "cold-cli", args.seed, args.seconds, True, "replay", ops, problems)
            result["layers"], result["problems"] = traced["layers"], traced["problems"]
    else:
        result = run_worker(root, env, args.workload, args.seed, args.seconds, bool(args.trace), "timed",
                            ops, problems)
    problems += result.get("problems", [])

    end_to_end = {name: {"value": result[name], "unit": E2E_UNITS[name]} for name in E2E}
    if args.trace:
        layers = result["layers"]
        layers.update({k: result[k] for k in ("raw.setup_s", "raw.op_ms_p50", "raw.wall_s", "raw.cpu_s", "run.ops")})
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"] if m["name"] in layers}
    else:
        metrics = end_to_end
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    record = {
        "workload": args.workload, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version, "env": workloads.PINNED_ENV,
        "ops_in_list": len(ops), "reference_rows_checked": result["reference_rows_checked"],
        "failures": result["failures"], "wrong": result["wrong"], "self_test_problems": problems,
    }
    if args.trace:
        record["end_to_end_untraced"] = end_to_end
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "correct": not result["wrong"] and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": record, "result": summary}, fh, indent=2)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
