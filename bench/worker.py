"""The workload process: imports deltacomb once and runs ops through cli.main.

Started by run.py from the checkout root as

    python bench/worker.py <workload> <seed> <seconds> <trace 0|1> <timed|replay>

It imports deltacomb.cli, builds the op list and warms up (one op of each
kind), then prints one JSON line {"digest": ...} to say it is ready; the time
until that line is the workload's set-up.  It then reads one line from stdin:
"go" starts the work, anything else exits.  After the work it prints one JSON
line with its figures and exits.

timed: the closed timed loop (sweep-energy, bands-grid).  The workload's
reference (references.py) runs between consecutive ops, and each op's time is
reported relative to the references around it (workloads.adjacent_ref).
With trace 1, or in replay mode (cold-cli's traced pass), a fixed prefix of
the op list is then replayed in-process, each op once untraced and once
traced, followed by the count probes, the integrand timing and the import
split.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import checks
import references
import tracing
import workloads

def run_main(main, argv):
    """(exit code, stdout, stderr, wall s, cpu s) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is recorded as a failed op, not fatal to the run
        code = -1
        err.write(repr(exc))
    t1, c1 = time.perf_counter(), time.process_time()
    return code, out.getvalue(), err.getvalue(), t1 - t0, c1 - c0


def timed_ref(workload: str) -> float:
    t0 = time.perf_counter()
    references.REFERENCES[workload]()
    return time.perf_counter() - t0


def timed_loop(main, workload, ops, seconds, seed):
    first, records, refs, cpu, elapsed = workloads.closed_loop(
        ops, workloads.cycle_length(workload), seconds,
        lambda argv: run_main(main, argv), lambda: timed_ref(workload))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = checks.account(ops, first, records, refs, seed)
    result.update({"peak_rss_mb": peak_mb, "raw.wall_s": elapsed, "raw.cpu_s": sum(cpu)})
    return result


def traced_pass(main, root, workload, ops, seed):
    """Replay the first TRACE_OPS ops untraced and traced; per-layer metrics."""
    tracer = tracing.Tracer()
    untraced, traced, rows, problems = [], [], [], []

    def traced_main(argv):
        return tracer.call("cli.main", main, argv)

    for i in range(workloads.TRACE_OPS[workload]):
        op = ops[i % len(ops)]
        ref_s = timed_ref(workload)
        plain = run_main(main, op.argv)
        untraced.append(plain[3] / ref_s)
        ref_s = timed_ref(workload)
        tracer.op = i
        tracer.install()
        try:
            seen = run_main(traced_main, op.argv)
        finally:
            tracer.uninstall()
        traced.append(seen[3] / ref_s)
        if seen[:2] != plain[:2]:
            problems.append(f"traced output differs from untraced for {' '.join(op.argv)}")
        rows.append(len(checks.check_op(op, plain[0], plain[1])[2]))
    metrics = tracing.layer_metrics(tracer, rows)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    probes = tracing.count_probes()
    if tracing.count_probes() != probes:
        problems.append("count probes differ between their two runs")
    metrics.update(probes)
    metrics["energy.integrand_ns"] = tracing.integrand_ns()
    metrics.update(tracing.import_split(root, workloads.pinned_env(root)))
    metrics.update(tracing.code_metrics(root))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return metrics, problems


def main(argv) -> int:
    workload, seed, seconds, trace, mode = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    root = os.getcwd()
    import deltacomb
    import deltacomb.cli

    where = os.path.dirname(os.path.realpath(deltacomb.__file__))
    if where != os.path.realpath(os.path.join(root, "src", "deltacomb")):
        print(f"deltacomb imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    ops = workloads.generate(workload, seed)
    seen_kinds = set()
    for op in ops:
        if op.kind not in seen_kinds:
            seen_kinds.add(op.kind)
            run_main(deltacomb.cli.main, op.argv)
    print(json.dumps({"digest": workloads.digest(ops)}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = {"problems": []}
    if mode == "timed":
        result.update(timed_loop(deltacomb.cli.main, workload, ops, seconds, seed))
    if trace or mode == "replay":
        result["layers"], result["problems"] = traced_pass(deltacomb.cli.main, root, workload, ops, seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
