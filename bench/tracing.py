"""Spans and counts around deltacomb's layers, recorded from the benchmark's side.

The Tracer rebinds module attributes of deltacomb to wrappers while it is
installed.  Calls into the library look these names up in module globals at
call time (comb_energy's integrand lambda, _resolve_source's secular lambda,
cli's command functions), so every evaluation passes through a wrapper.

Span functions record (name, start, end, parent, op id).  The two innermost
functions, spectral_integrand and spectral_function, are called ~10^5 times
per op, so they record no span of their own: each call adds to a count and a
time total on the innermost open span, which is enough for exact counts and
for self times (a span's duration minus its child spans and leaf calls).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

SPAN_TARGETS = {
    "deltacomb.cli": ("comb_energy", "plate_energy", "band_structure", "CombCouplings"),
    "deltacomb.energy": ("integrate_finite",),
    "deltacomb.bands": ("refine_root", "dispersion", "band_edges"),
}
LEAF_TARGETS = {
    "deltacomb.energy": ("spectral_integrand",),
    "deltacomb.bands": ("spectral_function",),
}


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "leaf_calls", "leaf_time", "result_len")

    def __init__(self, sid: int, name: str, op: Optional[int], parent: Optional[int]):
        self.id, self.name, self.op, self.parent = sid, name, op, parent
        self.start = self.end = 0.0
        self.leaf_calls: Counter = Counter()
        self.leaf_time = 0.0
        self.result_len = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "leaf_calls": dict(self.leaf_calls),
                "leaf_time": self.leaf_time}


class Tracer:
    """In-memory spans; install() rebinds the targets, uninstall() restores them."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._saved: List[tuple] = []
        self.op: Optional[int] = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name (used for op and probe roots)."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if isinstance(result, list):
            span.result_len = len(result)
        return result

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                top = stack[-1]
                top.leaf_time += clock() - t0
                top.leaf_calls[name] += 1
        return wrapper

    def install(self) -> None:
        for modname, names in SPAN_TARGETS.items():
            mod = sys.modules[modname]
            for attr in names:
                orig = getattr(mod, attr)
                label = f"{orig.__module__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self._span_wrapper(label, orig)
                if attr == "CombCouplings":
                    wrapper.from_reduced = self._span_wrapper(label, orig.from_reduced)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
        for modname, names in LEAF_TARGETS.items():
            mod = sys.modules[modname]
            for attr in names:
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._leaf_wrapper(attr, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def inclusive_leaf_calls(self) -> Dict[int, Counter]:
        """Leaf calls per span id, including those under its descendants."""
        inc = {s.id: Counter(s.leaf_calls) for s in self.spans}
        for s in reversed(self.spans):  # children have larger ids than parents
            if s.parent is not None:
                inc[s.parent].update(inc[s.id])
        return inc

    def self_time(self, span_id: int, children: Dict[int, List[Span]]) -> float:
        s = self.spans[span_id]
        return s.duration - s.leaf_time - sum(c.duration for c in children.get(span_id, ()))


def layer_metrics(tracer: Tracer, rows_per_op: List[int]) -> Dict[str, float]:
    """Per-layer metrics over the traced ops (root spans named cli.main).

    Counts of a layer that is idle on the workload are reported as 0.
    """
    spans = tracer.spans
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    inc = tracer.inclusive_leaf_calls()
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    def ratio(num, den):
        return num / den if den else 0.0

    mains = named("cli.main")
    n_ops = len(mains)
    points = named("energy.comb_energy")
    pieces = [s for s in named("quadrature.integrate_finite") if parent_name(s) == "energy.comb_energy"]
    couplings = named("scattering.CombCouplings")
    dispersions = named("bands.dispersion")
    roots = sum(s.result_len for s in dispersions)
    structures = named("bands.band_structure")
    edges = named("bands.band_edges")
    return {
        "cli.self_ms": 1e3 * ratio(sum(tracer.self_time(s.id, children) for s in mains), n_ops),
        "cli.rows_per_op": ratio(sum(rows_per_op), n_ops),
        "scattering.couplings_per_op": ratio(len(couplings), n_ops),
        "scattering.couplings_us": 1e6 * ratio(sum(s.duration for s in couplings), len(couplings)),
        "energy.points": len(points),
        "energy.point_us": 1e6 * ratio(sum(s.duration for s in points), len(points)),
        "energy.evals_per_point": ratio(sum(inc[s.id]["spectral_integrand"] for s in points), len(points)),
        "energy.pieces_per_point": ratio(len(pieces), len(points)),
        "quadrature.calls": len(pieces),
        "quadrature.evals_per_call": ratio(sum(inc[s.id]["spectral_integrand"] for s in pieces), len(pieces)),
        "quadrature.self_us_per_point": 1e6 * ratio(
            sum(tracer.self_time(s.id, children) for s in pieces), len(points)),
        "bands.roots": roots,
        "bands.ops.secular_per_root": ratio(
            sum(inc[s.id]["spectral_function"] for s in structures), roots),
        "bands.refine_per_root": ratio(len(named("quadrature.refine_root")), roots),
        "bands.root_us": 1e6 * ratio(sum(s.duration for s in dispersions), roots),
        "bands.edges_ms": 1e3 * ratio(sum(s.duration for s in edges), len(edges)),
    }


def count_probes() -> Dict[str, float]:
    """The exact count probes, each under its own root span.

    energy.evals.* count spectral_integrand calls per comb_energy in four
    regimes; bands.secular_per_root is spectral_function calls per root of an
    8-band x 401-theta band_structure.  A counter whose wrapped function was
    never called is left out, not reported as 0.
    """
    from deltacomb.bands import band_structure
    from deltacomb.energy import comb_energy
    from deltacomb.scattering import CombCouplings

    energy_probes = {
        "energy.evals.generic": CombCouplings(w0=1.0, w1=0.3, a=1.0),
        "energy.evals.w0_small": CombCouplings(w0=1e-6, w1=0.0, a=1.0),
        "energy.evals.a_small": CombCouplings(w0=2.0, w1=0.5, a=0.05),
        "energy.evals.a_large": CombCouplings(w0=2.0, w1=0.5, a=20.0),
    }
    bands_probe = "bands.secular_per_root"
    tracer = Tracer()
    tracer.install()
    try:
        for name, c in energy_probes.items():
            tracer.op = name
            tracer.call(name, comb_energy, c)
        tracer.op = bands_probe
        tracer.call(bands_probe, band_structure, CombCouplings(w0=3.0, w1=0.4, a=1.0), 8, 401)
    finally:
        tracer.uninstall()
    inc = tracer.inclusive_leaf_calls()
    out: Dict[str, float] = {}
    for s in tracer.spans:
        if s.parent is None and s.name in energy_probes and inc[s.id]["spectral_integrand"]:
            out[s.name] = inc[s.id]["spectral_integrand"]
        elif s.parent is None and s.name == bands_probe:
            roots = sum(d.result_len for d in tracer.spans if d.name == "bands.dispersion" and d.op == bands_probe)
            if inc[s.id]["spectral_function"] and roots:
                out[s.name] = inc[s.id]["spectral_function"] / roots
    return out


def integrand_ns(repeats: int = 7) -> float:
    """Untraced ns per spectral_integrand call on a fixed (gamma, Omega, a, k) grid."""
    from deltacomb.energy import spectral_integrand
    from deltacomb.scattering import CombCouplings

    grid = [
        (CombCouplings.from_reduced(omega=om, gamma=g, a=a), k)
        for om in (-1.0, -0.3, 0.4)
        for g in (0.0, 0.5, 3.0)
        for a in (0.5, 2.0)
        for k in [0.01 * 1.3 ** i for i in range(30)]
    ]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for c, k in grid:
            spectral_integrand(c, k)
        times.append((time.perf_counter() - t0) / len(grid))
    return 1e9 * statistics.median(times)


def import_split(root: str, env: Dict[str, str], repeats: int = 3) -> Dict[str, float]:
    """import.cli_ms / import.numpy_ms (median over fresh -X importtime children)
    and import.modules, which must be the same in every child."""
    code = ("import sys\nbefore = len(sys.modules)\nimport deltacomb.cli\n"
            "print(len(sys.modules) - before)\n")
    cli_us, numpy_us, modules = [], [], set()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        modules.add(int(proc.stdout.strip()))
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        cli_us.append(cumulative.get("deltacomb.cli", 0))
        numpy_us.append(cumulative.get("numpy", 0))
    if len(modules) != 1:
        raise RuntimeError(f"import.modules differs between fresh children: {sorted(modules)}")
    return {
        "import.cli_ms": statistics.median(cli_us) / 1e3,
        "import.numpy_ms": statistics.median(numpy_us) / 1e3,
        "import.modules": modules.pop(),
    }


def code_metrics(root: str) -> Dict[str, float]:
    import deltacomb

    src = os.path.join(root, "src", "deltacomb")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"code.src_lines": lines, "code.public_names": len(deltacomb.__all__)}
