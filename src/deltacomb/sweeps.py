"""The CLI's parameter sweeps (scan-a, scan-couplings, ratio-w0), loaded only
for them and for the full parser.  Each function takes the running cli module
first and reaches the library and cli's helpers as its attributes
(cli.comb_energy, which cli imports on first use, and cli.CombCouplings), so
rebinding those names in cli still takes effect.  The annotations name the
library's records, which this module never imports."""

from __future__ import annotations

import argparse
import math
from collections.abc import Callable, Iterable, Sequence
from types import ModuleType


def _grid(lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """count points from lo to hi, evenly spaced in the value or, with log, in
    its log10; both ends are exactly lo and hi."""
    if log:
        inner = _grid(math.log10(lo), math.log10(hi), count)[1:-1]
        return [lo, *(10.0**y for y in inner), hi]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _sweep(
    cli: ModuleType, args: argparse.Namespace,
    names: Sequence[str],
    header: Sequence[str],
    points: Iterable[tuple[CombCouplings, tuple]],
    row: Callable[[tuple, EnergyResult], tuple],
) -> int:
    """Emit one row per (couplings, lead) point, the lead values followed by
    row(lead, comb_energy(couplings)); the parameters are the args in names."""
    abs_tol, rel_tol = args.abs_tol, args.rel_tol
    comb_energy = cli.comb_energy
    rows = [(*lead, *row(lead, comb_energy(c, abs_tol, rel_tol))) for c, lead in points]
    cli._emit(args, {name: getattr(args, name) for name in names}, header, rows)
    return cli.EXIT_OK


def cmd_scan_a(cli: ModuleType, args: argparse.Namespace) -> int:
    if not 0.0 < args.a_min < args.a_max < math.inf:
        raise ValueError(f"need 0 < --a-min < --a-max < inf, got {args.a_min!r}, {args.a_max!r}")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    grid = _grid(args.a_min, args.a_max, args.count)
    return _sweep(
        cli, args,
        ("a_min", "a_max", "count", "w0", "w1", "omega", "gamma"),
        ("a", "energy", "abs_err", "tail_bound"),
        ((cli._resolve_couplings(args, a), (a,)) for a in grid),
        lambda lead, res: (res.value, res.abs_err, res.tail_bound),
    )


def _energy_sign(lead: tuple, res: EnergyResult) -> tuple:
    if abs(res.value) <= res.abs_err + res.tail_bound:
        sign = 0
    else:
        sign = 1 if res.value > 0 else -1
    return res.value, res.abs_err, sign


def cmd_scan_couplings(cli: ModuleType, args: argparse.Namespace) -> int:
    g_lo, g_hi, o_lo, o_hi = args.gamma_min, args.gamma_max, args.omega_min, args.omega_max
    if not 0.0 <= g_lo < g_hi < math.inf:
        raise ValueError(f"need 0 <= --gamma-min < --gamma-max < inf, got {g_lo!r}, {g_hi!r}")
    if not -1.0 <= o_lo < o_hi < 1.0:
        raise ValueError(f"need -1 <= --omega-min < --omega-max < 1, got {o_lo!r}, {o_hi!r}")
    if args.gamma_count < 2 or args.omega_count < 2:
        raise ValueError("need --gamma-count >= 2 and --omega-count >= 2")
    gammas = _grid(g_lo, g_hi, args.gamma_count)
    omegas = _grid(o_lo, o_hi, args.omega_count)
    return _sweep(
        cli, args,
        ("a", "gamma_min", "gamma_max", "gamma_count", "omega_min", "omega_max", "omega_count"),
        ("gamma", "omega", "energy", "abs_err", "sign"),
        (
            (cli.CombCouplings.from_reduced(omega=omega, gamma=gamma, a=args.a), (gamma, omega))
            for gamma in gammas
            for omega in omegas
        ),
        _energy_sign,
    )


def _w0_log_ratio(lead: tuple, res: EnergyResult) -> tuple:
    """The energy and E/(w0 ln w0): the pure-delta comb's energy goes like
    w0 ln(w0) as w0 -> 0, not analytic at the free point, so the ratio tends
    to a constant."""
    w0 = lead[0]
    return res.value, res.abs_err, res.value / (w0 * math.log(w0))


def cmd_ratio_w0(cli: ModuleType, args: argparse.Namespace) -> int:
    if not 0.0 < args.w0_min < args.w0_max < 1.0:
        raise ValueError("need 0 < --w0-min < --w0-max < 1 (log ratio domain)")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    grid = _grid(args.w0_min, args.w0_max, args.count, log=True)
    return _sweep(
        cli, args,
        ("a", "w0_min", "w0_max", "count"),
        ("w0", "energy", "abs_err", "ratio"),
        ((cli.CombCouplings(w0=w0, w1=0.0, a=args.a), (w0,)) for w0 in grid),
        _w0_log_ratio,
    )


def _scan_a_args(cli: ModuleType, p: argparse.ArgumentParser) -> None:
    cli._add_coupling_args(p)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--count", type=int, default=50)
    cli._add_quad_args(p)


def _scan_couplings_args(cli: ModuleType, p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    for name in ("gamma", "omega"):
        p.add_argument(f"--{name}-min", type=float, required=True)
        p.add_argument(f"--{name}-max", type=float, required=True)
        p.add_argument(f"--{name}-count", type=int, default=30)
    cli._add_quad_args(p)


def _ratio_w0_args(cli: ModuleType, p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--w0-min", type=float, default=1e-6)
    p.add_argument("--w0-max", type=float, default=1e-1)
    p.add_argument("--count", type=int, default=21)
    cli._add_quad_args(p)
