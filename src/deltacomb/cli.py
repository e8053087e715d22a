"""Command-line interface emitting machine-readable comb datasets.

Subcommands cover single evaluations (energy, plate, bands), the parameter
sweeps behind the standard plots (scan-a, scan-couplings, ratio-w0), and the
built-in verification suite (verify).  Output is CSV (header + rows) or JSON
(one object with run metadata); floats are serialized with full round-trip
precision.  Exit codes: 0 success, 1 when `verify` finds a failing check, 2
for a usage error, a ValueError or an OutsideValidityDomainError, and 3 for
any other DeltaCombError (a numerical failure).

A run imports only what its command uses: the energy module for the energy
commands, the bands module for `bands`, the verification module for `verify`,
and json only for --format json.  A run whose options or CombCouplings are
rejected imports neither library module.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Iterable, Sequence

from . import __version__
from .errors import DeltaCombError, OutsideValidityDomainError
from .quadrature import QuadratureConfig
from .scattering import CombCouplings

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

_QUAD_DEFAULTS = QuadratureConfig()._asdict()

# the library names that only some commands use, and their modules
_LAZY = {
    "comb_energy": "energy",
    "plate_energy": "energy",
    "EnergyResult": "energy",
    "band_structure": "bands",
}


def __getattr__(name: str) -> object:
    """Import a _LAZY name's module on first use and bind the name as a module
    global (PEP 562), where a monkeypatch or a tracer may rebind it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)
    return value


def _lib(name: str) -> Callable:
    """The module global name as bound now, imported on first use: commands
    call the library through it, since a bare global read skips __getattr__."""
    names = globals()
    return names[name] if name in names else __getattr__(name)


def _add_coupling_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "couplings", "give either --w0 [--w1] or both --omega and --gamma"
    )
    g.add_argument("--w0", type=float, default=None, help="delta strength")
    g.add_argument(
        "--w1", type=float, default=None, help="delta' strength (default 0 with --w0)"
    )
    g.add_argument(
        "--omega", type=float, default=None, help="reduced delta' coupling, in [-1, 1)"
    )
    g.add_argument(
        "--gamma", type=float, default=None, help="reduced delta strength (>= 0)"
    )


def _resolve_couplings(args: argparse.Namespace, a: float) -> CombCouplings:
    direct = args.w0 is not None or args.w1 is not None
    reduced = args.omega is not None or args.gamma is not None
    if direct == reduced:
        raise ValueError(
            "give exactly one coupling parameterization: --w0 [--w1], "
            "or --omega together with --gamma"
        )
    if direct:
        if args.w0 is None:
            raise ValueError("--w1 requires --w0")
        w1 = args.w1 if args.w1 is not None else 0.0
        return CombCouplings(w0=args.w0, w1=w1, a=a)
    if args.omega is None or args.gamma is None:
        raise ValueError("--omega and --gamma must be given together")
    return CombCouplings.from_reduced(omega=args.omega, gamma=args.gamma, a=a)


def _add_quad_args(p: argparse.ArgumentParser) -> None:
    """One option per QuadratureConfig field, --abs-tol for abs_tol, with the
    field's default."""
    g = p.add_argument_group("quadrature")
    for name, default in _QUAD_DEFAULTS.items():
        g.add_argument(
            "--" + name.replace("_", "-"),
            type=int if isinstance(default, int) else float,
            default=default,
            help="override the 40/a momentum cutoff" if name == "truncation_k" else None,
        )


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(**{name: getattr(args, name) for name in _QUAD_DEFAULTS})


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH", help="default: stdout")


def _coupling_params(c: CombCouplings) -> dict:
    return {"w0": c.w0, "w1": c.w1, "omega": c.omega, "gamma": c.gamma, "a": c.a}


def _emit(
    args: argparse.Namespace,
    command: str,
    parameters: dict,
    cfg: QuadratureConfig | None,
    header: Sequence[str],
    rows: list[tuple],
) -> None:
    if args.format == "json":
        import json

        payload = {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if cfg is not None:
            payload["tolerances"] = cfg._asdict()
        text = json.dumps(payload, indent=2) + "\n"
    else:
        # cells are ints and floats, which CSV never quotes; each distinct
        # nonzero float is formatted once (zeros skip the memo, which would
        # give -0.0 the text of 0.0)
        memo: dict = {}
        lines = [",".join(header)]
        lines += [
            ",".join([
                (memo.get(v) or memo.setdefault(v, repr(v))) if type(v) is float and v else repr(v)
                for v in row
            ])
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_energy(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    res = _lib("comb_energy")(c, cfg)
    _emit(args, "energy", _coupling_params(c), cfg, res._fields, [res._astuple()])
    return EXIT_OK


def cmd_plate(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    res = _lib("plate_energy")(c, args.theta, cfg)
    params = _coupling_params(c)
    params["theta"] = args.theta
    row = (args.theta, *res._astuple())
    _emit(args, "plate", params, cfg, ("theta", *res._fields), [row])
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    bands = _lib("band_structure")(c, n_bands=args.n_bands, n_theta=args.n_theta, cfg=cfg)
    rows = [
        (band.index, theta, theta / c.a, k, band.k_min, band.k_max)
        for band in bands
        for theta, k in zip(band.thetas, band.ks)
    ]
    params = _coupling_params(c)
    params.update({"n_bands": args.n_bands, "n_theta": args.n_theta})
    header = ("band", "theta", "q", "k", "k_min", "k_max")
    _emit(args, "bands", params, cfg, header, rows)
    return EXIT_OK


def _grid(lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """count points from lo to hi, evenly spaced in the value or, with log, in
    its log10; both ends are exactly lo and hi."""
    if log:
        inner = _grid(math.log10(lo), math.log10(hi), count)[1:-1]
        return [lo, *(10.0**y for y in inner), hi]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _sweep(
    args: argparse.Namespace,
    command: str,
    names: Sequence[str],
    header: Sequence[str],
    points: Iterable[tuple[CombCouplings, tuple]],
    row: Callable[[tuple, EnergyResult], tuple],
) -> int:
    """Emit one row per (couplings, lead) point, the lead values followed by
    row(lead, comb_energy(couplings)); the parameters are the args in names."""
    cfg = _quad_config(args)
    comb_energy = _lib("comb_energy")
    rows = [(*lead, *row(lead, comb_energy(c, cfg))) for c, lead in points]
    params = {name: getattr(args, name) for name in names}
    _emit(args, command, params, cfg, header, rows)
    return EXIT_OK


def cmd_scan_a(args: argparse.Namespace) -> int:
    if not 0.0 < args.a_min < args.a_max < math.inf:
        raise ValueError(f"need 0 < --a-min < --a-max < inf, got {args.a_min!r}, {args.a_max!r}")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    grid = _grid(args.a_min, args.a_max, args.count)
    return _sweep(
        args,
        "scan-a",
        ("a_min", "a_max", "count", "w0", "w1", "omega", "gamma"),
        ("a", "energy", "abs_err", "tail_bound"),
        ((_resolve_couplings(args, a), (a,)) for a in grid),
        lambda lead, res: (res.value, res.abs_err, res.tail_bound),
    )


def _energy_sign(lead: tuple, res: EnergyResult) -> tuple:
    if abs(res.value) <= max(res.abs_err + res.tail_bound, 1e-14):
        sign = 0
    else:
        sign = 1 if res.value > 0 else -1
    return res.value, res.abs_err, sign


def cmd_scan_couplings(args: argparse.Namespace) -> int:
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
        args,
        "scan-couplings",
        ("a", "gamma_min", "gamma_max", "gamma_count", "omega_min", "omega_max", "omega_count"),
        ("gamma", "omega", "energy", "abs_err", "sign"),
        (
            (CombCouplings.from_reduced(omega=omega, gamma=gamma, a=args.a), (gamma, omega))
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


def cmd_ratio_w0(args: argparse.Namespace) -> int:
    if not 0.0 < args.w0_min < args.w0_max < 1.0:
        raise ValueError("need 0 < --w0-min < --w0-max < 1 (log ratio domain)")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    grid = _grid(args.w0_min, args.w0_max, args.count, log=True)
    return _sweep(
        args,
        "ratio-w0",
        ("a", "w0_min", "w0_max", "count"),
        ("w0", "energy", "abs_err", "ratio"),
        ((CombCouplings(w0=w0, w1=0.0, a=args.a), (w0,)) for w0 in grid),
        _w0_log_ratio,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_all

    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.number:2d} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _energy_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True, help="lattice spacing (> 0)")


def _plate_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--theta", type=float, required=True, help="Bloch phase in [-pi, pi]")


def _bands_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-bands", type=int, default=4)
    p.add_argument("--n-theta", type=int, default=101)


def _scan_a_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--count", type=int, default=50)


def _scan_couplings_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    for name in ("gamma", "omega"):
        p.add_argument(f"--{name}-min", type=float, required=True)
        p.add_argument(f"--{name}-max", type=float, required=True)
        p.add_argument(f"--{name}-count", type=int, default=30)


def _ratio_w0_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--w0-min", type=float, default=1e-6)
    p.add_argument("--w0-max", type=float, default=1e-1)
    p.add_argument("--count", type=int, default=21)


# name: (help, add_args, command); add_args None takes no options at all, else
# the quadrature and output options follow the command's own
_COMMANDS = {
    "energy": ("vacuum energy per unit cell", _energy_args, cmd_energy),
    "plate": ("fixed-Bloch-phase plate energy", _plate_args, cmd_plate),
    "bands": ("band-structure samples and edges", _bands_args, cmd_bands),
    "scan-a": ("energy versus lattice spacing", _scan_a_args, cmd_scan_a),
    "scan-couplings": (
        "energy over the (gamma, omega) plane at fixed a", _scan_couplings_args, cmd_scan_couplings
    ),
    "ratio-w0": (
        "E/(w0 ln w0) on a log-spaced small-w0 grid (w1 = 0)", _ratio_w0_args, cmd_ratio_w0
    ),
    "verify": ("run the built-in verification suite", None, cmd_verify),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with only, of that one command alone;
    its usage line still lists every command."""
    parser = argparse.ArgumentParser(
        prog="deltacomb",
        description="band structure and vacuum energy of the delta-delta' comb",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # unset on the full parser, where a metavar would rename "argument command"
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else (only,):
        help_, add_args, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        if add_args is not None:
            add_args(p)
            _add_quad_args(p)
            _add_output_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command named first needs only its own subparser; -h, --version and a
    # missing or unknown command go to the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutsideValidityDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DeltaCombError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
