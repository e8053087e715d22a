"""Command-line interface emitting machine-readable comb datasets.

Subcommands cover single evaluations (energy, plate, bands), the parameter
sweeps behind the standard plots (scan-a, scan-couplings, ratio-w0), and the
built-in verification suite (verify).  Each command takes the tolerance
options it reads: --abs-tol and --rel-tol for the energy commands, --root-tol
for bands.  Output is CSV (header + rows) or JSON (one object with
run metadata and those tolerances); floats are serialized with full
round-trip precision.  Exit codes: 0 success, 1 when `verify` finds a
failing check, 2 for a usage error (an option the command does not take
among them), a ValueError (an --output path that cannot be written among
them, caught before the command runs when it is empty, names a directory or
its parent is not one) or an OutsideValidityDomainError, and 3 for any other
DeltaCombError (a numerical failure).

A run imports only what its command uses: the energy module (and the
quadrature module with it) for the energy commands, the bands module for
`bands`, the verification module for `verify`, and json only for --format
json.  The sweeps module, which holds the three sweep commands and their
options, loads only for those commands and for the full parser (-h, or no or
an unknown command).  A run whose options or CombCouplings are rejected
imports none of energy, quadrature and bands.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from . import __version__
from .errors import DeltaCombError, OutsideValidityDomainError
from .scattering import CombCouplings

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

# the library names that only some commands use, and their modules
_LAZY = {
    "comb_energy": "energy",
    "plate_energy": "energy",
    "band_structure": "bands",
}


def __getattr__(name: str) -> object:
    """Import a _LAZY name's module on first use and bind the name as a module
    global (PEP 562), where a monkeypatch or a tracer may rebind it.  Commands
    read these names as attributes of sys.modules[__name__], the running
    module (__main__ under `python -m`), since a bare global read skips this
    hook."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)
    return value


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
    """--abs-tol and --rel-tol, with the energies' defaults."""
    g = p.add_argument_group("quadrature")
    g.add_argument("--abs-tol", type=float, default=1e-10)
    g.add_argument("--rel-tol", type=float, default=1e-8)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH", help="default: stdout")


def _coupling_params(c: CombCouplings) -> dict:
    return {"w0": c.w0, "w1": c.w1, "omega": c.omega, "gamma": c.gamma, "a": c.a}


def _emit(
    args: argparse.Namespace, parameters: dict, header: Sequence[str], rows: list[tuple]
) -> None:
    if args.format == "json":
        import json

        payload = {
            "command": args.command,
            "version": __version__,
            "parameters": parameters,
            "rows": [dict(zip(header, row)) for row in rows],
            "tolerances": {
                name: getattr(args, name)
                for name in ("abs_tol", "rel_tol", "root_tol")
                if hasattr(args, name)
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        # cells are ints and floats, which CSV never quotes
        lines = [",".join(header)]
        lines += [",".join(map(repr, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from None


def _check_output(args: argparse.Namespace) -> None:
    """Raise _write's error before any work where --output is empty, a
    directory, or its parent is not one: there open fails as it would after
    the work, and creates or truncates nothing."""
    import os

    path = args.output
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or os.curdir):
        _write(args, "")


def cmd_energy(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    res = sys.modules[__name__].comb_energy(c, args.abs_tol, args.rel_tol)
    _emit(args, _coupling_params(c), res._fields, [res._astuple()])
    return EXIT_OK


def cmd_plate(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    res = sys.modules[__name__].plate_energy(c, args.theta, args.abs_tol, args.rel_tol)
    params = _coupling_params(c)
    params["theta"] = args.theta
    row = (args.theta, *res._astuple())
    _emit(args, params, ("theta", *res._fields), [row])
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    bands = sys.modules[__name__].band_structure(c, args.n_bands, args.n_theta, args.root_tol)
    header = ("band", "theta", "q", "k", "k_min", "k_max")
    if args.format == "csv":
        # every band holds the same mirror-symmetric thetas, whose -theta
        # samples are copies of the theta >= 0 ones, so only that half is
        # formatted: a -theta column is its mirror's "theta,q," with "-"
        # before each cell (negation is exact, and repr(-x) == "-" + repr(x)
        # for x >= 0), and a -theta k is its mirror's text.  A flat band's
        # samples all equal its edges, which are formatted once where they
        # are nonzero (only there does == fix the bits: 0.0 == -0.0).
        thetas = bands[0].thetas
        h = len(thetas) // 2
        upper = [(repr(theta), repr(theta / c.a)) for theta in thetas[h:]]
        cols = [f"-{t},-{q}," for t, q in upper[::-1][:h]] + [f"{t},{q}," for t, q in upper]
        lines = [",".join(header)]
        for band in bands:
            head = f"{band.index},"
            if band.k_min == band.k_max and band.k_min:
                k = repr(band.k_min)
                lines += [f"{head}{t}{k},{k},{k}" for t in cols]
                continue
            tail = f",{band.k_min!r},{band.k_max!r}"
            ks = [*map(repr, band.ks[h:])]
            lines += [f"{head}{t}{k}{tail}" for t, k in zip(cols, ks[::-1][:h] + ks)]
        _write(args, "\n".join(lines) + "\n")
        return EXIT_OK
    rows = [
        (band.index, theta, theta / c.a, k, band.k_min, band.k_max)
        for band in bands
        for theta, k in zip(band.thetas, band.ks)
    ]
    params = _coupling_params(c)
    params.update({"n_bands": args.n_bands, "n_theta": args.n_theta})
    _emit(args, params, header, rows)
    return EXIT_OK


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
    _add_quad_args(p)


def _plate_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--theta", type=float, required=True, help="Bloch phase in [-pi, pi]")
    _add_quad_args(p)


def _bands_args(p: argparse.ArgumentParser) -> None:
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-bands", type=int, default=4)
    p.add_argument("--n-theta", type=int, default=101)
    p.add_argument("--root-tol", type=float, default=1e-12, help="relative error of each k")


def _from_sweeps(name: str) -> tuple[Callable, Callable]:
    """The add_args and the command of sweep name, which import the sweeps
    module on first call and hand it this module: its names are the ones the
    sweeps call, and under `python -m` it is __main__, not a second cli."""
    def lazy(attr: str) -> Callable:
        def call(arg: object) -> object:
            from . import sweeps
            return getattr(sweeps, attr)(sys.modules[__name__], arg)
        return call
    return lazy(f"_{name}_args"), lazy(f"cmd_{name}")


# name: (help, add_args, command); add_args None takes no options at all, else
# the output options follow the command's own, tolerances included
_COMMANDS = {
    "energy": ("vacuum energy per unit cell", _energy_args, cmd_energy),
    "plate": ("fixed-Bloch-phase plate energy", _plate_args, cmd_plate),
    "bands": ("band-structure samples and edges", _bands_args, cmd_bands),
    "scan-a": ("energy versus lattice spacing", *_from_sweeps("scan_a")),
    "scan-couplings": (
        "energy over the (gamma, omega) plane at fixed a", *_from_sweeps("scan_couplings")
    ),
    "ratio-w0": ("E/(w0 ln w0) on a log-spaced small-w0 grid (w1 = 0)", *_from_sweeps("ratio_w0")),
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
        if getattr(args, "output", None) is not None:
            _check_output(args)
        return args.func(args)
    except (OutsideValidityDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DeltaCombError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
