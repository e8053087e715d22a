"""Command-line interface emitting machine-readable comb datasets.

Subcommands cover single evaluations (energy, plate, bands), the parameter
sweeps behind the standard plots (scan-a, scan-couplings, ratio-w0), and the
built-in verification suite (verify).  Output is CSV (header + rows) or JSON
(one object with run metadata); floats are serialized with full round-trip
precision.  Exit codes: 0 success, 2 domain/usage error, 3 numerical failure
(tolerance not met, root scan failed, validity guard tripped), and 1 when
`verify` finds a failing check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bands import band_structure
from .energy import comb_energy, plate_energy, small_coupling_ratio
from .errors import (
    AmplitudePoleError,
    InvalidLatticeSpacingError,
    NoSignChangeError,
    OutsideValidityDomainError,
    PerfectReflectionError,
    RootScanError,
    ToleranceNotMetError,
    ValidityViolationError,
)
from .quadrature import QuadratureConfig
from .scattering import CombCouplings
from .verification import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

_DOMAIN_ERRORS = (
    InvalidLatticeSpacingError,
    OutsideValidityDomainError,
    AmplitudePoleError,
    PerfectReflectionError,
    ValueError,
)
_NUMERIC_ERRORS = (
    ToleranceNotMetError,
    ValidityViolationError,
    RootScanError,
    NoSignChangeError,
)


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
    g = p.add_argument_group("quadrature")
    g.add_argument("--abs-tol", type=float, default=1e-10)
    g.add_argument("--rel-tol", type=float, default=1e-8)
    g.add_argument("--max-subdivisions", type=int, default=2000)
    g.add_argument(
        "--truncation-k",
        type=float,
        default=None,
        help="override the 40/a momentum cutoff",
    )
    g.add_argument("--root-tol", type=float, default=1e-12)


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        max_subdivisions=args.max_subdivisions,
        truncation_k=args.truncation_k,
        root_tol=args.root_tol,
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH", help="default: stdout")


def _coupling_params(c: CombCouplings) -> dict:
    return {"w0": c.w0, "w1": c.w1, "omega": c.omega, "gamma": c.gamma, "a": c.a}


def _emit(
    args: argparse.Namespace,
    command: str,
    parameters: dict,
    cfg: Optional[QuadratureConfig],
    header: Sequence[str],
    rows: List[Tuple],
) -> None:
    if args.format == "json":
        payload = {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if cfg is not None:
            payload["tolerances"] = {
                "abs_tol": cfg.abs_tol,
                "rel_tol": cfg.rel_tol,
                "max_subdivisions": cfg.max_subdivisions,
                "truncation_k": cfg.truncation_k,
                "root_tol": cfg.root_tol,
            }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_energy(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    res = comb_energy(c, cfg)
    _emit(
        args,
        "energy",
        _coupling_params(c),
        cfg,
        ("value", "abs_err", "truncation_k", "tail_bound"),
        [(res.value, res.abs_err, res.truncation_k, res.tail_bound)],
    )
    return EXIT_OK


def cmd_plate(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    res = plate_energy(c, args.theta, cfg)
    params = _coupling_params(c)
    params["theta"] = args.theta
    header = ("theta", "value", "abs_err", "truncation_k", "tail_bound")
    row = (args.theta, res.value, res.abs_err, res.truncation_k, res.tail_bound)
    _emit(args, "plate", params, cfg, header, [row])
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    c = _resolve_couplings(args, args.a)
    cfg = _quad_config(args)
    bs = band_structure(c, n_bands=args.n_bands, n_theta=args.n_theta, cfg=cfg)
    rows = []
    for band in bs.bands:
        for theta, k in zip(band.thetas, band.ks):
            rows.append(
                (band.index, theta, theta / bs.a, k, band.k_min, band.k_max)
            )
    params = _coupling_params(c)
    params.update({"n_bands": args.n_bands, "n_theta": args.n_theta})
    _emit(
        args,
        "bands",
        params,
        cfg,
        ("band", "theta", "q", "k", "k_min", "k_max"),
        rows,
    )
    return EXIT_OK


def cmd_scan_a(args: argparse.Namespace) -> int:
    if not 0.0 < args.a_min < args.a_max:
        raise ValueError("need 0 < --a-min < --a-max")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    cfg = _quad_config(args)
    rows = []
    for a in np.linspace(args.a_min, args.a_max, args.count):
        c = _resolve_couplings(args, float(a))
        res = comb_energy(c, cfg)
        rows.append((float(a), res.value, res.abs_err, res.tail_bound))
    params = {
        "a_min": args.a_min,
        "a_max": args.a_max,
        "count": args.count,
        **{k: v for k, v in vars(args).items() if k in ("w0", "w1", "omega", "gamma")},
    }
    _emit(
        args,
        "scan-a",
        params,
        cfg,
        ("a", "energy", "abs_err", "tail_bound"),
        rows,
    )
    return EXIT_OK


def cmd_scan_couplings(args: argparse.Namespace) -> int:
    if args.gamma_min < 0:
        raise ValueError("gamma grid must be >= 0")
    if not args.gamma_min < args.gamma_max:
        raise ValueError("need --gamma-min < --gamma-max")
    if not -1.0 <= args.omega_min < args.omega_max < 1.0:
        raise ValueError("need -1 <= --omega-min < --omega-max < 1")
    if args.gamma_count < 2 or args.omega_count < 2:
        raise ValueError("need --gamma-count >= 2 and --omega-count >= 2")
    cfg = _quad_config(args)
    rows = []
    for gamma in np.linspace(args.gamma_min, args.gamma_max, args.gamma_count):
        for omega in np.linspace(args.omega_min, args.omega_max, args.omega_count):
            c = CombCouplings.from_reduced(
                omega=float(omega), gamma=float(gamma), a=args.a
            )
            res = comb_energy(c, cfg)
            if abs(res.value) <= max(res.abs_err + res.tail_bound, 1e-14):
                sign = 0
            else:
                sign = 1 if res.value > 0 else -1
            rows.append((float(gamma), float(omega), res.value, res.abs_err, sign))
    params = {
        "a": args.a,
        "gamma_min": args.gamma_min,
        "gamma_max": args.gamma_max,
        "gamma_count": args.gamma_count,
        "omega_min": args.omega_min,
        "omega_max": args.omega_max,
        "omega_count": args.omega_count,
    }
    _emit(
        args,
        "scan-couplings",
        params,
        cfg,
        ("gamma", "omega", "energy", "abs_err", "sign"),
        rows,
    )
    return EXIT_OK


def cmd_ratio_w0(args: argparse.Namespace) -> int:
    if not 0.0 < args.w0_min < args.w0_max < 1.0:
        raise ValueError("need 0 < --w0-min < --w0-max < 1 (log ratio domain)")
    if args.count < 2:
        raise ValueError("need --count >= 2")
    cfg = _quad_config(args)
    rows = []
    for w0 in np.geomspace(args.w0_min, args.w0_max, args.count):
        w0 = float(w0)
        res = comb_energy(CombCouplings(w0=w0, w1=0.0, a=args.a), cfg)
        rows.append((w0, res.value, res.abs_err, res.value / (w0 * math.log(w0))))
    params = {
        "a": args.a,
        "w0_min": args.w0_min,
        "w0_max": args.w0_max,
        "count": args.count,
    }
    _emit(
        args,
        "ratio-w0",
        params,
        cfg,
        ("w0", "energy", "abs_err", "ratio"),
        rows,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.number:2d} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltacomb",
        description="band structure and vacuum energy of the delta-delta' comb",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="vacuum energy per unit cell")
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True, help="lattice spacing (> 0)")
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("plate", help="fixed-Bloch-phase plate energy")
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--theta", type=float, required=True, help="Bloch phase in [-pi, pi]")
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_plate)

    p = sub.add_parser("bands", help="band-structure samples and edges")
    _add_coupling_args(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-bands", type=int, default=4)
    p.add_argument("--n-theta", type=int, default=101)
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("scan-a", help="energy versus lattice spacing")
    _add_coupling_args(p)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--count", type=int, default=50)
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_scan_a)

    p = sub.add_parser(
        "scan-couplings", help="energy over the (gamma, omega) plane at fixed a"
    )
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--gamma-count", type=int, default=30)
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--omega-count", type=int, default=30)
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_scan_couplings)

    p = sub.add_parser(
        "ratio-w0", help="E/(w0 ln w0) on a log-spaced small-w0 grid (w1 = 0)"
    )
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--w0-min", type=float, default=1e-6)
    p.add_argument("--w0-max", type=float, default=1e-1)
    p.add_argument("--count", type=int, default=21)
    _add_quad_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_ratio_w0)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
