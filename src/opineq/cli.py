"""Command-line interface: verify, search, constants, demo.

demo prints the records of every theorem's witnesses (``TheoremSpec.witnesses``),
in registry order, each evaluated as a one-row view.

Exit codes: 0 success (verify: zero violations), 1 verify found
violations, 2 search exceeded 1 + tol, 64 usage error (also an --m,
--mp, --Mp or --M that is not a positive finite number; verify: also a
repeated theorem id or dim, and an --out report that cannot be
written), 65 infeasible parameters, such as m > M. The OPINEQ_SEED
environment variable overrides the default seed when --seed is not
given; a value that is not an integer, or a negative seed given either
way, is a usage error. Run as a program, opineq ends
quietly by the default SIGPIPE action when the reader of its output
closes the pipe (``opineq search ... | head -1``); cli_main leaves
signal handling to its caller.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import signal
import sys

import numpy as np

from . import __version__
from .campaign import CampaignConfig, run_campaign
from .errors import InfeasibleRegime
from .inequalities import THEOREM_IDS, THEOREMS, instance_view, refinement_constants
from .report import ReportDocument, emit_report
from .samplers import BoundParams, regime_feasible
from .search import DEFAULT_BUDGET, maximize_ratio
from .spd import DEFAULT_TOL

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_RATIO_EXCEEDED = 2
EXIT_USAGE = 64
EXIT_INFEASIBLE = 65

_SEED_ENV = "OPINEQ_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed(parser: _Parser) -> int:
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{_SEED_ENV} must be an integer, got {raw!r}")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="opineq",
                     description="Numerical verification of refined operator "
                                 "mean and Kantorovich-type bounds.")
    parser.add_argument("--version", action="version", version=f"opineq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run randomized verification campaigns")
    verify.add_argument("--theorems", default="all",
                        help="comma-separated theorem ids, or 'all'")
    verify.add_argument("--dims", default="2,3,4",
                        help="comma-separated matrix dimensions (each 1..64)")
    verify.add_argument("--samples", type=int, default=200,
                        help="instance draws per (theorem, dim, cell)")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--m", type=_positive, default=None)
    verify.add_argument("--mp", type=_positive, default=None, help="m' lower refinement bound")
    verify.add_argument("--Mp", type=_positive, default=None, help="M' upper inner bound")
    verify.add_argument("--M", type=_positive, default=None)
    verify.add_argument("--out", default=None, help="write a report to this path")
    verify.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (default: by --out extension, else json)")

    search = sub.add_parser("search", help="hill-climb the attained ratio of one bound")
    search.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    search.add_argument("--dim", type=int, default=2)
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    search.add_argument("--seed", type=int, default=None)
    search.add_argument("--tol", type=float, default=DEFAULT_TOL)
    search.add_argument("--classical", action="store_true",
                        help="target the classical constant instead of the refined one")
    search.add_argument("--m", type=_range_or_float, default=None)
    search.add_argument("--mp", type=_range_or_float, default=None)
    search.add_argument("--Mp", type=_range_or_float, default=None)
    search.add_argument("--M", type=_range_or_float, default=None)

    constants = sub.add_parser("constants", help="print classical vs refined constants")
    constants.add_argument("--m", type=_positive, required=True)
    constants.add_argument("--mp", type=_positive, required=True)
    constants.add_argument("--Mp", type=_positive, required=True)
    constants.add_argument("--M", type=_positive, required=True)

    sub.add_parser("demo", help="run built-in worked instances and print their slack")
    return parser


def _positive(text: str) -> float:
    """A regime parameter: a positive finite number, else a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _range_or_float(text: str):
    """A search parameter: a positive finite number, or a lo:hi range of them."""
    try:
        return tuple(map(_positive, text.split(":", 1))) if ":" in text else _positive(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number or a lo:hi range of them, got {text!r}") from None


def _parse_theorems(raw: str, parser: _Parser) -> tuple[str, ...]:
    if raw.strip() == "all":
        return THEOREM_IDS
    ids = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [t for t in ids if t not in THEOREM_IDS]
    if unknown or not ids:
        parser.error(f"unknown theorem ids: {unknown or raw!r}; "
                     f"valid ids: {', '.join(THEOREM_IDS)}")
    return ids


def _parse_dims(raw: str, parser: _Parser) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        parser.error(f"--dims must be comma-separated integers, got {raw!r}")
    if not dims or any(d < 1 or d > 64 for d in dims):
        parser.error(f"--dims entries must be in 1..64, got {raw!r}")
    return dims


def _cmd_verify(args, parser: _Parser) -> int:
    theorems = _parse_theorems(args.theorems, parser)
    dims = _parse_dims(args.dims, parser)
    if args.samples <= 0:
        parser.error(f"--samples must be > 0, got {args.samples}")
    if not (args.tol >= 0.0 and math.isfinite(args.tol)):
        parser.error(f"--tol must be finite and >= 0, got {args.tol}")
    seed = args.seed if args.seed is not None else _default_seed(parser)

    grids = None
    overrides = {"m": args.m, "m_prime": args.mp, "M_prime": args.Mp, "M": args.M}
    given = {k: v for k, v in overrides.items() if v is not None}
    if given:
        if "m" not in given or "M" not in given:
            parser.error("--m and --M are both required when overriding parameters")
        params = BoundParams(**given)
        for tid in theorems:
            feasible, reason = regime_feasible(THEOREMS[tid].regime, params)
            if not feasible:
                print(f"infeasible parameters for {tid}: {reason}", file=sys.stderr)
                return EXIT_INFEASIBLE
        grids = {tid: (params,) for tid in theorems}

    config = CampaignConfig(theorem_ids=theorems, dims=dims, samples=args.samples,
                            seed=seed, tol=args.tol, grids=grids)
    report = run_campaign(config)
    doc = ReportDocument.from_campaign(report, version=__version__)

    for row in doc.results:
        status = "ok" if row["violations"] == 0 else "VIOLATIONS"
        print(f"{row['theorem_id']:22s} dim={row['dim']:<3d} checks={row['samples']:<6d} "
              f"violations={row['violations']:<4d} "
              f"classical_violations={row['classical_violations']:<4d} "
              f"near_tight={row['near_tight']:<6d} max_ratio={row['max_ratio']:.9f} "
              f"min_slack={row['min_slack']:.3e}  [{status}]")
    for row in doc.skipped:
        print(f"{row['theorem_id']:22s} dim={row['dim']:<3d} skipped: {row['reason']}")
    print(f"total: {doc.meta['total_checks']} checks, "
          f"{doc.meta['total_violations']} violations, "
          f"{len(doc.skipped)} skipped cells, seed={seed}, "
          f"{report.elapsed_seconds:.3f} s")

    if args.out:
        fmt = args.format
        if fmt is None:
            fmt = "csv" if str(args.out).endswith(".csv") else "json"
        try:
            emit_report(doc, fmt, args.out)
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {args.out} ({fmt})")
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_search(args, parser: _Parser) -> int:
    if args.budget < 1:
        parser.error(f"--budget must be >= 1, got {args.budget}")
    box = {}
    for key, value in (("m", args.m), ("m_prime", args.mp),
                       ("M_prime", args.Mp), ("M", args.M)):
        if value is not None:
            box[key] = value
    if "m" not in box or "M" not in box:
        parser.error("search needs at least --m and --M (scalars or lo:hi ranges)")
    seed = args.seed if args.seed is not None else _default_seed(parser)
    result = maximize_ratio(args.theorem, box, budget=args.budget,
                            rng=seed, dim=args.dim, classical=args.classical,
                            tol=args.tol)
    label = "classical" if args.classical else "refined"
    print(f"{args.theorem} (dim {args.dim}, {label}): best ratio {result.ratio:.12f} "
          f"after {result.evaluations} evaluations over {result.restarts} restarts")
    best = result.instance
    print(f"  params: m={best['params']['m']:.6g} m'={best['params']['m_prime']:.6g} "
          f"M'={best['params']['M_prime']:.6g} M={best['params']['M']:.6g}")
    for name, vals in sorted(best["spectra"].items()):
        print(f"  spectrum[{name}]: {np.array2string(np.asarray(vals), precision=8)}")
    if result.ratio > 1.0 + args.tol:
        print(f"ratio exceeded 1 + tol: {result.ratio!r}", file=sys.stderr)
        return EXIT_RATIO_EXCEEDED
    return EXIT_OK


def _cmd_constants(args) -> int:
    params = BoundParams(m=args.m, M=args.M, m_prime=args.mp, M_prime=args.Mp)
    table = refinement_constants(params)
    print(f"constants at m={params.m:g}, m'={params.m_prime:g}, "
          f"M'={params.M_prime:g}, M={params.M:g} (log base: {table.log_base})")
    header = f"{'family':14s} {'classical':>16s} {'refined':>16s} " \
             f"{'argument':>10s} {'power':>5s} {'improvement':>12s}"
    print(header)
    for row in table.rows:
        print(f"{row.name:14s} {row.classical:16.10f} {row.refined:16.10f} "
              f"{row.argument:10.6g} {row.power:5d} "
              f"{100.0 * (1.0 - row.improvement_ratio):11.4f}%")
    return EXIT_OK


def _cmd_demo() -> int:
    for spec in THEOREMS.values():
        for name, witness in spec.witnesses.items():
            rows = spec.evaluate(instance_view(witness, spec), DEFAULT_TOL)
            lhs, rhs, holds = (np.ravel(f).tolist() for f in (rows.lhs, rows.rhs, rows.holds))
            for item in range(len(lhs)):
                label = name.format(*spec.details[item:item + 1])
                print(f"[demo] {label:34s} lhs={lhs[item]:.9g}  rhs={rhs[item]:.9g}  "
                      f"slack={rhs[item] - lhs[item]:.6g}  holds={holds[item]}")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "search":
            return _cmd_search(args, parser)
        if args.command == "constants":
            return _cmd_constants(args)
        return _cmd_demo()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InfeasibleRegime as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(cli_main())
