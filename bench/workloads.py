"""The benchmark's workloads: the CLI invocations each one makes and the
gates their outputs must pass.

A workload is a list of ``Op``s built from the seed. The benchmark times
the whole list as one unit and repeats the unit for the run's length.
Theorem ids, regimes and check counts are written out here rather than
read from the package, so that a refactor of the package cannot change
what the benchmark asks for.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

THEOREMS = (
    "scalar_amgm", "lemma_amgm", "kantorovich", "kantorovich_product",
    "holder_mccarthy", "square_order", "polya_szego", "isometry_family",
    "lin_squared_mapped", "lin_squared_means", "lin_chain", "wielandt_scalar",
    "wielandt_bhatia_davis", "wielandt_gumus", "wielandt_refined", "choi", "norm_amgm",
)

REGIME_THEOREMS = {
    "plain": ("scalar_amgm", "wielandt_scalar", "wielandt_bhatia_davis",
              "wielandt_gumus", "choi", "norm_amgm"),
    "relative": ("lemma_amgm",),
    "shifted": ("kantorovich_product", "polya_szego"),
    "sandwich": ("lin_squared_mapped", "lin_squared_means", "lin_chain"),
    "self_inverse_low": ("kantorovich", "holder_mccarthy", "square_order",
                         "isometry_family"),
    "self_inverse_high": ("wielandt_refined",),
}

TOL = "1e-8"

# sweep: the acceptance-1 shape (all theorems, dims 2,3,4,8, default
# cells) at fewer draws per cell, so that one unit takes about 1.5 s.
SWEEP_DIMS = (2, 3, 4, 8)
SWEEP_SAMPLES = 25

# search: budget 4000 is the smallest that gives two restarts, so the
# restart thread pool is used.
SEARCH_BUDGET = 4000
SEARCH_JOBS = {
    "kantorovich": ("--theorem", "kantorovich", "--classical", "--m", "1", "--M", "4",
                    "--dim", "2"),
    "polya_szego": ("--theorem", "polya_szego", "--m", "1", "--mp", "2", "--M", "8",
                    "--dim", "4"),
    "lemma_amgm": ("--theorem", "lemma_amgm", "--m", "3:4", "--M", "8:9", "--dim", "8"),
}
# The classical Kantorovich constant has an equality case inside its box.
EQUALITY_FLOOR = {"kantorovich": 1.0 - 1e-4}

# conditioning: one verify per (regime, h = M/m) at the numeric edge.
CONDITIONING_DIMS = (2, 4, 8)
CONDITIONING_SAMPLES = 20
H_VALUES = (1.0, 1e2, 1e4, 1e8, 1e12)

# Records per draw that differ from one: the Kantorovich family checks 16
# random unit vectors plus the eigenvectors, wielandt_scalar checks 16
# random pairs plus the eigenvector pairs (0, n-1) and (k, k+1), and
# lin_chain checks its seven links.
_VECTORS = 16


def checks_per_draw(theorem: str, dim: int) -> int:
    if theorem in ("kantorovich", "kantorovich_product", "holder_mccarthy"):
        return _VECTORS + dim
    if theorem == "wielandt_scalar":
        return _VECTORS + (1 if dim == 2 else dim)
    if theorem == "lin_chain":
        return 7
    return 1


def conditioning_box(regime: str, h: float) -> dict[str, float] | None:
    """The (m, m', M', M) box for one regime at spread h = M/m.

    plain is centred on 1; relative keeps m = 1.5; the other regimes
    stretch their default campaign cell to spread h while keeping its
    refinement parameters (m' = 2 shifted, m' = 1.5 self_inverse_low,
    m' = 4 self_inverse_high) or splitting [m, M] geometrically into
    thirds (sandwich). Returns None where the regime's own rules make
    the box infeasible: relative needs m < M.
    """
    if regime == "plain":
        return {"m": h ** -0.5, "M": h ** 0.5}
    if regime == "relative":
        return None if h == 1.0 else {"m": 1.5, "M": 1.5 * h}
    if regime == "shifted":
        return {"m": 1.0, "mp": 2.0, "M": h}
    if regime == "sandwich":
        return {"m": 1.0, "mp": h ** (1 / 3), "Mp": h ** (2 / 3), "M": h}
    root = math.sqrt(1.5 if regime == "self_inverse_low" else 4.0)
    return {"m": root / math.sqrt(h), "mp": root * root, "M": root * math.sqrt(h)}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``planned`` is the number of checks a verify run makes (its
    pass-share weight) or 1 for a search job. ``strict`` verify runs
    must end clean; the others have their failures measured.
    """

    name: str
    argv: tuple[str, ...]
    planned: int = 1
    draws: int = 0
    strict: bool = True
    job: str = ""


@dataclass
class Outcome:
    """What one op produced; ``error`` is set when a gate broke.

    ``planned`` and ``failed`` feed pass_share: a verify run weighs its
    planned checks and fails its violations, a search job weighs 1.
    ``checks`` counts checker verdicts completed and ``draws`` instances
    evaluated (campaign draws, or search objective evaluations, each of
    which is one checker verdict).
    """

    planned: int
    exit_code: int
    failed: int = 0
    checks: int = 0
    draws: int = 0
    sha256: str | None = None
    error: str | None = None


def _verify(name, theorems, dims, samples, seed, box=None, strict=True) -> Op:
    argv = ["verify", "--theorems", ",".join(theorems),
            "--dims", ",".join(str(d) for d in dims), "--samples", str(samples),
            "--seed", str(seed), "--tol", TOL]
    for key, value in (box or {}).items():
        argv += [f"--{key}", repr(value)]
    planned = sum(samples * checks_per_draw(t, d) for t in theorems for d in dims)
    return Op(name, tuple(argv), planned=planned,
              draws=samples * len(theorems) * len(dims), strict=strict)


def sweep(seed: int) -> tuple[list[Op], list[Op]]:
    """Warm-up: the full sweep as one verify, whose report is hashed.

    Timed: one verify per (theorem, dim) cell. Both draw the same
    instances, because each draw's generator is seeded by (seed, theorem
    index, dim, cell index, draw) only.
    """
    full = _verify("sweep", THEOREMS, SWEEP_DIMS, SWEEP_SAMPLES, seed)
    cells = [_verify(f"{t}@{d}", (t,), (d,), SWEEP_SAMPLES, seed)
             for t in THEOREMS for d in SWEEP_DIMS]
    return [full], cells


def search(seed: int) -> tuple[list[Op], list[Op]]:
    ops = [Op(job, ("search", *args, "--budget", str(SEARCH_BUDGET), "--seed", str(seed),
                    "--tol", TOL), job=job)
           for job, args in SEARCH_JOBS.items()]
    return ops[:1], ops


def conditioning(seed: int) -> tuple[list[Op], list[Op]]:
    ops = []
    for regime, theorems in REGIME_THEOREMS.items():
        for h in H_VALUES:
            box = conditioning_box(regime, h)
            if box is not None:
                ops.append(_verify(f"{regime}@h={h:g}", theorems, CONDITIONING_DIMS,
                                   CONDITIONING_SAMPLES, seed, box, strict=False))
    return ops[:1], ops


# Each maps a seed to (warm-up ops, timed ops).
WORKLOADS = {"sweep": sweep, "search": search, "conditioning": conditioning}

EXIT_OK, EXIT_VIOLATIONS, EXIT_USAGE, EXIT_INFEASIBLE = 0, 1, 64, 65

_SEARCH_LINE = re.compile(r"best ratio (\S+) after (\d+) evaluations over (\d+) restarts")
_VERIFY_TOTAL = re.compile(r"^total: (\d+) checks", re.MULTILINE)
_TIMESTAMP = re.compile(rb'"timestamp":"[^"]*"')


def report_sha256(raw: bytes) -> str:
    """SHA-256 of a JSON report's bytes with meta.timestamp blanked."""
    return hashlib.sha256(_TIMESTAMP.sub(b'"timestamp":""', raw)).hexdigest()


def judge(op: Op, rc: int, stdout: str, report: bytes | None) -> Outcome:
    """Apply the op's gates to its exit code, stdout and report file."""
    if op.job:
        return _judge_search(op, rc, stdout)
    out = Outcome(planned=op.planned, exit_code=rc)
    if rc in (EXIT_USAGE, EXIT_INFEASIBLE) and not op.strict:
        # A feasible box that ends in a usage or infeasibility exit is a
        # program failure: every planned check counts as failed. A usage
        # exit after the campaign still printed its totals.
        out.failed = op.planned
        total = _VERIFY_TOTAL.search(stdout)
        if total is not None:
            out.checks, out.draws = int(total.group(1)), op.draws
        return out
    if rc not in (EXIT_OK, EXIT_VIOLATIONS):
        out.error = f"{op.name}: exit code {rc}"
        return out
    if report is None:
        out.error = f"{op.name}: exit {rc} but no report written"
        return out
    meta = json.loads(report)["meta"]
    out.checks, out.draws = int(meta["total_checks"]), op.draws
    out.failed = int(meta["total_violations"])
    out.sha256 = report_sha256(report)
    if out.checks != op.planned:
        out.error = f"{op.name}: {out.checks} checks, expected {op.planned}"
    elif (out.failed > 0) != (rc == EXIT_VIOLATIONS):
        out.error = f"{op.name}: exit {rc} with {out.failed} violations"
    elif op.strict and out.failed:
        out.error = f"{op.name}: {out.failed} violations of proven bounds"
    return out


def _judge_search(op: Op, rc: int, stdout: str) -> Outcome:
    out = Outcome(planned=1, exit_code=rc)
    match = _SEARCH_LINE.search(stdout)
    if rc != EXIT_OK or match is None:
        out.error = f"{op.name}: exit code {rc}"
    else:
        ratio, evaluations = float(match.group(1)), int(match.group(2))
        out.checks = out.draws = evaluations
        floor = EQUALITY_FLOOR.get(op.job, -math.inf)
        if not floor <= ratio <= 1.0 + float(TOL):
            out.error = f"{op.name}: ratio {ratio!r} outside [{floor}, 1 + tol]"
        elif evaluations != SEARCH_BUDGET:
            out.error = f"{op.name}: {evaluations} evaluations, budget {SEARCH_BUDGET}"
    out.failed = int(out.error is not None)
    return out
