"""opineq benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload sweep --seed 42 --seconds 55 --trace 0
    python3 bench/run.py                     # every workload, untraced then traced

One process runs one workload: it calls ``opineq.cli.cli_main`` in
process with the workload's argument lists, captures stdout, and checks
every invocation's outputs (see ``workloads.py``). The timed section
repeats the workload's unit of invocations until ``--seconds`` have
passed; a unit's time is each invocation's fastest repetition, summed.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# The matrices are at most 8 x 8; BLAS threads would only add overhead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAPACK, LAYERS, Tracer  # noqa: E402
from workloads import SEARCH_JOBS, THEOREMS, WORKLOADS, judge  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_CODE = "import time\nimport opineq\nprint(time.monotonic())"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
    "checks_per_s": "1/s", "evals_per_s": "1/s", "pass_share": "share",
}
# Counts that must repeat exactly across traced units on one seed.
DETERMINISTIC_COUNTS = ("campaign.cells", "campaign.draws", "campaign.checks",
                        "campaign.failed_checks", "search.evaluations", "search.restarts",
                        "search.failed_jobs", "report.failures")


class BenchError(Exception):
    """The benchmark cannot run here at all."""


def import_package():
    if not (SRC / "opineq" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'opineq'}")
    sys.path.insert(0, str(SRC))
    import opineq.cli

    if Path(opineq.__file__).resolve().parent != SRC / "opineq":
        raise BenchError(f"imported opineq from {opineq.__file__}, not from {SRC}")
    return opineq.cli


def measure_setup() -> float:
    """Median time from a fresh interpreter to the end of ``import opineq``.

    The first spawn is a warm-up and is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times[1:])


def run_op(cli, op, out_path: Path):
    """One CLI invocation; returns (wall_s, cpu_s, outcome)."""
    argv = list(op.argv)
    verify = argv[0] == "verify"
    if verify:
        out_path.unlink(missing_ok=True)
        argv += ["--out", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.cli_main(argv)
    except Exception:
        rc = None
        stderr.write(traceback.format_exc())
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    if rc is None:
        outcome = judge(op, -1, "", None)
    else:
        report = out_path.read_bytes() if verify and out_path.exists() else None
        outcome = judge(op, rc, stdout.getvalue(), report)
    if outcome.error:
        outcome.error += f"\n{stderr.getvalue().strip()}"
    return wall, cpu, outcome


class Unit:
    """One pass over a workload's ops."""

    def __init__(self, cli, ops, out_path: Path):
        self.walls, self.cpus, self.outcomes = [], [], []
        for op in ops:
            wall, cpu, outcome = run_op(cli, op, out_path)
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.outcomes.append(outcome)
        self.wall = sum(self.walls)
        self.errors = [o.error for o in self.outcomes if o.error]
        self.checks = sum(o.checks for o in self.outcomes)
        self.draws = sum(o.draws for o in self.outcomes)
        self.planned = sum(o.planned for o in self.outcomes)
        self.failed = sum(o.failed for o in self.outcomes)
        self.fingerprint = tuple((o.failed, o.sha256) for o in self.outcomes)


def floor_sum(units: list[Unit], field: str) -> float:
    """Sum over the unit's invocations of each one's fastest repetition.

    This is timeit's rule: on a shared machine the slower repetitions
    measure interference from other processes, not the program.
    """
    return sum(min(times) for times in zip(*(getattr(u, field) for u in units)))


def _nearest_rank(values, share):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, ops, unit: Unit) -> dict[str, float]:
    """Per-layer metrics of one traced unit."""
    totals = tracer.totals()

    def calls(layer, name):
        return totals.get((layer, name), (0, 0.0, 0))[0]

    def self_s(layer, name):
        return totals.get((layer, name), (0, 0.0, 0))[1]

    def layer_sum(layer, field):
        return sum(val[field] for key, val in totals.items() if key[0] == layer)

    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer not in ("campaign", "search"):
            m[f"{layer}.calls"] = layer_sum(layer, 0)
        m[f"{layer}.self_s"] = layer_sum(layer, 1)
    for layer, name in (("spd", "from_eigh"), ("spd", "make_spd"), ("spd", "loewner_leq"),
                        ("spd", "loewner_ratio"), ("means_maps", "geometric_mean"),
                        ("means_maps", "apply_map")):
        m[f"{layer}.{name}.calls"] = calls(layer, name)
        m[f"{layer}.{name}.self_s"] = self_s(layer, name)
    for name in ("eigh", "eigvalsh", "cholesky", "qr", "norm"):
        m[f"spd.{name}.calls"] = calls(LAPACK, name)
    m["spd.lapack_s"] = layer_sum(LAPACK, 1)
    m["samplers.haar_orthogonal.calls"] = calls("samplers", "haar_orthogonal")

    campaigns = tracer.campaigns
    m["campaign.cells"] = sum(c["cells"] for c in campaigns)
    m["campaign.draws"] = sum(c["draws"] for c in campaigns)
    m["campaign.checks"] = sum(c["checks"] for c in campaigns)
    m["campaign.failed_checks"] = sum(o.failed for op, o in zip(ops, unit.outcomes)
                                      if not op.job)
    cell_walls = [c["wall_s"] for c in campaigns]
    m["campaign.cell_s.p50"] = _nearest_rank(cell_walls, 0.50)
    m["campaign.cell_s.p85"] = _nearest_rank(cell_walls, 0.85)
    for theorem in THEOREMS:
        m[f"campaign.cell.{theorem}.s"] = sum(c["wall_s"] for c in campaigns
                                              if c["theorems"] == (theorem,))

    job_walls = dict.fromkeys(SEARCH_JOBS, 0.0)
    for op, wall in zip(ops, tracer.cli_walls):
        if op.job:
            job_walls[op.job] += wall
    for job, wall in job_walls.items():
        m[f"search.job.{job}.s"] = wall
    m["search.evaluations"] = sum(s["evaluations"] for s in tracer.searches)
    m["search.restarts"] = sum(s["restarts"] for s in tracer.searches)
    m["search.threads"] = max((s["threads"] for s in tracer.searches), default=0)
    m["search.failed_jobs"] = sum(o.failed for op, o in zip(ops, unit.outcomes) if op.job)

    m["report.bytes"] = tracer.report_bytes
    m["report.failures"] = totals.get(("report", "emit_report"), (0, 0.0, 0))[2]
    return m


def _counts(sample: dict[str, float]) -> tuple:
    return tuple(sorted((k, v) for k, v in sample.items()
                        if k.endswith(".calls") or k in DETERMINISTIC_COUNTS))


def _median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced units; counts come from the first unit."""
    return {key: value if isinstance(value, int)
            else statistics.median(s[key] for s in samples)
            for key, value in samples[0].items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    cli = import_package()
    warm_ops, ops = WORKLOADS[name](seed)
    out_dir = ROOT / ".bench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "report.json"
    try:
        setup_s = None if trace else measure_setup()
        warm = Unit(cli, warm_ops, out_path)
        plain_units, traced_units, layer_samples = [], [], []
        # Repeat while the next pass is expected to end before the deadline.
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            plain_units.append(Unit(cli, ops, out_path))
            if trace:
                with Tracer() as tracer:
                    unit = Unit(cli, ops, out_path)
                traced_units.append(unit)
                layer_samples.append(layer_metrics(tracer, ops, unit))
            now = time.perf_counter()
            if 2 * now - start > deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    units = plain_units + traced_units
    errors = warm.errors + [e for u in units for e in u.errors]
    if len({u.fingerprint for u in units}) > 1:
        errors.append("verdicts or report bytes differ between units on one seed")
    if len({_counts(s) for s in layer_samples}) > 1:
        errors.append("per-layer counts differ between traced units on one seed")

    # A unit that broke a gate is counted as failed and not timed.
    timed = [u for u in plain_units if not u.errors] or plain_units
    first = plain_units[0]
    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "units": len(plain_units), "traced_units": len(traced_units),
        "ops_per_unit": len(ops),
        "unit_wall_s": {"min": min(u.wall for u in plain_units),
                        "median": statistics.median(u.wall for u in plain_units),
                        "max": max(u.wall for u in plain_units)},
        "fail_share": first.failed / first.planned,
        "failures": {op.name: {"failed": o.failed, "of": o.planned, "exit": o.exit_code}
                     for op, o in zip(ops, first.outcomes) if o.failed},
        "report_sha256": warm.outcomes[0].sha256,
        "environment": environment(),
        "errors": errors[:20],
    }
    if trace:
        metrics = _median_metrics(layer_samples)
        metrics["trace.overhead_share"] = (floor_sum(traced_units, "walls")
                                           / floor_sum(timed, "walls") - 1.0)
        units_of = {}
    else:
        wall_s = floor_sum(timed, "walls")
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": floor_sum(timed, "cpus"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_per_s": first.checks / wall_s,
            "evals_per_s": first.draws / wall_s,
            "pass_share": 1.0 - sum(u.failed for u in units) / sum(u.planned for u in units),
        }
        units_of = END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": len(warm.outcomes) + sum(len(u.outcomes) for u in units),
        "failed": sum(1 for u in [warm, *units] for o in u.outcomes if o.error),
        "metrics": {k: {"value": v, "unit": units_of.get(k, _layer_unit(k))}
                    for k, v in metrics.items()},
    }
    return info, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s") or ".cell_s." in name:
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "opineq").rglob("*.py"))),
    }


def print_result(info: dict, result: dict) -> None:
    mode = "traced" if info["trace"] else "untraced"
    print(f"# {info['workload']} seed={info['seed']} {mode}: {info['units']} units"
          f" of {info['ops_per_unit']} invocations"
          + (f", {info['traced_units']} traced" if info["trace"] else ""))
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_share':36s} {info['fail_share']:>16.6g} share")
    for error in info["errors"]:
        print(f"  GATE FAILED: {error}")
    print(json.dumps({"info": info}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_result(info, result)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced and then traced."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 2
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
