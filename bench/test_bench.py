"""Checks on the benchmark itself.

    python3 -m pytest bench/test_bench.py

The count-determinism test runs each workload traced twice and takes a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import DETERMINISTIC_COUNTS  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_on_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.001",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        assert "trace.overhead_share" in result["metrics"]
        runs.append({k: m["value"] for k, m in result["metrics"].items()
                     if k.endswith(".calls") or k in DETERMINISTIC_COUNTS})
    assert runs[0] == runs[1]
    assert sum(runs[0].values()) > 0


def test_conditioning_boxes_are_feasible_with_their_spread():
    from opineq import BoundParams, RegimeId, regime_feasible

    for regime in workloads.REGIME_THEOREMS:
        for h in workloads.H_VALUES:
            box = workloads.conditioning_box(regime, h)
            if box is None:
                assert (regime, h) == ("relative", 1.0)
                continue
            params = BoundParams(m=box["m"], M=box["M"], m_prime=box.get("mp"),
                                 M_prime=box.get("Mp"))
            assert regime_feasible(RegimeId(regime), params)[0], (regime, h)
            assert params.M / params.m == pytest.approx(h)


def test_planned_checks_match_the_campaign():
    from opineq import CampaignConfig, run_campaign

    for theorem in workloads.THEOREMS:
        for dim in workloads.SWEEP_DIMS:
            report = run_campaign(CampaignConfig(theorem_ids=(theorem,), dims=(dim,),
                                                 samples=2, seed=0))
            assert report.total_checks == 2 * workloads.checks_per_draw(theorem, dim)


def test_tracer_restores_every_binding():
    import numpy.linalg
    import opineq.cli
    import opineq.spd

    before = (opineq.cli.cli_main, opineq.spd.SpdMatrix.__dict__["from_eigh"],
              numpy.linalg.eigh, opineq.campaign.sample_spd)
    with Tracer() as tracer:
        assert opineq.cli.cli_main is not before[0]
        opineq.spd.make_spd([[2.0, 0.0], [0.0, 3.0]])
    after = (opineq.cli.cli_main, opineq.spd.SpdMatrix.__dict__["from_eigh"],
             numpy.linalg.eigh, opineq.campaign.sample_spd)
    assert after == before
    totals = tracer.totals()
    assert totals[("spd", "make_spd")][0] == 1
    assert totals[("lapack", "cholesky")][0] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
