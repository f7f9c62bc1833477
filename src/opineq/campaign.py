"""Randomized verification campaigns over parameter grids.

A campaign draws instances per (theorem, dimension, parameter cell),
runs the matching checker on each, and aggregates verdicts, attained
ratios, and slack statistics. Everything it knows about a theorem (its
regime, default cells, minimum dimension and how to draw one instance)
comes from that theorem's TheoremSpec in ``inequalities.THEOREMS``.
Draws are reproducible: every draw gets its own generator seeded by
(seed, theorem index, dim, cell, draw).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .inequalities import THEOREM_IDS, THEOREMS
from .samplers import BoundParams, regime_feasible
from .spd import DEFAULT_TOL

# Relative slack below which an instance counts as near tight.
NEAR_TIGHT_REL = 1e-3


@dataclass(frozen=True)
class CampaignConfig:
    theorem_ids: tuple[str, ...] = THEOREM_IDS
    dims: tuple[int, ...] = (2, 3, 4)
    samples: int = 100
    seed: int = 0
    tol: float = DEFAULT_TOL
    grids: dict | None = None

    def __post_init__(self):
        unknown = [t for t in self.theorem_ids if t not in THEOREM_IDS]
        if unknown:
            raise ValueError(f"unknown theorem ids: {unknown}")
        if not self.theorem_ids:
            raise ValueError("theorem_ids must not be empty")
        if self.samples <= 0:
            raise ValueError(f"samples must be > 0, got {self.samples}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be a nonempty list of ints >= 1, got {self.dims}")
        if self.tol < 0.0 or not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    def grid_for(self, theorem_id: str) -> tuple[BoundParams, ...]:
        if self.grids and theorem_id in self.grids:
            cells = self.grids[theorem_id]
            if isinstance(cells, BoundParams):
                return (cells,)
            return tuple(cells)
        return THEOREMS[theorem_id].cells


@dataclass(frozen=True)
class CellStats:
    theorem_id: str
    dim: int
    params: BoundParams
    samples: int
    violations: int
    classical_violations: int
    near_tight: int
    max_ratio: float
    min_slack: float
    mean_slack: float
    extremal: dict | None


@dataclass(frozen=True)
class SkippedCell:
    theorem_id: str
    dim: int
    params: BoundParams
    reason: str


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    cells: tuple[CellStats, ...]
    skipped: tuple[SkippedCell, ...]
    elapsed_seconds: float

    @property
    def total_checks(self) -> int:
        return sum(cell.samples for cell in self.cells)

    @property
    def total_violations(self) -> int:
        return sum(cell.violations for cell in self.cells)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0


def _serialize_payload(payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, (float, np.floating)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _run_cell(theorem_id: str, theorem_index: int, dim: int, cell_index: int,
              params: BoundParams, cfg: CampaignConfig) -> CellStats:
    draw_instance = THEOREMS[theorem_id].draw
    checks = violations = classical_violations = near_tight = 0
    max_ratio = -math.inf
    min_slack = math.inf
    slack_sum = 0.0
    extremal = None
    extremal_payload = None
    for draw in range(cfg.samples):
        rng = np.random.default_rng([cfg.seed, theorem_index, dim, cell_index, draw])
        records, payload = draw_instance(dim, params, rng, cfg, first=(draw == 0))
        for item, record in enumerate(records):
            checks += 1
            slack = 1.0 - record.ratio
            if not record.verdict.holds:
                violations += 1
            if record.classical_verdict is not None and not record.classical_verdict.holds:
                classical_violations += 1
            if slack < NEAR_TIGHT_REL:
                near_tight += 1
            if math.isfinite(slack):
                slack_sum += slack
                min_slack = min(min_slack, slack)
            if record.ratio > max_ratio:
                max_ratio = record.ratio
                extremal_payload = payload
                extremal = {
                    "theorem_id": theorem_id,
                    "dim": dim,
                    "draw": draw,
                    "item": item,
                    "detail": record.detail,
                    "ratio": record.ratio,
                    "lhs": record.lhs_value,
                    "rhs": record.rhs_value,
                    **params.as_dict(),
                }
    if extremal is not None:
        extremal["instance"] = _serialize_payload(extremal_payload)
    return CellStats(
        theorem_id=theorem_id,
        dim=dim,
        params=params,
        samples=checks,
        violations=violations,
        classical_violations=classical_violations,
        near_tight=near_tight,
        max_ratio=max_ratio,
        min_slack=min_slack,
        mean_slack=slack_sum / checks if checks else math.nan,
        extremal=extremal,
    )


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run every requested (theorem, dim, cell) and aggregate statistics.

    Infeasible cells and cells below a checker's minimum dimension are
    recorded as skipped, never silently dropped.
    """
    start = time.perf_counter()
    cells: list[CellStats] = []
    skipped: list[SkippedCell] = []
    for theorem_id in config.theorem_ids:
        theorem_index = THEOREM_IDS.index(theorem_id)
        grid = config.grid_for(theorem_id)
        spec = THEOREMS[theorem_id]
        for dim in config.dims:
            for cell_index, params in enumerate(grid):
                feasible, reason = regime_feasible(spec.regime, params)
                if not feasible:
                    skipped.append(SkippedCell(theorem_id, dim, params, reason))
                    continue
                if dim < spec.min_dim:
                    skipped.append(SkippedCell(
                        theorem_id, dim, params, f"needs dim >= {spec.min_dim}, got {dim}"))
                    continue
                cells.append(_run_cell(theorem_id, theorem_index, dim, cell_index,
                                       params, config))
    return CampaignReport(
        config=config,
        cells=tuple(cells),
        skipped=tuple(skipped),
        elapsed_seconds=time.perf_counter() - start,
    )
