"""Randomized verification campaigns over parameter grids.

A campaign draws instances per (theorem, dimension, parameter cell),
checks each, and aggregates verdicts, attained ratios, and slack
statistics. Everything it knows about a theorem (its regime, default
cells, minimum dimension, instance space and evaluate) comes from that
theorem's TheoremSpec in ``inequalities.THEOREMS``; a search reads the
same space and evaluate. A draw takes the first values of the spec's
space and evaluates them through a view that hands the checker
VECTORS_PER_INSTANCE random probes plus A's eigenvector probes, and a
map drawn from the positive unital catalog; the first draw of a cell
also validates the hypotheses. Draws are reproducible: every draw gets
its own generator seeded by (seed, theorem index, dim, cell, draw).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .inequalities import THEOREM_IDS, THEOREMS, InstanceView, first_values, snapshot
from .means_maps import (
    compression_map,
    congruence_sum_map,
    identity_map,
    pinching_map,
    trace_normalize_map,
)
from .samplers import (
    BoundParams,
    haar_orthogonal,
    regime_feasible,
    sample_congruence_family,
    sample_orthonormal_pair,
    sample_unit_vector,
)
from .spd import DEFAULT_TOL

# Relative slack below which an instance counts as near tight.
NEAR_TIGHT_REL = 1e-3
# Random unit vectors (or orthonormal pairs) each vector-based draw checks.
VECTORS_PER_INSTANCE = 16


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
        repeated = sorted({t for t in self.theorem_ids if self.theorem_ids.count(t) > 1})
        if repeated:
            raise ValueError(f"repeated theorem ids: {repeated}")
        if self.samples <= 0:
            raise ValueError(f"samples must be > 0, got {self.samples}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be a nonempty list of ints >= 1, got {self.dims}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"repeated dims: {self.dims}")
        stray = sorted(set(self.grids or ()) - set(self.theorem_ids))
        if stray:
            raise ValueError(f"grids name theorems not in theorem_ids: {stray}")
        if self.grids is not None:
            # One tuple per entry, read once, so a one-shot iterable keeps its cells.
            grids = {t: (cells,) if isinstance(cells, BoundParams) else tuple(cells)
                     for t, cells in self.grids.items()}
            empty = sorted(t for t, cells in grids.items() if not cells)
            if empty:
                raise ValueError(f"grids give no cells for: {empty}")
            object.__setattr__(self, "grids", grids)
        if self.tol < 0.0 or not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    def grid_for(self, theorem_id: str) -> tuple[BoundParams, ...]:
        if self.grids and theorem_id in self.grids:
            return self.grids[theorem_id]
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


def _draw_map(dim: int, rng: np.random.Generator):
    """Rotate through the positive unital map catalog at this dimension."""
    kinds = ["identity", "trace_normalize"]
    if dim >= 2:
        kinds += ["compression", "congruence_sum", "pinching"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "identity":
        return identity_map(dim)
    if kind == "trace_normalize":
        return trace_normalize_map(dim)
    if kind == "compression":
        q = haar_orthogonal(dim, rng)
        return compression_map(q[:, : dim - 1])
    if kind == "congruence_sum":
        k = int(rng.integers(2, 4))
        return congruence_sum_map(sample_congruence_family(dim, k, rng))
    half = dim // 2
    return pinching_map((tuple(range(half)), tuple(range(half, dim))))


def _map_payload(spec) -> dict:
    payload = {"map_kind": spec.kind}
    if spec.isometry is not None:
        payload["map_isometry"] = spec.isometry.tolist()
    if spec.family is not None:
        payload["map_family"] = [u.tolist() for u in spec.family]
    if spec.blocks is not None:
        payload["map_blocks"] = [list(block) for block in spec.blocks]
    return payload


class _DrawView(InstanceView):
    """One campaign draw: many probes per instance, under a map drawn from the catalog."""

    __slots__ = ("_rng", "_state", "_probes", "_map")

    def __init__(self, state: dict, dim: int, rng: np.random.Generator, validate: bool):
        super().__init__(state, dim, validate=validate)
        self._rng = rng
        self._state = state
        self._probes = ()
        self._map = None

    def unit_vectors(self, name, a):
        """Random unit vectors, then A's eigenvectors, where the extremes live."""
        xs = [sample_unit_vector(self.dim, self._rng) for _ in range(VECTORS_PER_INSTANCE)]
        xs.extend(a.eigenvectors.T.copy())
        self._probes = [(x,) for x in xs]
        return xs

    def orthonormal_pairs(self, name, a):
        """Random pairs, then (v_i + v_j, v_i - v_j)/sqrt2 over eigenvector pairs.

        The pairs (i, j) are (0, n-1), where the bound is attained, and (k, k+1).
        """
        pairs = [sample_orthonormal_pair(self.dim, self._rng)
                 for _ in range(VECTORS_PER_INSTANCE)]
        vecs = a.eigenvectors
        for i, j in sorted({(0, self.dim - 1)} | {(k, k + 1) for k in range(self.dim - 1)}):
            pairs.append(((vecs[:, i] + vecs[:, j]) / math.sqrt(2.0),
                          (vecs[:, i] - vecs[:, j]) / math.sqrt(2.0)))
        self._probes = pairs
        return pairs

    def map(self, n):
        self._map = _draw_map(n, self._rng)
        return self._map

    def instance(self, item: int) -> dict:
        """The state, the probe that scored record ``item`` and the map, as JSON values."""
        out = snapshot(self._state)
        if self._probes:
            out["probe"] = dict(zip("xy", (v.tolist() for v in self._probes[item])))
        if self._map is not None:
            out.update(_map_payload(self._map))
        return out


def _run_cell(theorem_id: str, theorem_index: int, dim: int, cell_index: int,
              params: BoundParams, cfg: CampaignConfig) -> CellStats:
    spec = THEOREMS[theorem_id]
    space = spec.space(dim, params, False)
    checks = violations = classical_violations = near_tight = 0
    max_ratio = -math.inf
    min_slack = math.inf
    slack_sum = 0.0
    extremal = None
    worst = None
    for draw in range(cfg.samples):
        rng = np.random.default_rng([cfg.seed, theorem_index, dim, cell_index, draw])
        view = _DrawView(first_values(space, params, dim, rng), dim, rng, draw == 0)
        for item, record in enumerate(spec.evaluate(view, cfg.tol)):
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
                worst = view
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
        extremal["instance"] = worst.instance(extremal["item"])
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
