"""Randomized verification campaigns over parameter grids.

A campaign draws instances per (theorem, dimension, parameter cell),
checks each, and aggregates verdicts, attained ratios, and slack
statistics. Everything it knows about a theorem (its regime, default
cells, minimum dimension, instance space, evaluator and what it reads)
comes from that theorem's TheoremSpec in ``inequalities.THEOREMS``; a
search reads the same space and evaluator. A draw is a state of the
spec's space and, where the evaluator reads them, VECTORS_PER_INSTANCE
random probes plus A's eigenvector probes, or a map from the positive
unital catalog.

Draws are reproducible: a cell has one SeedSequence, seeded by (seed,
theorem index, dim, cell), and each array it draws comes from a child
generator of its own, so a chunk draws in a few vectorised calls. The
draws go through the same rules as one instance's: a chunk's states are
built by ``inequalities._draw_states``, its probes by the unit vector
and pair rules of ``samplers`` and its congruence maps by its family
rule; frames are ``stacked.haar``'s.

A cell is evaluated in chunks of at most ``stacked.stack_rows(dim)``
draws, each one ``stacked.StackedView`` with its probes and maps, by the
spec's evaluator: once, or once per map output size. A draw's bits do
not depend on its chunk, so the chunk size, the element budget every
stack shares, moves no result. The hypotheses are checked on every
draw. The statistics are folded in draw order, and the extremal instance
is the ``inequalities.snapshot`` of the draw with the first largest
ratio, the probe that scored it and its map included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import samplers, stacked
from .errors import InfeasibleRegime
from .inequalities import THEOREM_IDS, THEOREMS, _draw_states, snapshot
from .samplers import BoundParams, _is_int, _require_seed, regime_feasible
from .spd import DEFAULT_TOL, _require_tol

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
        if not _is_int(self.samples) or self.samples <= 0:
            raise ValueError(f"samples must be an integer > 0, got {self.samples!r}")
        if not self.dims or any(not _is_int(d) or d < 1 for d in self.dims):
            raise ValueError(f"dims must be a nonempty list of ints >= 1, got {self.dims}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"repeated dims: {self.dims}")
        _require_seed(self.seed)
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
            untyped = sorted(t for t, cells in grids.items()
                             if not all(isinstance(cell, BoundParams) for cell in cells))
            if untyped:
                raise ValueError(f"grids give cells that are not BoundParams for: {untyped}")
            object.__setattr__(self, "grids", grids)
        _require_tol(self.tol)

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


# The positive unital catalog by group: a kind and, for congruence_sum, its family size.
# A draw gives each kind weight 1/5 (dim 1 has only the first two) and each size 1/10.
_MAP_GROUPS = (("identity", 0), ("trace_normalize", 0), ("compression", 0),
               ("congruence_sum", 2), ("congruence_sum", 3), ("pinching", 0))


def _map_kind(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count maps' groups on n x n matrices, as indices into _MAP_GROUPS."""
    drawn = rng.integers(10 if n >= 2 else 4, size=count)
    return np.array([0, 0, 1, 1, 2, 2, 3, 4, 5, 5])[drawn]


# Each Kraus kind's arrays from its rows' Haar frames q (S, n, n) and k weights w (S, k, n).
_KRAUS_DRAWS = {
    "compression": lambda q, w: stacked.unital_family(
        (q[..., :-1],), "compression columns not orthonormal"),
    "congruence_sum": lambda q, w: stacked.unital_family(
        samplers._congruence_family(q, w), "congruence family not normalized"),
    "pinching": lambda q, w: tuple(np.broadcast_to(p, q.shape) for p in stacked.pinching_projectors(
        np.split(np.arange(q.shape[-1]), [q.shape[-1] // 2]))),
}


class _Draws:
    """A cell's raw random inputs: one generator per drawn array, each read in draw order.

    Each generator is a child of the cell's SeedSequence, made on first
    use, and gives every draw a block of one fixed size: a chunk's inputs
    are its draws' blocks laid end to end. ``inequalities._draw_states``
    reads the state's generators through ``_rng``; the probes and maps are
    drawn here. A vector or pair that its rule in ``samplers`` rejects is
    drawn again alone, in draw order, by a redraw generator.
    """

    def __init__(self, entropy: list, space: dict, dim: int):
        self.space = space
        self.dim = dim
        self._entropy = entropy
        self._keys = [*((name, part) for name in space for part in (0, 1)), "units",
                      "unit redraws", "pairs", "pair redraws", "map groups", "map frames",
                      "map weights"]
        self._rngs = {}

    def _rng(self, key) -> np.random.Generator:
        if key not in self._rngs:
            child = np.random.SeedSequence(self._entropy, spawn_key=(self._keys.index(key),))
            self._rngs[key] = np.random.default_rng(child)
        return self._rngs[key]

    def probes(self, count: int, frame: np.ndarray, pairs: bool) -> tuple:
        """The next count draws' probes, each (count, k, n), A's frame ``frame`` given.

        VECTORS_PER_INSTANCE random unit vectors, then A's eigenvectors v;
        or as many random orthonormal pairs, then (v_i + v_j, v_i - v_j)/sqrt2
        over (i, j) = (0, n-1), where the bound is attained, and (k, k+1).
        """
        key, redraw, shape, rule = (
            ("pairs", "pair redraws", (2, self.dim), samplers._orthonormal_pairs) if pairs
            else ("units", "unit redraws", (self.dim,), samplers._unit_vectors))
        drawn = rule(samplers._gaussians(self._rng, key, redraw,
                                         (VECTORS_PER_INSTANCE, *shape), count, rule))
        vecs = np.swapaxes(frame, -1, -2)
        if not pairs:
            return (np.concatenate([drawn[0], vecs], axis=1),)
        i, j = np.array(sorted({(0, self.dim - 1)} | {(k, k + 1) for k in range(self.dim - 1)})).T
        root = math.sqrt(2.0)
        return (np.concatenate([drawn[0], (vecs[:, i] + vecs[:, j]) / root], axis=1),
                np.concatenate([drawn[1], (vecs[:, i] - vecs[:, j]) / root], axis=1))

    def maps(self, n: int, count: int) -> stacked.StackedMap:
        """The next count draws' maps on n x n, a MapPart per group of the catalog.

        Every field is drawn whatever the kind: the group, an (n, n)
        Gaussian for the Haar frame and 3 x n weights.
        """
        groups = _map_kind(n, self._rng("map groups"), count)
        q = stacked.haar(self._rng("map frames").standard_normal((count, n, n)))
        w = self._rng("map weights").uniform(*samplers._WEIGHT_RANGE, (count, 3, n))
        # Membership by indexing: an integer == would map 128 KiB more of numpy's code.
        member, parts = np.eye(len(_MAP_GROUPS), dtype=bool)[groups], []
        for group in np.flatnonzero(member.any(axis=0)).tolist():
            rows = np.flatnonzero(member[:, group])
            kind, k = _MAP_GROUPS[group]
            draw = _KRAUS_DRAWS.get(kind)
            parts.append(stacked.MapPart(rows, kind, draw(q[rows], w[rows, :k]) if draw else ()))
        return stacked.StackedMap(parts, n)


def _chunk(spec, draws: _Draws, params: BoundParams, count: int) -> stacked.StackedView:
    """The next count draws of a cell as one view, hypotheses checked.

    Its probes, and its maps on dim // map_divisor, are drawn where the
    spec's evaluator reads them.
    """
    spectra, frames, vectors, scalars = _draw_states(draws.space, draws.dim, count, draws._rng)
    probes = draws.probes(count, frames["a"], spec.probes == "pairs") if spec.probes else None
    maps = draws.maps(draws.dim // spec.map_divisor, count) if spec.map_divisor else None
    return stacked.StackedView(params, draws.dim, spectra, frames, vectors, scalars,
                               validate=True, probes=probes, maps=maps)


class _Fold:
    """A cell's statistics, folded from stacked rows in draw order."""

    def __init__(self):
        self.checks = self.violations = self.classical_violations = self.near_tight = 0
        self.max_ratio = -math.inf
        self.min_slack = math.inf
        self.slack_sum = 0.0
        # (draw, item, the draw's row) of the first largest ratio.
        self.best = None

    def add(self, rows: stacked.Rows, first_draw: int) -> bool:
        """Fold a chunk's rows in; True when it holds the new largest ratio."""
        ratio = rows.ratio.ravel()
        self.checks += ratio.size
        self.violations += ratio.size - int(np.count_nonzero(rows.holds))
        self.classical_violations += ratio.size - int(np.count_nonzero(rows.classical))
        slack = 1.0 - ratio
        self.near_tight += int(np.count_nonzero(slack < NEAR_TIGHT_REL))
        finite = slack[np.isfinite(slack)]
        total = self.slack_sum
        for value in finite.tolist():
            total += value
        self.slack_sum = total
        if finite.size:
            self.min_slack = min(self.min_slack, float(finite.min()))
        live = np.where(np.isnan(ratio), -math.inf, ratio)
        largest = float(live.max())
        # Strictly greater: the first largest ratio wins, as in draw order.
        if largest > self.max_ratio:
            draw, item = divmod(live.tolist().index(largest), rows.ratio.shape[1])
            self.max_ratio = largest
            self.best = (first_draw + draw, item, stacked.Rows._make(f[draw] for f in rows))
            return True
        return False


def _run_cell(theorem_id: str, theorem_index: int, dim: int, cell_index: int,
              params: BoundParams, cfg: CampaignConfig) -> CellStats:
    spec = THEOREMS[theorem_id]
    draws = _Draws([cfg.seed, theorem_index, dim, cell_index], spec.space(dim, params, False),
                   dim)
    fold = _Fold()
    size = stacked.stack_rows(dim)
    for start in range(0, cfg.samples, size):
        count = min(size, cfg.samples - start)
        chunk = _chunk(spec, draws, params, count)
        # Rows such as a zero right side divide silently, here and where the
        # reshape reads the verdicts, which are computed on first read.
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                rows = spec.evaluate(chunk, cfg.tol)
            except InfeasibleRegime as exc:
                raise InfeasibleRegime(f"{theorem_id} at dim {dim}, cell {cell_index}, "
                                       f"chunk from draw {start}: {exc}") from exc
            rows = stacked.Rows._make(np.reshape(f, (count, -1)) for f in rows)
        if fold.add(rows, start):
            best = chunk
    extremal = None
    if fold.best is not None:
        draw, item, row = fold.best
        extremal = {
            "theorem_id": theorem_id,
            "dim": dim,
            "draw": draw,
            "item": item,
            "detail": spec.details[item] if spec.details else "",
            "ratio": float(row.ratio[item]),
            "lhs": float(row.lhs[item]),
            "rhs": float(row.rhs[item]),
            **params.as_dict(),
            "instance": snapshot(best, draw % size, item),
        }
    return CellStats(
        theorem_id=theorem_id,
        dim=dim,
        params=params,
        samples=fold.checks,
        violations=fold.violations,
        classical_violations=fold.classical_violations,
        near_tight=fold.near_tight,
        max_ratio=fold.max_ratio,
        min_slack=fold.min_slack,
        mean_slack=fold.slack_sum / fold.checks,
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
