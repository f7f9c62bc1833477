"""Randomized verification campaigns over parameter grids.

A campaign draws instances per (theorem, dimension, parameter cell),
checks each, and aggregates verdicts, attained ratios, and slack
statistics. Everything it knows about a theorem (its regime, default
cells, minimum dimension, instance space and evaluator) comes from that
theorem's TheoremSpec in ``inequalities.THEOREMS``; a search reads the
same space and evaluator. A draw takes the first values of the spec's
space, VECTORS_PER_INSTANCE random probes plus A's eigenvector probes,
and a map drawn from the positive unital catalog. Draws are
reproducible: every draw gets its own generator seeded by (seed,
theorem index, dim, cell, draw), and consumes it in that order.

A cell is evaluated in chunks of at most _CHUNK draws, each chunk on
stacked arrays by the spec's evaluator: once for the chunk, or for a
theorem with a map once per map output size, one pass for the rows
whose map keeps the dimension, whatever its kind, and one for the
compression rows. The hypotheses are checked on every draw. The
statistics are folded in draw order, and the extremal instance is the
draw with the first largest ratio: its state, the probe that scored it
and its map.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import stacked
from .errors import InfeasibleRegime
from .inequalities import THEOREM_IDS, THEOREMS, first_values, snapshot
from .samplers import (
    _PAIR_FLOOR,
    _UNIT_FLOOR,
    BoundParams,
    _is_int,
    _require_seed,
    regime_feasible,
    sample_orthonormal_pair,
    sample_unit_vector,
)
from .spd import DEFAULT_TOL

# Relative slack below which an instance counts as near tight.
NEAR_TIGHT_REL = 1e-3
# Random unit vectors (or orthonormal pairs) each vector-based draw checks.
VECTORS_PER_INSTANCE = 16
# Most draws a cell evaluates at once, so that memory does not grow with
# samples; larger chunks gain little time and raise the peak RSS.
_CHUNK = 64


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


def _map_kind(dim: int, rng: np.random.Generator) -> str:
    kinds = ["identity", "trace_normalize"]
    if dim >= 2:
        kinds += ["compression", "congruence_sum", "pinching"]
    return kinds[int(rng.integers(len(kinds)))]


def _pinching_blocks(dim: int) -> tuple:
    half = dim // 2
    return (tuple(range(half)), tuple(range(half, dim)))


def _map_draws(dim: int, rng: np.random.Generator):
    """A map from the positive unital catalog at this dimension: its group key and raw draws.

    compression keeps dim - 1 columns of a Haar frame; congruence_sum
    takes k = 2 or 3 members D_j Q, as sample_congruence_family draws
    them; identity, trace_normalize and pinching (two halves) draw
    nothing more.
    """
    kind = _map_kind(dim, rng)
    if kind == "compression":
        return kind, (rng.standard_normal((dim, dim)),)
    if kind == "congruence_sum":
        k = int(rng.integers(2, 4))
        return (kind, k), (rng.standard_normal((dim, dim)), rng.uniform(0.2, 1.0, size=(k, dim)))
    return kind, ()


def _map_part(key, dim: int, members: list) -> stacked.MapPart:
    """The maps of rows sharing a key, from their (row, raw draws) pairs."""
    rows = np.array([row for row, _ in members])
    draws = [d for _, d in members]
    kind = key if isinstance(key, str) else key[0]
    if kind == "compression":
        q = stacked.haar(np.stack([z for z, in draws]))
        return stacked.MapPart(rows, kind, stacked.compression_isometries(q[..., : dim - 1]))
    if kind == "congruence_sum":
        # sample_congruence_family for every row.
        q = stacked.haar(np.stack([z for z, _ in draws]))
        weights = np.stack([w for _, w in draws])
        weights /= np.sqrt((weights ** 2).sum(axis=1))[:, None, :]
        return stacked.MapPart(rows, kind, stacked.congruence_family(
            tuple(weights[:, j, :, None] * q for j in range(key[1]))))
    return stacked.MapPart(rows, kind, _pinching_blocks(dim) if kind == "pinching" else None)


def _first_values_rows(space: dict, dim: int, rngs: list) -> tuple[dict, dict, dict, dict]:
    """first_values for every generator, stacked: spectra, frames, vectors, scalars.

    Each generator draws what first_values draws, in its order; the
    frames of one shape come from one Haar QR.
    """
    draws = {name: [] for name in space}
    for rng in rngs:
        for name, var in space.items():
            size = var.size or dim
            if var.kind == "spd":
                draws[name].append((rng.uniform(var.window.lo, var.window.hi, size=size),
                                    rng.standard_normal((size, size)) if size >= 2 else None))
            elif var.kind == "vector":
                draws[name].append(sample_unit_vector(dim, rng))
            elif var.kind == "frame":
                draws[name].append(rng.standard_normal((dim, dim)))
            else:
                lo, hi = var.start or (var.window.lo, var.window.hi)
                draws[name].append(rng.uniform(lo, hi, size=size) if var.kind == "weights"
                                   else rng.uniform(lo, hi))
    spectra, frames, vectors, scalars, gauss = {}, {}, {}, {}, {}
    for name, var in space.items():
        if var.kind == "spd":
            vals = np.sort(np.stack([u for u, _ in draws[name]]), axis=-1)
            if vals.shape[1] >= 2:
                vals[:, 0], vals[:, -1] = var.window.lo, var.window.hi
                gauss[name] = np.stack([z for _, z in draws[name]])
            else:
                frames[name] = np.ones((len(rngs), 1, 1))
            spectra[name] = vals
        elif var.kind == "vector":
            vectors[name] = np.stack(draws[name])
        elif var.kind == "frame":
            gauss[name] = np.stack(draws[name])
        elif var.kind == "weights":
            spectra[name] = np.stack(draws[name])
        else:
            scalars[name] = np.array(draws[name])
    by_shape = {}
    for name, z in gauss.items():
        by_shape.setdefault(z.shape, []).append(name)
    for names in by_shape.values():
        qs = stacked.haar(np.concatenate([gauss[name] for name in names]))
        frames.update((name, qs[i * len(rngs):(i + 1) * len(rngs)])
                      for i, name in enumerate(names))
    return spectra, frames, vectors, scalars


def _failed(*oks: np.ndarray) -> list:
    """The rows where some probe failed one of its sampler's checks."""
    rows = zip(*(ok.all(axis=-1).tolist() for ok in oks))
    return [row for row, good in enumerate(rows) if not all(good)]


def _unit(g: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """sample_unit_vector's x / norm(x) along the last axis, and whether norm > floor."""
    norm = np.sqrt(stacked.dot(g, g))
    return g / norm[..., None], norm > floor


class _Stack(stacked.StackedView):
    """One chunk of a cell's draws, hypotheses checked: row r is the chunk's r-th draw.

    Every row consumes its own generator as a lone draw would: first
    values, then probes, then the map. Probes are drawn in one call per
    row; a row where a sampler would have rejected a draw is drawn again
    by the sampler itself.
    """

    def __init__(self, space: dict, params: BoundParams, dim: int, seeds: list):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        super().__init__(params, dim, *_first_values_rows(space, dim, rngs), validate=True)
        self._space = space
        self._seeds = seeds
        self._rngs = rngs
        self._probes = ()
        # Each row's map as (group key, place in its part), and the parts by key.
        self._maps = {}
        self._parts = {}

    def _redraw(self, row: int, sampler) -> list:
        """Row's probes from the per-draw sampler, on a generator drawn again from its seed."""
        rng = np.random.default_rng(self._seeds[row])
        first_values(self._space, self.params, self.dim, rng)
        self._rngs[row] = rng
        return [sampler(self.dim, rng) for _ in range(VECTORS_PER_INSTANCE)]

    def unit_vectors(self, name, a):
        """(S, k, n): each row's random unit vectors, then A's eigenvectors."""
        g = np.stack([rng.standard_normal((VECTORS_PER_INSTANCE, self.dim))
                      for rng in self._rngs])
        x, ok = _unit(g, _UNIT_FLOOR)
        for row in _failed(ok):
            x[row] = self._redraw(row, sample_unit_vector)
        self._probes = (np.concatenate([x, np.swapaxes(a.eigenvectors, -1, -2)], axis=1),)
        return self._probes[0]

    def orthonormal_pairs(self, name, a):
        """(x, y), each (S, k, n): random pairs, then (v_i + v_j, v_i - v_j)/sqrt2.

        The eigenvector pairs (i, j) are (0, n-1), where the bound is
        attained, and (k, k+1).
        """
        g = np.stack([rng.standard_normal((VECTORS_PER_INSTANCE, 2, self.dim))
                      for rng in self._rngs])
        x, x_ok = _unit(g[:, :, 0], _UNIT_FLOOR)
        y = g[:, :, 1]
        y, y_ok = _unit(y - stacked.dot(x, y)[..., None] * x, _PAIR_FLOOR)
        for row in _failed(x_ok, y_ok):
            x[row], y[row] = np.swapaxes(self._redraw(row, sample_orthonormal_pair), 0, 1)
        vecs = a.eigenvectors
        eig = sorted({(0, self.dim - 1)} | {(k, k + 1) for k in range(self.dim - 1)})
        root = math.sqrt(2.0)
        ex = np.stack([(vecs[..., i] + vecs[..., j]) / root for i, j in eig], axis=1)
        ey = np.stack([(vecs[..., i] - vecs[..., j]) / root for i, j in eig], axis=1)
        self._probes = (np.concatenate([x, ex], axis=1), np.concatenate([y, ey], axis=1))
        return self._probes

    def per_map(self, n: int, evaluate) -> stacked.Rows:
        """evaluate(view, map) once per map output size, on every row of that size.

        Compression maps to n - 1, every other kind to n. A pass's map
        has one part per kind and family size, each built from its
        rows' draws. The results are put back in row order.
        """
        sizes = {}
        for row, rng in enumerate(self._rngs):
            key, draws = _map_draws(n, rng)
            rows, kinds = sizes.setdefault(n - 1 if key == "compression" else n, ([], {}))
            members = kinds.setdefault(key, [])
            self._maps[row] = (key, len(members))
            # A row's place among the rows of its size indexes the pass's view.
            members.append((len(rows), draws))
            rows.append(row)
        out = None
        for rows, kinds in sizes.values():
            parts = {key: _map_part(key, n, members) for key, members in kinds.items()}
            self._parts.update(parts)
            part = evaluate(self.subset(np.array(rows)), stacked.StackedMap(parts.values()))
            if out is None:
                out = stacked.Rows(*(np.empty((len(self._rngs),) + np.shape(f)[1:],
                                              np.asarray(f).dtype) for f in part))
            for full, field in zip(out, part):
                full[rows] = field
        return out

    def instance(self, row: int, item: int) -> dict:
        """Row's state, the probe that scored its record ``item`` and its map, as JSON values."""
        state = {group: {k: v[row] for k, v in getattr(self, group).items()}
                 for group in ("spectra", "frames", "vectors")}
        out = snapshot({"params": self.params, **state,
                        "scalars": {k: v[row].item() for k, v in self.scalars.items()}})
        if self._probes:
            out["probe"] = dict(zip("xy", (p[row, item].tolist() for p in self._probes)))
        if row in self._maps:
            key, place = self._maps[row]
            part = self._parts[key]
            out["map_kind"] = part.kind
            if part.kind == "compression":
                out["map_isometry"] = part.data[place].tolist()
            elif part.kind == "congruence_sum":
                out["map_family"] = [u[place].tolist() for u in part.data]
            elif part.kind == "pinching":
                out["map_blocks"] = [list(block) for block in part.data]
        return out


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
            self.best = (first_draw + draw, item, stacked.Rows(*(f[draw] for f in rows)))
            return True
        return False


def _run_cell(theorem_id: str, theorem_index: int, dim: int, cell_index: int,
              params: BoundParams, cfg: CampaignConfig) -> CellStats:
    spec = THEOREMS[theorem_id]
    space = spec.space(dim, params, False)

    fold = _Fold()
    for start in range(0, cfg.samples, _CHUNK):
        count = min(_CHUNK, cfg.samples - start)
        chunk = _Stack(space, params, dim, [[cfg.seed, theorem_index, dim, cell_index, draw]
                                            for draw in range(start, start + count)])
        # Rows such as a zero right side divide silently.
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                rows = spec.evaluate(chunk, cfg.tol)
            except InfeasibleRegime as exc:
                raise InfeasibleRegime(f"{theorem_id} at dim {dim}, cell {cell_index}, "
                                       f"chunk from draw {start}: {exc}") from exc
        if fold.add(stacked.Rows(*(np.reshape(f, (count, -1)) for f in rows)), start):
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
            "instance": best.instance(draw % _CHUNK, item),
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
