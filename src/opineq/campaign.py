"""Randomized verification campaigns over parameter grids.

A campaign draws instances per (theorem, dimension, parameter cell),
checks each, and aggregates verdicts, attained ratios, and slack
statistics. Everything it knows about a theorem (its regime, default
cells, minimum dimension, instance space, evaluate and stacked
evaluate) comes from that theorem's TheoremSpec in
``inequalities.THEOREMS``; a search reads the same space and evaluate.
A draw takes the first values of the spec's space and evaluates them
through a view that hands the checker VECTORS_PER_INSTANCE random
probes plus A's eigenvector probes, and a map drawn from the positive
unital catalog. Draws are reproducible: every draw gets its own
generator seeded by (seed, theorem index, dim, cell, draw).

A cell is evaluated in chunks of at most _CHUNK draws. Each draw of a
chunk consumes its generator as a lone draw would (first values,
probes, map), and the rest is done on stacked arrays by the spec's
stacked evaluator, once for the chunk, or for a theorem with a map
once per map output size: one pass for the rows whose map keeps the
dimension, whatever its kind, and one for the compression rows. Its
rows carry the bits the per-draw evaluate gives. The statistics are
folded in draw order. The
first draw also goes through ``spec.evaluate``, validating the
hypotheses, and so does the draw with the largest ratio, which gives
the extremal instance; both must match their stacked rows bit for bit,
or the campaign raises RuntimeError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .inequalities import THEOREM_IDS, THEOREMS, InstanceView, first_values, snapshot

# After inequalities, which imports stacked itself once it is compiled:
# compiling the larger module first lowers the process's peak memory.
from . import stacked  # isort: skip
from .means_maps import (
    compression_map,
    congruence_sum_map,
    identity_map,
    pinching_map,
    trace_normalize_map,
)
from .samplers import (
    _PAIR_FLOOR,
    _UNIT_FLOOR,
    BoundParams,
    _is_int,
    _require_seed,
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


def _draw_map(dim: int, rng: np.random.Generator):
    """Rotate through the positive unital map catalog at this dimension."""
    kind = _map_kind(dim, rng)
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
    return pinching_map(_pinching_blocks(dim))


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


def _map_draws(dim: int, rng: np.random.Generator):
    """What _draw_map(dim, rng) draws, in its order: the group key and the raw draws."""
    kind = _map_kind(dim, rng)
    if kind == "compression":
        return kind, (rng.standard_normal((dim, dim)),)
    if kind == "congruence_sum":
        k = int(rng.integers(2, 4))
        return (kind, k), (rng.standard_normal((dim, dim)), rng.uniform(0.2, 1.0, size=(k, dim)))
    return kind, ()


def _map_part(key, dim: int, members: list) -> stacked.MapPart:
    """_draw_map's maps for rows sharing a key, from their (row, raw draws) pairs."""
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
    """_DrawView for one chunk of a cell's draws: row r is the chunk's r-th draw.

    Every row has its own generator and consumes it as its _DrawView
    would: first values, then probes, then the map. Probes are drawn in
    one call per row; a row where a sampler would have rejected a draw
    is drawn again by the sampler itself.
    """

    def __init__(self, space: dict, params: BoundParams, dim: int, seeds: list):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        super().__init__(params, dim, *_first_values_rows(space, dim, rngs))
        self._space = space
        self._seeds = seeds
        self._rngs = rngs

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
        return np.concatenate([x, np.swapaxes(a.eigenvectors, -1, -2)], axis=1)

    def orthonormal_pairs(self, name, a):
        """(x, y), each (S, k, n): random pairs, then _DrawView's eigenvector pairs."""
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
        return np.concatenate([x, ex], axis=1), np.concatenate([y, ey], axis=1)

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
            # A row's place among the rows of its size indexes the pass's view.
            kinds.setdefault(key, []).append((len(rows), draws))
            rows.append(row)
        out = None
        for rows, kinds in sizes.values():
            phi = stacked.StackedMap(_map_part(key, n, members) for key, members in kinds.items())
            part = evaluate(self.subset(np.array(rows)), phi)
            if out is None:
                out = stacked.Rows(*(np.empty((len(self._rngs),) + np.shape(f)[1:],
                                              np.asarray(f).dtype) for f in part))
            for full, field in zip(out, part):
                full[rows] = field
        return out


def _require_same(records: list, row: stacked.Rows, theorem_id: str, draw: int) -> None:
    """Raise RuntimeError unless the per-draw records have the stacked row's bits."""
    ref = stacked.Rows(
        [r.ratio for r in records],
        [r.verdict.holds for r in records],
        [r.classical_verdict is None or r.classical_verdict.holds for r in records],
        [r.lhs_value for r in records],
        [r.rhs_value for r in records],
        [r.improvement_ratio for r in records],
    )
    for name, want, got in zip(stacked.Rows._fields, ref, row):
        kind = bool if name in ("holds", "classical") else np.float64
        if np.asarray(want, kind).tobytes() != np.asarray(got, kind).tobytes():
            raise RuntimeError(f"{theorem_id} draw {draw}: the stacked {name} differs "
                               "from the per-draw evaluate")


class _Fold:
    """A cell's statistics, folded from stacked rows in draw order."""

    def __init__(self):
        self.checks = self.violations = self.classical_violations = self.near_tight = 0
        self.max_ratio = -math.inf
        self.min_slack = math.inf
        self.slack_sum = 0.0
        # (draw, item, the draw's row) of the first largest ratio.
        self.best = None

    def add(self, rows: stacked.Rows, first_draw: int) -> None:
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


def _run_cell(theorem_id: str, theorem_index: int, dim: int, cell_index: int,
              params: BoundParams, cfg: CampaignConfig) -> CellStats:
    spec = THEOREMS[theorem_id]
    space = spec.space(dim, params, False)

    def seed(draw):
        return [cfg.seed, theorem_index, dim, cell_index, draw]

    def rerun(draw):
        """The draw through _DrawView and evaluate, as a lone draw is evaluated."""
        rng = np.random.default_rng(seed(draw))
        view = _DrawView(first_values(space, params, dim, rng), dim, rng, draw == 0)
        return view, spec.evaluate(view, cfg.tol)

    first = rerun(0)
    fold = _Fold()
    for start in range(0, cfg.samples, _CHUNK):
        count = min(_CHUNK, cfg.samples - start)
        chunk = _Stack(space, params, dim, [seed(start + r) for r in range(count)])
        # Rows the per-draw code never divides, such as a zero right side, divide silently.
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = stacked.Rows(*(np.reshape(f, (count, -1))
                                  for f in spec.stacked(chunk, cfg.tol)))
        if start == 0:
            _require_same(first[1], stacked.Rows(*(f[0] for f in rows)), theorem_id, 0)
        fold.add(rows, start)
    extremal = None
    if fold.best is not None:
        draw, item, row = fold.best
        view, records = first if draw == 0 else rerun(draw)
        _require_same(records, row, theorem_id, draw)
        record = records[item]
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
            "instance": view.instance(item),
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
