"""Sharpness probes: hill-climb toward each bound's worst case.

maximize_ratio runs random-restart coordinate hill-climbs over the
instance degrees of freedom (eigenvalues, orthogonal frames via Givens
rotations, unit vectors, auxiliary mixing scalars, and the regime
parameters inside a user box), reporting the largest attained
lhs/rhs ratio. A correct bound never lets the ratio pass 1 + tol.
The variables, their windows and the score come from the theorem's
TheoremSpec in ``inequalities.THEOREMS``, the same parameterisation a
campaign draws through: first_values draws a restart's first state
from the spec's space, and each state is checked on its own probe
vector or frame pair under the identity map. Restarts run in sequence,
each from its own seed drawn from the caller's generator.

A restart draws all its moves up front, since no draw depends on the
state's values: each field (kind, variable, spectrum entry, Givens
pair, sign, vector noise) is one array from one generator call. It
then climbs in speculative blocks: it applies the next few moves to
the best state, scores those candidates in one call of the spec's
evaluator, keeps the first that beats the best and resumes after it. A
block doubles after no gain, up to _BLOCK_CAP, and halves after one:
blocks sized from the accept rate scored fewer rows but took more
blocks, each an evaluator call, and ran slower. The candidates are the
rows of stacked arrays, one vectorised step per variable, by the rules
a first state is drawn by; a parameter move is applied per row and
makes no row where it leaves the regime. So a restart keeps exactly
what a climb that scores one proposal at a time keeps, bit for bit. A
block evaluates only its rows' ratios: the records' order verdicts are
computed on first read, and the climb reads none. A block whose
evaluation raises is scored row by row.

compare_bounds tabulates classical versus refined constants over a
parameter grid and asserts the refined constant decreases strictly in
its refinement argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import samplers, stacked
from .errors import InfeasibleRegime, NotPositiveDefinite
from .inequalities import THEOREMS, first_values, refinement_constants, snapshot
from .samplers import BoundParams, _is_int, _require_seed, regime_feasible, require_feasible
from .spd import DEFAULT_TOL, _is_real, _require_tol

SEARCH_DIM_CAP = 8
DEFAULT_BUDGET = 10_000
_DELTA_START = 0.1
_DELTA_END = 1e-4
_EVALS_PER_RESTART = 2000
# Most proposals a restart scores in one stacked block. A restart accepts
# few of its proposals, so blocks grow to this size between gains.
_BLOCK_CAP = 64
_PARAM_KEYS = ("m", "m_prime", "M_prime", "M")


@dataclass(frozen=True)
class SearchResult:
    """Best instance found; iterates as (instance, ratio).

    ``accepted`` holds each restart's number of accepted moves,
    ``scored`` the number of rows its stacked blocks evaluated, its first
    state and the speculative rows past each accepted one included, and
    ``blocks`` the number of those blocks, its stacked evaluations (a
    block scored row by row after its stacked call raised counts once),
    all in restart order; a seed fixes them.
    """

    theorem_id: str
    dim: int
    ratio: float
    instance: dict
    evaluations: int
    restarts: int
    classical: bool
    accepted: tuple[int, ...]
    scored: tuple[int, ...]
    blocks: tuple[int, ...]

    def __iter__(self):
        yield self.instance
        yield self.ratio


def _windows(space: dict) -> dict:
    return {name: var.window for name, var in space.items() if var.window is not None}


def _box_range(key: str, value) -> tuple:
    """value as (lo, hi): a real number, or a length-2 sequence of them."""
    if _is_real(value):
        return value, value
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if isinstance(items, (tuple, list)) and len(items) == 2 and all(map(_is_real, items)):
        return tuple(items)
    raise ValueError(f"box value for {key!r} must be a real number or a (lo, hi) pair of "
                     f"them, got {value!r}")


def _normalize_box(box) -> dict[str, tuple[float, float]]:
    if not box:
        raise ValueError("param box must not be empty")
    out = {}
    for key, value in box.items():
        if key not in _PARAM_KEYS:
            raise ValueError(f"unknown box key {key!r}, expected one of {_PARAM_KEYS}")
        lo, hi = (float(bound) for bound in _box_range(key, value))
        if not (0.0 < lo <= hi and math.isfinite(hi)):
            raise ValueError(f"box range for {key!r} must satisfy 0 < lo <= hi, got {value!r}")
        out[key] = (lo, hi)
    if "m" not in out or "M" not in out:
        raise ValueError("param box needs at least 'm' and 'M'")
    return out


def _draw_params(box, regime, rng) -> BoundParams:
    for _ in range(64):
        drawn = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in box.items()}
        try:
            params = BoundParams(**drawn)
        except ValueError:
            continue
        if regime_feasible(regime, params)[0]:
            return params
    mid = {k: 0.5 * (lo + hi) for k, (lo, hi) in box.items()}
    params = BoundParams(**mid)
    require_feasible(regime, params)
    return params


def _draw_moves(state: dict, box: dict, count: int, rng) -> tuple[list, dict]:
    """(targets, moves): the draws of a restart's ``count`` proposals, as columns.

    No draw depends on the state's values, so a restart draws all its
    moves before it scores any, each field by one generator call over all
    ``count`` moves, in this order: the kind, uniform over those of
    spectrum, frame, vector, scalar and param that have a variable; the
    variable within it (``rng.integers(0, highs)``, each move its own
    bound); a spectrum's entry; a frame's Givens pair, i over its size,
    then j over size - 1 shifted past i; the sign, + where
    ``rng.random() < 0.5``; and one (count, n) Gaussian block of vector
    noise where the state has a vector. A field that a move's kind does
    not use is drawn with the smallest valid bound and ignored.
    ``targets`` lists the variables as (kind, name). ``moves`` holds the
    target's index, entry, pair i < j, factor 1 +- delta, angle +-delta and
    vector shift delta * noise, with delta decaying geometrically from
    _DELTA_START to _DELTA_END.
    """
    names = {"spectrum": sorted(state["spectra"]),
             "frame": sorted(k for k, f in state["frames"].items() if f.shape[0] >= 2),
             "vector": sorted(state["vectors"]),
             "scalar": sorted(state["scalars"]),
             "param": [k for k, (lo, hi) in box.items() if lo < hi]}
    kinds = [kind for kind, group in names.items() if group]
    targets = [(kind, name) for kind in kinds for name in names[kind]]
    counts = np.array([len(names[kind]) for kind in kinds])
    entries = np.array([state["spectra"][name].size if kind == "spectrum" else 1
                        for kind, name in targets])
    sizes = np.array([state["frames"][name].shape[0] if kind == "frame" else 2
                      for kind, name in targets])
    kind = rng.integers(0, len(kinds), count)
    target = (np.cumsum(counts) - counts)[kind] + rng.integers(0, counts[kind])
    entry = rng.integers(0, entries[target])
    i = rng.integers(0, sizes[target])
    j = rng.integers(0, sizes[target] - 1)
    j += j >= i
    plus = rng.random(count) < 0.5
    steps = np.full(count, (_DELTA_END / _DELTA_START) ** (1.0 / max(count, 1)))
    steps[:1] = _DELTA_START
    delta = np.maximum(np.cumprod(steps), _DELTA_END)
    moves = {"target": target, "entry": entry, "i": np.minimum(i, j), "j": np.maximum(i, j),
             "factor": np.where(plus, 1.0 + delta, 1.0 - delta),
             "theta": np.where(plus, delta, -delta)}
    if names["vector"]:
        size = state["vectors"][names["vector"][0]].size
        moves["shift"] = delta[:, None] * rng.standard_normal((count, size))
    return targets, moves


def _moved_params(spec, params, name, factor, dim, box, regime, classical):
    """(params, windows) after a move of parameter ``name``, or None where it leaves the regime."""
    lo, hi = box[name]
    moved = min(max(getattr(params, name) * factor, lo), hi)
    try:
        params = replace(params, **{name: moved})
    except ValueError:
        return None
    if not regime_feasible(regime, params)[0]:
        return None
    return params, _windows(spec.space(dim, params, classical))


class _Block(stacked.StackedView):
    """Candidate states as the rows of one stacked evaluation.

    ``rows`` holds each row's (params, windows). Row r checks its own
    vector, or the first two columns of its frame, under the identity
    map. Rows share one params object unless a parameter move gave some
    row its own.
    """

    def __init__(self, rows, dim: int, spectra: dict, frames: dict, vectors: dict,
                 scalars: dict, classical: bool):
        first = rows[0][0]
        params = first if all(p is first for p, _ in rows) else tuple(p for p, _ in rows)
        super().__init__(params, dim, spectra, frames, vectors, scalars, classical)
        self.rows = rows

    @classmethod
    def of(cls, state: dict, dim: int, classical: bool) -> "_Block":
        """A state as a block of one row."""
        def one(group):
            return {name: value[None] for name, value in state[group].items()}
        return cls(((state["params"], state["windows"]),), dim, one("spectra"), one("frames"),
                   one("vectors"), {name: np.array([value])
                                    for name, value in state["scalars"].items()}, classical)

    def row(self, r: int) -> "_Block":
        """Row r alone, as a block of one."""
        def pick(group):
            return {name: value[r:r + 1] for name, value in group.items()}
        return _Block(self.rows[r:r + 1], self.dim, pick(self.spectra), pick(self.frames),
                      pick(self.vectors), pick(self.scalars), self.classical)

    def state(self, r: int) -> dict:
        """Row r as an instance state."""
        params, windows = self.rows[r]
        return {"params": params, "windows": windows,
                "spectra": {name: vals[r] for name, vals in self.spectra.items()},
                "frames": {name: frame[r] for name, frame in self.frames.items()},
                "vectors": {name: v[r] for name, v in self.vectors.items()},
                "scalars": {name: float(values[r]) for name, values in self.scalars.items()}}

    def unit_vectors(self, name, a):
        return self.vectors[name][:, None, :]

    def orthonormal_pairs(self, name, a):
        frame = self.frames[name]
        return frame[:, None, :, 0], frame[:, None, :, 1]

    def per_map(self, n, evaluate):
        return evaluate(self, stacked.StackedMap.single("identity"))


def _candidates(spec, best: dict, targets: list, moves: dict, dim, box, regime, classical):
    """(block, live): the neighbours of best that moves make, and each row's index in moves.

    ``moves`` is a slice of _draw_moves' columns. The moves on one
    variable are applied in one vectorised step: an entry scaled and
    clamped to its window, a frame turned by its Givens rotation and one
    stacked QR, a vector shifted and rescaled. A parameter move is applied
    per row and makes no row where it leaves the regime; block is None
    when no move makes a row.
    """
    target = moves["target"]
    count = len(target)
    rows = [(best["params"], best["windows"])] * count

    def tiled(group):
        return {name: value[None].repeat(count, axis=0) for name, value in best[group].items()}
    spectra, frames, vectors = tiled("spectra"), tiled("frames"), tiled("vectors")
    scalars = {name: np.full(count, value) for name, value in best["scalars"].items()}
    for code in set(target.tolist()):
        kind, name = targets[code]
        at = (target == code).nonzero()[0]
        if kind == "spectrum":
            window, index = best["windows"][name], moves["entry"][at]
            scaled = best["spectra"][name][index] * moves["factor"][at]
            spectra[name][at, index] = np.clip(scaled, window.lo, window.hi)
        elif kind == "scalar":
            window, scaled = best["windows"][name], best["scalars"][name] * moves["factor"][at]
            scalars[name][at] = np.clip(scaled, window.lo, window.hi)
        elif kind == "frame":
            i, j, theta = moves["i"][at], moves["j"][at], moves["theta"][at].tolist()
            # math.cos and math.sin, as a single move takes them: numpy's may round otherwise.
            cos = np.array([math.cos(t) for t in theta])
            sin = np.array([math.sin(t) for t in theta])
            givens = np.repeat(np.eye(best["frames"][name].shape[0])[None], at.size, axis=0)
            each = np.arange(at.size)
            givens[each, i, i] = cos
            givens[each, j, j] = cos
            givens[each, i, j] = -sin
            givens[each, j, i] = sin
            frames[name][at] = stacked.haar(best["frames"][name] @ givens)
        elif kind == "vector":
            shifted = best["vectors"][name] + moves["shift"][at]
            vectors[name][at] = samplers._unit_vectors(shifted)[0]
        else:
            for row, factor in zip(at.tolist(), moves["factor"][at].tolist()):
                rows[row] = _moved_params(spec, best["params"], name, factor, dim, box, regime,
                                          classical)
            moved = [row for row in at.tolist() if rows[row] is not None]
            # Each moved row's spectra clamped to its own windows.
            for var, vals in spectra.items() if moved else ():
                lo, hi = np.array([(rows[row][1][var].lo, rows[row][1][var].hi)
                                   for row in moved]).T
                vals[moved] = np.clip(best["spectra"][var], lo[:, None], hi[:, None])
    live = [row for row, made in enumerate(rows) if made is not None]
    if not live:
        return None, live
    if len(live) < count:
        rows = [rows[row] for row in live]
        spectra, frames, vectors, scalars = ({name: value[live] for name, value in group.items()}
                                             for group in (spectra, frames, vectors, scalars))
    return _Block(rows, dim, spectra, frames, vectors, scalars, classical), live


def _ratios(spec, block: _Block, tol) -> list:
    """Each row's ratio, the largest of its records', from one stacked evaluation.

    Only the ratios are computed: no verdict is read, so none is decomposed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = spec.evaluate(block, tol)
    ratios = rows.ratio * rows.improvement if block.classical else rows.ratio
    ratios = np.reshape(ratios, (len(block.rows), -1))
    best = ratios[:, 0]
    # Python's max over each row's records: a later record wins only if greater.
    for column in ratios.T[1:]:
        best = stacked._pymax(best, column)
    return best.tolist()


def _lone_ratio(spec, block: _Block, tol) -> float:
    """A one-row block's ratio, or -inf where its instance is not SPD or leaves the regime."""
    try:
        return _ratios(spec, block, tol)[0]
    except (InfeasibleRegime, NotPositiveDefinite):
        return -math.inf


def _scores(spec, block: _Block, tol):
    """An iterator over each row's ratio, in order, from one stacked evaluation.

    Where that raises, the rows are scored one by one as the iterator is
    read: rows past the one a restart accepts are speculative, and a row
    the one-at-a-time search never scores must not end it.
    """
    try:
        return iter(_ratios(spec, block, tol))
    except ValueError:
        return (_lone_ratio(spec, block.row(r), tol) for r in range(len(block.rows)))


def _run_restart(spec, dim, box, regime, classical, tol, budget, seed):
    """(best ratio, its instance, evaluations, accepted moves, scored rows, blocks) of a climb.

    The next ``size`` proposals move the best state and are scored in
    one block; the climb keeps the first that beats the best and goes on
    after it. A block without a gain doubles ``size`` up to _BLOCK_CAP,
    one with a gain halves it. The first state is a block of one.
    """
    rng = np.random.default_rng(seed)
    params = _draw_params(box, regime, rng)
    space = spec.space(dim, params, classical)
    best = first_values(space, params, dim, rng)
    best["windows"] = _windows(space)
    targets, moves = _draw_moves(best, box, budget - 1, rng)
    best_ratio = next(_scores(spec, _Block.of(best, dim, classical), tol))
    accepted = start = 0
    scored = size = blocks = 1
    while start < budget - 1:
        chunk = {field: column[start:start + size] for field, column in moves.items()}
        block, live = _candidates(spec, best, targets, chunk, dim, box, regime, classical)
        scored += len(live)
        blocks += block is not None
        # (row, ratio) of the block's first row that beats the best, else None.
        gain = None if block is None else next(
            ((row, ratio) for row, ratio in enumerate(_scores(spec, block, tol))
             if ratio > best_ratio), None)
        if gain is None:
            start += size
            size = min(2 * size, _BLOCK_CAP)
        else:
            row, best_ratio = gain
            best = block.state(row)
            accepted += 1
            start += live[row] + 1
            size = max(size // 2, 1)
    return best_ratio, snapshot(best), budget, accepted, scored, blocks


def maximize_ratio(theorem_id: str, box, budget: int = DEFAULT_BUDGET,
                   rng=None, dim: int = 2, classical: bool = False,
                   tol: float = DEFAULT_TOL) -> SearchResult:
    """Hill-climb the attained ratio for one bound inside a param box.

    box maps parameter names (m, m_prime, M_prime, M) to a scalar or a
    (lo, hi) range; m and M are required. Returns a SearchResult that
    unpacks as (best instance, best ratio). classical=True targets the
    unrefined constant, and moves to the spec's classical_regime where one
    is set (for the Kantorovich family, the plain spectral window where
    its equality cases live).

    The budget is split over max(1, budget // 2000) restarts. They run in
    sequence, each from its own seed drawn from ``rng`` (a Generator, a
    non-negative int seed, or None for seed 0), so a seed fixes the result.
    """
    spec = THEOREMS.get(theorem_id)
    if spec is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if not _is_int(budget) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    _require_tol(tol)
    if not _is_int(dim):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if not 1 <= dim <= SEARCH_DIM_CAP:
        raise ValueError(f"search dims are capped at {SEARCH_DIM_CAP}, got {dim}")
    if dim < spec.min_dim:
        raise ValueError(f"{theorem_id} needs dim >= {spec.min_dim}, got {dim}")
    norm_box = _normalize_box(box)
    regime = spec.regime
    if classical and spec.classical_regime is not None:
        regime = spec.classical_regime
    mid = BoundParams(**{k: 0.5 * (lo + hi) for k, (lo, hi) in norm_box.items()})
    require_feasible(regime, mid)
    if rng is None or isinstance(rng, (int, np.integer)):
        if rng is not None:
            _require_seed(rng)
        rng = np.random.default_rng(0 if rng is None else int(rng))

    restarts = max(1, budget // _EVALS_PER_RESTART)
    base, extra = divmod(budget, restarts)
    allocations = [base + (1 if i < extra else 0) for i in range(restarts)]
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=restarts)]

    outcomes = [_run_restart(spec, dim, norm_box, regime, classical, tol, allocation, seed)
                for allocation, seed in zip(allocations, seeds)]

    best_index = max(range(len(outcomes)), key=lambda i: (outcomes[i][0], -i))
    best_ratio, best_instance = outcomes[best_index][:2]
    best_instance["theorem_id"] = theorem_id
    best_instance["dim"] = dim
    best_instance["classical"] = classical
    best_instance["ratio"] = float(best_ratio)
    return SearchResult(
        theorem_id=theorem_id,
        dim=dim,
        ratio=float(best_ratio),
        instance=best_instance,
        evaluations=sum(out[2] for out in outcomes),
        restarts=restarts,
        classical=classical,
        accepted=tuple(out[3] for out in outcomes),
        scored=tuple(out[4] for out in outcomes),
        blocks=tuple(out[5] for out in outcomes),
    )


@dataclass(frozen=True)
class CompareRow:
    family: str
    m: float
    m_prime: float
    M_prime: float
    M: float
    argument: float
    power: int
    classical: float
    refined: float
    improvement_percent: float


@dataclass(frozen=True)
class CompareTable:
    rows: tuple[CompareRow, ...]
    monotone: dict


def compare_bounds(params_grid) -> CompareTable:
    """Tabulate classical vs refined constants over a parameter grid.

    Asserts that within each constant family, holding (m, M) fixed, the
    refined constant strictly decreases as the refinement argument
    grows. Raises ValueError if the grid ever contradicts that.
    """
    grid = [p if isinstance(p, BoundParams) else BoundParams(**p) for p in params_grid]
    if not grid:
        raise ValueError("params grid must not be empty")
    rows: list[CompareRow] = []
    for params in grid:
        table = refinement_constants(params)
        for entry in table.rows:
            rows.append(CompareRow(
                family=entry.name,
                m=params.m,
                m_prime=params.m_prime,
                M_prime=params.M_prime,
                M=params.M,
                argument=entry.argument,
                power=entry.power,
                classical=entry.classical,
                refined=entry.refined,
                improvement_percent=100.0 * (1.0 - entry.improvement_ratio),
            ))
    monotone: dict = {}
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.family, row.m, row.M), []).append(row)
    for (family, _, _), members in groups.items():
        members = sorted(members, key=lambda r: r.argument)
        ok = True
        for prev, cur in zip(members, members[1:]):
            if cur.argument > prev.argument and not cur.refined < prev.refined:
                ok = False
            if cur.argument == prev.argument and cur.refined != prev.refined:
                ok = False
        monotone[family] = monotone.get(family, True) and ok
    if not all(monotone.values()):
        bad = sorted(name for name, ok in monotone.items() if not ok)
        raise ValueError(f"refined constant failed to decrease in its argument for: {bad}")
    return CompareTable(rows=tuple(rows), monotone=monotone)
