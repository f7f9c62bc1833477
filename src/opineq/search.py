"""Sharpness probes: hill-climb toward each bound's worst case.

maximize_ratio runs random-restart coordinate hill-climbs over the
instance degrees of freedom (eigenvalues, orthogonal frames via Givens
rotations, unit vectors, auxiliary mixing scalars, and the regime
parameters inside a user box), reporting the largest attained
lhs/rhs ratio. A correct bound never lets the ratio pass 1 + tol.
The variables, their windows and the score come from the theorem's
TheoremSpec in ``inequalities.THEOREMS``, the same parameterisation a
campaign draws through. A state is a one-row ``stacked.StackedView``,
the first one ``inequalities._draw_states``' one-row draw from the
spec's space, checked with the view's defaults: its own probe vector or
frame pair under the identity map. Restarts run in sequence, each from
its own seed drawn from the caller's generator.

A restart draws all its moves up front, since no draw depends on the
state's values: each field (kind, variable, spectrum entry, Givens
pair, sign, vector noise) is one array from one generator call. It
then climbs in speculative blocks: it applies the next few moves to
the best state, scores those candidates in one call of the spec's
evaluator, keeps the first row that beats the best, a one-row subset
of the block, and resumes after it. A block doubles after no gain, up
to ``stacked.stack_rows(dim)`` rows, the element budget every stack
shares, and halves after one: blocks sized from the accept rate scored
fewer rows but took more blocks, each an evaluator call, and ran
slower. The candidates are the rows of stacked arrays, one
vectorised step per variable, by the rules a first state is drawn by;
a parameter move is applied per row, gives its row its own params and
makes no row where it leaves the regime. So a restart keeps exactly
what a climb that scores one proposal at a time keeps, bit for bit. A
block evaluates only its rows' ratios: the records' order verdicts are
computed on first read, and the climb reads none. A ratio and a mean
read a Cholesky factor, made on first need, and a mean decomposes only
its inner matrix, so a stack that a ratio or a mean factors is decided
positive by its Cholesky alone, and one read only for its entries is
not decomposed. A block whose evaluation raises is scored row by row.

compare_bounds tabulates classical versus refined constants over a
parameter grid and asserts the refined constant decreases strictly in
its refinement argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import samplers, stacked
from .errors import InfeasibleRegime, NotPositiveDefinite
from .inequalities import THEOREMS, _draw_states, refinement_constants, snapshot
from .samplers import BoundParams, _is_int, _require_seed, regime_feasible, require_feasible
from .spd import DEFAULT_TOL, _is_real, _require_tol

SEARCH_DIM_CAP = 8
DEFAULT_BUDGET = 10_000
_DELTA_START = 0.1
_DELTA_END = 1e-4
_EVALS_PER_RESTART = 2000
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


def _draw_moves(best: stacked.StackedView, box: dict, count: int, rng) -> tuple[list, dict]:
    """(targets, moves): the draws of a restart's ``count`` proposals, as columns.

    No draw depends on the one-row view ``best``'s values, so a restart
    draws all its moves before it scores any, each field by one generator
    call over all ``count`` moves, in this order: the kind, uniform over
    those of spectrum, frame, vector, scalar and param that have a
    variable; the variable within it (``rng.integers(0, highs)``, each move
    its own bound); a spectrum's entry; a frame's Givens pair, i over its
    size, then j over size - 1 shifted past i; the sign, + where
    ``rng.random() < 0.5``; and one (count, n) Gaussian block of vector
    noise where the state has a vector. A field that a move's kind does
    not use is drawn with the smallest valid bound and ignored.
    ``targets`` lists the variables as (kind, name). ``moves`` holds the
    target's index, entry, pair i < j, factor 1 +- delta, angle +-delta and
    vector shift delta * noise, with delta decaying geometrically from
    _DELTA_START to _DELTA_END.
    """
    names = {"spectrum": sorted(best.spectra),
             "frame": sorted(k for k, f in best.frames.items() if f.shape[-1] >= 2),
             "vector": sorted(best.vectors),
             "scalar": sorted(best.scalars),
             "param": [k for k, (lo, hi) in box.items() if lo < hi]}
    kinds = [kind for kind, group in names.items() if group]
    targets = [(kind, name) for kind in kinds for name in names[kind]]
    counts = np.array([len(names[kind]) for kind in kinds])
    entries = np.array([best.spectra[name].size if kind == "spectrum" else 1
                        for kind, name in targets])
    sizes = np.array([best.frames[name].shape[-1] if kind == "frame" else 2
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
        size = best.vectors[names["vector"][0]].size
        moves["shift"] = delta[:, None] * rng.standard_normal((count, size))
    return targets, moves


def _moved_params(params, name, factor, box, regime):
    """params after a move of parameter ``name``, or None where it leaves the regime.

    The moved params are built from the box's keys alone, as a first draw's
    are, so a parameter the box omits takes its default from the moved
    values (m' = m, M' = M) and the regime chain stays whole.
    """
    lo, hi = box[name]
    moved = min(max(getattr(params, name) * factor, lo), hi)
    params = BoundParams(**{key: moved if key == name else getattr(params, key) for key in box})
    return params if regime_feasible(regime, params)[0] else None


def _candidates(spec, best, windows: dict, targets: list, moves: dict, box, regime):
    """(block, live): the neighbours of the one-row view best, and each row's index in moves.

    ``moves`` is a slice of _draw_moves' columns and ``windows`` best's
    variable windows. The moves on one variable are applied in one
    vectorised step: an entry scaled and clamped to its window, a frame
    turned by its Givens rotation and one stacked QR, a vector shifted and
    rescaled. A parameter move is applied per row, clamps the row's
    spectra to its own windows, and makes no row where it leaves the
    regime; block is None when no move makes a row.
    """
    target = moves["target"]
    count = len(target)
    params = [best.params] * count

    def tiled(group):
        return {name: value.repeat(count, axis=0) for name, value in group.items()}
    spectra, frames, vectors, scalars = map(tiled, (best.spectra, best.frames, best.vectors,
                                                    best.scalars))
    for code in set(target.tolist()):
        kind, name = targets[code]
        at = (target == code).nonzero()[0]
        if kind == "spectrum":
            window, index = windows[name], moves["entry"][at]
            scaled = best.spectra[name][0, index] * moves["factor"][at]
            spectra[name][at, index] = np.clip(scaled, window.lo, window.hi)
        elif kind == "scalar":
            window, scaled = windows[name], best.scalars[name][0] * moves["factor"][at]
            scalars[name][at] = np.clip(scaled, window.lo, window.hi)
        elif kind == "frame":
            i, j, theta = moves["i"][at], moves["j"][at], moves["theta"][at].tolist()
            # math.cos and math.sin, as a single move takes them: numpy's may round otherwise.
            cos = np.array([math.cos(t) for t in theta])
            sin = np.array([math.sin(t) for t in theta])
            frame = best.frames[name][0]
            givens = np.repeat(np.eye(frame.shape[0])[None], at.size, axis=0)
            each = np.arange(at.size)
            givens[each, i, i] = cos
            givens[each, j, j] = cos
            givens[each, i, j] = -sin
            givens[each, j, i] = sin
            frames[name][at] = stacked.haar(frame @ givens)
        elif kind == "vector":
            shifted = best.vectors[name][0] + moves["shift"][at]
            vectors[name][at] = samplers._unit_vectors(shifted)[0]
        else:
            for row, factor in zip(at.tolist(), moves["factor"][at].tolist()):
                params[row] = _moved_params(best.params, name, factor, box, regime)
            moved = [row for row in at.tolist() if params[row] is not None]
            # Each moved row's spectra clamped to its own windows.
            own = [_windows(spec.space(best.dim, params[row], best.classical)) for row in moved]
            for var, vals in spectra.items() if moved else ():
                lo, hi = np.array([(w[var].lo, w[var].hi) for w in own]).T
                vals[moved] = np.clip(best.spectra[var][0], lo[:, None], hi[:, None])
    live = [row for row, made in enumerate(params) if made is not None]
    if not live:
        return None, live
    shared = all(p is params[0] for p in params)
    block = stacked.StackedView(params[0] if shared else tuple(params),
                                best.dim, spectra, frames, vectors, scalars, best.classical)
    return (block if len(live) == count else block.subset(live)), live


def _ratios(spec, block: stacked.StackedView, tol) -> list:
    """Each row's ratio, the largest of its records', from one stacked evaluation.

    Only the ratios are computed: no verdict is read, so none is decomposed,
    and a stack read only for a ratio is decided positive by its Cholesky.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = spec.evaluate(block, tol)
    ratios = rows.ratio * rows.improvement if block.classical else rows.ratio
    ratios = np.reshape(ratios, (len(ratios), -1))
    best = ratios[:, 0]
    # Python's max over each row's records: a later record wins only if greater.
    for column in ratios.T[1:]:
        best = stacked._pymax(best, column)
    return best.tolist()


def _lone_ratio(spec, row: stacked.StackedView, tol) -> float:
    """A one-row view's ratio, or -inf where its instance is not SPD or leaves the regime."""
    try:
        return _ratios(spec, row, tol)[0]
    except (InfeasibleRegime, NotPositiveDefinite):
        return -math.inf


def _scores(spec, block: stacked.StackedView, count: int, tol):
    """An iterator over the ratios of the block's ``count`` rows, from one stacked evaluation.

    Where that raises, the rows are scored one by one as the iterator is
    read: rows past the one a restart accepts are speculative, and a row
    the one-at-a-time search never scores must not end it.
    """
    try:
        return iter(_ratios(spec, block, tol))
    except ValueError:
        return (_lone_ratio(spec, block.subset([r]), tol) for r in range(count))


def _run_restart(spec, dim, box, regime, classical, tol, budget, seed):
    """(best ratio, its instance, evaluations, accepted moves, scored rows, blocks) of a climb.

    The best state is a one-row view, the first one drawn from the spec's space.
    The next ``size`` proposals move it and are scored in one block; the
    climb keeps the first row that beats the best and goes on after it. A
    block without a gain doubles ``size`` up to ``stacked.stack_rows(dim)``,
    one with a gain halves it. The best's windows change only with its params.
    """
    cap = stacked.stack_rows(dim)
    rng = np.random.default_rng(seed)
    params = _draw_params(box, regime, rng)
    space = spec.space(dim, params, classical)
    best = stacked.StackedView(params, dim, *_draw_states(space, dim, 1, lambda key: rng),
                               classical)
    windows = _windows(space)
    targets, moves = _draw_moves(best, box, budget - 1, rng)
    best_ratio = next(_scores(spec, best, 1, tol))
    accepted = start = 0
    scored = size = blocks = 1
    while start < budget - 1:
        chunk = {field: column[start:start + size] for field, column in moves.items()}
        block, live = _candidates(spec, best, windows, targets, chunk, box, regime)
        scored += len(live)
        blocks += block is not None
        # (row, ratio) of the block's first row that beats the best, else None.
        gain = None if block is None else next(
            ((row, ratio) for row, ratio in enumerate(_scores(spec, block, len(live), tol))
             if ratio > best_ratio), None)
        if gain is None:
            start += size
            size = min(2 * size, cap)
        else:
            row, best_ratio = gain
            moved, best = best.params, block.subset([row])
            if best.params is not moved:
                windows = _windows(spec.space(dim, best.params, classical))
            accepted += 1
            start += live[row] + 1
            size = max(size // 2, 1)
    return best_ratio, snapshot(best, 0), budget, accepted, scored, blocks


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
