"""Sharpness probes: hill-climb toward each bound's worst case.

maximize_ratio runs random-restart coordinate hill-climbs over the
instance degrees of freedom (eigenvalues, orthogonal frames via Givens
rotations, unit vectors, auxiliary mixing scalars, and the regime
parameters inside a user box), reporting the largest attained
lhs/rhs ratio. A correct bound never lets the ratio pass 1 + tol.
The variables, their windows and the score come from the theorem's
TheoremSpec in ``inequalities.THEOREMS``, the same parameterisation a
campaign draws through: first_values draws a restart's first state
from the spec's space, and the spec's evaluate reads each state through
an InstanceView, which checks the state's own probe vector or pair
under the identity map. Restarts run in sequence, each from its own
seed drawn from the caller's generator. A proposal copies only the
array it changes, and each state memoises the matrices built from its
arrays, so an evaluation rebuilds only what its proposal changed.

compare_bounds tabulates classical versus refined constants over a
parameter grid and asserts the refined constant decreases strictly in
its refinement argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleRegime, NotPositiveDefinite
from .inequalities import (
    THEOREMS,
    IneqRecord,
    InstanceView,
    first_values,
    refinement_constants,
    snapshot,
)
from .samplers import BoundParams, _require_seed, regime_feasible, require_feasible
from .spd import DEFAULT_TOL

SEARCH_DIM_CAP = 8
DEFAULT_BUDGET = 10_000
_DELTA_START = 0.1
_DELTA_END = 1e-4
_EVALS_PER_RESTART = 2000
_PARAM_KEYS = ("m", "m_prime", "M_prime", "M")


@dataclass(frozen=True)
class SearchResult:
    """Best instance found; iterates as (instance, ratio)."""

    theorem_id: str
    dim: int
    ratio: float
    instance: dict
    evaluations: int
    restarts: int
    classical: bool

    def __iter__(self):
        yield self.instance
        yield self.ratio


def _ratio(record: IneqRecord, classical: bool) -> float:
    return record.ratio * record.improvement_ratio if classical else record.ratio


def _windows(space: dict) -> dict:
    return {name: var.window for name, var in space.items() if var.window is not None}


def _normalize_box(box) -> dict[str, tuple[float, float]]:
    if not box:
        raise ValueError("param box must not be empty")
    out = {}
    for key, value in box.items():
        if key not in _PARAM_KEYS:
            raise ValueError(f"unknown box key {key!r}, expected one of {_PARAM_KEYS}")
        lo, hi = (value, value) if np.isscalar(value) else (value[0], value[1])
        lo, hi = float(lo), float(hi)
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


def _givens(size: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(size)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _propose(spec, state, dim, box, regime, classical, delta, rng):
    """A neighbour of state, or None when its parameter move is infeasible.

    Copy-on-write: the neighbour shares every array it does not change.
    """
    kinds = []
    if state["spectra"]:
        kinds.append("spectrum")
    rotatable = [k for k, f in state["frames"].items() if f.shape[0] >= 2]
    if rotatable:
        kinds.append("frame")
    if state["vectors"]:
        kinds.append("vector")
    if state["scalars"]:
        kinds.append("scalar")
    free = [k for k, (lo, hi) in box.items() if lo < hi]
    if free:
        kinds.append("param")
    kind = kinds[int(rng.integers(len(kinds)))]
    new = dict(state, memo=dict(state["memo"]))

    if kind == "spectrum":
        spectra = state["spectra"]
        name = sorted(spectra)[int(rng.integers(len(spectra)))]
        vals = spectra[name].copy()
        idx = int(rng.integers(vals.size))
        factor = 1.0 + delta if rng.random() < 0.5 else 1.0 - delta
        window = state["windows"][name]
        vals[idx] = min(max(vals[idx] * factor, window.lo), window.hi)
        new["spectra"] = {**spectra, name: vals}
    elif kind == "frame":
        name = sorted(rotatable)[int(rng.integers(len(rotatable)))]
        f = state["frames"][name]
        size = f.shape[0]
        i, j = sorted(rng.choice(size, size=2, replace=False).tolist())
        theta = delta if rng.random() < 0.5 else -delta
        rotated = f @ _givens(size, i, j, theta)
        q, r = np.linalg.qr(rotated)
        new["frames"] = {**state["frames"], name: q * np.sign(np.diag(r))}
    elif kind == "vector":
        vectors = state["vectors"]
        name = sorted(vectors)[int(rng.integers(len(vectors)))]
        v = vectors[name] + delta * rng.standard_normal(vectors[name].size)
        new["vectors"] = {**vectors, name: v / np.linalg.norm(v)}
    elif kind == "scalar":
        scalars = state["scalars"]
        name = sorted(scalars)[int(rng.integers(len(scalars)))]
        window = state["windows"][name]
        factor = 1.0 + delta if rng.random() < 0.5 else 1.0 - delta
        new["scalars"] = {**scalars, name: min(max(scalars[name] * factor, window.lo),
                                                 window.hi)}
    else:
        key = free[int(rng.integers(len(free)))]
        factor = 1.0 + delta if rng.random() < 0.5 else 1.0 - delta
        lo, hi = box[key]
        moved = min(max(getattr(state["params"], key) * factor, lo), hi)
        try:
            candidate = replace(state["params"], **{key: moved})
        except ValueError:
            return None
        if not regime_feasible(regime, candidate)[0]:
            return None
        windows = _windows(spec.space(dim, candidate, classical))
        new["params"] = candidate
        new["windows"] = windows
        spectra = {}
        for name, vals in state["spectra"].items():
            clipped = np.clip(vals, windows[name].lo, windows[name].hi)
            # Share what the new window leaves alone, so its memo entries hold.
            spectra[name] = vals if np.array_equal(clipped, vals) else clipped
        new["spectra"] = spectra
    return new


def _safe_eval(spec, state, dim, classical, tol):
    try:
        records = spec.evaluate(InstanceView(state, dim, classical), tol)
    except (InfeasibleRegime, NotPositiveDefinite):
        return -math.inf
    return max(_ratio(rec, classical) for rec in records)


def _run_restart(spec, dim, box, regime, classical, tol, budget, seed):
    rng = np.random.default_rng(seed)
    params = _draw_params(box, regime, rng)
    space = spec.space(dim, params, classical)
    state = first_values(space, params, dim, rng)
    state["windows"] = _windows(space)
    best_ratio = _safe_eval(spec, state, dim, classical, tol)
    best_state = state
    used = 1
    if budget > 1:
        decay = (_DELTA_END / _DELTA_START) ** (1.0 / max(budget - 1, 1))
    else:
        decay = 1.0
    delta = _DELTA_START
    while used < budget:
        candidate = _propose(spec, best_state, dim, box, regime, classical, delta, rng)
        used += 1
        if candidate is not None:
            ratio = _safe_eval(spec, candidate, dim, classical, tol)
            if ratio > best_ratio:
                best_ratio = ratio
                best_state = candidate
        delta = max(delta * decay, _DELTA_END)
    return best_ratio, snapshot(best_state), used


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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if tol < 0.0 or not math.isfinite(tol):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
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
    best_ratio, best_instance, _ = outcomes[best_index]
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
