"""Sharpness probes: hill-climb toward each bound's worst case.

maximize_ratio runs random-restart coordinate hill-climbs over the
instance degrees of freedom (eigenvalues, orthogonal frames via Givens
rotations, unit vectors, auxiliary mixing scalars, and the regime
parameters inside a user box), reporting the largest attained
lhs/rhs ratio. A correct bound never lets the ratio pass 1 + tol.
Restarts run in sequence, each from its own seed drawn from the
caller's generator. A proposal copies only the array it changes, and
each state memoises the matrices built from its arrays, so an
evaluation rebuilds only what its proposal changed.

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
    REGIME_FOR_THEOREM,
    THEOREM_IDS,
    IneqRecord,
    check_choi_record,
    check_holder_mccarthy_refined,
    check_isometry_family_bound,
    check_kantorovich_product_refined,
    check_kantorovich_refined,
    check_lemma_refined_amgm,
    check_lin_chain,
    check_lin_refined_squared,
    check_norm_amgm_record,
    check_polya_szego_refined,
    check_square_order_refined,
    check_wielandt_operator,
    check_wielandt_scalar,
    refinement_constants,
    scalar_refined_amgm,
)
from .means_maps import identity_map
from .samplers import (
    RELATIVE_BASE_WINDOW,
    BoundParams,
    IsometryPair,
    RegimeId,
    haar_orthogonal,
    regime_feasible,
    regime_window,
    require_feasible,
    sample_unit_vector,
)
from .spd import DEFAULT_TOL, SpdMatrix, SpectralInterval, make_spd

SEARCH_DIM_CAP = 8
DEFAULT_BUDGET = 10_000
_DELTA_START = 0.1
_DELTA_END = 1e-4
_EVALS_PER_RESTART = 2000
_PARAM_KEYS = ("m", "m_prime", "M_prime", "M")
# classical=True moves these onto the plain window, where the unrefined
# constants have their equality cases.
_CLASSICAL_PLAIN = ("kantorovich", "holder_mccarthy", "kantorovich_product")


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


def _memo(state: dict, key: str, deps: tuple, build):
    """build(), kept in the state's memo while ``deps`` are the same objects.

    That is enough because no array is written after it joins a state.
    """
    hit = state["memo"].get(key)
    if hit is not None and all(old is new for old, new in zip(hit[0], deps)):
        return hit[1]
    value = build()
    state["memo"][key] = (deps, value)
    return value


def _spd(state: dict, name: str) -> SpdMatrix:
    vals, frame = state["spectra"][name], state["frames"][name]
    return _memo(state, name, (vals, frame), lambda: SpdMatrix.from_eigh(vals, frame))


def _add_spd(state, name, size, window, rng):
    state["windows"][name] = window
    state["spectra"][name] = rng.uniform(window.lo, window.hi, size=size)
    if size >= 2:
        state["frames"][name] = haar_orthogonal(size, rng)
    else:
        state["frames"][name] = np.eye(size)


def _add_weights(state, name, size, rng):
    state["windows"][name] = SpectralInterval(0.01, 0.99)
    state["spectra"][name] = rng.uniform(0.2, 0.8, size=size)


def _add_scalar(state, name, lo, hi, value):
    state["boxes"][name] = (lo, hi)
    state["scalars"][name] = value


def _add_vector(state, name, dim, rng):
    state["vectors"][name] = sample_unit_vector(dim, rng)


def _add_frame(state, name, size, rng):
    state["frames"][name] = haar_orthogonal(size, rng)


def _shifted_pair(state, params):
    spectrum = state["spectra"]["a"]
    frame = state["frames"]["a"]
    t = state["scalars"]["t"]

    def build():
        vals = np.sort(spectrum)
        a = SpdMatrix.from_eigh(vals, frame)
        b = SpdMatrix.from_eigh((1.0 - t) * params.m_prime * vals + t * params.M, frame)
        return a, b

    return _memo(state, "shifted_pair", (spectrum, frame, t, params), build)


@dataclass(frozen=True)
class _Problem:
    windows: callable
    init: callable
    evaluate: callable
    min_dim: int = 1


def _plain(params):
    return SpectralInterval(params.m, params.M)


def _build_problems() -> dict[str, _Problem]:
    problems: dict[str, _Problem] = {}

    def scalar_windows(dim, p, classical):
        return {"a": _plain(p), "b": _plain(p)}

    def scalar_init(state, dim, p, rng, classical):
        _add_spd(state, "a", 1, _plain(p), rng)
        _add_spd(state, "b", 1, _plain(p), rng)

    def scalar_eval(state, dim, classical, tol):
        a = float(state["spectra"]["a"][0])
        b = float(state["spectra"]["b"][0])
        return _ratio(scalar_refined_amgm(a, b, tol), classical)

    problems["scalar_amgm"] = _Problem(scalar_windows, scalar_init, scalar_eval)

    def lemma_windows(dim, p, classical):
        return {"a": RELATIVE_BASE_WINDOW, "c": SpectralInterval(p.m, p.M)}

    def lemma_init(state, dim, p, rng, classical):
        for name, window in lemma_windows(dim, p, classical).items():
            _add_spd(state, name, dim, window, rng)

    def lemma_eval(state, dim, classical, tol):
        p = state["params"]
        root = _spd(state, "a").sqrt().entries
        b = make_spd(root @ _spd(state, "c").entries @ root)
        rec = check_lemma_refined_amgm(_spd(state, "a"), b, p.m, tol, validate=False)
        return _ratio(rec, classical)

    problems["lemma_amgm"] = _Problem(lemma_windows, lemma_init, lemma_eval)

    def kant_windows(dim, p, classical):
        window = _plain(p) if classical else regime_window(RegimeId.SELF_INVERSE_LOW, p)
        return {"a": window}

    def kant_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, kant_windows(dim, p, classical)["a"], rng)
        _add_vector(state, "x", dim, rng)

    def kant_eval(state, dim, classical, tol):
        p = state["params"]
        rec = check_kantorovich_refined(_spd(state, "a"), state["vectors"]["x"],
                                        p.m, p.m_prime, p.M, tol, validate=False)
        return _ratio(rec, classical)

    problems["kantorovich"] = _Problem(kant_windows, kant_init, kant_eval)

    def product_windows(dim, p, classical):
        if classical:
            return {"a": _plain(p), "b": _plain(p)}
        return {"a": regime_window(RegimeId.SHIFTED, p)}

    def product_init(state, dim, p, rng, classical):
        if classical:
            _add_spd(state, "a", dim, _plain(p), rng)
            _add_spd(state, "b", dim, _plain(p), rng)
        else:
            _add_spd(state, "a", dim, regime_window(RegimeId.SHIFTED, p), rng)
            _add_scalar(state, "t", 1e-6, 1.0, float(rng.uniform(0.25, 1.0)))
        _add_vector(state, "x", dim, rng)

    def product_eval(state, dim, classical, tol):
        p = state["params"]
        if classical:
            a, b = _spd(state, "a"), _spd(state, "b")
        else:
            a, b = _shifted_pair(state, p)
        rec = check_kantorovich_product_refined(a, b, state["vectors"]["x"], p, tol,
                                                validate=False)
        return _ratio(rec, classical)

    problems["kantorovich_product"] = _Problem(product_windows, product_init, product_eval)

    def holder_eval(state, dim, classical, tol):
        p = state["params"]
        rec = check_holder_mccarthy_refined(_spd(state, "a"), state["vectors"]["x"], p,
                                            tol, validate=False)
        return _ratio(rec, classical)

    problems["holder_mccarthy"] = _Problem(kant_windows, kant_init, holder_eval)

    def square_windows(dim, p, classical):
        return {"a": regime_window(RegimeId.SELF_INVERSE_LOW, p),
                "bump": SpectralInterval(1e-3, 1.0)}

    def square_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, regime_window(RegimeId.SELF_INVERSE_LOW, p), rng)
        _add_spd(state, "bump", dim, SpectralInterval(1e-3, 1.0), rng)
        _add_scalar(state, "eps", 1e-6, 0.5, 0.1)

    def square_eval(state, dim, classical, tol):
        p = state["params"]
        a = _spd(state, "a")
        b = make_spd(a.entries + state["scalars"]["eps"] * _spd(state, "bump").entries)
        rec = check_square_order_refined(a, b, p, tol, validate=False)
        return _ratio(rec, classical)

    problems["square_order"] = _Problem(square_windows, square_init, square_eval)

    def shifted_only_windows(dim, p, classical):
        return {"a": regime_window(RegimeId.SHIFTED, p)}

    def polya_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, regime_window(RegimeId.SHIFTED, p), rng)
        _add_scalar(state, "t", 1e-6, 1.0, float(rng.uniform(0.25, 1.0)))

    def polya_eval(state, dim, classical, tol):
        p = state["params"]
        a, b = _shifted_pair(state, p)
        rec = check_polya_szego_refined(identity_map(dim), a, b, p, tol, validate=False)
        return _ratio(rec, classical)

    problems["polya_szego"] = _Problem(shifted_only_windows, polya_init, polya_eval)

    def family_windows(dim, p, classical):
        return {"a": regime_window(RegimeId.SELF_INVERSE_LOW, p),
                "w": SpectralInterval(0.01, 0.99)}

    def family_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, regime_window(RegimeId.SELF_INVERSE_LOW, p), rng)
        _add_weights(state, "w", dim, rng)
        _add_frame(state, "q", dim, rng)

    def family_eval(state, dim, classical, tol):
        p = state["params"]
        w = np.clip(state["spectra"]["w"], 0.01, 0.99)
        q = state["frames"]["q"]
        family = (np.sqrt(w)[:, None] * q, np.sqrt(1.0 - w)[:, None] * q)
        rec = check_isometry_family_bound(family, _spd(state, "a"), p, tol, validate=False)
        return _ratio(rec, classical)

    problems["isometry_family"] = _Problem(family_windows, family_init, family_eval)

    def sandwich_windows(dim, p, classical):
        return {"a": SpectralInterval(p.m, p.m_prime),
                "b": SpectralInterval(p.M_prime, p.M)}

    def sandwich_init(state, dim, p, rng, classical):
        for name, window in sandwich_windows(dim, p, classical).items():
            _add_spd(state, name, dim, window, rng)

    def lin_eval(variant):
        def evaluate(state, dim, classical, tol):
            p = state["params"]
            rec = check_lin_refined_squared(identity_map(dim), _spd(state, "a"),
                                            _spd(state, "b"), p, variant, tol,
                                            validate=False)
            return _ratio(rec, classical)

        return evaluate

    problems["lin_squared_mapped"] = _Problem(sandwich_windows, sandwich_init,
                                              lin_eval("mapped_mean"))
    problems["lin_squared_means"] = _Problem(sandwich_windows, sandwich_init,
                                             lin_eval("mean_of_maps"))

    def chain_eval(state, dim, classical, tol):
        p = state["params"]
        records = check_lin_chain(identity_map(dim), _spd(state, "a"), _spd(state, "b"),
                                  p, tol, validate=False)
        return max(_ratio(rec, classical) for rec in records)

    problems["lin_chain"] = _Problem(sandwich_windows, sandwich_init, chain_eval)

    def plain_windows(dim, p, classical):
        return {"a": _plain(p)}

    def wscalar_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, _plain(p), rng)
        _add_frame(state, "pair", dim, rng)

    def wscalar_eval(state, dim, classical, tol):
        p = state["params"]
        f = state["frames"]["pair"]
        rec = check_wielandt_scalar(_spd(state, "a"), f[:, 0], f[:, 1], p.m, p.M, tol,
                                    validate=False)
        return _ratio(rec, classical)

    problems["wielandt_scalar"] = _Problem(plain_windows, wscalar_init, wscalar_eval,
                                           min_dim=2)

    def wop_windows(variant):
        def windows(dim, p, classical):
            if variant == "refined":
                return {"a": regime_window(RegimeId.SELF_INVERSE_HIGH, p)}
            return {"a": _plain(p)}

        return windows

    def wop_init(variant):
        def init(state, dim, p, rng, classical):
            _add_spd(state, "a", dim, wop_windows(variant)(dim, p, classical)["a"], rng)
            _add_frame(state, "pair", dim, rng)

        return init

    def wop_eval(variant):
        def evaluate(state, dim, classical, tol):
            p = state["params"]
            r = dim // 2
            f = state["frames"]["pair"]
            pair = IsometryPair(f[:, :r].copy(), f[:, dim - r:].copy())
            rec = check_wielandt_operator(identity_map(r), _spd(state, "a"), pair, p,
                                          variant, tol, validate=False)
            return _ratio(rec, classical)

        return evaluate

    for variant, tid in (("bhatia_davis", "wielandt_bhatia_davis"),
                         ("gumus", "wielandt_gumus"),
                         ("refined", "wielandt_refined")):
        problems[tid] = _Problem(wop_windows(variant), wop_init(variant),
                                 wop_eval(variant), min_dim=2)

    def choi_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, _plain(p), rng)

    def choi_eval(state, dim, classical, tol):
        rec = check_choi_record(identity_map(dim), _spd(state, "a"), tol)
        return _ratio(rec, classical)

    problems["choi"] = _Problem(plain_windows, choi_init, choi_eval)

    def norm_windows(dim, p, classical):
        return {"a": _plain(p), "b": _plain(p)}

    def norm_init(state, dim, p, rng, classical):
        _add_spd(state, "a", dim, _plain(p), rng)
        _add_spd(state, "b", dim, _plain(p), rng)

    def norm_eval(state, dim, classical, tol):
        rec = check_norm_amgm_record(_spd(state, "a"), _spd(state, "b"), tol)
        return _ratio(rec, classical)

    problems["norm_amgm"] = _Problem(norm_windows, norm_init, norm_eval)
    return problems


_PROBLEMS = _build_problems()


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


def _fresh_state(params) -> dict:
    return {"params": params, "spectra": {}, "windows": {}, "frames": {},
            "vectors": {}, "scalars": {}, "boxes": {}, "memo": {}}


def _givens(size: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(size)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _propose(problem, state, dim, box, regime, classical, delta, rng):
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
        lo, hi = state["boxes"][name]
        factor = 1.0 + delta if rng.random() < 0.5 else 1.0 - delta
        new["scalars"] = {**scalars, name: min(max(scalars[name] * factor, lo), hi)}
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
        windows = problem.windows(dim, candidate, classical)
        new["params"] = candidate
        new["windows"] = windows
        spectra = {}
        for name, vals in state["spectra"].items():
            clipped = np.clip(vals, windows[name].lo, windows[name].hi)
            # Share what the new window leaves alone, so its memo entries hold.
            spectra[name] = vals if np.array_equal(clipped, vals) else clipped
        new["spectra"] = spectra
    return new


def _safe_eval(problem, state, dim, classical, tol):
    try:
        return problem.evaluate(state, dim, classical, tol)
    except (InfeasibleRegime, NotPositiveDefinite):
        return -math.inf


def _snapshot(state: dict) -> dict:
    return {
        "params": state["params"].as_dict(),
        "spectra": {k: [float(x) for x in np.sort(v)] for k, v in state["spectra"].items()},
        "frames": {k: v.tolist() for k, v in state["frames"].items()},
        "vectors": {k: v.tolist() for k, v in state["vectors"].items()},
        "scalars": {k: float(v) for k, v in state["scalars"].items()},
    }


def _run_restart(problem, theorem_id, dim, box, regime, classical, tol, budget, seed):
    rng = np.random.default_rng(seed)
    params = _draw_params(box, regime, rng)
    state = _fresh_state(params)
    problem.init(state, dim, params, rng, classical)
    state["windows"] = problem.windows(dim, params, classical)
    best_ratio = _safe_eval(problem, state, dim, classical, tol)
    best_state = state
    used = 1
    if budget > 1:
        decay = (_DELTA_END / _DELTA_START) ** (1.0 / max(budget - 1, 1))
    else:
        decay = 1.0
    delta = _DELTA_START
    while used < budget:
        candidate = _propose(problem, best_state, dim, box, regime, classical, delta, rng)
        used += 1
        if candidate is not None:
            ratio = _safe_eval(problem, candidate, dim, classical, tol)
            if ratio > best_ratio:
                best_ratio = ratio
                best_state = candidate
        delta = max(delta * decay, _DELTA_END)
    return best_ratio, _snapshot(best_state), used


def maximize_ratio(theorem_id: str, box, budget: int = DEFAULT_BUDGET,
                   rng=None, dim: int = 2, classical: bool = False,
                   tol: float = DEFAULT_TOL) -> SearchResult:
    """Hill-climb the attained ratio for one bound inside a param box.

    box maps parameter names (m, m_prime, M_prime, M) to a scalar or a
    (lo, hi) range; m and M are required. Returns a SearchResult that
    unpacks as (best instance, best ratio). classical=True targets the
    unrefined constant (and, for the Kantorovich family, the plain
    spectral window where its equality cases live).

    The budget is split over max(1, budget // 2000) restarts. They run in
    sequence, each from its own seed drawn from ``rng`` (a Generator, an
    int seed, or None for seed 0), so a seed fixes the result.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not 1 <= dim <= SEARCH_DIM_CAP:
        raise ValueError(f"search dims are capped at {SEARCH_DIM_CAP}, got {dim}")
    problem = _PROBLEMS[theorem_id]
    if dim < problem.min_dim:
        raise ValueError(f"{theorem_id} needs dim >= {problem.min_dim}, got {dim}")
    norm_box = _normalize_box(box)
    regime = REGIME_FOR_THEOREM[theorem_id]
    if classical and theorem_id in _CLASSICAL_PLAIN:
        regime = RegimeId.PLAIN
    mid = BoundParams(**{k: 0.5 * (lo + hi) for k, (lo, hi) in norm_box.items()})
    require_feasible(regime, mid)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(0 if rng is None else int(rng))

    restarts = max(1, budget // _EVALS_PER_RESTART)
    base, extra = divmod(budget, restarts)
    allocations = [base + (1 if i < extra else 0) for i in range(restarts)]
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=restarts)]

    outcomes = [_run_restart(problem, theorem_id, dim, norm_box, regime, classical,
                             tol, allocation, seed)
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
