import dataclasses
import hashlib
import json
import math

import pytest

import numpy as np

from opineq import (
    THEOREM_IDS,
    THEOREMS,
    BoundParams,
    InfeasibleRegime,
    NotPositiveDefinite,
    SpdMatrix,
    check_kantorovich_refined,
    check_lemma_refined_amgm,
    check_polya_szego_refined,
    compare_bounds,
    identity_map,
    make_spd,
    maximize_ratio,
    regime_feasible,
)
from opineq import search
from opineq.inequalities import first_values, snapshot
from oracles import big_k, kappa
from reference import lone_ratio

# Feasible search boxes, one per theorem.
BOXES = {
    "scalar_amgm": {"m": 0.5, "M": 4.0},
    "lemma_amgm": {"m": (1.5, 3.0), "M": 5.0},
    "kantorovich": {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0},
    "kantorovich_product": {"m": 1.0, "m_prime": (1.5, 2.5), "M": 8.0},
    "holder_mccarthy": {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0},
    "square_order": {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0},
    "polya_szego": {"m": 1.0, "m_prime": (1.5, 2.5), "M": 8.0},
    "isometry_family": {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0},
    "lin_squared_mapped": {"m": 1.0, "m_prime": 2.0, "M_prime": 3.0, "M": 4.0},
    "lin_squared_means": {"m": 1.0, "m_prime": 2.0, "M_prime": 3.0, "M": 4.0},
    "lin_chain": {"m": 1.0, "m_prime": 2.0, "M_prime": 3.0, "M": 4.0},
    "wielandt_scalar": {"m": 1.0, "M": 4.0},
    "wielandt_bhatia_davis": {"m": 1.5, "M": 4.0},
    "wielandt_gumus": {"m": 1.5, "M": 4.0},
    "wielandt_refined": {"m": 1.5, "m_prime": 4.0, "M": 4.0},
    "choi": {"m": 0.5, "M": 4.0},
    "norm_amgm": {"m": 0.5, "M": 4.0},
}


# The benchmark's three search jobs at budget 4000 and seed 42, with the
# ratio, the instance's sha256 and each restart's accepted moves. Each
# restart draws its own seed from the caller's generator, so these values
# pin the whole hill-climb: every proposal, evaluation and acceptance.
GOLDEN_JOBS = {
    "kantorovich": (dict(box={"m": 1.0, "M": 4.0}, dim=2, classical=True),
                    "0x1.ffffffffff2a4p-1",
                    "c2bafbfc603274fbd52c4e15b4f4752574aac74ac84e5021d96fbfc96c6457a6",
                    (25, 12)),
    "polya_szego": (dict(box={"m": 1.0, "m_prime": 2.0, "M": 8.0}, dim=4),
                    "0x1.55239c6610afbp-1",
                    "2ffe63b42ac90113b1d43a11fec3862ee9700b236faa60cdd42ef9bf4ec046b5",
                    (13, 10)),
    "lemma_amgm": (dict(box={"m": (3.0, 4.0), "M": (8.0, 9.0)}, dim=8),
                   "0x1.fdaba1b7232a9p-1",
                   "f2d274c60d15ccaa8627dc6b228dc301b28132fb90a18b3fccda202a5ea8c796",
                   (3, 6)),
}

# Each golden job's rows scored per restart, speculative rows included:
# 4,883, 4,304 and 4,090 rows for 4,000 evaluations.
GOLDEN_SCORED = {
    "kantorovich": (2679, 2204),
    "polya_szego": (2215, 2089),
    "lemma_amgm": (2066, 2024),
}


def test_boxes_cover_catalog():
    assert tuple(BOXES) == THEOREM_IDS


def test_classical_kantorovich_search_approaches_equality():
    result = maximize_ratio("kantorovich", {"m": 1.0, "M": 4.0}, budget=6000,
                            rng=0, dim=2, classical=True)
    assert result.ratio >= 0.999
    assert result.ratio <= 1.0 + 1e-8
    assert result.classical


def test_degenerate_scalar_box_is_immediately_tight():
    result = maximize_ratio("scalar_amgm", {"m": 2.0, "M": 2.0}, budget=40, rng=1)
    assert result.ratio == pytest.approx(1.0, abs=1e-14)


# ratio.hex() of every BOXES search at budget 250, rng 9, dim 2, refined
# and, for the bounds whose classical search moves onto the plain window,
# classical.
SMALL_GOLDEN = {
    ("scalar_amgm", False): "0x1.0000000000002p+0",
    ("lemma_amgm", False): "0x1.ffe9cb0b0e979p-1",
    ("kantorovich", False): "0x1.125f05f8e2a53p-1",
    ("kantorovich_product", False): "0x1.30ff8b03c912bp-1",
    ("holder_mccarthy", False): "0x1.0f22469bfbc6bp-1",
    ("square_order", False): "0x1.d183e14da1d26p-2",
    ("polya_szego", False): "0x1.6395fc7db2579p-1",
    ("isometry_family", False): "0x1.5922020b3b555p-1",
    ("lin_squared_mapped", False): "0x1.554943d6769cbp-1",
    ("lin_squared_means", False): "0x1.554943d6769c4p-1",
    ("lin_chain", False): "0x1.0000000000003p+0",
    ("wielandt_scalar", False): "0x1.ffffffdc73eb9p-1",
    ("wielandt_bhatia_davis", False): "0x1.ffffffd3eee8bp-1",
    ("wielandt_gumus", False): "0x1.c80cea65370bdp-1",
    ("wielandt_refined", False): "0x1.bef1ada1d394ap-4",
    ("choi", False): "0x1.0000000000010p+0",
    ("norm_amgm", False): "0x1.ffffffff03f26p-1",
    ("kantorovich", True): "0x1.fffffffd3c5c6p-1",
    ("holder_mccarthy", True): "0x1.682dbf8ab6748p-1",
    ("kantorovich_product", True): "0x1.ffffffeea95d0p-1",
}


def test_search_never_exceeds_one_plus_tol():
    for (theorem_id, classical), ratio_hex in SMALL_GOLDEN.items():
        result = maximize_ratio(theorem_id, BOXES[theorem_id], budget=250, rng=9, dim=2,
                                classical=classical)
        assert result.ratio <= 1.0 + 1e-8, theorem_id
        assert result.evaluations == 250
        assert result.ratio.hex() == ratio_hex, (theorem_id, classical)


def test_search_is_deterministic():
    first = maximize_ratio("lemma_amgm", BOXES["lemma_amgm"], budget=800, rng=4, dim=3)
    second = maximize_ratio("lemma_amgm", BOXES["lemma_amgm"], budget=800, rng=4, dim=3)
    assert first.ratio == second.ratio
    assert first.instance == second.instance


def test_multi_restart_search_is_deterministic():
    kwargs = dict(budget=4200, rng=8, dim=2, classical=True)
    first = maximize_ratio("kantorovich", {"m": 1.0, "M": 4.0}, **kwargs)
    second = maximize_ratio("kantorovich", {"m": 1.0, "M": 4.0}, **kwargs)
    assert first.restarts > 1
    assert first.ratio == second.ratio
    assert first.instance == second.instance


def _assert_golden(theorem_id):
    kwargs, ratio_hex, instance_sha256, accepted = GOLDEN_JOBS[theorem_id]
    result = maximize_ratio(theorem_id, budget=4000, rng=42, tol=1e-8, **kwargs)
    assert result.ratio.hex() == ratio_hex
    assert (result.evaluations, result.restarts) == (4000, 2)
    assert result.accepted == accepted
    assert result.scored == GOLDEN_SCORED[theorem_id]
    # json.dumps writes floats by repr, which round-trips every bit.
    dumped = json.dumps(result.instance, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == instance_sha256


@pytest.mark.parametrize("theorem_id", list(GOLDEN_JOBS))
def test_search_is_bit_exact_on_golden_jobs(theorem_id):
    _assert_golden(theorem_id)


@pytest.mark.parametrize("theorem_id", list(GOLDEN_JOBS))
def test_search_scores_state_by_state_when_a_block_raises(theorem_id, monkeypatch):
    calls = []
    evaluate = THEOREMS[theorem_id].evaluate

    def refuse(view, tol):
        # Blocks of more than one state raise; each state alone is scored.
        calls.append(len(view.spectra["a"]))
        if calls[-1] > 1:
            raise NotPositiveDefinite("stacked evaluation refused")
        return evaluate(view, tol)

    spec = dataclasses.replace(THEOREMS[theorem_id], evaluate=refuse)
    monkeypatch.setitem(THEOREMS, theorem_id, spec)
    _assert_golden(theorem_id)
    assert calls and max(calls) == search._BLOCK_CAP


def _givens(size, i, j, theta):
    g = np.eye(size)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _reference_propose(spec, state, dim, box, regime, classical, delta, rng):
    """One proposal as the one-at-a-time search drew and applied it."""
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
    new = dict(state)

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
            candidate = dataclasses.replace(state["params"], **{key: moved})
        except ValueError:
            return None
        if not regime_feasible(regime, candidate)[0]:
            return None
        windows = search._windows(spec.space(dim, candidate, classical))
        new["params"] = candidate
        new["windows"] = windows
        new["spectra"] = {name: np.clip(vals, windows[name].lo, windows[name].hi)
                          for name, vals in state["spectra"].items()}
    return new


def _reference_restart(spec, dim, box, regime, classical, tol, budget, seed):
    """One restart of the one-at-a-time search: propose, score, keep it if it gains.

    Returns (ratio, instance, evaluations, accepted moves, states scored).
    """
    rng = np.random.default_rng(seed)
    params = search._draw_params(box, regime, rng)
    space = spec.space(dim, params, classical)
    state = first_values(space, params, dim, rng)
    state["windows"] = search._windows(space)
    best_ratio = lone_ratio(spec, state, dim, classical, tol)
    best_state = state
    used = scored = 1
    accepted = 0
    if budget > 1:
        decay = (search._DELTA_END / search._DELTA_START) ** (1.0 / max(budget - 1, 1))
    else:
        decay = 1.0
    delta = search._DELTA_START
    while used < budget:
        candidate = _reference_propose(spec, best_state, dim, box, regime, classical, delta,
                                       rng)
        used += 1
        if candidate is not None:
            scored += 1
            ratio = lone_ratio(spec, candidate, dim, classical, tol)
            if ratio > best_ratio:
                best_ratio = ratio
                best_state = candidate
                accepted += 1
        delta = max(delta * decay, search._DELTA_END)
    return best_ratio, snapshot(best_state), used, accepted, scored


# Every SMALL_GOLDEN job, the multi-restart kantorovich job, and boxes with
# free parameters, where parameter moves give block rows their own params.
REFERENCE_JOBS = [
    *((theorem_id, dict(box=BOXES[theorem_id], budget=250, rng=9, dim=2, classical=classical))
      for theorem_id, classical in SMALL_GOLDEN),
    ("kantorovich", dict(box={"m": 1.0, "M": 4.0}, budget=4200, rng=8, dim=2, classical=True)),
    ("polya_szego", dict(box={"m": 1.0, "m_prime": (1.5, 3.0), "M": 8.0}, budget=1000, rng=5,
                         dim=3)),
    ("kantorovich", dict(box={"m": 1.0, "m_prime": (1.2, 1.8), "M": (7.0, 8.0)}, budget=1000,
                         rng=6, dim=2)),
    ("wielandt_refined", dict(box={"m": 1.5, "m_prime": (3.0, 4.0), "M": 4.0}, budget=1000,
                              rng=7, dim=2)),
    # Parameter moves over two spectra at the largest benchmark dim.
    ("lemma_amgm", dict(box={"m": (3.0, 4.0), "M": (8.0, 9.0)}, budget=300, rng=11, dim=8)),
]


@pytest.mark.parametrize("theorem_id, kwargs", REFERENCE_JOBS)
def test_block_search_keeps_what_the_one_at_a_time_search_keeps(theorem_id, kwargs,
                                                                 monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(search, "_run_restart", _reference_restart)
        want = maximize_ratio(theorem_id, **kwargs)

    def unscored(*args):
        raise AssertionError("a stacked block raised and was scored state by state")

    # No row of these jobs makes a stacked evaluator raise.
    monkeypatch.setattr(search, "_lone_ratio", unscored)
    for cap in (1, 2, 64):
        monkeypatch.setattr(search, "_BLOCK_CAP", cap)
        got = maximize_ratio(theorem_id, **kwargs)
        assert got.ratio.hex() == want.ratio.hex(), (theorem_id, cap)
        assert got.instance == want.instance, (theorem_id, cap)
        assert (got.evaluations, got.restarts, got.accepted) == (
            want.evaluations, want.restarts, want.accepted), (theorem_id, cap)
        # Blocks of one speculate on nothing: they score what the reference scores.
        if cap == 1:
            assert got.scored == want.scored, theorem_id
        assert all(g >= w for g, w in zip(got.scored, want.scored)), (theorem_id, cap)


# Boxes whose states have every kind of move between them: kantorovich a
# spectrum, a frame, a vector and a parameter; polya_szego a scalar too;
# lemma_amgm two spectra and an m that can leave the relative regime
# (1 < m); wielandt_scalar a frame variable that is no matrix's.
BUILDER_CASES = [
    ("kantorovich", {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0}),
    ("polya_szego", {"m": 1.0, "m_prime": (1.5, 2.5), "M": 8.0}),
    ("lemma_amgm", {"m": (1.0, 1.05), "M": (8.0, 9.0)}),
    ("wielandt_scalar", {"m": 1.0, "M": 4.0}),
]


def _assert_same_state(got, want, label):
    assert got["params"] == want["params"], label
    assert got["windows"] == want["windows"], label
    for group in ("spectra", "frames", "vectors"):
        assert got[group].keys() == want[group].keys(), label
        for name, value in want[group].items():
            assert got[group][name].dtype == value.dtype, (label, name)
            assert got[group][name].shape == value.shape, (label, name)
            assert got[group][name].tobytes() == value.tobytes(), (label, name)
    assert {k: v.hex() for k, v in got["scalars"].items()} == {
        k: v.hex() for k, v in want["scalars"].items()}, label


@pytest.mark.parametrize("dim", (2, 3, 8))
def test_each_block_row_is_its_move_applied_alone(dim):
    kinds, dead = set(), 0
    for theorem_id, box in BUILDER_CASES:
        spec = THEOREMS[theorem_id]
        box = search._normalize_box(box)
        for seed in range(3):
            rng = np.random.default_rng([seed, dim])
            params = search._draw_params(box, spec.regime, rng)
            space = spec.space(dim, params, False)
            best = first_values(space, params, dim, rng)
            best["windows"] = search._windows(space)
            count = 64
            moves = search._draw_moves(best, box, count, np.random.default_rng(seed))
            block, live = search._candidates(spec, best, moves, dim, box, spec.regime, False)
            assert len(block.rows) == len(live)
            # The reference draws each move as it applies it, on the same schedule.
            replay = np.random.default_rng(seed)
            decay = (search._DELTA_END / search._DELTA_START) ** (1.0 / count)
            delta = search._DELTA_START
            for index, move in enumerate(moves):
                want = _reference_propose(spec, best, dim, box, spec.regime, False, delta,
                                          replay)
                delta = max(delta * decay, search._DELTA_END)
                label = (theorem_id, seed, index, move[:2])
                kinds.add(move[0])
                if want is None:
                    assert move[0] == "param" and index not in live, label
                    dead += 1
                    continue
                got = block.state(live.index(index))
                _assert_same_state(got, want, label)
                if move[0] != "param":
                    assert got["params"] is best["params"], label
    assert kinds == {"spectrum", "frame", "vector", "scalar", "param"}
    assert dead


def _rebuild(instance, name):
    return SpdMatrix.from_eigh(instance["spectra"][name], instance["frames"][name])


def _recheck(result):
    """The ratio of the matrices rebuilt from a result's instance alone."""
    instance = result.instance
    p = BoundParams(**instance["params"])
    a = _rebuild(instance, "a")
    if result.theorem_id == "kantorovich":
        x = np.asarray(instance["vectors"]["x"])
        rec = check_kantorovich_refined(a, x, p.m, p.m_prime, p.M, validate=False)
    elif result.theorem_id == "lemma_amgm":
        root = a.sqrt().entries
        b = make_spd(root @ _rebuild(instance, "c").entries @ root)
        rec = check_lemma_refined_amgm(a, b, p.m, validate=False)
    else:
        t = instance["scalars"]["t"]
        b = SpdMatrix.from_eigh((1.0 - t) * p.m_prime * a.eigenvalues + t * p.M,
                                a.eigenvectors)
        rec = check_polya_szego_refined(identity_map(result.dim), a, b, p, validate=False)
    return rec.ratio * rec.improvement_ratio if result.classical else rec.ratio


@pytest.mark.parametrize("theorem_id, kwargs, seeds", [
    ("kantorovich", dict(box={"m": 1.0, "M": 4.0}, dim=4, classical=True), range(6)),
    ("lemma_amgm", dict(box=BOXES["lemma_amgm"], dim=3), range(3)),
    ("polya_szego", dict(box=BOXES["polya_szego"], dim=3), range(3)),
])
def test_search_instance_rebuilds_the_reported_ratio(theorem_id, kwargs, seeds):
    for seed in seeds:
        result = maximize_ratio(theorem_id, budget=50, rng=seed, **kwargs)
        assert _recheck(result) == result.ratio, (theorem_id, seed)


def test_search_result_unpacks():
    result = maximize_ratio("choi", BOXES["choi"], budget=60, rng=2, dim=2)
    instance, ratio = result
    assert ratio == result.ratio
    assert instance["theorem_id"] == "choi"
    assert instance["dim"] == 2
    assert set(instance["params"]) == {"m", "m_prime", "M_prime", "M"}


def test_wielandt_refined_stays_well_inside_its_bound():
    result = maximize_ratio("wielandt_refined", BOXES["wielandt_refined"],
                            budget=1500, rng=3, dim=2)
    assert result.ratio < 0.5


def test_search_argument_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        maximize_ratio("nope", {"m": 1.0, "M": 2.0})
    for budget in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="budget must be an integer >= 1"):
            maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=budget)
    for dim in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="dim must be an integer"):
            maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=10, dim=dim)
    with pytest.raises(ValueError, match="capped"):
        maximize_ratio("choi", {"m": 1.0, "M": 2.0}, dim=9)
    with pytest.raises(ValueError, match="dim >= 2"):
        maximize_ratio("wielandt_scalar", {"m": 1.0, "M": 2.0}, dim=1)
    with pytest.raises(ValueError, match="box"):
        maximize_ratio("choi", {}, budget=10)
    with pytest.raises(ValueError, match="'m' and 'M'"):
        maximize_ratio("choi", {"m": 1.0}, budget=10)
    with pytest.raises(ValueError, match="unknown box key"):
        maximize_ratio("choi", {"m": 1.0, "M": 2.0, "q": 3.0}, budget=10)
    with pytest.raises(ValueError, match="0 < lo <= hi"):
        maximize_ratio("choi", {"m": (2.0, 1.0), "M": 4.0}, budget=10)
    for value in ((1.0, 2.0, 3.0), (1.0,), (), True, np.bool_(True), "1", (True, 2.0),
                  [1.0, "2"], None):
        with pytest.raises(ValueError, match="box value for 'm' must be a real number"):
            maximize_ratio("choi", {"m": value, "M": 4.0}, budget=10)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=10, tol=tol)
    for seed in (-1, True):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=10, rng=seed)


def test_search_rejects_bool_and_non_real_tolerances():
    # A bool is an int, and a string or None fails the comparison itself.
    for tol in (True, False, np.bool_(True), "1e-8", None, 1e-8j):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=10, tol=tol)
    assert maximize_ratio("choi", {"m": 1.0, "M": 2.0}, budget=10, tol=np.float32(1e-8))


def test_search_rejects_infeasible_box():
    with pytest.raises(InfeasibleRegime):
        maximize_ratio("kantorovich", {"m": 3.0, "m_prime": 2.0, "M": 4.0}, budget=10)


def test_compare_bounds_zero_improvement_without_refinement():
    table = compare_bounds([BoundParams(m=1.0, m_prime=1.0, M_prime=1.0, M=4.0)])
    for row in table.rows:
        assert row.improvement_percent == pytest.approx(0.0, abs=1e-12)
        assert row.refined == pytest.approx(row.classical)


def test_compare_bounds_kantorovich_improvement_at_e_squared():
    e2 = math.e ** 2
    table = compare_bounds([{"m": 1.0, "m_prime": e2, "M_prime": e2, "M": 10.0}])
    kant = next(r for r in table.rows if r.family == "kantorovich")
    assert kant.refined / kant.classical == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert kant.classical == pytest.approx(big_k(10.0))


def test_compare_bounds_divisor_value_at_four():
    table = compare_bounds([BoundParams(m=1.0, m_prime=4.0, M_prime=4.0, M=4.0)])
    kant = next(r for r in table.rows if r.family == "kantorovich")
    assert kant.classical / kant.refined == pytest.approx(1.538162, abs=1e-6)
    assert kant.classical / kant.refined == pytest.approx(kappa(4.0) ** 2, abs=1e-12)


def test_compare_bounds_monotone_in_the_argument():
    grid = [BoundParams(m=1.0, m_prime=mp, M_prime=3.0, M=4.0)
            for mp in (1.5, 2.0, 3.0)]
    table = compare_bounds(grid)
    assert all(table.monotone.values())
    kant_rows = sorted((r for r in table.rows if r.family == "kantorovich"),
                       key=lambda r: r.argument)
    assert kant_rows[0].refined > kant_rows[1].refined > kant_rows[2].refined
    lin_rows = sorted((r for r in table.rows if r.family == "lin_squared"),
                      key=lambda r: r.argument)
    assert [r.argument for r in lin_rows] == [1.0, 1.5, 2.0]
    assert lin_rows[0].refined > lin_rows[1].refined > lin_rows[2].refined


def test_compare_bounds_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        compare_bounds([])
