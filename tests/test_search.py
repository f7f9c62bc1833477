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
from opineq import search, stacked
from opineq.inequalities import instance_view
from opineq.inequalities import snapshot as view_snapshot
from oracles import big_k, kappa
from reference import draw_view, lone_ratio, search_block, snapshot, state_of

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
                    "0x1.ffffffffffd91p-1",
                    "a29cb185854065f490cb16fa64f9cb1e7ed2f4925828c0a45021e17f8520c396",
                    (16, 15)),
    "polya_szego": (dict(box={"m": 1.0, "m_prime": 2.0, "M": 8.0}, dim=4),
                    "0x1.55239c6610ab6p-1",
                    "d6338f7fdfebc124621eb759c2c6af6f3f05e944fcf8951b90b561e6b9a4db9c",
                    (6, 3)),
    "lemma_amgm": (dict(box={"m": (3.0, 4.0), "M": (8.0, 9.0)}, dim=8),
                   "0x1.fdaba1b723291p-1",
                   "638f900a7cb751fd0da763916778f5d9bfd402dec3ee8875110fca4d43295918",
                   (6, 6)),
}

# Each golden job's rows scored per restart, speculative rows included:
# 5,229, 4,387 and 4,144 rows for 4,000 evaluations.
GOLDEN_SCORED = {
    "kantorovich": (2671, 2558),
    "polya_szego": (2373, 2014),
    "lemma_amgm": (2118, 2026),
}

# Each golden job's blocks (stacked evaluations) per restart, the first
# state's included: 79, 40 and 65 in all.
GOLDEN_BLOCKS = {
    "kantorovich": (40, 39),
    "polya_szego": (22, 18),
    "lemma_amgm": (34, 31),
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
    ("scalar_amgm", False): "0x1.0000000000001p+0",
    ("lemma_amgm", False): "0x1.ffe9cb0b0e971p-1",
    ("kantorovich", False): "0x1.070b13107c51dp-1",
    ("kantorovich_product", False): "0x1.2363f0b6dd8f5p-1",
    ("holder_mccarthy", False): "0x1.039e46f8770bcp-1",
    ("square_order", False): "0x1.d4c7a0192cca6p-2",
    ("polya_szego", False): "0x1.6395fc7db256ep-1",
    ("isometry_family", False): "0x1.5c172d6b331d7p-1",
    ("lin_squared_mapped", False): "0x1.554943d76d6f9p-1",
    ("lin_squared_means", False): "0x1.554943d76d6f9p-1",
    ("lin_chain", False): "0x1.0000000000003p+0",
    ("wielandt_scalar", False): "0x1.f02320aa327ddp-1",
    ("wielandt_bhatia_davis", False): "0x1.ec7af740206edp-1",
    ("wielandt_gumus", False): "0x1.b6a9f0b237d76p-1",
    ("wielandt_refined", False): "0x1.bef1ada75c454p-4",
    ("choi", False): "0x1.000000000000ap+0",
    ("norm_amgm", False): "0x1.ffffffff2b481p-1",
    ("kantorovich", True): "0x1.ffffffef806a2p-1",
    ("holder_mccarthy", True): "0x1.51c9c2a787493p-1",
    ("kantorovich_product", True): "0x1.ffffffe8994f4p-1",
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
    assert result.blocks == GOLDEN_BLOCKS[theorem_id]
    # json.dumps writes floats by repr, which round-trips every bit.
    dumped = json.dumps(result.instance, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == instance_sha256


@pytest.mark.parametrize("theorem_id", list(GOLDEN_JOBS))
def test_search_is_bit_exact_on_golden_jobs(theorem_id):
    _assert_golden(theorem_id)


ROUND_TRIP_JOBS = [
    *((theorem_id, dict(box=BOXES[theorem_id], budget=250, rng=9, dim=2, classical=classical))
      for theorem_id, classical in SMALL_GOLDEN),
    *((theorem_id, dict(budget=4000, rng=42, tol=1e-8, **kwargs))
      for theorem_id, (kwargs, *_) in GOLDEN_JOBS.items()),
]


@pytest.mark.parametrize("theorem_id, kwargs", ROUND_TRIP_JOBS)
def test_search_instances_round_trip_through_instance_view(theorem_id, kwargs):
    # A result's instance is the snapshot of a one-row view, and instance_view
    # reads it back: the same values, and the same ratio bit for bit.
    result = maximize_ratio(theorem_id, **kwargs)
    instance = result.instance
    view = instance_view(instance, THEOREMS[theorem_id])
    assert (view.dim, view.classical) == (result.dim, result.classical)
    assert view_snapshot(view, 0) == {key: value for key, value in instance.items()
                                      if key not in ("theorem_id", "ratio")}
    rows = THEOREMS[theorem_id].evaluate(view, kwargs.get("tol", 1e-8))
    ratios = rows.ratio * rows.improvement if result.classical else rows.ratio
    assert max(np.ravel(ratios).tolist()).hex() == result.ratio.hex()


# (eigh, cholesky, inv) calls of each golden job's box at budget 300 and seed 42.
# A stack is factored by one Cholesky on first need, so only the stacks a mean
# or ratio factors make one. A geometric mean and a Loewner ratio each invert
# one factor, and the only eigh per mean is its inner square root's: one per
# polya_szego block, whose target Phi(A#B) under the identity is its mean
# Phi(A)#Phi(B) itself, and one per lemma_amgm block. No order verdict or side makes one.
BLOCK_LINALG = {"kantorovich": (0, 0, 0), "polya_szego": (15, 30, 30),
                "lemma_amgm": (15, 30, 30)}


@pytest.mark.parametrize("theorem_id", list(GOLDEN_JOBS))
def test_search_blocks_decompose_only_for_the_ratio(theorem_id, linalg_calls):
    # A block reads only its rows' ratios, so no order verdict is decomposed:
    # one eigvalsh per block for the Loewner ratio, none for a scalar bound.
    kwargs = GOLDEN_JOBS[theorem_id][0]
    result = maximize_ratio(theorem_id, budget=300, rng=42, **kwargs)
    ratio_calls = 0 if kwargs.get("classical") else sum(result.blocks)
    assert linalg_calls["eigvalsh"] == ratio_calls
    assert (linalg_calls["eigh"], linalg_calls["cholesky"], linalg_calls["inv"]) == \
        BLOCK_LINALG[theorem_id]


# Each golden job's largest block: stacked.stack_rows(dim) at dims 4 and 8. At
# dim 2 a restart's 2,000 evaluations never fill a block of stack_rows(2) = 2048.
LARGEST_BLOCK = {"kantorovich": 512, "polya_szego": 512, "lemma_amgm": 128}


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
    assert calls and max(calls) == LARGEST_BLOCK[theorem_id]
    assert max(calls) <= stacked.stack_rows(GOLDEN_JOBS[theorem_id][0]["dim"])


def _givens(size, i, j, theta):
    g = np.eye(size)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _reference_moves(state, box, count, dim, rng):
    """A restart's ``count`` moves, drawn field by field in the search's documented order.

    Each field is one generator call over all moves: the kind, the
    variable within it, a spectrum entry, a frame's Givens pair (i, then
    j from size - 1 shifted past i), the sign and a Gaussian row per move
    for vector noise. Returns one (kind, name, entry, i, j, plus, noise)
    per move, with i < j.
    """
    groups = [("spectrum", sorted(state["spectra"])),
              ("frame", sorted(k for k, f in state["frames"].items() if f.shape[0] >= 2)),
              ("vector", sorted(state["vectors"])),
              ("scalar", sorted(state["scalars"])),
              ("param", [k for k, (lo, hi) in box.items() if lo < hi])]
    groups = [(kind, names) for kind, names in groups if names]
    kinds = rng.integers(0, len(groups), count).tolist()
    picks = rng.integers(0, [len(groups[k][1]) for k in kinds]).tolist()
    moves = [(groups[k][0], groups[k][1][v]) for k, v in zip(kinds, picks)]
    entries = rng.integers(0, [state["spectra"][name].size if kind == "spectrum" else 1
                               for kind, name in moves]).tolist()
    sizes = [state["frames"][name].shape[0] if kind == "frame" else 2 for kind, name in moves]
    firsts = rng.integers(0, sizes).tolist()
    seconds = rng.integers(0, [size - 1 for size in sizes]).tolist()
    plus = (rng.random(count) < 0.5).tolist()
    noise = rng.standard_normal((count, dim)) if state["vectors"] else [None] * count
    out = []
    for (kind, name), entry, i, j, sign, row in zip(moves, entries, firsts, seconds, plus, noise):
        if j >= i:
            j += 1
        out.append((kind, name, entry, min(i, j), max(i, j), sign, row))
    return out


def _reference_propose(spec, state, dim, box, regime, classical, delta, move):
    """One drawn move applied to one state, as the one-at-a-time search applies it."""
    kind, name, entry, i, j, plus, noise = move
    factor = 1.0 + delta if plus else 1.0 - delta
    new = dict(state)
    if kind == "spectrum":
        vals = state["spectra"][name].copy()
        window = state["windows"][name]
        vals[entry] = min(max(vals[entry] * factor, window.lo), window.hi)
        new["spectra"] = {**state["spectra"], name: vals}
    elif kind == "frame":
        f = state["frames"][name]
        rotated = f @ _givens(f.shape[0], i, j, delta if plus else -delta)
        q, r = np.linalg.qr(rotated)
        new["frames"] = {**state["frames"], name: q * np.sign(np.diag(r))}
    elif kind == "vector":
        v = state["vectors"][name] + delta * noise
        new["vectors"] = {**state["vectors"], name: v / np.linalg.norm(v)}
    elif kind == "scalar":
        window = state["windows"][name]
        new["scalars"] = {**state["scalars"], name: min(max(state["scalars"][name] * factor,
                                                            window.lo), window.hi)}
    else:
        lo, hi = box[name]
        moved = min(max(getattr(state["params"], name) * factor, lo), hi)
        # The box's own keys: a parameter it omits takes its default again.
        candidate = BoundParams(**{key: moved if key == name else getattr(state["params"], key)
                                   for key in box})
        if not regime_feasible(regime, candidate)[0]:
            return None
        windows = search._windows(spec.space(dim, candidate, classical))
        new["params"] = candidate
        new["windows"] = windows
        new["spectra"] = {var: np.clip(vals, windows[var].lo, windows[var].hi)
                          for var, vals in state["spectra"].items()}
    return new


def _reference_deltas(count):
    """The step of each of ``count`` moves, decaying geometrically as one multiplication each."""
    decay = (search._DELTA_END / search._DELTA_START) ** (1.0 / max(count, 1))
    delta = search._DELTA_START
    for _ in range(count):
        yield delta
        delta = max(delta * decay, search._DELTA_END)


def _reference_restart(spec, dim, box, regime, classical, tol, budget, seed):
    """One restart of the one-at-a-time search: propose, score, keep it if it gains.

    Returns (ratio, instance, evaluations, accepted moves, states scored,
    blocks): each scored state is a block of one.
    """
    rng = np.random.default_rng(seed)
    params = search._draw_params(box, regime, rng)
    space = spec.space(dim, params, classical)
    state = state_of(draw_view(space, params, dim, rng))
    state["windows"] = search._windows(space)
    moves = _reference_moves(state, box, budget - 1, dim, rng)
    best_ratio = lone_ratio(spec, state, dim, classical, tol)
    best_state = state
    scored = 1
    accepted = 0
    for move, delta in zip(moves, _reference_deltas(budget - 1)):
        candidate = _reference_propose(spec, best_state, dim, box, regime, classical, delta,
                                       move)
        if candidate is not None:
            scored += 1
            ratio = lone_ratio(spec, candidate, dim, classical, tol)
            if ratio > best_ratio:
                best_ratio = ratio
                best_state = candidate
                accepted += 1
    instance = {"dim": dim, "classical": classical, **snapshot(best_state)}
    return best_ratio, instance, budget, accepted, scored, scored


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
    dim = kwargs["dim"]
    for cap in (1, 2, 64, stacked.stack_rows(dim)):
        # An element budget of cap rows of dim x dim operands caps a block at cap rows.
        monkeypatch.setattr(stacked, "_STACK_ELEMENTS", cap * dim * dim)
        got = maximize_ratio(theorem_id, **kwargs)
        assert got.ratio.hex() == want.ratio.hex(), (theorem_id, cap)
        assert got.instance == want.instance, (theorem_id, cap)
        assert (got.evaluations, got.restarts, got.accepted) == (
            want.evaluations, want.restarts, want.accepted), (theorem_id, cap)
        # Blocks of one speculate on nothing: they score what the reference scores.
        if cap == 1:
            assert (got.scored, got.blocks) == (want.scored, want.blocks), theorem_id
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
    """A one-row view holds the state ``want``, value for value and bit for bit."""
    assert got.params == want["params"], label
    for group in ("spectra", "frames", "vectors"):
        values = getattr(got, group)
        assert values.keys() == want[group].keys(), label
        for name, value in want[group].items():
            assert values[name].dtype == value.dtype, (label, name)
            assert values[name].shape == (1, *value.shape), (label, name)
            assert values[name].tobytes() == value.tobytes(), (label, name)
    assert {k: float(v[0]).hex() for k, v in got.scalars.items()} == {
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
            best = state_of(draw_view(space, params, dim, rng))
            best["windows"] = search._windows(space)
            view = search_block([best], dim)
            count = 64
            targets, moves = search._draw_moves(view, box, count, np.random.default_rng(seed))
            block, live = search._candidates(spec, view, best["windows"], targets, moves, box,
                                             spec.regime)
            assert len(block.spectra["a"]) == len(live)
            # The reference draws the same fields with its own calls, on the same schedule.
            replay = _reference_moves(best, box, count, dim, np.random.default_rng(seed))
            for index, (move, delta) in enumerate(zip(replay, _reference_deltas(count))):
                label = (theorem_id, seed, index, move[:2])
                assert targets[moves["target"][index]] == move[:2], label
                want = _reference_propose(spec, best, dim, box, spec.regime, False, delta, move)
                kinds.add(move[0])
                if want is None:
                    assert move[0] == "param" and index not in live, label
                    dead += 1
                    continue
                got = block.subset([live.index(index)])
                _assert_same_state(got, want, label)
                if move[0] != "param":
                    assert got.params is best["params"], label
    assert kinds == {"spectrum", "frame", "vector", "scalar", "param"}
    assert dead


class _CountingGenerator:
    """A Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("theorem_id, box, kinds", [
    ("kantorovich", {"m": 0.5, "m_prime": (1.2, 2.0), "M": 4.0},
     {"spectrum", "frame", "vector", "param"}),
    ("polya_szego", {"m": 1.0, "m_prime": (1.5, 2.5), "M": 8.0},
     {"spectrum", "frame", "scalar", "param"}),
])
def test_move_draws_make_as_many_generator_calls_at_any_budget(theorem_id, box, kinds):
    # Between them the two boxes have every kind of move.
    spec = THEOREMS[theorem_id]
    box = search._normalize_box(box)
    rng = np.random.default_rng(3)
    params = search._draw_params(box, spec.regime, rng)
    view = draw_view(spec.space(3, params, False), params, 3, rng)
    calls, drawn = {}, {}
    for budget in (50, 4000):
        counting = _CountingGenerator(budget)
        drawn[budget] = search._draw_moves(view, box, budget - 1, counting)
        calls[budget] = counting.calls
    assert calls[50] == calls[4000] <= 7, calls
    targets, moves = drawn[4000]
    assert {targets[code][0] for code in moves["target"].tolist()} == kinds
    assert all(len(column) == 3999 for column in moves.values())


def test_classical_kantorovich_reaches_the_benchmark_equality_floor():
    # The benchmark's kantorovich job must come within 1e-4 of its equality case.
    misses = {}
    for seed in (*range(20), 42, 2718):
        result = maximize_ratio("kantorovich", {"m": 1.0, "M": 4.0}, budget=4000, rng=seed,
                                dim=2, classical=True, tol=1e-8)
        assert result.ratio <= 1.0 + 1e-8, seed
        if result.ratio < 1.0 - 1e-4:
            misses[seed] = result.ratio
    assert not misses


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


@pytest.mark.parametrize("theorem_id, box, rng", [
    ("lemma_amgm", {"m": (3.0, 4.0), "M": (8.0, 9.0)}, 3),
    ("kantorovich", {"m": (0.5, 0.8), "m_prime": (1.2, 2.0), "M": (3.0, 4.0)}, 1),
])
def test_parameter_moves_keep_omitted_parameters_at_their_defaults(theorem_id, box, rng):
    # A parameter the box omits defaults to the moved values (m' = m, M' = M)
    # after every move, as in a first draw, so the regime chain m <= m' <= M' <= M holds.
    params = maximize_ratio(theorem_id, box, budget=600, rng=rng, dim=2).instance["params"]
    for key, default in (("m_prime", "m"), ("M_prime", "M")):
        if key not in box:
            assert params[key] == params[default], (theorem_id, key, params)
    assert params["m"] <= params["m_prime"] <= params["M_prime"] <= params["M"], params


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
