import copy
import math
import pickle

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    MAP_KINDS,
    BoundParams,
    IsometryPair,
    SpdMatrix,
    apply_map,
    arithmetic_mean,
    check_choi_record,
    check_norm_amgm_record,
    check_wielandt_operator,
    compression_map,
    congruence_sum_map,
    geometric_mean,
    haar_orthogonal,
    identity_map,
    loewner_leq,
    loewner_ratio,
    make_spd,
    operator_norm,
    pinching_map,
    sample_congruence_family,
    sample_orthonormal_pair,
    sample_spd,
    sample_unit_vector,
    scalar_leq,
    spectral_norm,
    trace_normalize_map,
)
from opineq import inequalities, means_maps, samplers, stacked
from opineq.spd import SpectralInterval


def _random_spd(dim, rng, lo=0.5, hi=3.0):
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return SpdMatrix.from_eigh(rng.uniform(lo, hi, size=dim), q)


def test_geometric_mean_commuting_oracle(rng):
    """For a shared eigenframe the mean is diag(sqrt(a_i b_i))."""
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    avals = rng.uniform(0.5, 2.0, size=4)
    bvals = rng.uniform(1.0, 5.0, size=4)
    a = SpdMatrix.from_eigh(avals, q)
    b = SpdMatrix.from_eigh(bvals, q)
    expected = (q * np.sqrt(avals * bvals)) @ q.T
    assert np.allclose(geometric_mean(a, b).entries, expected)


def test_geometric_mean_idempotent_and_inverse(rng):
    a = _random_spd(3, rng)
    assert np.allclose(geometric_mean(a, a).entries, a.entries)
    assert np.allclose(geometric_mean(a, a.inv()).entries, np.eye(3), atol=1e-10)


def _spread_pair(dim, h, rng, spans=False):
    """A and B, spectra log-uniform on [1, h], on Haar frames; ``spans``: A's reaches both ends."""
    frames = stacked.haar(rng.standard_normal((2, dim, dim)))
    vals = np.exp(rng.uniform(0.0, math.log(h), (2, dim)))
    if spans:
        vals[0, 0], vals[0, -1] = 1.0, h
    return [SpdMatrix.from_eigh(v, q) for v, q in zip(vals, frames)]


@pytest.mark.parametrize("h", [1e2, 1e4, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_geometric_mean_is_symmetric_and_solves_its_riccati_equation(dim, h):
    # A#B = B#A and (A#B) A^-1 (A#B) = B, each to 16 n eps kappa^2, kappa = h.
    rng = np.random.default_rng([dim, int(h)])
    tol = 16 * dim * np.finfo(float).eps * h ** 2
    for _ in range(8):
        a, b = _spread_pair(dim, h, rng, spans=True)
        g = geometric_mean(a, b).entries
        assert np.linalg.norm(g - geometric_mean(b, a).entries, 2) <= tol * np.linalg.norm(g, 2)
        assert (np.linalg.norm(g @ a.inv().entries @ g - b.entries, 2)
                <= tol * np.linalg.norm(b.entries, 2))


def _root_congruence_mean(a, b):
    """A#B by congruence with A^{+-1/2}, the formula the Cholesky form replaced."""
    root, inv_root = a.sqrt().entries, a.inv_sqrt().entries
    inner = stacked.StackedSpd(inv_root @ b.entries @ inv_root)
    return root @ inner.sqrt().entries @ root


# At dim 8 the Cholesky form is the less accurate: median relative errors
# (Cholesky form vs root congruence) over the test's 24 pairs.
_LESS_ACCURATE = pytest.mark.xfail(strict=True, reason=(
    "dim 8: 2.61e-15 vs 2.50e-15 at h = 1e2, 7.26e-8 vs 3.76e-8 at h = 1e8"))


@pytest.mark.parametrize("h", [1e2, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4, pytest.param(8, marks=_LESS_ACCURATE)])
def test_cholesky_mean_is_as_accurate_as_the_root_congruence(dim, h):
    # Against an mpmath A#B, the median error over 24 pairs is no larger.
    rng = np.random.default_rng([dim, int(h)])
    errors = {"cholesky": [], "roots": []}
    for _ in range(24):
        a, b = _spread_pair(dim, h, rng)
        for name, g in (("cholesky", geometric_mean(a, b).entries),
                        ("roots", _root_congruence_mean(a, b))):
            errors[name].append(oracles.geometric_mean_error(g, a.entries, b.entries))
    if errors["cholesky"][0] is None:
        pytest.skip("mpmath is not installed")
    assert np.median(errors["cholesky"]) <= np.median(errors["roots"])


def _built(built, vals, frames):
    if built == "from_eigh":
        return stacked.StackedSpd.from_eigh(vals, frames)
    return stacked.StackedSpd((frames * vals[..., None, :]) @ stacked.transpose(frames))


@pytest.mark.parametrize("built", ["raw", "from_eigh"])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_a_stack_s_mean_and_ratio_are_each_row_s_own(dim, built):
    # Each row's mean and ratio have the bits the row gets alone.
    rng = np.random.default_rng(dim)
    vals = rng.uniform(0.3, 5.0, (2, 64, dim))
    frames = stacked.haar(rng.standard_normal((2, 64, dim, dim)))
    x = stacked.symmetrize(rng.standard_normal((64, dim, dim)))
    a, b = (_built(built, v, q) for v, q in zip(vals, frames))
    mean, ratio = stacked.geometric_mean(a, b), stacked.loewner_ratio(x, b)
    for r in range(64):
        a_r, b_r = (_built(built, v[r], q[r]) for v, q in zip(vals, frames))
        assert np.array_equal(stacked.geometric_mean(a_r, b_r).entries, mean.entries[r])
        assert np.array_equal(stacked.loewner_ratio(x[r], b_r), ratio[r])


def test_geometric_mean_symmetry(rng):
    a = _random_spd(3, rng)
    b = _random_spd(3, rng)
    assert np.allclose(geometric_mean(a, b).entries, geometric_mean(b, a).entries)


def test_geometric_mean_congruence_covariance(rng):
    # T (A # B) T^T = (TAT^T) # (TBT^T) for invertible T
    a = _random_spd(3, rng)
    b = _random_spd(3, rng)
    t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    direct = t @ geometric_mean(a, b).entries @ t.T
    mapped = geometric_mean(make_spd(t @ a.entries @ t.T), make_spd(t @ b.entries @ t.T))
    assert np.allclose(direct, mapped.entries)


def test_arithmetic_mean():
    a = make_spd(np.diag([1.0, 2.0]))
    b = make_spd(np.diag([3.0, 6.0]))
    assert np.allclose(arithmetic_mean(a, b).entries, np.diag([2.0, 4.0]))


def test_mean_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        geometric_mean(make_spd(np.eye(2)), make_spd(np.eye(3)))


def _catalog(dim, rng):
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return {
        "identity": identity_map(dim),
        "trace_normalize": trace_normalize_map(dim),
        "compression": compression_map(q[:, : dim - 1]),
        "congruence_sum": congruence_sum_map(sample_congruence_family(dim, 3, rng)),
        "pinching": pinching_map((tuple(range(dim // 2)), tuple(range(dim // 2, dim)))),
    }


def test_map_catalog_is_unital(rng):
    specs = _catalog(4, rng)
    assert set(specs) == set(MAP_KINDS)
    for kind, spec in specs.items():
        assert not any(v.flags.writeable for v in spec[0].data), kind
        # A copy or a pickled map is the same map.
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert (twin.in_dim, twin.to_json(0)) == (spec.in_dim, spec.to_json(0)), kind
        out = apply_map(spec, np.eye(spec.in_dim))
        assert np.allclose(out, np.eye(spec.out_dim), atol=1e-10), kind


def test_map_catalog_preserves_positivity(rng):
    for kind, spec in _catalog(4, rng).items():
        t = _random_spd(4, rng)
        mapped = make_spd(apply_map(spec, t.entries))
        assert mapped.eigenvalues[0] > 0.0, kind


def test_apply_map_linearity(rng):
    spec = _catalog(4, rng)["congruence_sum"]
    s = _random_spd(4, rng).entries
    t = _random_spd(4, rng).entries
    assert np.allclose(apply_map(spec, 2.0 * s + t),
                       2.0 * apply_map(spec, s) + apply_map(spec, t))


def test_apply_map_accepts_nonsymmetric_input():
    spec = trace_normalize_map(2)
    out = apply_map(spec, np.array([[1.0, 5.0], [0.0, 3.0]]))
    assert np.allclose(out, 2.0 * np.eye(2))


@pytest.mark.parametrize("swap", [False, True], ids=["identity_first", "compression_first"])
def test_apply_map_refuses_parts_with_different_output_sizes(swap):
    # Row 0 under the identity (2 x 2 out), row 1 under a 2 -> 1 compression.
    parts = [stacked.MapPart([0], "identity"),
             stacked.MapPart([1], "compression", (np.array([[[1.0], [0.0]]]),))]
    phi = stacked.StackedMap(parts[::-1] if swap else parts, 2)
    t = np.stack([np.diag([2.0, 3.0]), np.diag([5.0, 7.0])])
    with pytest.raises(ValueError, match=r"different sizes \[1, 2\]"):
        stacked.apply_map(phi, t)


def test_apply_map_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected"):
        apply_map(identity_map(2), np.eye(3))


def test_compression_map_validation(rng):
    with pytest.raises(ValueError, match="tall"):
        compression_map(np.ones((2, 3)))
    with pytest.raises(ValueError, match="orthonormal"):
        compression_map(np.ones((3, 2)))
    with pytest.raises(ValueError, match="defect nan"):
        compression_map([[np.nan], [0.0]])
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    spec = compression_map(q[:, :2])
    assert (spec.in_dim, spec.out_dim) == (4, 2)


def test_congruence_sum_map_validation():
    with pytest.raises(ValueError, match="non-empty"):
        congruence_sum_map(())
    with pytest.raises(ValueError, match="square shape"):
        congruence_sum_map((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="not normalized"):
        congruence_sum_map((np.eye(2), np.eye(2)))


def test_pinching_map_validation():
    with pytest.raises(ValueError, match="partition"):
        pinching_map(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="partition"):
        pinching_map(((0, 2),))
    # An index is an integer: 1.7 is not truncated to 1, nor a bool read as 0 or 1.
    for blocks in (((0, 1.7), (2, 3)), ((False, True), (2, 3)), "0123", ((0, 1.0),)):
        with pytest.raises(ValueError, match="integers"):
            pinching_map(blocks)
    assert pinching_map((np.array([0, 1]), np.array([2]))).in_dim == 3
    spec = pinching_map(((0,), (1, 2)))
    t = np.arange(9.0).reshape(3, 3)
    out = apply_map(spec, t)
    assert out[0, 1] == out[1, 0] == 0.0
    assert np.allclose(out[1:, 1:], t[1:, 1:])


def test_choi_holds_across_catalog(rng):
    for kind, spec in _catalog(4, rng).items():
        t = _random_spd(4, rng)
        assert check_choi_record(spec, t).verdict.holds, kind


def test_choi_equality_at_identity_map(rng):
    t = _random_spd(3, rng)
    verdict = check_choi_record(identity_map(3), t).verdict
    assert verdict.holds
    assert abs(verdict.min_gap_eig) < 1e-12


def test_choi_strict_for_mixing_map():
    t = make_spd(np.diag([1.0, 4.0]))
    mapped = apply_map(trace_normalize_map(2), t.entries)
    mapped_inv = apply_map(trace_normalize_map(2), t.inv().entries)
    # strict gap for a genuinely mixing map on a spread spectrum
    ratio = loewner_ratio(np.linalg.inv(mapped), make_spd(mapped_inv))
    assert ratio < 1.0 - 1e-3
    assert check_choi_record(trace_normalize_map(2), t).verdict.holds


def test_norm_amgm_holds_and_equality(rng):
    a = _random_spd(3, rng)
    b = _random_spd(3, rng)
    assert check_norm_amgm_record(a, b).verdict.holds
    c = make_spd(2.5 * np.eye(3))
    verdict = check_norm_amgm_record(c, c).verdict
    assert verdict.holds
    assert verdict.min_gap_eig == pytest.approx(0.0, abs=1e-12)


def test_norm_amgm_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        check_norm_amgm_record(make_spd(np.eye(2)), make_spd(np.eye(3)))


def _stacked_family(dim, k, count, rng):
    """sample_congruence_family for each of count rows, as the stacked members."""
    families = [sample_congruence_family(dim, k, rng) for _ in range(count)]
    return tuple(np.stack([family[j] for family in families]) for j in range(k))


def test_stacked_map_parts_equal_each_kind_on_its_own_rows(rng):
    dim, count = 4, 14
    t = rng.standard_normal((count, dim, dim))
    rows = np.split(rng.permutation(count), [3, 5, 8, 12])
    pinch = stacked.pinching_projectors((tuple(range(dim // 2)), tuple(range(dim // 2, dim))))
    square = [("identity", ()), ("trace_normalize", ()),
              ("congruence_sum", _stacked_family(dim, 2, len(rows[2]), rng)),
              ("congruence_sum", _stacked_family(dim, 3, len(rows[3]), rng)),
              ("pinching", tuple(np.broadcast_to(p, (len(rows[4]), dim, dim)) for p in pinch))]
    halves = np.split(rng.permutation(count), [6])
    # The last map is one part whose rows are not 0..k-1 in order.
    for parts in ([stacked.MapPart(r, kind, data) for r, (kind, data) in zip(rows, square)],
                  [stacked.MapPart(r, "compression", (stacked.haar(
                      rng.standard_normal((len(r), dim, dim)))[..., : dim - 1],)) for r in halves],
                  [stacked.MapPart(rng.permutation(count), "congruence_sum",
                                   _stacked_family(dim, 2, count, rng))]):
        got = stacked.apply_map(stacked.StackedMap(parts, dim), t)
        for part in parts:
            want = stacked.apply_map(stacked.StackedMap.single(dim, part.kind, part.data),
                                     t[part.rows])
            assert got[part.rows].tobytes() == want.tobytes(), part.kind


def _same_matrix(one: SpdMatrix, rows: stacked.StackedSpd, r: int) -> bool:
    return all(np.array_equal(getattr(one, field), getattr(rows, field)[r])
               for field in ("entries", "eigenvalues", "eigenvectors"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), count=st.integers(1, 9),
       dim=st.integers(1, 8))
def test_each_per_instance_function_is_a_row_of_its_stacked_call(seed, count, dim):
    """Every row of a stacked call equals the per-instance call on that row, bit for bit."""
    rng = np.random.default_rng(seed)
    # Row r's Gaussians come from generator (seed, r), as haar_orthogonal draws them.
    z = np.stack([np.random.default_rng([seed, r]).standard_normal((dim, dim))
                  for r in range(count)])
    frames = stacked.haar(z)
    vals = rng.uniform(0.3, 5.0, size=(count, dim))
    g = rng.standard_normal((count, dim, dim))
    raw = g @ stacked.transpose(g) + 0.5 * np.eye(dim)
    t = rng.standard_normal((count, dim, dim))
    lhs, rhs = rng.uniform(0.5, 2.0, size=(2, count))
    a_rows = stacked.StackedSpd.from_eigh(vals, frames)
    b_rows = stacked.StackedSpd(raw)
    weights = rng.uniform(0.2, 1.0, size=(2, count, dim))
    weights /= np.sqrt((weights ** 2).sum(axis=0))
    family = stacked.unital_family(tuple(w[..., None] * frames for w in weights), "family")
    blocks = (tuple(range(dim // 2)), tuple(range(dim // 2, dim)))
    pinch = tuple(np.broadcast_to(p, (count, dim, dim))
                  for p in stacked.pinching_projectors(blocks))
    # Each kind's Kraus arrays for every row, and its one-instance map of row r.
    maps = {"identity": ((), lambda r: identity_map(dim)),
            "trace_normalize": ((), lambda r: trace_normalize_map(dim)),
            "congruence_sum": (family, lambda r: congruence_sum_map([u[r] for u in family])),
            "pinching": (pinch, lambda r: pinching_map(blocks))}
    if dim > 1:
        (isometries,) = stacked.unital_family((frames[..., : dim - 1],), "compression")
        maps["compression"] = ((isometries,), lambda r: compression_map(frames[r, :, : dim - 1]))
    stacked_maps = {kind: stacked.StackedMap.single(dim, kind, data)
                    for kind, (data, _) in maps.items()}
    stacked_calls = {
        "loewner_leq": stacked.loewner_leq(a_rows, b_rows, 1e-8),
        "scalar_leq": stacked.scalar_leq(lhs, rhs, 1e-8),
        "loewner_ratio": stacked.loewner_ratio(a_rows.entries, b_rows),
        "operator_norm": stacked.operator_norm(t),
        "spectral_norm": stacked.spectral_norm(a_rows.entries @ b_rows.entries),
        **{kind: stacked.apply_map(phi, t) for kind, phi in stacked_maps.items()},
    }
    # A pinching's Kraus sum is the block copy, and a compression's V^T T V, bit for bit.
    block_copy = np.zeros_like(t)
    for block in blocks:
        at = np.ix_(block, block)
        block_copy[..., at[0], at[1]] = t[..., at[0], at[1]]
    assert stacked_calls["pinching"].tobytes() == block_copy.tobytes()
    if dim > 1:
        assert stacked_calls["compression"].tobytes() == (
            stacked.transpose(isometries) @ t @ isometries).tobytes()
    geo = stacked.geometric_mean(a_rows, b_rows)
    mean = stacked.arithmetic_mean(a_rows, b_rows)
    # The draw rules: row r's draws come from generator (seed, r, rule), as its sampler's do.
    window, k = SpectralInterval(0.3, 5.0), 1 + seed % 3

    def gen(r, rule):
        return np.random.default_rng([seed, r, rule])
    spectra = samplers._window_spectra(
        window, np.stack([gen(r, 0).uniform(0.3, 5.0, dim) for r in range(count)]))
    units, _ = samplers._unit_vectors(np.stack([gen(r, 1).standard_normal(dim)
                                                for r in range(count)]))
    pair_dim = max(dim, 2)  # a pair needs dim >= 2
    x, y, _ = samplers._orthonormal_pairs(np.stack([gen(r, 2).standard_normal((2, pair_dim))
                                                    for r in range(count)]))
    z, w = (np.stack(field) for field in zip(*[
        (g.standard_normal((dim, dim)), g.uniform(0.2, 1.0, (k, dim)))
        for g in (gen(r, 3) for r in range(count))]))
    families = samplers._congruence_family(stacked.haar(z), w)
    for r in range(count):
        assert np.array_equal(sample_spd(dim, window, gen(r, 0)).eigenvalues, spectra[r])
        assert np.array_equal(sample_unit_vector(dim, gen(r, 1)), units[r])
        assert all(map(np.array_equal, sample_orthonormal_pair(pair_dim, gen(r, 2)),
                       (x[r], y[r])))
        assert all(map(np.array_equal, sample_congruence_family(dim, k, gen(r, 3)),
                       (u[r] for u in families)))
        a = SpdMatrix.from_eigh(vals[r], frames[r])
        b = make_spd(raw[r])
        assert np.array_equal(haar_orthogonal(dim, np.random.default_rng([seed, r])), frames[r])
        assert _same_matrix(a, a_rows, r) and _same_matrix(b, b_rows, r)
        for name in ("sqrt", "inv", "inv_sqrt", "square"):
            assert _same_matrix(getattr(a, name)(), getattr(a_rows, name)(), r), name
            assert _same_matrix(getattr(b, name)(), getattr(b_rows, name)(), r), name
        assert _same_matrix(b.scaled(2.5), b_rows.scaled(2.5), r)
        assert _same_matrix(geometric_mean(a, b), geo, r)
        assert _same_matrix(arithmetic_mean(a, b), mean, r)
        one_calls = {
            "loewner_leq": loewner_leq(a, b, 1e-8),
            "scalar_leq": scalar_leq(lhs[r], rhs[r], 1e-8),
            "loewner_ratio": loewner_ratio(a.entries, b),
            "operator_norm": operator_norm(t[r]),
            "spectral_norm": spectral_norm(a.entries @ b.entries),
            **{kind: apply_map(spec(r), t[r]) for kind, (_, spec) in maps.items()},
        }
        for name, got in one_calls.items():
            want = stacked_calls[name]
            if isinstance(want, stacked.Verdicts):
                got = (got.holds, got.min_gap_eig, got.rel_slack)
                want = [f[r] for f in (want.holds, want.gap, want.slack)]
            else:
                want = want[r]
            assert np.array_equal(got, want), name
        for kind, (data, spec) in maps.items():
            # Row r's map holds row r's Kraus arrays; its JSON is row r's, and reads
            # back to a map that applies to the same bytes.
            assert all(map(np.array_equal, spec(r)[0].data, (v[r][None] for v in data))), kind
            written = stacked_maps[kind].to_json(r)
            assert written == spec(r).to_json(0) and (written is None) == (kind == "identity")
            read = stacked.StackedMap.from_json(written or {"kind": kind}, dim)
            assert stacked.apply_map(read, t[r]).tobytes() == stacked_calls[kind][r].tobytes()


def test_one_instance_calls_hand_stacked_their_operands_as_they_are(monkeypatch, rng):
    # The row axis is optional in stacked, so the per-instance API passes its
    # (n, n) operands without one: no [None] on the way in, no [0] on the way out.
    seen = []

    def spy(module, name, operands):
        real = getattr(module, name)

        def call(*args):
            seen.extend((name, np.ndim(getattr(x, "entries", x))) for x in operands(*args))
            return real(*args)
        monkeypatch.setattr(module, name, call)
    spy(stacked, "haar", lambda z: (z,))
    spy(stacked, "unital_family", lambda family, label: family)
    spy(stacked, "require_isometry_pair", lambda x, y: (x, y))
    for module in (means_maps, inequalities):
        spy(module, "apply_map", lambda phi, t: (t,))
    q = haar_orthogonal(4, rng)
    squeeze = compression_map(q[:, :3])
    congruence_sum_map(sample_congruence_family(4, 2, rng))
    pair = IsometryPair(q[:, :2], q[:, 2:])
    a = _random_spd(4, rng)
    apply_map(squeeze, a)
    check_choi_record(squeeze, a)
    check_wielandt_operator(identity_map(2), a, pair, BoundParams(m=0.1, M=9.0), "gumus")
    assert {name for name, _ in seen} == {"haar", "unital_family", "require_isometry_pair",
                                          "apply_map"}
    assert all(ndim == 2 for _, ndim in seen), seen


@pytest.mark.parametrize("build, arg, message", [
    (identity_map, 0, r"identity map needs sizes >= 1, got 0 -> 0"),
    (trace_normalize_map, 0, r"trace_normalize map needs sizes >= 1, got 0 -> 0"),
    (compression_map, np.zeros((3, 0)), r"r >= 1, got \(3, 0\)"),
    (congruence_sum_map, [np.zeros((0, 0))], r"non-empty square shape, got \[\(0, 0\)\]"),
])
def test_empty_maps_are_rejected_by_name(build, arg, message):
    with pytest.raises(ValueError, match=message):
        build(arg)
