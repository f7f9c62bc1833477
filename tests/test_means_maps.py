import numpy as np
import pytest

from opineq import (
    MAP_KINDS,
    SpdMatrix,
    apply_map,
    arithmetic_mean,
    check_choi_record,
    check_norm_amgm_record,
    compression_map,
    congruence_sum_map,
    geometric_mean,
    identity_map,
    loewner_ratio,
    make_spd,
    pinching_map,
    sample_congruence_family,
    trace_normalize_map,
)
from opineq import stacked


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


def test_apply_map_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected"):
        apply_map(identity_map(2), np.eye(3))


def test_compression_map_validation(rng):
    with pytest.raises(ValueError, match="tall"):
        compression_map(np.ones((2, 3)))
    with pytest.raises(ValueError, match="orthonormal"):
        compression_map(np.ones((3, 2)))
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
    pinch = (tuple(range(dim // 2)), tuple(range(dim // 2, dim)))
    square = [("identity", None), ("trace_normalize", None),
              ("congruence_sum", _stacked_family(dim, 2, len(rows[2]), rng)),
              ("congruence_sum", _stacked_family(dim, 3, len(rows[3]), rng)),
              ("pinching", pinch)]
    halves = np.split(rng.permutation(count), [6])
    # The last map is one part whose rows are not 0..k-1 in order.
    for parts in ([stacked.MapPart(r, kind, data) for r, (kind, data) in zip(rows, square)],
                  [stacked.MapPart(r, "compression", stacked.haar(
                      rng.standard_normal((len(r), dim, dim)))[..., : dim - 1]) for r in halves],
                  [stacked.MapPart(rng.permutation(count), "congruence_sum",
                                   _stacked_family(dim, 2, count, rng))]):
        got = stacked.apply_map(stacked.StackedMap(parts), t)
        for part in parts:
            want = stacked.apply_map(stacked.StackedMap.single(part.kind, part.data),
                                     t[part.rows])
            assert got[part.rows].tobytes() == want.tobytes(), part.kind
