import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    BoundParams,
    NotPositiveDefinite,
    SpdMatrix,
    SpectralInterval,
    arithmetic_mean,
    check_lin_chain,
    check_square_order_refined,
    geometric_mean,
    identity_map,
    loewner_leq,
    loewner_ratio,
    make_spd,
    operator_norm,
    scalar_leq,
    spectral_bounds,
    spectral_norm,
    symmetrize,
)
from opineq import stacked
from oracles import eig2_symmetric


def test_symmetrize_returns_symmetric_part():
    raw = np.array([[1.0, 2.0], [0.0, 3.0]])
    sym = symmetrize(raw)
    assert np.allclose(sym, sym.T)
    assert np.allclose(sym, [[1.0, 1.0], [1.0, 3.0]])


def test_symmetrize_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.ones((2, 3)))


def test_construction_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        make_spd(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefinite):
        make_spd(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("build", [
    lambda: make_spd([[np.nan, 0.0], [0.0, 1.0]]),
    lambda: make_spd([[np.inf, 0.0], [0.0, 1.0]]),
    lambda: SpdMatrix.from_eigh([np.nan, 1.0], np.eye(2)),
], ids=["nan_entry", "inf_entry", "nan_eigenvalue"])
def test_construction_rejects_non_finite_input(build):
    with pytest.raises(NotPositiveDefinite, match="finite"):
        build()


def test_from_eigh_refuses_a_frame_that_is_not_finite():
    # A NaN Gram defect fails the check, so a stack's entries are finite.
    with pytest.raises(ValueError, match="defect nan"):
        SpdMatrix.from_eigh([1.0, 2.0], [[np.nan, 0.0], [0.0, 1.0]])


def _rejected_or_usable(raw):
    """make_spd either refuses raw or returns a matrix whose functions are finite."""
    try:
        a = make_spd(raw)
    except NotPositiveDefinite:
        return
    assert (a.eigenvalues > 0.0).all()
    assert np.isfinite(a.sqrt().entries).all()


# Cholesky accepts this matrix, but eigh gives it lambda_min = -2.19e-16.
ROUNDED_NEGATIVE = np.array([
    [0.7517228797308769, -0.4181938302694806, -0.41130179477267015],
    [-0.4181938302694806, 0.5513891686022028, -0.2677730723594696],
    [-0.41130179477267015, -0.2677730723594696, 0.9987004962444757],
])


def test_matrix_with_negative_rounded_eigenvalue_is_rejected_or_usable():
    _rejected_or_usable(ROUNDED_NEGATIVE)


def test_make_spd_decomposes_when_made_without_a_cholesky(linalg_calls):
    a = make_spd(np.diag([1.0, 2.0]))
    assert (linalg_calls["cholesky"], linalg_calls["eigh"]) == (0, 1)
    assert a.eigenvalues.tolist() == [1.0, 2.0]
    with pytest.raises(NotPositiveDefinite, match="-2.19"):
        make_spd(ROUNDED_NEGATIVE)


def test_a_stack_read_for_its_entries_makes_no_decomposition(rng, linalg_calls):
    q = np.linalg.qr(rng.standard_normal((4, 3, 3)))[0]
    raw = (q * rng.uniform(0.5, 2.0, (4, 1, 3))) @ stacked.transpose(q)
    entries = stacked.StackedSpd(raw).entries
    assert (linalg_calls["cholesky"], linalg_calls["eigh"]) == (0, 0)
    assert np.array_equal(entries, stacked.symmetrize(raw))
    # Its spectrum is decomposed on the first read, once.
    a = stacked.StackedSpd(raw)
    assert a.eigenvalues is a.eigenvalues and a.sqrt() is a.sqrt()
    assert (linalg_calls["cholesky"], linalg_calls["eigh"]) == (0, 1)


def test_a_ratio_or_a_mean_reads_factors_and_no_spectrum_of_its_operands(rng, linalg_calls):
    # A stack makes its factor by one Cholesky on first need, and a ratio against
    # it inverts that factor once. A mean factors its first operand and
    # decomposes only its inner matrix, for its square root; the inner matrix
    # and the mean make no Cholesky.
    q = stacked.haar(rng.standard_normal((2, 4, 3, 3)))
    vals = rng.uniform(0.5, 2.0, (2, 4, 3))
    raw = stacked.StackedSpd((q[0] * vals[0][..., None, :]) @ stacked.transpose(q[0]))
    spectral = stacked.StackedSpd.from_eigh(vals[1], q[1])
    x = stacked.symmetrize(rng.standard_normal((4, 3, 3)))
    assert np.array_equal(stacked.loewner_ratio(x, raw), stacked.loewner_ratio(x, raw))
    assert (linalg_calls["cholesky"], linalg_calls["eigh"], linalg_calls["inv"]) == (1, 0, 1)
    stacked.geometric_mean(spectral, raw)
    assert (linalg_calls["cholesky"], linalg_calls["eigh"], linalg_calls["inv"]) == (2, 1, 2)


# Eigenvalues 1e-20 and 1 on a rotation by pi/6: from_eigh accepts them, and
# the entries' Cholesky refuses (their eigvalsh reads 0 and 1).
_REFUSED = (np.array([1e-20, 1.0]), np.array([[np.cos(np.pi / 6), -np.sin(np.pi / 6)],
                                              [np.sin(np.pi / 6), np.cos(np.pi / 6)]]))


def test_a_row_cholesky_refuses_is_factored_by_its_square_root_alone(rng):
    # Only the refused row takes its square root as its factor, and every
    # row's factor and ratio are the bits it gets alone.
    frames = np.stack([stacked.haar(rng.standard_normal((2, 2))), _REFUSED[1],
                       stacked.haar(rng.standard_normal((2, 2)))])
    vals = np.stack([rng.uniform(0.5, 2.0, 2), _REFUSED[0], rng.uniform(0.5, 2.0, 2)])
    a = stacked.StackedSpd.from_eigh(vals, frames)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a.entries[1])
    x = stacked.symmetrize(rng.standard_normal((3, 2, 2)))
    low, ratio = a._lower(), stacked.loewner_ratio(x, a)
    assert np.array_equal(low[1], a.sqrt().entries[1])
    assert np.array_equal(low[0], np.linalg.cholesky(a.entries[0]))
    for r in range(3):
        a_r = stacked.StackedSpd.from_eigh(vals[r], frames[r])
        assert np.array_equal(a_r._lower(), low[r])
        assert np.array_equal(stacked.loewner_ratio(x[r], a_r), ratio[r])


@pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf])
def test_loewner_rows_refuses_a_refined_constant_that_is_not_a_scale(bad):
    # The ratio to c CORE is the ratio to CORE over c, so each row's c must be
    # finite and > 0, or 0 for the degenerate ratio.
    eye = np.eye(2)
    core = stacked.StackedSpd(np.stack([eye] * 3))
    lhs = np.stack([0.5 * eye, 0.0 * eye, eye])
    with pytest.raises(NotPositiveDefinite, match=re.escape(
            f"refined constant must be finite and > 0, got {bad} (row 2)")):
        stacked.loewner_rows(lhs, core, 1e-8, np.array([2.0, 0.0, bad]))
    with pytest.raises(NotPositiveDefinite, match=re.escape(f"got {bad} (row 0)")):
        stacked.loewner_rows(lhs, core, 1e-8, bad)
    rows = stacked.loewner_rows(lhs, core, 1e-8, np.array([2.0, 0.0, 4.0]))
    assert rows.ratio.tolist() == [0.25, 1.0, 0.25]


@pytest.mark.parametrize("read", [
    lambda a: stacked.loewner_ratio(np.stack([np.eye(2)] * 4), a),
    lambda a: stacked.geometric_mean(a, a),
    lambda a: a.eigenvalues,
    lambda a: a.sqrt(),
], ids=["loewner_ratio", "geometric_mean", "eigenvalues", "sqrt"])
def test_a_stack_that_is_not_positive_is_made_undecomposed_and_raises_on_its_first_read(
        read, linalg_calls):
    # Each decomposition checks positivity when it is first made, and names the row.
    raw = np.stack([np.eye(2), np.diag([2.0, 3.0]), np.diag([1.0, -0.5]), np.diag([1.0, 0.0])])
    a = stacked.StackedSpd(raw)
    assert sum(linalg_calls.values()) == 0
    with pytest.raises(NotPositiveDefinite,
                       match=re.escape("eigenvalues must be finite and > 0, got min -0.5 (row 2)")):
        read(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_stack_with_a_non_finite_entry_raises_when_made(bad, linalg_calls):
    raw = np.stack([np.eye(2)] * 3)
    raw[1, 0, 1] = bad
    with pytest.raises(NotPositiveDefinite, match="finite"):
        stacked.StackedSpd(raw)
    # The finite check comes first: a Cholesky of a NaN row can return NaN without raising.
    assert (linalg_calls["cholesky"], linalg_calls["eigh"]) == (0, 1)


@pytest.mark.parametrize("read", [lambda a: a.eigenvalues, lambda a: a.eigenvectors,
                                  lambda a: a.sqrt(), lambda a: a.inv(), lambda a: a.scaled(2.0)],
                         ids=["eigenvalues", "eigenvectors", "sqrt", "inv", "scaled"])
def test_a_stack_cholesky_accepts_but_eigh_refuses_raises_on_its_first_spectral_read(read):
    a = stacked.StackedSpd(np.stack([np.eye(3), ROUNDED_NEGATIVE]))
    assert np.array_equal(a.entries[1], ROUNDED_NEGATIVE)
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite, match=r"got min -2\.19\d*e-16 \(row 1\)"):
            read(a)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       lam_min=st.sampled_from([0.0, 1e-17, -1e-17, 1e-16, -1e-16]),
       rest=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=4))
def test_spectrum_at_the_edge_of_positivity_is_rejected_or_usable(seed, lam_min, rest):
    vals = np.array([lam_min, *rest])
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((vals.size, vals.size)))[0]
    _rejected_or_usable((q * vals) @ q.T)


def test_entries_are_read_only():
    a = make_spd(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 99.0
    # Derived matrices and means of an SpdMatrix are SpdMatrix, read-only too.
    b = SpdMatrix.from_eigh([3.0, 1.0], np.eye(2))
    for made in (a.sqrt(), a.inv(), a.inv_sqrt(), a.square(), a.scaled(2.0), b,
                 geometric_mean(a, b), arithmetic_mean(a, b)):
        assert type(made) is SpdMatrix
        for field in ("entries", "eigenvalues", "eigenvectors"):
            with pytest.raises(ValueError):
                getattr(made, field)[0] = 99.0


def test_spd_matrix_is_a_stack_with_one_matrix_checks_only():
    # SpdMatrix adds its input checks, read-only arrays, dim, quad_form and
    # __repr__ to stacked.StackedSpd: no memo, stack or forwarder of its own.
    assert issubclass(SpdMatrix, stacked.StackedSpd)
    own = {name for name, value in vars(SpdMatrix).items()
           if callable(value) or isinstance(value, (property, classmethod))}
    assert own == {"__init__", "_keep", "from_eigh", "dim", "quad_form", "__repr__"}
    assert SpdMatrix.__slots__ == ()


def test_from_eigh_sorts_and_reconstructs(rng):
    vals = np.array([3.0, 1.0, 2.0])
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = SpdMatrix.from_eigh(vals, q)
    assert np.all(np.diff(a.eigenvalues) >= 0)
    assert np.allclose(sorted(vals), a.eigenvalues)
    assert np.allclose(a.entries, (q * vals) @ q.T)


def test_from_eigh_validates_inputs():
    with pytest.raises(ValueError, match="shape"):
        SpdMatrix.from_eigh([1.0, 2.0], np.eye(3))
    # A stack's factors must fit too: one eigenvalue per row is not a 2 x 2 frame's.
    with pytest.raises(ValueError, match="eigenvector matrix shape does not match eigenvalues"):
        stacked.StackedSpd.from_eigh(np.array([[2.0]]), np.eye(2)[None])
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix.from_eigh([1.0, -2.0], np.eye(2))
    skewed = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        SpdMatrix.from_eigh([1.0, 2.0], skewed)


def test_matrix_functions_match_2x2_closed_form():
    # [[p, q], [q, p]] has eigenvalues p -+ q on the fixed frame (1, +-1)/sqrt2
    p, q = 2.0, 0.5
    a = make_spd(np.array([[p, q], [q, p]]))
    lo, hi = eig2_symmetric(p, q)
    assert np.allclose(a.eigenvalues, [lo, hi])
    frame = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    for method, f in ((SpdMatrix.sqrt, np.sqrt), (SpdMatrix.inv, lambda v: 1.0 / v),
                      (SpdMatrix.inv_sqrt, lambda v: 1.0 / np.sqrt(v)),
                      (SpdMatrix.square, np.square)):
        expected = (frame * f(np.array([lo, hi]))) @ frame.T
        assert np.allclose(method(a).entries, expected), method.__name__


def test_matrix_function_roundtrips(rng):
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = SpdMatrix.from_eigh(rng.uniform(0.5, 3.0, size=4), q)
    assert np.allclose(a.sqrt().square().entries, a.entries)
    assert np.allclose(a.inv().inv().entries, a.entries)
    assert np.allclose(a.inv_sqrt().entries, a.inv().sqrt().entries)


def test_derived_matrices_are_memoised():
    a = make_spd(np.array([[2.0, 0.5], [0.5, 1.0]]))
    for method in (SpdMatrix.sqrt, SpdMatrix.inv, SpdMatrix.inv_sqrt, SpdMatrix.square):
        assert method(a) is method(a), method.__name__
    assert a.sqrt() is not a.inv_sqrt()


@pytest.mark.parametrize("built_by", ["from_eigh", "eigh"])
def test_derived_matrices_match_a_fresh_from_eigh(rng, built_by):
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    vals = rng.uniform(0.2, 6.0, size=5)
    a = SpdMatrix.from_eigh(vals, q) if built_by == "from_eigh" else make_spd((q * vals) @ q.T)
    for method, f in ((SpdMatrix.sqrt, np.sqrt), (SpdMatrix.inv, lambda v: 1.0 / v),
                      (SpdMatrix.inv_sqrt, lambda v: 1.0 / np.sqrt(v)),
                      (SpdMatrix.square, np.square)):
        derived = method(a)
        fresh = SpdMatrix.from_eigh(f(a.eigenvalues), a.eigenvectors)
        for field in ("entries", "eigenvalues", "eigenvectors"):
            assert np.array_equal(getattr(derived, field), getattr(fresh, field)), \
                (method.__name__, field)
    fresh = SpdMatrix.from_eigh(2.5 * a.eigenvalues, a.eigenvectors)
    assert np.array_equal(a.scaled(2.5).entries, fresh.entries)


def test_derived_matrix_of_skewed_eigh_frame_is_rejected(monkeypatch):
    # The Gram check must also cover frames that eigh computes.
    true_eigh = np.linalg.eigh

    def skewed_eigh(x):
        vals, vecs = true_eigh(x)
        return vals, vecs + 1e-6 * np.triu(np.ones_like(vecs))

    x = np.array([[2.0, 0.5], [0.5, 1.0]])
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(ValueError, match="orthonormal"):
        make_spd(x).sqrt()
    eig_known = make_spd(x)
    with pytest.raises(ValueError, match="orthonormal"):
        eig_known.scaled(2.0)


def test_a_check_call_gram_checks_each_eigh_frame_once(monkeypatch):
    # A check_* call evaluates its matrices as they are, and each keeps
    # whether its frame was Gram-checked: a from_eigh frame is not checked
    # again, and an eigh frame is checked on its first derived use, in the
    # first call on it only.
    params = BoundParams(m=0.5, M=4.0, m_prime=1.5)
    a = SpdMatrix.from_eigh([0.6, 0.7], np.eye(2))
    b = SpdMatrix.from_eigh([0.65, 0.8], np.eye(2))
    checked = []
    monkeypatch.setattr(stacked, "require_orthonormal", lambda *args: checked.append(args[1]))
    check_square_order_refined(a, b, params, validate=False)
    assert checked == []
    computed = make_spd(np.diag([0.6, 0.7]))
    for _ in range(2):
        check_square_order_refined(computed, b, params, validate=False)
    assert checked == ["eigenvector"]


@pytest.mark.parametrize("check, params, built", [
    (check_square_order_refined, BoundParams(m=0.5, M=4.0, m_prime=1.5), 2),
    (lambda a, b, params: check_lin_chain(identity_map(2), a, b, params),
     BoundParams(m=0.5, m_prime=0.7, M_prime=0.7, M=4.0), 8)])
def test_repeated_check_calls_reuse_each_matrix_s_derived_matrices(monkeypatch, check, params,
                                                                   built):
    # Three calls on one pair build the derived matrices of A and B once, as
    # each matrix memoises them: square_order's A^2 and B^2 (2), whose ratio
    # reads B^2's Cholesky factor and builds none; lin_chain's A^-1 and B^-1 (2)
    # and per call the mean's inner square root and the mean's inverse (6), as
    # the identity map hands the mean itself to Phi(A#B).
    a = SpdMatrix.from_eigh([0.6, 0.7], np.eye(2))
    b = SpdMatrix.from_eigh([0.7, 0.8], np.eye(2))
    sorted_stack = stacked.StackedSpd._sorted.__func__
    stacks = []
    monkeypatch.setattr(stacked.StackedSpd, "_sorted", classmethod(
        lambda cls, vals, vecs: stacks.append(cls) or sorted_stack(cls, vals, vecs)))
    for _ in range(3):
        check(a, b, params)
    assert len(stacks) == built


def test_scaled_rescales_spectrum():
    a = make_spd(np.diag([1.0, 3.0]))
    assert np.allclose(a.scaled(2.0).eigenvalues, [2.0, 6.0])


def test_quad_form():
    a = make_spd(np.diag([2.0, 5.0]))
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert a.quad_form(x) == pytest.approx(3.5)


def test_operator_norm_and_spectral_bounds():
    a = make_spd(np.diag([0.5, 2.0, 7.0]))
    assert operator_norm(a) == pytest.approx(7.0)
    # indefinite symmetric input goes by largest magnitude
    assert operator_norm(np.diag([-9.0, 1.0])) == pytest.approx(9.0)
    interval = spectral_bounds(a)
    assert (interval.lo, interval.hi) == pytest.approx((0.5, 7.0))


def test_spectral_norm_of_nonsymmetric_product():
    a = np.diag([1.0, 4.0])
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert spectral_norm(a @ b) == pytest.approx(np.linalg.norm(a @ b, 2))


def test_spectral_interval_validation():
    with pytest.raises(ValueError):
        SpectralInterval(0.0, 1.0)
    with pytest.raises(ValueError):
        SpectralInterval(2.0, 1.0)
    assert SpectralInterval(1.0, 1.0).lo == 1.0


def test_loewner_leq_basic_order():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.5, 2.5])
    assert loewner_leq(a, b).holds
    assert not loewner_leq(b, a).holds


def test_loewner_leq_tolerance_boundary():
    # gap of -tol * ||rhs|| must still pass, anything clearly below fails
    rhs = np.eye(2)
    tol = 1e-8
    good = np.eye(2) * (1.0 + 0.5 * tol)
    bad = np.eye(2) * (1.0 + 10.0 * tol)
    assert loewner_leq(good, rhs, tol).holds
    assert not loewner_leq(bad, rhs, tol).holds


def test_loewner_leq_atol_floor():
    zero = np.zeros((2, 2))
    slightly_negative = np.diag([1e-13, 0.0])
    assert not loewner_leq(slightly_negative, zero, tol=1e-8).holds
    assert loewner_leq(slightly_negative, zero, tol=1e-8, atol=1e-12).holds


def test_loewner_leq_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_leq_verdict_fields():
    verdict = loewner_leq(np.diag([1.0, 1.0]), np.diag([2.0, 4.0]))
    assert verdict.min_gap_eig == pytest.approx(1.0)
    assert verdict.rel_slack == pytest.approx(0.25)


def test_scalar_leq_scale_and_atol():
    assert scalar_leq(1.0, 1.0).holds
    assert not scalar_leq(1.0 + 1e-6, 1.0).holds
    # explicit scale widens the band even when rhs is tiny
    assert scalar_leq(1e-9, 0.0, tol=1e-8, scale=1.0).holds
    assert not scalar_leq(1e-9, 0.0, tol=1e-8, scale=1e-6).holds
    assert scalar_leq(1e-13, 0.0, scale=0.0, atol=1e-12).holds


def test_loewner_ratio_commuting_closed_form():
    lhs = np.diag([1.0, 6.0])
    rhs = make_spd(np.diag([2.0, 8.0]))
    assert loewner_ratio(lhs, rhs) == pytest.approx(0.75)
    assert loewner_ratio(rhs.entries, rhs) == pytest.approx(1.0)


def test_loewner_ratio_congruence_invariance(rng):
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    lhs = SpdMatrix.from_eigh([1.0, 2.0, 3.0], q)
    rhs = SpdMatrix.from_eigh([2.0, 4.0, 4.0], q)
    assert loewner_ratio(lhs.entries, rhs) == pytest.approx(0.75)


@pytest.mark.parametrize("build", [make_spd, SpdMatrix])
def test_empty_matrices_are_rejected_by_name(build):
    with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        build(np.zeros((0, 0)))
