import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    LIN_CHAIN_LINKS,
    THEOREM_IDS,
    THEOREMS,
    BoundParams,
    InfeasibleRegime,
    IneqRecord,
    IsometryPair,
    RegimeId,
    check_holder_mccarthy_refined,
    check_isometry_family_bound,
    check_kantorovich_product_refined,
    check_kantorovich_refined,
    check_lemma_refined_amgm,
    check_lin_chain,
    check_lin_refined_squared,
    check_norm_amgm_record,
    check_choi_record,
    check_square_order_refined,
    check_wielandt_operator,
    check_wielandt_scalar,
    geometric_mean,
    haar_orthogonal,
    identity_map,
    kantorovich_constant,
    make_spd,
    refinement_constants,
    refinement_factor,
    regime_feasible,
    sample_congruence_family,
    sample_spd,
    sample_unit_vector,
    scalar_refined_amgm,
    trace_normalize_map,
)
import reference
from opineq import samplers, stacked
from opineq.inequalities import instance_view
from opineq.spd import DEFAULT_TOL, SpectralInterval
from oracles import big_k, kappa
from reference import InstanceView, draw_view, search_block, state_of


def _first_state(spec, params, dim, rng, classical=False):
    """A state drawn by the package as a one-row view, as a state dict."""
    return state_of(draw_view(spec.space(dim, params, classical), params, dim, rng))


def _state(theorem_id, params, dim, rng):
    return _first_state(THEOREMS[theorem_id], params, dim, rng)


def _view(theorem_id, params, dim, rng):
    """The matrices and vectors of an instance drawn from the theorem's space."""
    return InstanceView(_state(theorem_id, params, dim, rng), dim)


def _evaluate(theorem_id, params, dim, rng, maps=None):
    """The theorem's evaluator on one instance drawn from its space, hypotheses checked.

    ``maps``, if given, is the view's map.
    """
    view = search_block([_state(theorem_id, params, dim, rng)], dim, maps=maps)
    view.validate = True
    return THEOREMS[theorem_id].evaluate(view, DEFAULT_TOL)


def _scales(result) -> list:
    """(classical, refined, improvement) scales of a record, or of each record of Rows."""
    if isinstance(result, IneqRecord):
        return [(result.classical_rhs_scale, result.refined_rhs_scale,
                 result.improvement_ratio)]
    fields = (result.classical_scale, result.scale, result.improvement)
    return list(zip(*(np.ravel(f).tolist() for f in fields)))


def test_theorem_catalog_is_consistent():
    assert len(THEOREMS) == 17
    assert THEOREM_IDS == tuple(THEOREMS)
    for theorem_id, spec in THEOREMS.items():
        assert spec.theorem_id == theorem_id
        assert isinstance(spec.regime, RegimeId)
        assert spec.min_dim >= 1


def test_kantorovich_constant_values():
    assert kantorovich_constant(1.0) == 1.0
    assert kantorovich_constant(4.0) == 1.5625
    assert kantorovich_constant(2.0) == pytest.approx(9.0 / 8.0)
    with pytest.raises(ValueError):
        kantorovich_constant(0.0)


def test_refinement_factor_values():
    assert refinement_factor(1.0) == 1.0
    assert refinement_factor(math.e ** 2) == pytest.approx(1.5, abs=1e-15)
    # natural log, not base 10: at c = 10 the factor is 1 + ln(10)^2 / 8
    assert refinement_factor(10.0) == pytest.approx(1.0 + math.log(10.0) ** 2 / 8.0)
    assert refinement_factor(10.0) != pytest.approx(1.125)
    with pytest.raises(ValueError):
        refinement_factor(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_scalar_amgm_refined_holds_everywhere(a, b):
    record = scalar_refined_amgm(a, b)
    assert record.verdict.holds
    assert record.classical_verdict.holds
    assert record.ratio <= 1.0 + 1e-12


def test_scalar_amgm_equality_iff_equal_arguments():
    equal = scalar_refined_amgm(3.0, 3.0)
    assert equal.lhs_value == equal.rhs_value == 3.0
    assert equal.ratio == 1.0
    unequal = scalar_refined_amgm(1.0, 4.0)
    assert unequal.ratio < 1.0
    # the refinement strictly beats the plain geometric mean
    assert unequal.lhs_value > math.sqrt(4.0)
    assert unequal.improvement_ratio == pytest.approx(1.0 / kappa(4.0))


def test_scalar_amgm_rejects_nonpositive():
    with pytest.raises(ValueError):
        scalar_refined_amgm(-1.0, 2.0)
    with pytest.raises(ValueError):
        scalar_refined_amgm(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_helpers_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="h must be finite and > 0"):
        kantorovich_constant(bad)
    with pytest.raises(ValueError, match="c must be finite and > 0"):
        refinement_factor(bad)
    with pytest.raises(ValueError, match="a must be finite and > 0"):
        scalar_refined_amgm(bad, 1.0)
    with pytest.raises(ValueError, match="b must be finite and > 0"):
        scalar_refined_amgm(1.0, bad)


def test_lemma_refined_amgm_holds_on_relative_draws(rng):
    for _ in range(20):
        rows = _evaluate("lemma_amgm", BoundParams(m=2.0, M=5.0), 3, rng)
        assert rows.holds.all()
        assert rows.ratio.max() <= 1.0 + 1e-10
        assert rows.improvement == pytest.approx(1.0 / kappa(2.0))


def test_lemma_refined_amgm_regime_checks(rng):
    view = _view("lemma_amgm", BoundParams(m=2.0, M=3.0), 2, rng)
    a = view.spd("a")
    root = a.sqrt().entries
    # The spec's B = A^{1/2} C A^{1/2}, with C on [2, 3].
    b = make_spd(root @ view.spd("c").entries @ root)
    for m in (1.0, math.nan):
        with pytest.raises(InfeasibleRegime, match="1 < m"):
            check_lemma_refined_amgm(a, b, m)
    with pytest.raises(ValueError, match="c must be finite"):
        check_lemma_refined_amgm(a, b, math.nan, validate=False)
    # B barely fails mA <= B once m is pushed past the actual floor
    with pytest.raises(InfeasibleRegime, match="mA <= B"):
        check_lemma_refined_amgm(a, b, 3.5)
    assert check_lemma_refined_amgm(a, b, 3.5, validate=False) is not None


def test_kantorovich_refined_on_regime_draws(rng):
    m, mp, M = 0.5, 2.0, 4.0
    for _ in range(20):
        view = _view("kantorovich", BoundParams(m=m, M=M, m_prime=mp), 3, rng)
        record = check_kantorovich_refined(view.spd("a"), view.vectors["x"], m, mp, M)
        assert record.verdict.holds
        assert record.classical_rhs_scale == pytest.approx(big_k(M / m))
        assert record.refined_rhs_scale == pytest.approx(big_k(M / m) / kappa(mp) ** 2)


def test_kantorovich_refined_validation(rng):
    a = make_spd(np.diag([1.0, 1.0]))
    x = np.array([1.0, 0.0])
    with pytest.raises(InfeasibleRegime, match="window"):
        check_kantorovich_refined(a, x, 0.5, 2.0, 4.0)
    ok = _view("kantorovich", BoundParams(m=0.5, M=4.0, m_prime=2.0), 2, rng).spd("a")
    with pytest.raises(ValueError, match="unit"):
        check_kantorovich_refined(ok, 2.0 * x, 0.5, 2.0, 4.0)


def test_kantorovich_corner_is_a_genuine_violation():
    """With m=1, M=2, m'=4 the admissible window collapses to {1/2} and
    the refined constant dips below the Cauchy-Schwarz floor of 1, so a
    faithful evaluation must report a violation; default campaign grids
    therefore keep the parameter coupling away from this corner."""
    a = make_spd(0.5 * np.eye(2))
    x = np.array([1.0, 0.0])
    record = check_kantorovich_refined(a, x, 1.0, 4.0, 2.0)
    assert record.lhs_value == pytest.approx(1.0)
    assert record.rhs_value == pytest.approx(big_k(2.0) / kappa(4.0) ** 2)
    assert record.rhs_value < 1.0
    assert not record.verdict.holds
    assert record.classical_verdict.holds


def test_kantorovich_product_on_regime_draws(rng):
    params = BoundParams(m=1.0, M=8.0, m_prime=2.0)
    for _ in range(20):
        rows = _evaluate("kantorovich_product", params, 3, rng)
        assert rows.holds.all()
        assert rows.ratio.max() <= 1.0 + 1e-10


def test_kantorovich_product_squared_vs_literal_product_form():
    """Documented falsifier: on 1x1 instances a = 10, b = 10.1 with
    m = 10, m' = 1.01, M = 10.1, the squared right-hand side holds by a
    hair while the unsquared variant fails by an order of magnitude."""
    params = BoundParams(m=10.0, M=10.1, m_prime=1.01)
    a = make_spd(np.array([[10.0]]))
    b = make_spd(np.array([[10.1]]))
    x = np.array([1.0])
    record = check_kantorovich_product_refined(a, b, x, params)
    assert record.verdict.holds
    assert record.ratio <= 1.0
    assert record.ratio == pytest.approx(1.0, abs=1e-9)
    scale = record.refined_rhs_scale
    core = geometric_mean(a, b).quad_form(x)
    unsquared_rhs = scale * core
    assert record.lhs_value / unsquared_rhs > 9.0


def test_holder_mccarthy_on_regime_draws(rng):
    params = BoundParams(m=0.5, M=4.0, m_prime=1.5)
    for _ in range(20):
        view = _view("holder_mccarthy", params, 3, rng)
        record = check_holder_mccarthy_refined(view.spd("a"), view.vectors["x"], params)
        assert record.verdict.holds
        assert record.ratio <= 1.0 + 1e-10


def test_square_order_on_regime_draws(rng):
    params = BoundParams(m=0.5, M=4.0, m_prime=1.5)
    for _ in range(10):
        assert _evaluate("square_order", params, 3, rng).holds.all()
    a = _view("square_order", params, 3, rng).spd("a")
    shrunk = make_spd(0.5 * a.entries)
    with pytest.raises(InfeasibleRegime, match="A <= B"):
        check_square_order_refined(a, shrunk, params)


def test_polya_szego_on_regime_draws(rng):
    params = BoundParams(m=1.0, M=8.0, m_prime=2.0)
    for _ in range(10):
        rows = _evaluate("polya_szego", params, 4, rng,
                         stacked.StackedMap.single(4, "trace_normalize"))
        assert rows.holds.all()
        assert rows.improvement == pytest.approx(1.0 / kappa(2.0))


def test_isometry_family_bound_on_regime_draws(rng):
    params = BoundParams(m=0.5, M=4.0, m_prime=1.5)
    for _ in range(10):
        a = _view("isometry_family", params, 3, rng).spd("a")
        family = sample_congruence_family(3, 2, rng)
        record = check_isometry_family_bound(family, a, params)
        assert record.verdict.holds
        assert record.rhs_value == pytest.approx(
            (params.M + params.m) / (2.0 * math.sqrt(params.M * params.m) * kappa(1.5)))
    with pytest.raises(ValueError, match="not normalized"):
        check_isometry_family_bound((np.eye(3), np.eye(3)), a, params)


def test_lin_squared_variants_on_regime_draws(rng):
    params = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    for variant in ("mapped_mean", "mean_of_maps"):
        for _ in range(10):
            view = _view("lin_squared_mapped", params, 3, rng)
            a, b = view.spd("a"), view.spd("b")
            record = check_lin_refined_squared(trace_normalize_map(3), a, b, params, variant)
            assert record.verdict.holds
            assert record.classical_rhs_scale == pytest.approx(params.K_h ** 2)
            assert record.improvement_ratio == pytest.approx(1.0 / kappa(1.5) ** 2)
    with pytest.raises(ValueError, match="variant"):
        check_lin_refined_squared(identity_map(3), a, b, params, "other")


def test_lin_chain_links_and_extras(rng):
    params = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    view = _view("lin_chain", params, 3, rng)
    records = check_lin_chain(identity_map(3), view.spd("a"), view.spd("b"), params)
    assert tuple(r.detail for r in records) == LIN_CHAIN_LINKS
    for record in records:
        assert record.verdict.holds
        assert record.classical_verdict.holds
    kap = kappa(params.M_prime / params.m_prime)
    for name in ("geo_inverse", "mapped_inverse_mean", "mapped_mean_inverse"):
        rec = next(r for r in records if r.detail == name)
        assert rec.extras["kappa"] == pytest.approx(kap)
    norm_rec = records[-1]
    assert norm_rec.classical_rhs_scale == pytest.approx(
        (params.M + params.m) ** 2 / (4.0 * params.M * params.m))
    assert norm_rec.refined_rhs_scale == pytest.approx(norm_rec.classical_rhs_scale / kap)


def test_lin_chain_degenerate_equality():
    # at m = M every operator collapses to the same scalar, slack is zero
    params = BoundParams(m=2.0, m_prime=2.0, M_prime=2.0, M=2.0)
    a = make_spd(2.0 * np.eye(2))
    for record in check_lin_chain(identity_map(2), a, a, params):
        if record.detail in ("half_a", "half_b", "summed"):
            assert record.ratio == pytest.approx(1.0, abs=1e-12)
        assert record.verdict.holds


def test_wielandt_scalar_equality_on_eigenvector_mix():
    a = make_spd(np.diag([1.0, 4.0]))
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    y = np.array([1.0, -1.0]) / math.sqrt(2.0)
    record = check_wielandt_scalar(a, x, y, 1.0, 4.0)
    assert record.verdict.holds
    assert record.ratio == pytest.approx(1.0, abs=1e-10)


def test_wielandt_scalar_orthogonality_is_always_enforced(rng):
    a = sample_spd(3, SpectralInterval(1.0, 4.0), rng)
    x = sample_unit_vector(3, rng)
    with pytest.raises(ValueError, match="orthogonal"):
        check_wielandt_scalar(a, x, x, 1.0, 4.0, validate=False)


def test_wielandt_scalar_checks_m_and_M_validated_or_not():
    # Unvalidated too: a NaN m must give no record (its NaN gap reads as a
    # violation), and neither must m > M.
    a = make_spd(np.diag([1.0, 4.0]))
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for validate in (True, False):
        for m, M in ((math.nan, 4.0), (1.0, math.nan), (math.inf, 4.0), (0.0, 4.0),
                     (-1.0, 4.0), (True, 4.0)):
            with pytest.raises(ValueError, match="must be a positive finite number"):
                check_wielandt_scalar(a, x, y, m, M, validate=validate)
        with pytest.raises(InfeasibleRegime, match="plain needs m <= M: 5.0 > 4.0"):
            check_wielandt_scalar(a, x, y, 5.0, 4.0, validate=validate)
    record = check_wielandt_scalar(a, x, y, np.float64(1.0), 4, validate=False)
    assert record.refined_rhs_scale == 0.36


def test_wielandt_operator_frozen_2x2_numbers():
    a = make_spd(np.array([[2.3, 0.3], [0.3, 2.3]]))
    pair = IsometryPair(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    params = BoundParams(m=1.5, M=4.0, m_prime=4.0)
    bd = check_wielandt_operator(identity_map(1), a, pair, params, "bhatia_davis")
    assert bd.lhs_value == pytest.approx(0.09 / 2.3, abs=1e-12)
    assert bd.extras["conjecture_scale"] == pytest.approx((2.5 / 5.5) ** 2)
    gumus = check_wielandt_operator(identity_map(1), a, pair, params, "gumus")
    assert gumus.lhs_value == pytest.approx(0.09 / 2.3 ** 2, abs=1e-12)
    assert gumus.rhs_value == pytest.approx(
        2.5 ** 2 / (2.0 * math.sqrt(6.0) * 5.5), abs=1e-12)
    refined = check_wielandt_operator(identity_map(1), a, pair, params, "refined")
    assert refined.rhs_value == pytest.approx(gumus.rhs_value / kappa(4.0), abs=1e-12)
    assert refined.verdict.holds and gumus.verdict.holds and bd.verdict.holds
    assert refined.extras["within_conjecture"]


def test_wielandt_operator_on_regime_draws(rng):
    params = BoundParams(m=1.5, M=4.0, m_prime=4.0)
    # Each instance checks X, Y = the first and last two columns of a frame under Phi = id.
    for variant in ("bhatia_davis", "gumus", "refined"):
        for _ in range(10):
            assert _evaluate(f"wielandt_{variant}", params, 4, rng).holds.all(), variant


def test_wielandt_refined_derived_precondition_always_checked(rng):
    # Phi(X^T A X) must land in [m, M]; validate=False does not waive it
    a = make_spd(np.diag([0.5, 0.6]))
    pair = IsometryPair(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    params = BoundParams(m=1.5, M=4.0, m_prime=4.0)
    with pytest.raises(InfeasibleRegime, match="Phi"):
        check_wielandt_operator(identity_map(1), a, pair, params, "refined", validate=False)
    with pytest.raises(ValueError, match="variant"):
        check_wielandt_operator(identity_map(1), a, pair, params, "other")


def test_choi_and_norm_records(rng):
    t = sample_spd(3, SpectralInterval(0.5, 4.0), rng)
    record = check_choi_record(trace_normalize_map(3), t)
    assert record.verdict.holds
    assert record.theorem_id == "choi"
    a = sample_spd(3, SpectralInterval(0.5, 4.0), rng)
    b = sample_spd(3, SpectralInterval(0.5, 4.0), rng)
    record = check_norm_amgm_record(a, b)
    assert record.verdict.holds
    assert record.ratio <= 1.0 + 1e-10


def test_refinement_constants_table():
    params = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    table = refinement_constants(params)
    assert "natural" in table.log_base
    names = [row.name for row in table.rows]
    assert names == ["kantorovich", "polya_szego", "lin_squared", "lin_norm", "wielandt"]
    kant = table.row("kantorovich")
    assert kant.classical == pytest.approx(big_k(4.0))
    assert kant.refined == pytest.approx(big_k(4.0) / kappa(2.0) ** 2)
    assert kant.power == 2 and kant.argument == 2.0
    lin = table.row("lin_squared")
    assert lin.argument == pytest.approx(1.5)
    assert lin.classical == pytest.approx(big_k(4.0) ** 2)
    wie = table.row("wielandt")
    assert wie.classical == pytest.approx(9.0 / (2.0 * 2.0 * 5.0))
    assert wie.refined == pytest.approx(wie.classical / kappa(2.0))
    with pytest.raises(KeyError):
        table.row("unknown")
    with pytest.raises(InfeasibleRegime):
        refinement_constants(BoundParams(m=3.0, m_prime=2.0, M_prime=3.0, M=4.0))


def test_refined_checkers_share_their_family_constants(rng):
    """Each refined checker's scales are its family's row of refinement_constants."""
    params = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    table = refinement_constants(params)
    view = _view("kantorovich", params, 3, rng)
    low, x = view.spd("a"), view.vectors["x"]
    sandwich = _view("lin_chain", params, 3, rng)
    sa, sb = sandwich.spd("a"), sandwich.spd("b")
    family = sample_congruence_family(3, 2, rng)
    records = {
        "kantorovich": [
            check_kantorovich_refined(low, x, params.m, params.m_prime, params.M),
            _evaluate("kantorovich_product", params, 3, rng),
            check_holder_mccarthy_refined(low, x, params),
            check_square_order_refined(low, low, params),
        ],
        "polya_szego": [
            _evaluate("polya_szego", params, 3, rng),
            check_isometry_family_bound(family, low, params),
        ],
        "lin_squared": [
            check_lin_refined_squared(identity_map(3), sa, sb, params, variant)
            for variant in ("mapped_mean", "mean_of_maps")
        ],
        "lin_norm": [
            next(r for r in check_lin_chain(identity_map(3), sa, sb, params)
                 if r.detail == "norm_product")
        ],
        "wielandt": [_evaluate("wielandt_refined", params, 4, rng)],
    }
    for name, family_records in records.items():
        row = table.row(name)
        for result in family_records:
            for classical, refined, improvement in _scales(result):
                assert classical == pytest.approx(row.classical, rel=1e-14), name
                assert refined == pytest.approx(row.refined, rel=1e-14), name
                assert improvement == pytest.approx(row.improvement_ratio, rel=1e-14), name


def _rotated(theorem_id, state, u):
    """The state with every n x n frame and every vector turned by u.

    isometry_family's family frame q is right-multiplied by u instead,
    which turns its map's output by u and leaves A as it is.
    """
    if theorem_id == "isometry_family":
        return {**state, "frames": {**state["frames"], "q": state["frames"]["q"] @ u}}
    return {**state,
            "frames": {k: u @ f if f.shape == u.shape else f for k, f in state["frames"].items()},
            "vectors": {k: u @ v for k, v in state["vectors"].items()}}


def _kappa(state) -> float:
    """The largest condition number of a state's matrices."""
    return max(vals.max() / vals.min() for name, vals in state["spectra"].items()
               if name in state["frames"])


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_ratio_is_invariant_under_a_rotation_of_the_state(theorem_id):
    # Each bound is invariant under A -> U A U^T with its probes turned by U, so
    # its ratio moves only by rounding: at most 16 n eps kappa^2 against
    # max(|ratio|, 1), kappa the largest condition number of the state's matrices.
    spec = THEOREMS[theorem_id]
    for dim in (d for d in (2, 3, 4, 8) if d >= spec.min_dim):
        for seed in range(10):
            rng = np.random.default_rng([seed, dim])
            params = spec.cells[0]
            state = _first_state(spec, params, dim, rng)
            u = haar_orthogonal(dim, rng)
            ratios = [np.ravel(spec.evaluate(search_block([s], dim), DEFAULT_TOL).ratio)
                      for s in (state, _rotated(theorem_id, state, u))]
            moved = np.abs(ratios[1] - ratios[0]) / np.maximum(np.abs(ratios[0]), 1.0)
            assert moved.max() <= 16 * dim * np.finfo(float).eps * _kappa(state) ** 2, (
                dim, seed)


def _swapped(state):
    """The state with its matrices A and B exchanged, spectrum and frame."""
    swap = {"a": "b", "b": "a"}
    return {**state,
            "spectra": {swap.get(k, k): v for k, v in state["spectra"].items()},
            "frames": {swap.get(k, k): f for k, f in state["frames"].items()}}


@pytest.mark.parametrize("theorem_id", ["scalar_amgm", "norm_amgm"])
def test_symmetric_ratios_are_invariant_under_swapping_a_and_b(theorem_id):
    # sqrt(ab) kappa(b/a) against (a+b)/2, and ||AB|| = ||BA|| against ||A+B||^2/4,
    # are symmetric in A and B, so a swap moves the ratio only by rounding, bounded
    # as under a rotation.
    spec = THEOREMS[theorem_id]
    for dim in (2, 3, 4, 8):
        for seed in range(10):
            rng = np.random.default_rng([seed, dim])
            params = spec.cells[0]
            state = _first_state(spec, params, dim, rng)
            ratios = [np.ravel(spec.evaluate(search_block([s], dim), DEFAULT_TOL).ratio)
                      for s in (state, _swapped(state))]
            moved = np.abs(ratios[1] - ratios[0]) / np.maximum(np.abs(ratios[0]), 1.0)
            assert moved.max() <= 16 * dim * np.finfo(float).eps * _kappa(state) ** 2, (
                dim, seed)


def _scaled(state, c, kept):
    """The state with its matrices A and B, and its box but for ``kept``, multiplied by c."""
    params = {k: v if k in kept else c * v for k, v in state["params"].as_dict().items()}
    return {**state, "params": BoundParams(**params),
            "spectra": {k: c * v if k in ("a", "b") else v for k, v in state["spectra"].items()}}


# Each homogeneous bound's box parameters that stay when its state scales: none
# of a plain or sandwich box, a shifted box's m' and every one of a relative box.
_KEPT_UNDER_SCALING = {
    **dict.fromkeys(("scalar_amgm", "wielandt_scalar", "wielandt_bhatia_davis",
                     "wielandt_gumus", "choi", "norm_amgm", "lin_squared_mapped",
                     "lin_squared_means", "lin_chain"), ()),
    "kantorovich_product": ("m_prime",), "polya_szego": ("m_prime",),
    "lemma_amgm": ("m", "m_prime", "M_prime", "M")}


@pytest.mark.parametrize("theorem_id", _KEPT_UNDER_SCALING)
def test_homogeneous_ratios_are_invariant_under_scaling_the_state_and_box(theorem_id):
    # Each of these bounds is homogeneous: both sides take the same power of c
    # when A, B and the box scale by c > 0, and its constants read only ratios
    # of the box. A plain box's m' and M' are m and M, and scale with them, as a
    # sandwich box's four parameters do. A shifted B = (1-t) m' A + t M I scales
    # with A and M, its m' a ratio; a relative B = A^{1/2} C A^{1/2} scales with
    # A, its box bounding C alone. The ratio moves only by rounding, bounded as
    # under a rotation. The self-inverse regimes are left out: their hypothesis
    # mI <= m'A^{-1} <= A <= MI ties A to A^{-1}, which scale oppositely, so
    # their windows [max(m/m', 1/M), 1/sqrt(m')] and [sqrt(m'), min(m'/m, M)]
    # do not scale with the box.
    spec = THEOREMS[theorem_id]
    for dim in (d for d in (2, 3, 4, 8) if d >= spec.min_dim):
        for seed in range(10):
            rng = np.random.default_rng([seed, dim])
            state = _first_state(spec, spec.cells[0], dim, rng)
            for c in (3.7, 0.29):
                ratios = [np.ravel(spec.evaluate(search_block([s], dim), DEFAULT_TOL).ratio)
                          for s in (state, _scaled(state, c, _KEPT_UNDER_SCALING[theorem_id]))]
                moved = np.abs(ratios[1] - ratios[0]) / np.maximum(np.abs(ratios[0]), 1.0)
                assert moved.max() <= 16 * dim * np.finfo(float).eps * _kappa(state) ** 2, (
                    dim, seed, c)


def _as_bytes(state: dict) -> dict:
    """A state's every value as (type, shape, bytes), group by group."""
    return {group: values if group == "params" else
            {name: (type(v), np.shape(v), np.asarray(v).tobytes()) for name, v in values.items()}
            for group, values in state.items()}


@pytest.mark.parametrize("floor", [None, 1.0])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_first_values_equal_the_per_instance_rules(theorem_id, floor, monkeypatch):
    """A one-row draw is what the per-instance first_values drew, and leaves rng where it did.

    A unit floor of 1.0 makes a vector's first draw be rejected about a
    third of the time at dim 1, so the redraws are compared too.
    """
    if floor is not None:
        monkeypatch.setattr(samplers, "_UNIT_FLOOR", floor)
    spec = THEOREMS[theorem_id]
    params = spec.cells[0]
    for classical in (False, True):
        for dim in sorted({1, 2, 3, 5, 8} | {spec.min_dim}):
            if dim < spec.min_dim:
                continue
            space = spec.space(dim, params, classical)
            for seed in range(8):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = state_of(draw_view(space, params, dim, got_rng))
                want = reference.first_values(space, params, dim, want_rng)
                assert _as_bytes(got) == _as_bytes(want), (classical, dim, seed)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


E1, E2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])


@pytest.mark.parametrize("x, y", [(2.0 * E1, E2), (E1, 2.0 * E2), (E1, E1)])
def test_wielandt_frames_are_checked_as_isometry_pairs(x, y):
    """The evaluator's frame halves fail with IsometryPair's own message."""
    with pytest.raises(ValueError) as want:
        IsometryPair(x, y)
    params = BoundParams(m=1.5, M=4.0)
    state = _state("wielandt_gumus", params, 2, np.random.default_rng(0))
    state["frames"]["pair"] = np.hstack([x, y])
    with pytest.raises(ValueError) as got:
        THEOREMS["wielandt_gumus"].evaluate(search_block([state], 2), DEFAULT_TOL)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_rows_give_the_same_fields_in_any_order_of_reads(theorem_id, classical, linalg_calls):
    # The verdict fields are computed on first read: neither the order of the
    # reads nor a second read changes an array, and each verdict decomposes once.
    spec = THEOREMS[theorem_id]
    dim, params = max(3, spec.min_dim), spec.cells[0]
    rng = np.random.default_rng(7)
    block = search_block([_first_state(spec, params, dim, rng, classical)
                          for _ in range(3)], dim, classical)
    reads = []
    for order in (stacked.Rows._fields, stacked.Rows._fields[::-1]):
        rows = spec.evaluate(block, DEFAULT_TOL)
        before = linalg_calls["eigvalsh"]
        first = {name: getattr(rows, name) for name in order}
        made = linalg_calls["eigvalsh"] - before
        assert all(getattr(rows, name) is first[name] for name in order)
        assert linalg_calls["eigvalsh"] == before + made
        reads.append((first, made))
    (first, made), (second, made_too) = reads
    assert made == made_too
    for name in stacked.Rows._fields:
        assert np.array_equal(first[name], second[name], equal_nan=True), name


def test_degenerate_ratios_read_their_verdicts(linalg_calls):
    # Where the right side is 0 the ratio is 1 if the check holds, else inf;
    # the builder reads the verdict for it, and later reads reuse it. The sides
    # are computed on their first read: a Loewner lhs's norm is one eigvalsh.
    eye = np.eye(2)
    lhs = np.stack([0.0 * eye, eye, eye])
    c = np.array([0.0, 0.0, 2.0])
    built = [
        (stacked.scalar_rows(np.array([0.0, 1e-3, -1.0, 1.0]), np.array([0.0, 0.0, 0.0, 2.0]),
                             DEFAULT_TOL), [1.0, math.inf, 1.0, 0.5], [True, False, True, True]),
        (stacked.identity_rows(lhs, DEFAULT_TOL, c), [1.0, math.inf, 0.5], [True, False, True]),
        (stacked.loewner_rows(lhs, stacked.StackedSpd(np.stack([eye] * 3)), DEFAULT_TOL, c),
         [1.0, math.inf, 0.5], [True, False, True]),
    ]
    for (rows, ratio, holds), side_calls in zip(built, (0, 0, 1)):
        assert rows.ratio.tolist() == pytest.approx(ratio)
        before = linalg_calls["eigvalsh"]
        assert rows.holds.tolist() == holds
        assert all(np.isfinite(field).all() for field in tuple(rows)[3:])
        assert linalg_calls["eigvalsh"] == before + side_calls


def _rows_of(theorem_id: str) -> list:
    """Every field of the rows of each witness and of three drawn states, both kinds, at dim 3."""
    spec = THEOREMS[theorem_id]
    views = [instance_view(witness, spec) for witness in spec.witnesses.values()]
    for classical in (False, True):
        rng = np.random.default_rng(7)
        dim = max(3, spec.min_dim)
        views.append(search_block([_first_state(spec, spec.cells[0], dim, rng, classical)
                                   for _ in range(3)], dim, classical))
    return [tuple(spec.evaluate(view, DEFAULT_TOL)) for view in views]


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_deferred_spectra_and_sides_give_the_eager_bits(theorem_id, monkeypatch):
    # A raw stack decomposed at construction, after its Cholesky factor is
    # kept, gives every field, lhs and rhs included, the bits of the lazy stacks.
    lazy = _rows_of(theorem_id)
    made = stacked.StackedSpd.__init__

    def decompose_when_made(stack, entries):
        made(stack, entries)
        stack._spectrum()

    monkeypatch.setattr(stacked.StackedSpd, "__init__", decompose_when_made)
    eager = _rows_of(theorem_id)
    for lazy_rows, eager_rows in zip(lazy, eager, strict=True):
        for name, got, want in zip(stacked.Rows._fields, lazy_rows, eager_rows, strict=True):
            assert np.array_equal(got, want, equal_nan=True), name


@pytest.mark.parametrize("theorem_id", [t for t, spec in THEOREMS.items() if spec.witnesses])
def test_each_witness_is_a_feasible_state_of_its_space(theorem_id):
    # Every variable of the space, and nothing else, with its shape; spectra
    # inside their windows, frames orthonormal, vectors of unit length.
    spec = THEOREMS[theorem_id]
    for name, witness in spec.witnesses.items():
        dim, classical = witness["dim"], witness["classical"]
        params = BoundParams(**witness["params"])
        regime = spec.regime
        if classical and spec.classical_regime is not None:
            regime = spec.classical_regime
        assert regime_feasible(regime, params)[0], name
        assert dim >= spec.min_dim, name
        view = instance_view(witness, spec)
        shapes = {"spectra": {}, "frames": {}, "vectors": {}, "scalars": {}}
        for var, kind in spec.space(dim, params, classical).items():
            size = kind.size or dim
            if kind.kind in ("spd", "weights"):
                shapes["spectra"][var] = (1, size)
                lo, hi = kind.window.lo, kind.window.hi
                assert lo <= view.spectra[var].min() <= view.spectra[var].max() <= hi, name
            if kind.kind == "spd":
                shapes["frames"][var] = (1, size, size)
            elif kind.kind == "frame":
                shapes["frames"][var] = (1, dim, dim)
            elif kind.kind == "vector":
                shapes["vectors"][var] = (1, dim)
            elif kind.kind == "scalar":
                shapes["scalars"][var] = (1,)
        for group, want in shapes.items():
            assert {var: value.shape for var, value in getattr(view, group).items()} == want
        for frame in view.frames.values():
            assert np.abs(frame[0].T @ frame[0] - np.eye(frame.shape[-1])).max() <= 1e-15, name
        for vector in view.vectors.values():
            assert abs(vector[0] @ vector[0] - 1.0) <= 1e-15, name


def _bad_instances(instance: dict, mapped: dict):
    """(instance, the key its ValueError must name) for instances that instance_view refuses.

    ``instance`` is of a spec with unit probes and ``mapped`` of one with maps on dim.
    """
    for key in ("dim", "classical", "params", "spectra", "frames", "vectors", "scalars"):
        yield {k: v for k, v in instance.items() if k != key}, repr(key)
    # The extremal format that carried no dim and its map in keys of its own.
    old = {k: v for k, v in instance.items() if k not in ("dim", "classical", "map")}
    yield {**old, "map_kind": "trace_normalize"}, "'dim'"
    for dim in (0, 2.0, True, "2"):
        yield {**instance, "dim": dim}, "'dim'"
    for params in ({"m": 1.0}, {"m": 1.0, "M": 4.0, "h": 4.0}, "m=1"):
        yield {**instance, "params": params}, "'params'"
    yield {**instance, "classical": "yes"}, "'classical'"
    for group in ("spectra", "frames", "vectors", "scalars"):
        yield {**instance, group: [[1.0, 4.0]]}, repr(group)
    # Each group holds its space's variables, each of its shape and numbers only.
    yield {**instance, "vectors": {}}, "'vectors'"
    yield {**instance, "frames": {}}, "'frames'"
    yield {**instance, "scalars": {"t": 0.5}}, "'scalars'"
    for spectrum in ([1.0], ["x", 4.0], [[1.0, 4.0]]):
        yield {**instance, "spectra": {"a": spectrum}}, "'spectra'['a']"
    yield {**instance, "frames": {"a": [[1.0, 0.0]]}}, "'frames'['a']"
    for probe in ({"x": [1.0, 0.0, 0.0]}, {"y": [1.0, 0.0]}, {}, {"x": [[1.0, 0.0]]}, "x",
                  {"x": ["a", 0.0]}):
        yield {**instance, "probe": probe}, "'probe'"
    for phi, named in (({"kind": "compression", "isometry": [[1.0], [0.0], [0.0]]}, "3x3"),
                       ({"kind": "compression"}, "'isometry'"),
                       ({"kind": "congruence_sum", "family": [np.eye(3).tolist()]}, "3x3"),
                       ({"kind": "pinching", "blocks": [[0, 1, 2]]}, "3x3"),
                       ({"kind": "pinching", "blocks": [[0], [2]]}, "blocks"),
                       ({"kind": "congruence_sum", "family": 5}, "'map'"),
                       ({"kind": "rotation"}, "'map' kind"), ({}, "'map' kind"),
                       ("pinching", "'map' kind"), ({"kind": ["pinching"]}, "'map' kind"),
                       ({"kind": {}}, "'map' kind"),
                       # A float or bool index is not truncated or read as 0 or 1.
                       ({"kind": "pinching", "blocks": [[0, 1.7]]}, "integers"),
                       ({"kind": "pinching", "blocks": [[False, True]]}, "integers"),
                       ({"kind": "pinching", "blocks": "01"}, "integers"),
                       ({"kind": "congruence_sum", "family": [5]}, "square shape"),
                       ({"kind": "identity", "isometry": [[1.0]]}, "'isometry'"),
                       ({"kind": "trace_normalize", "blocks": [[0, 1]]}, "'blocks'")):
        yield {**mapped, "map": phi}, named


_R = 1.0 / math.sqrt(2.0)


def _edited(instance: dict, group: str, name: str, value) -> dict:
    return {**instance, group: {**instance[group], name: value}}


def test_instance_view_refuses_values_no_state_holds():
    # A state read back from a report must be one the evaluators accept: a
    # vector of norm sqrt 2 scored the kantorovich witness 4.0 with holds False,
    # and a negative spectrum or a skewed frame raised without naming its key.
    units, pairs = THEOREMS["kantorovich"], THEOREMS["wielandt_scalar"]
    witness = units.witnesses["kantorovich equality witness"]
    probed = {**witness, "probe": {"x": witness["vectors"]["x"]}}
    pair = {**pairs.witnesses["wielandt scalar equality pair"],
            "probe": {"x": [_R, _R], "y": [_R, -_R]}}
    assert instance_view(probed, units).probes[0].shape == (1, 1, 2)
    assert [p.shape for p in instance_view(pair, pairs).probes] == [(1, 1, 2)] * 2
    bad = [(units, _edited(witness, "vectors", "x", [1.0, 1.0]), "'vectors'['x']", "unit"),
           (units, _edited(probed, "probe", "x", [0.6, 0.6]), "'probe'['x']", "unit"),
           (units, _edited(witness, "frames", "a", [[1.0, 0.5], [0.0, 1.0]]), "'frames'['a']",
            "orthonormal"),
           (units, _edited(witness, "frames", "a", [[2.0, 0.0], [0.0, 1.0]]), "'frames'['a']",
            "orthonormal"),
           (pairs, _edited(pair, "probe", "y", [_R, _R]), "'probe'['y']", "orthogonal"),
           (pairs, _edited(pair, "probe", "y", [0.0, 2.0]), "'probe'['y']", "y must be a unit")]
    bad += [(units, _edited(witness, "spectra", "a", [value, 4.0]), "'spectra'['a']", "> 0")
            for value in (-1.0, 0.0, math.nan, math.inf)]
    for spec, instance, key, why in bad:
        with pytest.raises(ValueError, match=re.escape(key) + ".*" + why):
            instance_view(instance, spec)


def test_instance_view_names_what_an_instance_lacks_or_does_not_fit():
    # Instances come back from report files, so a missing key or a probe or map
    # of the wrong size is a ValueError naming it, not a KeyError or a numpy error.
    units, mapped = THEOREMS["kantorovich"], THEOREMS["lin_chain"]
    instance = {**units.witnesses["kantorovich equality witness"], "probe": {"x": [1.0, 0.0]}}
    assert instance_view(instance, units).probes[0].shape == (1, 1, 2)
    chain = {**mapped.witnesses["chain {} at m=M"], "map": {"kind": "trace_normalize"}}
    assert [part.kind for part in instance_view(chain, mapped).maps] == ["trace_normalize"]
    for bad, named in _bad_instances(instance, chain):
        spec = mapped if "map" in bad else units
        with pytest.raises(ValueError, match=re.escape(named)):
            instance_view(bad, spec)
    # An instance below its spec's min_dim is refused before its groups are read.
    pairs = THEOREMS["wielandt_scalar"]
    with pytest.raises(ValueError, match="'dim' of wielandt_scalar must be an integer >= 2"):
        instance_view({**pairs.witnesses["wielandt scalar equality pair"], "dim": 1}, pairs)
