import math

import numpy as np
import pytest

from opineq import (
    BoundParams,
    InfeasibleRegime,
    IsometryPair,
    RegimeId,
    SpectralInterval,
    haar_orthogonal,
    regime_feasible,
    regime_window,
    require_feasible,
    sample_congruence_family,
    sample_orthonormal_pair,
    sample_spd,
    sample_unit_vector,
)
from opineq.samplers import _orthonormal_pairs

DIMS = (2, 3, 4, 8)
SLACK = 1e-10


def test_bound_params_defaults_and_derived():
    p = BoundParams(m=0.5, M=4.0)
    assert (p.m_prime, p.M_prime) == (0.5, 4.0)
    assert p.h == pytest.approx(8.0)
    assert p.K_h == pytest.approx(81.0 / 32.0)
    assert p.as_dict() == {"m": 0.5, "m_prime": 0.5, "M_prime": 4.0, "M": 4.0}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True, np.bool_(True)])
def test_bound_params_rejects_nonpositive(bad):
    with pytest.raises(ValueError, match="must be a positive finite number"):
        BoundParams(m=bad, M=4.0)


@pytest.mark.parametrize("value", [np.int64(1), np.int32(2), np.float32(1.5)])
def test_bound_params_accepts_numpy_numbers(value):
    p = BoundParams(m=value, M=4, m_prime=value)
    assert (p.m, p.m_prime, p.M) == (float(value), float(value), 4.0)
    assert all(type(v) is float for v in p.as_dict().values())


def test_feasibility_matches_scalar_brute_force():
    """Window emptiness decided on a dense scalar grid must agree with
    the closed-form rules, for every regime that reduces to one window.

    The grid alone misses windows that collapse to a single point such
    as (m, m', M) = (0.5, 4, 2), so every candidate boundary value is
    appended before testing satisfiability."""
    base = np.linspace(1e-3, 20.0, 4000)
    grid = [0.5 * k for k in range(1, 11)]
    for m in grid:
        for mp in grid:
            for M in grid:
                params = BoundParams(m=m, M=M, m_prime=mp)
                edges = [m / mp, 1.0 / M, 1.0 / math.sqrt(mp),
                         math.sqrt(mp), mp / m, M]
                lams = np.concatenate([base, edges])
                low_ok = regime_feasible(RegimeId.SELF_INVERSE_LOW, params)[0]
                chain = (m <= mp * lams) & (mp * lams <= 1.0 / lams) & (1.0 / lams <= M)
                brute = mp > 1.0 and bool(np.any(chain))
                assert low_ok == brute, (m, mp, M, "low")
                high_ok = regime_feasible(RegimeId.SELF_INVERSE_HIGH, params)[0]
                chain = (m <= mp / lams) & (mp / lams <= lams) & (lams <= M)
                brute = mp > 1.0 and bool(np.any(chain))
                assert high_ok == brute, (m, mp, M, "high")
                shifted_ok = regime_feasible(RegimeId.SHIFTED, params)[0]
                assert shifted_ok == (mp > 1.0 and m <= M), (m, mp, M, "shifted")


def test_feasibility_other_regimes():
    assert regime_feasible(RegimeId.PLAIN, BoundParams(m=1.0, M=1.0))[0]
    assert not regime_feasible(RegimeId.PLAIN, BoundParams(m=2.0, M=1.0))[0]
    assert regime_feasible(RegimeId.RELATIVE, BoundParams(m=1.5, M=2.0))[0]
    assert not regime_feasible(RegimeId.RELATIVE, BoundParams(m=1.0, M=2.0))[0]
    assert not regime_feasible(RegimeId.RELATIVE, BoundParams(m=2.0, M=2.0))[0]
    good = BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0)
    assert regime_feasible(RegimeId.SANDWICH, good)[0]
    bad = BoundParams(m=1.0, m_prime=3.5, M_prime=3.0, M=4.0)
    ok, reason = regime_feasible(RegimeId.SANDWICH, bad)
    assert not ok and "m_prime <= M_prime" in reason


def test_require_feasible_raises_with_reason():
    with pytest.raises(InfeasibleRegime, match="m_prime > 1"):
        require_feasible(RegimeId.SHIFTED, BoundParams(m=1.0, M=4.0, m_prime=1.0))


def test_regime_window_closed_forms():
    p = BoundParams(m=0.5, M=4.0, m_prime=2.0)
    w = regime_window(RegimeId.PLAIN, p)
    assert (w.lo, w.hi) == (0.5, 4.0)
    w = regime_window(RegimeId.SHIFTED, p)
    assert (w.lo, w.hi) == (0.25, 2.0)
    w = regime_window(RegimeId.SELF_INVERSE_LOW, p)
    assert w.lo == pytest.approx(max(0.25, 0.25))
    assert w.hi == pytest.approx(1.0 / math.sqrt(2.0))
    w = regime_window(RegimeId.SELF_INVERSE_HIGH, p)
    assert w.lo == pytest.approx(math.sqrt(2.0))
    assert w.hi == pytest.approx(min(4.0, 4.0))
    with pytest.raises(ValueError, match="window"):
        regime_window(RegimeId.SANDWICH, BoundParams(m=1.0, m_prime=2.0, M_prime=3.0, M=4.0))


def test_haar_orthogonal_is_orthogonal(rng):
    for dim in DIMS:
        q = haar_orthogonal(dim, rng)
        assert np.allclose(q.T @ q, np.eye(dim), atol=1e-12)


def test_sample_spd_pins_endpoints(rng):
    window = SpectralInterval(0.7, 3.1)
    for dim in DIMS:
        for _ in range(50):
            a = sample_spd(dim, window, rng)
            vals = a.eigenvalues
            assert vals[0] == pytest.approx(window.lo, abs=SLACK)
            assert vals[-1] == pytest.approx(window.hi, abs=SLACK)
            assert np.all(vals >= window.lo - SLACK)
            assert np.all(vals <= window.hi + SLACK)


def test_sample_spd_degenerate_and_dim_one(rng):
    a = sample_spd(1, SpectralInterval(0.7, 3.1), rng)
    assert 0.7 <= a.eigenvalues[0] <= 3.1
    b = sample_spd(3, SpectralInterval(2.0, 2.0), rng)
    assert np.allclose(b.entries, 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        sample_spd(0, SpectralInterval(1.0, 2.0), rng)


def test_sample_unit_vector_and_pair(rng):
    for dim in DIMS:
        x = sample_unit_vector(dim, rng)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        x, y = sample_orthonormal_pair(dim, rng)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert np.linalg.norm(y) == pytest.approx(1.0)
        assert abs(x @ y) < 1e-10
    with pytest.raises(ValueError):
        sample_orthonormal_pair(1, rng)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_orthonormal_pair_is_the_pair_rule_on_the_same_draws(dim):
    # The sampler draws the rule's (2, dim) Gaussians, x's row first, and
    # redraws the whole block when the rule rejects it.
    for seed in range(20):
        x, y, kept = _orthonormal_pairs(np.random.default_rng(seed).standard_normal((2, dim)))
        assert kept
        got = sample_orthonormal_pair(dim, np.random.default_rng(seed))
        assert all(map(np.array_equal, got, (x, y)))
    # A first block whose x is below the unit floor is drawn again whole.
    first = np.random.default_rng(1).standard_normal((1, 2, dim))
    first[0, 0] = 1e-14
    again = np.random.default_rng(0).standard_normal((2, dim))
    got = sample_orthonormal_pair(dim, _Draws([first, again]))
    assert all(map(np.array_equal, got, _orthonormal_pairs(again)[:2]))


class _Draws:
    """A generator stand-in whose standard_normal returns the given arrays in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, size=None):
        assert self.draws[0].shape == size
        return self.draws.pop(0)


class _FewDraws:
    """A generator stand-in that raises after a few draws, so a sampler that loops fails."""

    def __init__(self, limit: int = 5):
        self.left = limit

    def standard_normal(self, size=None):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("the sampler kept drawing")
        return np.zeros(size)


@pytest.mark.parametrize("dim", [0, -1])
def test_sample_unit_vector_rejects_dims_below_one(dim):
    with pytest.raises(ValueError, match="dim must be >= 1"):
        sample_unit_vector(dim, _FewDraws())


@pytest.mark.parametrize("dim", (0, -1))
def test_haar_frame_and_congruence_family_reject_dims_below_one(dim):
    with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
        haar_orthogonal(dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
        sample_congruence_family(dim, 2, np.random.default_rng(0))


def test_isometry_pair_validation():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    IsometryPair(e1, e2)
    with pytest.raises(ValueError, match="orthonormal"):
        IsometryPair(2.0 * e1, e2)
    with pytest.raises(ValueError, match="orthogonal"):
        IsometryPair(e1, e1)
    with pytest.raises(ValueError, match="shape"):
        IsometryPair(np.eye(2), e2)


def test_congruence_family_normalized(rng):
    for k in (1, 2, 4):
        family = sample_congruence_family(3, k, rng)
        assert len(family) == k
        total = sum(u.T @ u for u in family)
        assert np.allclose(total, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        sample_congruence_family(3, 0, rng)


def test_draws_are_reproducible():
    a = sample_spd(4, SpectralInterval(1.0, 2.0), np.random.default_rng(7))
    b = sample_spd(4, SpectralInterval(1.0, 2.0), np.random.default_rng(7))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (math.inf, math.inf)])
def test_unbounded_spectral_windows_are_rejected_by_name(lo, hi):
    # An unbounded window used to reach sample_spd, where numpy's uniform overflowed.
    with pytest.raises(ValueError, match=r"invalid spectral interval .*needs finite"):
        SpectralInterval(lo, hi)


def test_isometry_pairs_without_columns_are_rejected_by_name():
    with pytest.raises(ValueError, match=r"n x r shape with r >= 1, got \(2, 0\)"):
        IsometryPair(np.zeros((2, 0)), np.zeros((2, 0)))
