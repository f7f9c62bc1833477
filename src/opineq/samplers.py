"""Hypothesis regimes, their windows, and seeded random primitives.

A regime is checked on a parameter box by regime_feasible, and
regime_window gives the spectrum window of its single constrained
operator. The samplers draw the random parts of instances, probes and
maps: Haar frames, window spectra with both ends attained, unit vectors,
orthonormal pairs and congruence families. An instance that satisfies a
regime is drawn only from its theorem's TheoremSpec space, by
``inequalities._draw_states``.

Each draw rule is written once, on the last axes of stacked rows: the
private ``_window_spectra``, ``_unit_vectors``, ``_second_vectors`` and
``_congruence_family`` here (``_gaussians`` redraws what a rule rejects),
the Haar frame in ``stacked.haar``. The public samplers apply them to
one draw, a campaign to a chunk's draws and a search to its moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import stacked
from .errors import InfeasibleRegime
from .spd import SpdMatrix, SpectralInterval, _is_real
from .stacked import _is_int

# A Gaussian draw is redrawn when its norm is at or below the floor:
# unit vectors at _UNIT_FLOOR, the second vector of a pair (after
# projecting out the first) at _PAIR_FLOOR.
_UNIT_FLOOR = 1e-12
_PAIR_FLOOR = 1e-8


class RegimeId(str, Enum):
    """Hypothesis regimes, one per family of theorem preconditions."""

    RELATIVE = "relative"                   # mA <= B <= MA, 1 < m < M
    SHIFTED = "shifted"                     # mI <= m'A <= B <= MI, m' > 1
    SANDWICH = "sandwich"                   # mI <= A <= m'I <= M'I <= B <= MI
    SELF_INVERSE_LOW = "self_inverse_low"   # mI <= m'A <= A^{-1} <= MI, m' > 1
    SELF_INVERSE_HIGH = "self_inverse_high" # mI <= m'A^{-1} <= A <= MI, m' > 1
    PLAIN = "plain"                         # mI <= A <= MI


@dataclass(frozen=True)
class BoundParams:
    """Scalar regime parameters (m, m', M', M) governing a hypothesis.

    m_prime and M_prime default to m and M for regimes that do not use
    them. h = M/m and K_h = (h+1)^2 / (4h) are derived.
    """

    m: float
    M: float
    m_prime: float = None
    M_prime: float = None

    def __post_init__(self):
        if self.m_prime is None:
            object.__setattr__(self, "m_prime", self.m)
        if self.M_prime is None:
            object.__setattr__(self, "M_prime", self.M)
        for name in ("m", "m_prime", "M_prime", "M"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def h(self) -> float:
        return self.M / self.m

    @property
    def K_h(self) -> float:
        h = self.h
        return (h + 1.0) ** 2 / (4.0 * h)

    def as_dict(self) -> dict:
        return {"m": self.m, "m_prime": self.m_prime, "M_prime": self.M_prime, "M": self.M}


def regime_feasible(regime: RegimeId, params: BoundParams) -> tuple[bool, str]:
    """Check the parameter box against a regime's hypothesis chain.

    Returns (ok, reason); reason names the violated bound when not ok.
    """
    m, mp, Mp, M = params.m, params.m_prime, params.M_prime, params.M
    if regime is RegimeId.PLAIN:
        if m > M:
            return False, f"plain needs m <= M: {m} > {M}"
        return True, ""
    if regime is RegimeId.RELATIVE:
        if not 1.0 < m:
            return False, f"relative needs 1 < m: m = {m}"
        if not m < M:
            return False, f"relative needs m < M: {m} >= {M}"
        return True, ""
    if regime is RegimeId.SHIFTED:
        if not mp > 1.0:
            return False, f"shifted needs m_prime > 1: m_prime = {mp}"
        if m > M:
            return False, f"shifted needs m <= M: {m} > {M}"
        return True, ""
    if regime is RegimeId.SANDWICH:
        if not m <= mp:
            return False, f"sandwich needs m <= m_prime: {m} > {mp}"
        if not mp <= Mp:
            return False, f"sandwich needs m_prime <= M_prime: {mp} > {Mp}"
        if not Mp <= M:
            return False, f"sandwich needs M_prime <= M: {Mp} > {M}"
        return True, ""
    if regime in (RegimeId.SELF_INVERSE_LOW, RegimeId.SELF_INVERSE_HIGH):
        if not mp > 1.0:
            return False, f"{regime.value} needs m_prime > 1: m_prime = {mp}"
        root = math.sqrt(mp)
        if m > root:
            return False, f"{regime.value} needs m <= sqrt(m_prime): {m} > {root}"
        if root > M:
            return False, f"{regime.value} needs sqrt(m_prime) <= M: {root} > {M}"
        return True, ""
    raise ValueError(f"unknown regime {regime!r}")


def _require_seed(seed) -> None:
    """Raise ValueError unless seed is a non-negative integer, as numpy's generators need."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def require_feasible(regime: RegimeId, params: BoundParams):
    ok, reason = regime_feasible(regime, params)
    if not ok:
        raise InfeasibleRegime(reason)


def regime_window(regime: RegimeId, params: BoundParams) -> SpectralInterval:
    """Admissible spectrum window for the single constrained operator.

    plain: [m, M]; shifted (window for A): [m/m', M/m'];
    self_inverse_low: [max(m/m', 1/M), 1/sqrt(m')];
    self_inverse_high: [sqrt(m'), min(m'/m, M)].
    """
    require_feasible(regime, params)
    m, mp, M = params.m, params.m_prime, params.M
    if regime is RegimeId.PLAIN:
        return SpectralInterval(m, M)
    if regime is RegimeId.SHIFTED:
        return SpectralInterval(m / mp, M / mp)
    if regime is RegimeId.SELF_INVERSE_LOW:
        return SpectralInterval(max(m / mp, 1.0 / M), 1.0 / math.sqrt(mp))
    if regime is RegimeId.SELF_INVERSE_HIGH:
        return SpectralInterval(math.sqrt(mp), min(mp / m, M))
    raise ValueError(f"no single-operator window for regime {regime.value}")


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with R-diagonal sign fix: stacked.haar."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return stacked.haar(rng.standard_normal((dim, dim)))


def _window_spectra(interval: SpectralInterval, uniform: np.ndarray) -> np.ndarray:
    """Each row's uniform draws on [lo, hi], sorted; from size 2 on, the ends are lo and hi."""
    vals = np.sort(uniform, axis=-1)
    if vals.shape[-1] >= 2:
        vals[..., 0] = interval.lo
        vals[..., -1] = interval.hi
    return vals


def sample_spd(dim: int, interval: SpectralInterval, rng: np.random.Generator) -> SpdMatrix:
    """Random SPD matrix with spectrum in [lo, hi] on a Haar orthogonal frame.

    The eigenvalues are _window_spectra's: uniform in the window, with
    both endpoints attained from dim 2 on.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vals = _window_spectra(interval, rng.uniform(interval.lo, interval.hi, size=dim))
    return SpdMatrix.from_eigh(vals, haar_orthogonal(dim, rng))


def _normalized(x: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """x over the sqrt of its own stacked.dot along the last axis, and whether that is > floor."""
    norm = np.sqrt(stacked.dot(x, x))
    return x / norm[..., None], norm > floor


def _unit_vectors(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each Gaussian draw along the last axis scaled to unit length, and whether it is kept."""
    return _normalized(g, _UNIT_FLOOR)


def _second_vectors(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian draws g made orthonormal to the unit vectors x (Gram-Schmidt), and whether kept."""
    return _normalized(g - stacked.dot(x, g)[..., None] * x, _PAIR_FLOOR)


def _orthonormal_pairs(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y) from Gaussian pairs (..., 2, n), and whether both are kept."""
    x, x_kept = _unit_vectors(g[..., 0, :])
    y, y_kept = _second_vectors(x, g[..., 1, :])
    return x, y, x_kept & y_kept


def _gaussians(rng, key, redraw, shape: tuple, count: int, rule) -> np.ndarray:
    """count blocks of Gaussians shaped ``shape`` from rng(key), a key's generator.

    A block that ``rule`` rejects (its last output) is drawn again alone,
    in order, from rng(redraw).
    """
    g = rng(key).standard_normal((count, *shape))
    for item in zip(*np.nonzero(~rule(g)[-1])):
        while not rule(g[item])[-1]:
            g[item] = rng(redraw).standard_normal(g[item].shape)
    return g


def sample_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian direction normalized to unit length."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return _unit_vectors(_gaussians(lambda key: rng, None, None, (dim,), 1, _unit_vectors)[0])[0]


def sample_orthonormal_pair(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors (x, y), Gram-Schmidt on Gaussian draws."""
    if dim < 2:
        raise ValueError("orthonormal pair needs dim >= 2")
    return _orthonormal_pairs(
        _gaussians(lambda key: rng, None, None, (2, dim), 1, _orthonormal_pairs)[0])[:2]


@dataclass(frozen=True)
class IsometryPair:
    """Two n x r column-orthonormal matrices with orthogonal ranges."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 2 or x.size == 0:
            raise ValueError(f"isometries must share an n x r shape with r >= 1, got "
                             f"{x.shape} and {y.shape}")
        stacked.require_isometry_pair(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


_WEIGHT_RANGE = (0.2, 1.0)  # a congruence family's weights, before they are normalized


def _congruence_family(q: np.ndarray, uniform: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's U_j = D_j Q from its frame Q (..., n, n) and k weights, sum_j D_j^2 = I."""
    weights = uniform / np.sqrt((uniform ** 2).sum(axis=-2))[..., None, :]
    return tuple(weights[..., j, :, None] * q for j in range(uniform.shape[-2]))


def sample_congruence_family(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Matrices U_j = D_j Q with sum_j U_j^T U_j = I.

    Q is Haar orthogonal and the D_j are diagonal positive weights
    normalized so sum_j D_j^2 = I; k = 1 returns a single orthogonal
    matrix.
    """
    if k < 1:
        raise ValueError(f"family size must be >= 1, got {k}")
    q = haar_orthogonal(n, rng)
    return _congruence_family(q, rng.uniform(*_WEIGHT_RANGE, size=(k, n)))
