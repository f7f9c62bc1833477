"""Operator means and a catalog of positive unital linear maps.

The means are ``opineq.stacked``'s, on two SpdMatrix of one dimension,
and give an SpdMatrix. A PositiveMapSpec is the ``stacked.StackedMap``
of one instance, and ``apply_map`` calls its stacked namesake on it.
The geometric mean is computed by congruence with A's Cholesky factor
L, made on first need, A#B = L (L^{-1} B L^{-T})^{1/2} L^T; the map
catalog is restricted to five concretely representable kinds, all of
them completely positive (hence 2-positive). Arbitrary user-supplied maps are rejected rather
than certified.
"""

from __future__ import annotations

import numpy as np

from . import stacked
from .spd import SpdMatrix, _require_same_dim


def geometric_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.

    Computed as L (L^{-1} B L^{-T})^{1/2} L^T with A = L L^T by A's
    Cholesky factor (Iannazzo, NLAA 2016); the one ``eigh`` is the inner
    matrix's, for its square root.
    """
    _require_same_dim(a, b)
    return stacked.geometric_mean(a, b)


def arithmetic_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """(A + B) / 2."""
    _require_same_dim(a, b)
    return stacked.arithmetic_mean(a, b)


class PositiveMapSpec(stacked.StackedMap):
    """One instance's positive unital map: a StackedMap of one part on one row."""

    kind = property(lambda self: self[0].kind)
    out_dim = property(lambda self: self[0].size(self.in_dim))


def identity_map(n: int) -> PositiveMapSpec:
    return PositiveMapSpec.catalog("identity", n)


def trace_normalize_map(n: int) -> PositiveMapSpec:
    """T -> (tr T / n) I."""
    return PositiveMapSpec.catalog("trace_normalize", n)


def compression_map(isometry) -> PositiveMapSpec:
    """T -> V^T T V for a column-orthonormal n x r matrix V."""
    return PositiveMapSpec.catalog("compression", isometry)


def congruence_sum_map(family) -> PositiveMapSpec:
    """T -> sum_j U_j^T T U_j with sum_j U_j^T U_j = I."""
    return PositiveMapSpec.catalog("congruence_sum", family)


def pinching_map(blocks) -> PositiveMapSpec:
    """T -> block-diagonal restriction of T onto a partition of 0..n-1 into integer blocks."""
    return PositiveMapSpec.catalog("pinching", blocks)


def apply_map(spec: PositiveMapSpec, t) -> np.ndarray:
    """Evaluate the map on a square matrix (symmetry not required)."""
    t = t.entries if isinstance(t, SpdMatrix) else np.asarray(t, dtype=float)
    if t.shape != (spec.in_dim, spec.in_dim):
        raise ValueError(f"expected {spec.in_dim}x{spec.in_dim} input, got {t.shape}")
    return stacked.apply_map(spec, t)
