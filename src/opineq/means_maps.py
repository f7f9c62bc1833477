"""Operator means and a catalog of positive unital linear maps.

The means are ``opineq.stacked``'s, on two SpdMatrix of one dimension,
and give an SpdMatrix; ``apply_map`` calls its stacked namesake on the
matrix itself, and ``_one_map`` is the one place a PositiveMapSpec
becomes a ``stacked.StackedMap``.
The geometric mean is computed by congruence with A's Cholesky factor
L, A#B = L (L^{-1} B L^{-T})^{1/2} L^T; the map catalog is restricted
to five concretely representable kinds, all of them completely positive
(hence 2-positive). Arbitrary user-supplied maps are rejected rather
than certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stacked
from .spd import SpdMatrix, _require_same_dim

MAP_KINDS = ("identity", "compression", "congruence_sum", "trace_normalize", "pinching")


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


@dataclass(frozen=True)
class PositiveMapSpec:
    """A representable positive unital linear map.

    kind: one of MAP_KINDS.
    isometry: n x r column-orthonormal V for ``compression`` (T -> V^T T V).
    family: matrices U_j with sum U_j^T U_j = I for ``congruence_sum``.
    blocks: index partition for ``pinching``.
    """

    kind: str
    in_dim: int
    out_dim: int
    isometry: np.ndarray | None = None
    family: tuple[np.ndarray, ...] | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if not (self.in_dim >= 1 and self.out_dim >= 1):
            raise ValueError(f"{self.kind} map needs sizes >= 1, got {self.in_dim} -> "
                             f"{self.out_dim}")


def identity_map(n: int) -> PositiveMapSpec:
    return PositiveMapSpec(kind="identity", in_dim=n, out_dim=n)


def trace_normalize_map(n: int) -> PositiveMapSpec:
    """T -> (tr T / n) I."""
    return PositiveMapSpec(kind="trace_normalize", in_dim=n, out_dim=n)


def compression_map(isometry) -> PositiveMapSpec:
    """T -> V^T T V for a column-orthonormal n x r matrix V."""
    v = np.array(isometry, dtype=float, order="C")
    if v.ndim != 2 or v.shape[0] < v.shape[1] or v.size == 0:
        raise ValueError(f"compression isometry must be tall n x r with r >= 1, got {v.shape}")
    v = stacked.compression_isometries(v)
    v.setflags(write=False)
    return PositiveMapSpec(kind="compression", in_dim=v.shape[0], out_dim=v.shape[1], isometry=v)


def congruence_sum_map(family) -> PositiveMapSpec:
    """T -> sum_j U_j^T T U_j with sum_j U_j^T U_j = I."""
    mats = tuple(np.array(u, dtype=float, order="C") for u in family)
    if not mats:
        raise ValueError("congruence family must be non-empty")
    n = mats[0].shape[0]
    if any(u.shape != (n, n) for u in mats) or n == 0:
        raise ValueError(f"congruence family members must share a non-empty square shape, "
                         f"got {[u.shape for u in mats]}")
    stacked.congruence_family(mats)
    for u in mats:
        u.setflags(write=False)
    return PositiveMapSpec(kind="congruence_sum", in_dim=n, out_dim=n, family=mats)


def pinching_map(blocks) -> PositiveMapSpec:
    """T -> block-diagonal restriction of T onto an index partition."""
    blocks = tuple(tuple(int(i) for i in block) for block in blocks)
    flat = sorted(i for block in blocks for i in block)
    n = len(flat)
    if flat != list(range(n)) or n == 0:
        raise ValueError(f"blocks must partition 0..n-1, got {blocks}")
    return PositiveMapSpec(kind="pinching", in_dim=n, out_dim=n, blocks=blocks)


def _one_map(spec: PositiveMapSpec, n: int) -> stacked.StackedMap:
    """A PositiveMapSpec on n x n matrices as a StackedMap whose data has one row.

    ``instance_view``'s one-row views pick that row; an (n, n) operand broadcasts against it.
    """
    if spec.kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {spec.kind!r}")
    if spec.in_dim != n:
        raise ValueError(f"expected {spec.in_dim}x{spec.in_dim} input, got {(n, n)}")
    data = {"compression": lambda: spec.isometry[None],
            "congruence_sum": lambda: tuple(u[None] for u in spec.family),
            "pinching": lambda: spec.blocks}.get(spec.kind, lambda: None)()
    return stacked.StackedMap.single(spec.kind, data)


def apply_map(spec: PositiveMapSpec, t) -> np.ndarray:
    """Evaluate the map on a square matrix (symmetry not required)."""
    t = t.entries if isinstance(t, SpdMatrix) else np.asarray(t, dtype=float)
    if t.shape != (spec.in_dim, spec.in_dim):
        raise ValueError(f"expected {spec.in_dim}x{spec.in_dim} input, got {t.shape}")
    return stacked.apply_map(_one_map(spec, spec.in_dim), t)
