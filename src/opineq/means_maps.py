"""Operator means and a catalog of positive unital linear maps.

The geometric mean is computed by congruence with A^{+-1/2}; the map
catalog is restricted to five concretely representable kinds, all of
them completely positive (hence 2-positive). Arbitrary user-supplied
maps are rejected rather than certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spd import SpdMatrix, _require_orthonormal, make_spd

MAP_KINDS = ("identity", "compression", "congruence_sum", "trace_normalize", "pinching")

_MAP_TOL = 1e-10


def _require_equal_dims(a: SpdMatrix, b: SpdMatrix):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def geometric_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}."""
    _require_equal_dims(a, b)
    root = a.sqrt().entries
    inv_root = a.inv_sqrt().entries
    inner = make_spd(inv_root @ b.entries @ inv_root)
    return make_spd(root @ inner.sqrt().entries @ root)


def arithmetic_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """(A + B) / 2."""
    _require_equal_dims(a, b)
    return make_spd(0.5 * (a.entries + b.entries))


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


def identity_map(n: int) -> PositiveMapSpec:
    return PositiveMapSpec(kind="identity", in_dim=n, out_dim=n)


def trace_normalize_map(n: int) -> PositiveMapSpec:
    """T -> (tr T / n) I."""
    return PositiveMapSpec(kind="trace_normalize", in_dim=n, out_dim=n)


def compression_map(isometry) -> PositiveMapSpec:
    """T -> V^T T V for a column-orthonormal n x r matrix V."""
    v = np.asarray(isometry, dtype=float)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise ValueError(f"compression isometry must be tall n x r, got {v.shape}")
    _require_orthonormal(v, "compression", _MAP_TOL)
    v = v.copy()
    v.setflags(write=False)
    return PositiveMapSpec(kind="compression", in_dim=v.shape[0], out_dim=v.shape[1], isometry=v)


def congruence_sum_map(family) -> PositiveMapSpec:
    """T -> sum_j U_j^T T U_j with sum_j U_j^T U_j = I."""
    mats = tuple(np.asarray(u, dtype=float) for u in family)
    if not mats:
        raise ValueError("congruence family must be non-empty")
    n = mats[0].shape[0]
    if any(u.shape != (n, n) for u in mats):
        raise ValueError("congruence family members must share a square shape")
    total = sum(u.T @ u for u in mats)
    defect = np.abs(total - np.eye(n)).max()
    if defect > _MAP_TOL:
        raise ValueError(f"congruence family not normalized: sum U^T U defect {defect:.3e}")
    frozen = []
    for u in mats:
        u = u.copy()
        u.setflags(write=False)
        frozen.append(u)
    return PositiveMapSpec(kind="congruence_sum", in_dim=n, out_dim=n, family=tuple(frozen))


def pinching_map(blocks) -> PositiveMapSpec:
    """T -> block-diagonal restriction of T onto an index partition."""
    blocks = tuple(tuple(int(i) for i in block) for block in blocks)
    flat = sorted(i for block in blocks for i in block)
    n = len(flat)
    if flat != list(range(n)) or n == 0:
        raise ValueError(f"blocks must partition 0..n-1, got {blocks}")
    return PositiveMapSpec(kind="pinching", in_dim=n, out_dim=n, blocks=blocks)


def apply_map(spec: PositiveMapSpec, t) -> np.ndarray:
    """Evaluate the map on a square matrix (symmetry not required)."""
    t = t.entries if isinstance(t, SpdMatrix) else np.asarray(t, dtype=float)
    if t.shape != (spec.in_dim, spec.in_dim):
        raise ValueError(f"expected {spec.in_dim}x{spec.in_dim} input, got {t.shape}")
    if spec.kind == "identity":
        return t.copy()
    if spec.kind == "compression":
        return spec.isometry.T @ t @ spec.isometry
    if spec.kind == "congruence_sum":
        return sum(u.T @ t @ u for u in spec.family)
    if spec.kind == "trace_normalize":
        return np.eye(spec.in_dim) * (np.trace(t) / spec.in_dim)
    if spec.kind == "pinching":
        out = np.zeros_like(t)
        for block in spec.blocks:
            ix = np.ix_(block, block)
            out[ix] = t[ix]
        return out
    raise ValueError(f"unknown map kind {spec.kind!r}")

