"""Stacked counterparts of the per-instance algebra, for many instances at once.

Every array here carries a leading axis of rows, one row per instance:
a campaign stacks the draws of a cell, a search the candidate states
of one block of proposals. Each function does, row by row, what its
namesake in ``spd``, ``means_maps`` or the record builders of
``inequalities`` does to one instance: the same operations, in the
same order, on operands of the same shape, so each row gets the bits
the per-instance call gets. A vector is a (..., 1, n) or (..., n, 1)
matrix, because a stacked (k, n) @ (n, n) product sums in another order
than k products of a vector with a matrix. A Python float operation
that the per-instance code makes on each value (``x ** 2``,
``math.log``) is made value by value here too, since numpy's rounds
differently in the last bit.

A view's ``params`` is one BoundParams shared by every row, or a tuple
with each row's own, as a search block has when a parameter move gave
a row its own. The evaluators read their constants through
``per_row``, which computes each row's with the per-instance code, and
the record builders take a constant as a scalar or as an array of
each row's own.

A map is given per row, as a StackedMap whose parts each apply one
kind to their own rows; all parts map to one output size, so an
evaluator makes one pass per output size over rows of mixed kinds.

Every check the per-instance code makes on every instance (finite
positive eigenvalues, the eigenframe Gram check, the map and isometry
checks) is made on every row, with the same tolerance and the same
exception type.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleRegime, NotPositiveDefinite
from .means_maps import _MAP_TOL
from .spd import _FRAME_TOL, _SCALAR_FUNCS


def per_value(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each value as a Python float, as a per-instance checker applies it."""
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(values.shape)


def squares(values: np.ndarray) -> np.ndarray:
    """Each value ``** 2`` as a Python float: C pow, which can differ from x * x in the last bit."""
    return per_value(lambda v: v ** 2, values)


def _t(x: np.ndarray) -> np.ndarray:
    """Each row's transpose."""
    return np.swapaxes(x, -1, -2)


def symmetrize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + _t(x))


def per_row(fn, params):
    """fn(params), or fn of each row's params as an (S,) array when rows have their own.

    A tuple-valued fn gives a tuple of arrays. Every value is fn's
    Python float, as the per-instance code computes it.
    """
    if not isinstance(params, tuple):
        return fn(params)
    values = [fn(p) for p in params]
    if isinstance(values[0], tuple):
        return tuple(np.array(column) for column in zip(*values))
    return np.array(values)


def _like(value, rows):
    """A scalar as it is; a per-row (S,) value with the axes to broadcast against ``rows``."""
    if not isinstance(value, np.ndarray):
        return value
    return value.reshape(value.shape + (1,) * (rows.ndim - 1))


def _per_record(value, rows) -> np.ndarray:
    """A scalar or per-row value for every record of ``rows``."""
    return np.full(rows.shape, _like(value, rows))


def _pymax(a, b):
    """Python's max(a, b) per value: b only where b > a, so a NaN first argument stays."""
    return np.where(b > a, b, a)


def _first_bad(*oks: np.ndarray) -> int:
    """The first row where one of the checks failed."""
    return [all(row) for row in zip(*(ok.ravel().tolist() for ok in oks))].index(False)


def _require_positive(vals: np.ndarray) -> None:
    # min and max propagate NaN, which fails both comparisons.
    lo, hi = vals.min(axis=-1), vals.max(axis=-1)
    above, finite = 0.0 < lo, hi < np.inf
    if not (above.all() and finite.all()):
        row = _first_bad(above, finite)
        raise NotPositiveDefinite(
            f"eigenvalues must be finite and > 0, got min {lo.ravel()[row]} (row {row})")


def require_orthonormal(vecs: np.ndarray, label: str, tol: float) -> None:
    """Raise ValueError unless every row's columns are orthonormal to ``tol``."""
    defect = np.abs(_t(vecs) @ vecs - np.eye(vecs.shape[-1])).max(axis=(-2, -1))
    if (defect > tol).any():
        raise ValueError(f"{label} columns not orthonormal (defect {defect.max():.3e})")


def require_spectrum(a: "StackedSpd", lo, hi, label: str, tol: float) -> None:
    """inequalities._require_spectrum on every row: A's spectrum inside [lo, hi].

    lo and hi are scalars or each row's own.
    """
    vals = a.eigenvalues
    lo_ok = vals[:, 0] >= lo * (1.0 - tol) - 1e-14
    hi_ok = vals[:, -1] <= hi * (1.0 + tol) + 1e-14
    if not (lo_ok.all() and hi_ok.all()):
        row = _first_bad(lo_ok, hi_ok)
        lo, hi = (np.broadcast_to(bound, lo_ok.shape)[row] for bound in (lo, hi))
        raise InfeasibleRegime(
            f"{label} spectrum [{vals[row, 0]:.8g}, {vals[row, -1]:.8g}] "
            f"outside window [{lo:.8g}, {hi:.8g}]")


def haar(z: np.ndarray) -> np.ndarray:
    """samplers.haar_orthogonal on every row of stacked Gaussian draws: one QR."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class StackedSpd:
    """Rows of SpdMatrix: entries (S, n, n), ascending spectra (S, n), frames (S, n, n).

    Built as SpdMatrix builds each row: a raw stack is symmetrized and
    decomposed by one stacked ``eigh``, and ``from_eigh`` takes spectral
    factors, sorts them and checks the frames. Derived matrices reuse
    the frames, are memoised, and check an ``eigh`` frame on first use.
    """

    __slots__ = ("entries", "eigenvalues", "eigenvectors", "_frame_checked", "_derived")

    def __init__(self, entries: np.ndarray, eig=None):
        entries = symmetrize(entries)
        self._frame_checked = eig is not None
        if eig is None:
            try:
                eig = np.linalg.eigh(entries)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"eigendecomposition failed: {exc}") from exc
            _require_positive(eig[0])
        self.eigenvalues, self.eigenvectors = eig
        self.entries = entries
        self._derived = {}

    @classmethod
    def from_eigh(cls, vals: np.ndarray, vecs: np.ndarray) -> "StackedSpd":
        _require_positive(vals)
        require_orthonormal(vecs, "eigenvector", _FRAME_TOL)
        return cls._sorted(vals, vecs)

    @classmethod
    def _sorted(cls, vals, vecs) -> "StackedSpd":
        # A stable argsort leaves ascending rows as they are and reverses
        # strictly descending ones (the spectra of inv and inv_sqrt).
        if (vals[:, 1:] >= vals[:, :-1]).all():
            vecs = np.ascontiguousarray(vecs)
        elif (vals[:, 1:] < vals[:, :-1]).all():
            vals, vecs = vals[:, ::-1], np.ascontiguousarray(vecs[..., ::-1])
        else:
            order = vals.argsort(axis=-1, kind="stable")
            vals = np.take_along_axis(vals, order, axis=-1)
            vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
        return cls((vecs * vals[..., None, :]) @ _t(vecs), (vals, vecs))

    def _on_frame(self, vals) -> "StackedSpd":
        _require_positive(vals)
        if not self._frame_checked:
            require_orthonormal(self.eigenvectors, "eigenvector", _FRAME_TOL)
            self._frame_checked = True
        return StackedSpd._sorted(vals, self.eigenvectors)

    def _apply(self, name: str) -> "StackedSpd":
        derived = self._derived.get(name)
        if derived is None:
            derived = self._derived[name] = self._on_frame(_SCALAR_FUNCS[name](self.eigenvalues))
        return derived

    def sqrt(self) -> "StackedSpd":
        return self._apply("sqrt")

    def inv(self) -> "StackedSpd":
        return self._apply("inv")

    def inv_sqrt(self) -> "StackedSpd":
        return self._apply("inv_sqrt")

    def square(self) -> "StackedSpd":
        return self._apply("square")

    def scaled(self, factor) -> "StackedSpd":
        """Each row times its factor: a scalar or each row's own."""
        return self._on_frame(_like(factor, self.eigenvalues) * self.eigenvalues)


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, StackedSpd) else x


def bilinear(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x A y for probe stacks x, y (S, k, n) against A (S, n, n), as (S, k)."""
    return ((x[..., None, :] @ _entries(a)[:, None]) @ y[..., :, None])[..., 0, 0]


def quad_form(a, x: np.ndarray) -> np.ndarray:
    """<Ax, x> for every probe, as SpdMatrix.quad_form computes it."""
    return bilinear(a, x, x)


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y of the vectors along the last axis, each as a 1 x n by n x 1 product."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def operator_norm(x) -> np.ndarray:
    if isinstance(x, StackedSpd):
        vals = x.eigenvalues
    else:
        vals = np.linalg.eigvalsh(symmetrize(x))
    return _pymax(np.abs(vals[..., 0]), np.abs(vals[..., -1]))


def spectral_norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False).max(axis=-1)


def geometric_mean(a: StackedSpd, b: StackedSpd) -> StackedSpd:
    root = a.sqrt().entries
    inv_root = a.inv_sqrt().entries
    inner = StackedSpd(inv_root @ b.entries @ inv_root)
    return StackedSpd(root @ inner.sqrt().entries @ root)


def arithmetic_mean(a: StackedSpd, b: StackedSpd) -> StackedSpd:
    return StackedSpd(0.5 * (a.entries + b.entries))


class MapPart(NamedTuple):
    """The rows of a stack whose maps share one kind, with each row's own data.

    ``rows`` indexes the stack. ``data`` is the isometries of
    compression, one (n, r) per row; the members of congruence_sum, each
    one (n, n) per row; the index partition of pinching; else None.
    """

    rows: object
    kind: str
    data: object = None


class StackedMap(tuple):
    """Each row's positive unital map, as MapParts that partition the rows.

    Every part maps to the same output size, so one evaluator pass takes
    every row of a stack whatever its map's kind: a campaign chunk makes
    one StackedMap per output size. A map of one kind on every row, such
    as a search block's identity, is one part.
    """

    @classmethod
    def single(cls, kind: str, data=None) -> "StackedMap":
        """The map of one kind on every row."""
        return cls((MapPart(slice(None), kind, data),))


def compression_isometries(v: np.ndarray) -> np.ndarray:
    """means_maps.compression_map's check on every row, and its copy."""
    require_orthonormal(v, "compression", _MAP_TOL)
    return np.ascontiguousarray(v)


def congruence_family(family: tuple) -> tuple:
    """means_maps.congruence_sum_map's check on every row: sum_j U_j^T U_j = I."""
    total = sum(_t(u) @ u for u in family)
    defect = np.abs(total - np.eye(family[0].shape[-1])).max(axis=(-2, -1))
    if (defect > _MAP_TOL).any():
        raise ValueError(f"congruence family not normalized: sum U^T U defect {defect.max():.3e}")
    return family


def _apply_kind(kind: str, data, t: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return t
    if kind == "compression":
        return _t(data) @ t @ data
    if kind == "congruence_sum":
        return sum(_t(u) @ t @ u for u in data)
    n = t.shape[-1]
    if kind == "trace_normalize":
        return np.eye(n) * (np.trace(t, axis1=-2, axis2=-1) / n)[:, None, None]
    out = np.zeros_like(t)
    for block in data:
        rows, cols = np.ix_(block, block)
        out[:, rows, cols] = t[:, rows, cols]
    return out


def apply_map(phi: StackedMap, t) -> np.ndarray:
    """Each part's kind on its own rows, put back in row order."""
    t = _entries(t)
    out = None
    for rows, kind, data in phi:
        part = _apply_kind(kind, data, t[rows])
        if out is None:
            out = np.empty((len(t),) + part.shape[1:], part.dtype)
        out[rows] = part
    return out


def loewner_leq(lhs, rhs, tol: float, atol=0.0) -> np.ndarray:
    """Rows of spd.loewner_leq's verdict: lambda_min(RHS - LHS) >= -max(tol ||RHS||, atol)."""
    gap = np.linalg.eigvalsh(symmetrize(_entries(rhs) - _entries(lhs)))[..., 0]
    return gap >= -_pymax(tol * operator_norm(rhs), atol)


def scalar_leq(lhs, rhs, tol: float, scale=None, atol=0.0) -> np.ndarray:
    """Rows of spd.scalar_leq's verdict: rhs - lhs >= -max(tol * scale, atol)."""
    if scale is None:
        scale = np.abs(rhs)
    return (rhs - lhs) >= -_pymax(tol * scale, atol)


def loewner_ratio(lhs, rhs: StackedSpd) -> np.ndarray:
    w = rhs.inv_sqrt().entries
    return np.linalg.eigvalsh(symmetrize(w @ _entries(lhs) @ w))[..., -1]


class Rows(NamedTuple):
    """Per-record outcomes of a stack of instances, one array each.

    ``classical`` is True where a record has no classical verdict, so
    that only failed classical checks count. ``improvement`` is each
    record's improvement_ratio, 1 / kappa^p (1 where it has none).
    """

    ratio: np.ndarray
    holds: np.ndarray
    classical: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    improvement: np.ndarray

    @classmethod
    def columns(cls, parts) -> "Rows":
        """The records of several builders, side by side in record order."""
        return cls(*(np.stack(field, axis=-1) for field in zip(*parts)))


def _ratio(num, den, holds) -> np.ndarray:
    """num / den, or the degenerate ratio (1 where the check holds, else inf) where den is 0."""
    return np.where(den != 0.0, num / den, np.where(holds, 1.0, np.inf))


# The record builders take c and kappa_pow as scalars or as each row's own.


def _improvement(kappa_pow, rows) -> np.ndarray:
    return _per_record(1.0 if kappa_pow is None else 1.0 / kappa_pow, rows)


def scalar_rows(lhs, core, tol: float, c=1.0, kappa_pow=None, **leq) -> Rows:
    """Rows of inequalities._scalar_record: lhs <= (c / kappa_pow) core."""
    refined = c if kappa_pow is None else c / kappa_pow
    rhs = np.broadcast_to(_like(refined, lhs) * core, np.shape(lhs))
    holds = scalar_leq(lhs, rhs, tol, **leq)
    classical = (np.ones_like(holds) if kappa_pow is None
                 else scalar_leq(lhs, _like(c, lhs) * core, tol, **leq))
    return Rows(_ratio(lhs, rhs, holds), holds, classical, lhs, rhs,
                _improvement(kappa_pow, lhs))


def loewner_rows(lhs, core: StackedSpd, tol: float, c=1.0, kappa_pow=None, atol=0.0) -> Rows:
    """Rows of inequalities._loewner_record: L <= (c / kappa_pow) CORE."""
    refined = c if kappa_pow is None else c / kappa_pow
    holds = loewner_leq(lhs, _like(refined, core.entries) * core.entries, tol, atol)
    classical = (np.ones_like(holds) if kappa_pow is None
                 else loewner_leq(lhs, _like(c, core.entries) * core.entries, tol, atol))
    top = operator_norm(lhs)
    rhs = refined * operator_norm(core)
    # A row whose refined constant is 0 takes the degenerate ratio; scaling
    # its CORE by 1 instead keeps the stack positive definite.
    nonzero = refined != 0.0
    if np.all(nonzero):
        ratio = loewner_ratio(lhs, core.scaled(refined))
    else:
        ratio = np.where(nonzero, loewner_ratio(lhs, core.scaled(np.where(nonzero, refined, 1.0))),
                         np.where(holds, 1.0, np.inf))
    return Rows(ratio, holds, classical, top, rhs, _improvement(kappa_pow, top))


def identity_rows(lhs, tol: float, c, kappa_pow=None, classical_lhs=None) -> Rows:
    """Rows of inequalities._identity_record: L <= (c / kappa_pow) I."""
    refined = c if kappa_pow is None else c / kappa_pow
    entries = _entries(lhs)
    eye = np.eye(entries.shape[-1])
    holds = loewner_leq(lhs, _like(refined, entries) * eye, tol)
    if kappa_pow is None and classical_lhs is None:
        classical = holds
    else:
        classical = loewner_leq(lhs if classical_lhs is None else classical_lhs,
                                _like(c, entries) * eye, tol)
    top = operator_norm(lhs)
    return Rows(_ratio(top, refined, holds), holds, classical, top, _per_record(refined, top),
                _improvement(kappa_pow, top))


class StackedView:
    """What a TheoremSpec's stacked evaluator reads of a stack of instance states.

    ``spectra``, ``frames``, ``vectors`` and ``scalars`` hold each state
    variable for every row; ``params`` is one BoundParams for all rows or
    a tuple of each row's own, and ``classical`` is InstanceView's. A
    subclass adds the probes (``unit_vectors``, ``orthonormal_pairs``)
    and ``per_map``, which evaluates the rows once per map output size,
    each pass under a StackedMap: a campaign's hands out many random and
    eigenvector probes per row under drawn maps of mixed kinds, a
    search's each row's own vector or frame pair under the identity.
    """

    def __init__(self, params, dim: int, spectra: dict, frames: dict, vectors: dict,
                 scalars: dict, classical: bool = False):
        self.params = params
        self.dim = dim
        self.classical = classical
        self.spectra = spectra
        self.frames = frames
        self.vectors = vectors
        self.scalars = scalars
        self._spd = {}

    def spd(self, name: str) -> StackedSpd:
        """The matrices with spectra ``name`` on frames ``name``."""
        hit = self._spd.get(name)
        if hit is None:
            hit = self._spd[name] = StackedSpd.from_eigh(self.spectra[name], self.frames[name])
        return hit

    def subset(self, rows: np.ndarray) -> "StackedView":
        """The same states, rows ``rows`` only."""
        def pick(group):
            return {k: v[rows] for k, v in group.items()}
        params = self.params
        if isinstance(params, tuple):
            params = tuple(params[row] for row in rows.tolist())
        return StackedView(params, self.dim, pick(self.spectra), pick(self.frames),
                           pick(self.vectors), pick(self.scalars), self.classical)


# The stacked evaluators, one per TheoremSpec, each registered next to
# the evaluate it stacks: the same checker steps on stacked operands.


def scalar_amgm(view, tol):
    a, b = view.spectra["a"][:, 0], view.spectra["b"][:, 0]
    kappa = per_value(inequalities.refinement_factor, b / a)
    mean_geo = np.sqrt(a * b)
    lhs = kappa * mean_geo
    rhs = 0.5 * (a + b)
    return Rows(lhs / rhs, scalar_leq(lhs, rhs, tol), scalar_leq(mean_geo, rhs, tol), lhs, rhs,
                1.0 / kappa)


def lemma_amgm(view, tol):
    a = view.spd("a")
    root = a.sqrt().entries
    b = StackedSpd(root @ view.spd("c").entries @ root)
    kappa = per_row(lambda p: inequalities.refinement_factor(p.m), view.params)
    mean_geo = geometric_mean(a, b)
    rhs = arithmetic_mean(a, b)
    ratio = kappa * loewner_ratio(mean_geo.entries, rhs)
    return Rows(ratio, loewner_leq(_like(kappa, rhs.entries) * mean_geo.entries, rhs, tol),
                loewner_leq(mean_geo, rhs, tol), kappa * operator_norm(mean_geo),
                operator_norm(rhs), _per_record(1.0 / kappa, ratio))


def _constants(family: str, params):
    """The family's c and kappa^p, as scalars or each row's own."""
    return per_row(partial(inequalities._refined, family), params)


def kantorovich(view, tol):
    a = view.spd("a")
    x = view.unit_vectors("x", a)
    lhs = quad_form(a, x) * quad_form(a.inv(), x)
    return scalar_rows(lhs, 1.0, tol, *_constants("kantorovich", view.params))


def _shifted_pair(view):
    a = view.spd("a")
    t = view.scalars["t"]
    m_prime, big_m = per_row(lambda p: (p.m_prime, p.M), view.params)
    b = StackedSpd.from_eigh(
        ((1.0 - t) * m_prime)[:, None] * a.eigenvalues + (t * big_m)[:, None], a.eigenvectors)
    return a, b


def kantorovich_product(view, tol):
    a, b = (view.spd("a"), view.spd("b")) if view.classical else _shifted_pair(view)
    x = view.unit_vectors("x", a)
    lhs = quad_form(a, x) * quad_form(b, x)
    core = squares(quad_form(geometric_mean(a, b), x))
    return scalar_rows(lhs, core, tol, *_constants("kantorovich", view.params))


def holder_mccarthy(view, tol):
    a = view.spd("a")
    x = view.unit_vectors("x", a)
    ax = a.entries[:, None] @ x[..., None]
    return scalar_rows((_t(ax) @ ax)[..., 0, 0], squares(quad_form(a, x)), tol,
                       *_constants("kantorovich", view.params))


def square_order(view, tol):
    a = view.spd("a")
    b = StackedSpd(a.entries + view.scalars["eps"][:, None, None] * view.spd("bump").entries)
    return loewner_rows(a.square(), b.square(), tol, *_constants("kantorovich", view.params))


def polya_szego(view, tol):
    def group(sub, phi):
        a, b = _shifted_pair(sub)
        lhs = geometric_mean(StackedSpd(apply_map(phi, a)), StackedSpd(apply_map(phi, b)))
        target = StackedSpd(apply_map(phi, geometric_mean(a, b)))
        return loewner_rows(lhs, target, tol, *_constants("polya_szego", sub.params))
    return view.per_map(view.dim, group)


def isometry_family(view, tol):
    w = np.clip(view.spectra["w"], 0.01, 0.99)
    q = view.frames["q"]
    phi = StackedMap.single("congruence_sum", congruence_family(
        (np.sqrt(w)[..., None] * q, np.sqrt(1.0 - w)[..., None] * q)))
    a = view.spd("a")
    lhs = geometric_mean(StackedSpd(apply_map(phi, a)), StackedSpd(apply_map(phi, a.inv())))
    return identity_rows(lhs, tol, *_constants("polya_szego", view.params))


def lin_squared(variant, view, tol):
    def group(sub, phi):
        a, b = sub.spd("a"), sub.spd("b")
        half = StackedSpd(apply_map(phi, arithmetic_mean(a, b)))
        if variant == "mapped_mean":
            target = StackedSpd(apply_map(phi, geometric_mean(a, b)))
        else:
            target = geometric_mean(StackedSpd(apply_map(phi, a)), StackedSpd(apply_map(phi, b)))
        return loewner_rows(half.square(), target.square(), tol,
                            *_constants("lin_squared", sub.params))
    return view.per_map(view.dim, group)


def lin_chain(view, tol):
    """check_lin_chain's seven links, in its order."""
    def group(sub, phi):
        a, b, params = sub.spd("a"), sub.spd("b"), sub.params
        m, M = per_row(lambda p: (p.m, p.M), params)
        norm_bound, kappa = _constants("lin_norm", params)
        # m M and kappa as factors of each row's link matrices.
        mm, link_kappa = _like(m * M, a.entries), _like(kappa, a.entries)
        a_inv = a.inv().entries
        b_inv = b.inv().entries
        half = 0.5 * (a.entries + b.entries)
        mean_geo = geometric_mean(a, b)
        geo_inv = mean_geo.inv().entries
        mapped_half = symmetrize(apply_map(phi, half))
        mapped_geo = StackedSpd(apply_map(phi, mean_geo))
        mapped_geo_inv = symmetrize(apply_map(phi, geo_inv))
        inv_mapped_geo = mapped_geo.inv().entries

        def link(lhs, bound, classical_lhs=None):
            return identity_rows(lhs, tol, bound, classical_lhs=classical_lhs)

        return Rows.columns([
            link(0.5 * a.entries + 0.5 * mm * a_inv, 0.5 * (M + m)),
            link(0.5 * b.entries + 0.5 * mm * b_inv, 0.5 * (M + m)),
            link(half + 0.5 * mm * (a_inv + b_inv), M + m),
            link(half + mm * link_kappa * geo_inv, M + m, half + mm * geo_inv),
            link(mapped_half + mm * link_kappa * mapped_geo_inv, M + m,
                 mapped_half + mm * mapped_geo_inv),
            link(mapped_half + mm * link_kappa * inv_mapped_geo, M + m,
                 mapped_half + mm * inv_mapped_geo),
            scalar_rows(spectral_norm(mapped_half @ inv_mapped_geo), 1.0, tol, norm_bound, kappa),
        ])
    return view.per_map(view.dim, group)


def wielandt_scalar(view, tol):
    a = view.spd("a")
    x, y = view.orthonormal_pairs("pair", a)
    inner = np.abs(dot(x, y))
    if (inner > 1e-10).any():
        raise ValueError(f"x and y must be orthogonal, got |<x,y>| = {inner.max():.3e}")
    product = quad_form(a, x) * quad_form(a, y)
    return scalar_rows(squares(bilinear(a, x, y)), product, tol,
                       per_row(_conjecture_scale, view.params), scale=product)


def _conjecture_scale(p) -> float:
    return ((p.M - p.m) / (p.M + p.m)) ** 2


def wielandt_operator(variant, view, tol):
    """check_wielandt_operator, after IsometryPair's checks on the frame's column blocks."""
    r = view.dim // 2

    def group(sub, phi):
        p, e = sub.params, sub.spd("a").entries
        f = sub.frames["pair"]
        x, y = f[..., :r].copy(), f[..., view.dim - r:].copy()
        xt, yt = _t(x), _t(y)
        require_orthonormal(x, "x", 1e-12)
        require_orthonormal(y, "y", 1e-12)
        cross = np.abs(xt @ y).max(axis=(-2, -1))
        if (cross > 1e-12).any():
            raise ValueError(f"ranges not orthogonal (|x^T y| max {cross.max():.3e})")
        mapped_cross = apply_map(phi, xt @ e @ y)
        mapped_cross_t = apply_map(phi, yt @ e @ x)
        mapped_yy = StackedSpd(apply_map(phi, yt @ e @ y))
        mapped_xx = StackedSpd(apply_map(phi, xt @ e @ x))
        if variant == "refined":
            require_spectrum(mapped_xx, *per_row(lambda q: (q.m, q.M), p), "Phi(X^T A X)",
                             inequalities._REGIME_TOL)
        triple = symmetrize(mapped_cross @ mapped_yy.inv().entries @ mapped_cross_t)
        atol = inequalities._DEGENERATE_ATOL
        if variant == "bhatia_davis":
            return loewner_rows(triple, mapped_xx, tol, per_row(_conjecture_scale, p),
                                atol=atol * operator_norm(mapped_xx))
        gumus, kappa_pow = _constants("wielandt", p)
        return scalar_rows(spectral_norm(triple @ mapped_xx.inv().entries), 1.0, tol, gumus,
                           kappa_pow if variant == "refined" else None, atol=atol)
    return view.per_map(r, group)


def choi(view, tol):
    def group(sub, phi):
        a = sub.spd("a")
        mapped = StackedSpd(apply_map(phi, a))
        return loewner_rows(mapped.inv(), StackedSpd(apply_map(phi, a.inv())), tol)
    return view.per_map(view.dim, group)


def norm_amgm(view, tol):
    a, b = view.spd("a").entries, view.spd("b").entries
    core = 0.25 * squares(spectral_norm(a + b))
    return scalar_rows(spectral_norm(a @ b), core, tol)


# The evaluators read their constants from inequalities when they run.
# Importing it last lets either module be imported first: inequalities
# registers these evaluators, so this module must be complete by then.
from . import inequalities  # noqa: E402
