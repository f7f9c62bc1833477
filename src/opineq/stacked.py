"""The package's matrix algebra, on many instances at once.

An array here is one instance's, or a stack of them on leading axes of
rows: a campaign stacks the draws of a chunk and a search the candidates
of a block, while a public ``check_*`` call and the per-instance API of
``spd`` and ``means_maps`` pass their one instance as it is. Each
function reads the last axes only, as a StackedSpd takes matrices of
shape (..., n, n), and ``spd.SpdMatrix`` is the StackedSpd of one (n, n)
matrix. Each function works on every row alone, so a row's bits do not
depend on the rows stacked with it. The draw rules work on rows too: the
Haar frame is ``haar`` here, and the others are in ``samplers``, whose
samplers apply them to one draw. A vector is a (..., 1, n) or
(..., n, 1) matrix, as a stacked (k, n) @ (n, n) product sums in another
order; a Python float operation (``x ** 2``, ``math.log``) is made value
by value, as numpy's rounds differently in the last bit.

A view's ``params`` is one BoundParams shared by every row, or a tuple
of each row's own; ``per_row`` reads a constant either way, and the
record builders take it as a scalar or an array of each row's own. A
map is a StackedMap: on each part of its rows a Kraus family
sum_j V_j^T T V_j, whose arrays keep a row axis that broadcasts against
one instance's operand, or a closed form. Every check is made on every
row and names the first row that fails it, as row 0 for one instance.

A StackedSpd is decomposed where it is read, and each decomposition
checks what it makes, when it makes it: ``eigh`` a spectrum finite and
> 0 on an orthonormal frame, a Cholesky a positive factor. A geometric
mean and a Loewner ratio are congruences by the factor, so they read no
spectrum of their operands: a mean decomposes only its inner matrix,
for its square root. A record's ratio is computed when its builder
runs, its order verdicts and its sides (lhs, rhs) once, on the first
read of one of them: a search block reads only ratios and so decomposes
only the inner matrices of its means, while a campaign or a ``check_*``
call reads every field. Every numpy.linalg call of the package is made
here. This module imports no other package module but ``errors``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleRegime, NotPositiveDefinite

# Largest Gram defect |V^T V - I| accepted for an eigenframe, the largest
# defect accepted for a map's isometry or family normalisation, and for an
# isometry pair's columns and |x^T y|.
_FRAME_TOL = 1e-10
_MAP_TOL = 1e-10
_ISOMETRY_TOL = 1e-12
# Most entries of an n x n operand's rows a campaign chunk or a search block
# stacks, so that memory does not grow with samples or budget. A stacked
# call at these sizes costs mostly a fixed overhead, so the rows are
# bounded by entries, not by one count for every dim: 2048 rows at dim 2,
# 512 at dim 4 and 128 at dim 8.
_STACK_ELEMENTS = 8192


def stack_rows(n: int) -> int:
    """Most rows a stack of n x n operands holds: _STACK_ELEMENTS // n², at least one."""
    return max(1, _STACK_ELEMENTS // (n * n))


_SCALAR_FUNCS = {
    "sqrt": np.sqrt,
    "inv": lambda v: 1.0 / v,
    "inv_sqrt": lambda v: 1.0 / np.sqrt(v),
    "square": np.square,
}


def per_value(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each value as a Python float."""
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(values.shape)


def squares(values: np.ndarray) -> np.ndarray:
    """Each value ``** 2`` as a Python float: C pow, which can differ from x * x in the last bit."""
    return per_value(lambda v: v ** 2, values)


def transpose(x: np.ndarray) -> np.ndarray:
    """Each row's transpose."""
    return np.swapaxes(x, -1, -2)


def symmetrize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + transpose(x))


def per_row(fn, params):
    """fn(params), or fn of each row's params as an (S,) array when rows have their own.

    A tuple-valued fn gives a tuple of arrays. Every value is fn's
    Python float.
    """
    if not isinstance(params, tuple):
        return fn(params)
    values = [fn(p) for p in params]
    if isinstance(values[0], tuple):
        return tuple(np.array(column) for column in zip(*values))
    return np.array(values)


def like_rows(value, rows):
    """A scalar as it is; a per-row (S,) value with the axes to broadcast against ``rows``."""
    if not isinstance(value, np.ndarray):
        return value
    return value.reshape(value.shape + (1,) * (rows.ndim - 1))


def per_record(value, rows) -> np.ndarray:
    """A scalar or per-row value for every record of ``rows``."""
    return np.full(rows.shape, like_rows(value, rows))


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
    defect = np.abs(transpose(vecs) @ vecs - np.eye(vecs.shape[-1])).max(axis=(-2, -1))
    if not (defect <= tol).all():
        raise ValueError(f"{label} columns not orthonormal (defect {defect.max():.3e})")


def require_frame(vecs: np.ndarray, label: str = "eigenvector") -> None:
    """Raise ValueError unless every row's columns are an orthonormal frame, to _FRAME_TOL."""
    require_orthonormal(vecs, label, _FRAME_TOL)


def require_isometry_pair(x: np.ndarray, y: np.ndarray) -> None:
    """Raise ValueError unless every row's x and y are isometries with orthogonal ranges."""
    require_orthonormal(x, "x", _ISOMETRY_TOL)
    require_orthonormal(y, "y", _ISOMETRY_TOL)
    cross = np.abs(transpose(x) @ y).max(axis=(-2, -1))
    if (cross > _ISOMETRY_TOL).any():
        raise ValueError(f"ranges not orthogonal (|x^T y| max {cross.max():.3e})")


def require_spectrum(a: "StackedSpd", lo, hi, label: str, tol: float) -> None:
    """Raise InfeasibleRegime unless every row's spectrum lies in [lo, hi], to relative tol.

    lo and hi are scalars or each row's own.
    """
    least, most = a.eigenvalues[..., 0], a.eigenvalues[..., -1]
    lo_ok = least >= lo * (1.0 - tol) - 1e-14
    hi_ok = most <= hi * (1.0 + tol) + 1e-14
    if not (lo_ok.all() and hi_ok.all()):
        row = _first_bad(lo_ok, hi_ok)
        least, most, lo, hi = (np.broadcast_to(v, lo_ok.shape).flat[row]
                               for v in (least, most, lo, hi))
        raise InfeasibleRegime(
            f"{label} spectrum [{least:.8g}, {most:.8g}] "
            f"outside window [{lo:.8g}, {hi:.8g}] (row {row})")


def require_rows(ok: np.ndarray, message) -> None:
    """Raise InfeasibleRegime with message(row) for the first row where ok fails, in flat order."""
    if not ok.all():
        row = _first_bad(ok)
        raise InfeasibleRegime(f"{message(row)} (row {row})")


def haar(z: np.ndarray) -> np.ndarray:
    """Each row's Haar orthogonal matrix from its (n, n) Gaussian draws: QR, signs fixed by R."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class StackedSpd:
    """SPD matrices of shape (..., n, n), with ascending spectra (..., n) and frames (..., n, n).

    A raw stack is only symmetrized when made; where an entry is not
    finite, its ``eigh`` is made at once to name the first bad row.
    ``from_eigh`` takes spectral factors whose shapes fit, sorts them and
    checks them. Each decomposition checks what it makes, when it makes
    it: ``_spectrum``'s ``eigh`` requires every eigenvalue finite and > 0
    and its frame orthonormal, and ``_factors``' Cholesky requires
    positivity. Each is made on first need, so a stack read only for its
    entries is not decomposed, and kept in the stack's one memo with its
    derived matrices, which reuse its frame and are of its own type.
    """

    __slots__ = ("entries", "_memo")

    def __init__(self, entries: np.ndarray):
        entries = symmetrize(entries)
        self._start(entries, {})
        if not np.isfinite(entries).all():
            self._spectrum()

    def _start(self, entries, memo: dict) -> None:
        """A new stack's fields: its entries and its memo, whose arrays are kept already."""
        self.entries = self._keep(entries)
        self._memo = memo

    def _keep(self, array: np.ndarray) -> np.ndarray:
        """An array the stack holds, as it is."""
        return array

    def _spectrum(self) -> tuple:
        """(eigenvalues, eigenvectors): one stacked ``eigh`` on the first call, checked."""
        spectrum = self._memo.get("spectrum")
        if spectrum is None:
            try:
                spectrum = np.linalg.eigh(self.entries)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"eigendecomposition failed: {exc}") from exc
            _require_positive(spectrum[0])
            require_frame(spectrum[1])
            spectrum = self._memo["spectrum"] = tuple(map(self._keep, spectrum))
        return spectrum

    eigenvalues = property(lambda self: self._spectrum()[0])
    eigenvectors = property(lambda self: self._spectrum()[1])

    def _factors(self) -> tuple:
        """(F, F^{-1}) for each row's F with F F^T = entries, its lower Cholesky factor.

        Both are made together on the first call. A row the Cholesky
        refuses takes its square root, whose spectrum must be finite and
        > 0 as every spectrum's. Rows are factored one by one only when
        the stacked Cholesky refuses, so a row's factor does not depend
        on the rows stacked with it.
        """
        factors = self._memo.get("factors")
        if factors is None:
            try:
                factor = np.linalg.cholesky(self.entries)
            except np.linalg.LinAlgError:
                root = self.sqrt().entries
                factor = np.empty_like(self.entries)
                for row in np.ndindex(self.entries.shape[:-2]):
                    try:
                        factor[row] = np.linalg.cholesky(self.entries[row])
                    except np.linalg.LinAlgError:
                        factor[row] = root[row]
            factors = self._memo["factors"] = (self._keep(factor),
                                               self._keep(np.linalg.inv(factor)))
        return factors

    @classmethod
    def from_eigh(cls, vals: np.ndarray, vecs: np.ndarray) -> "StackedSpd":
        if vecs.shape != vals.shape + vals.shape[-1:]:
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        _require_positive(vals)
        require_frame(vecs)
        return cls._sorted(vals, vecs)

    @classmethod
    def _sorted(cls, vals, vecs) -> "StackedSpd":
        """The stack on checked factors, without the eigh of ``cls(entries)``."""
        # A stable argsort leaves ascending rows as they are and reverses
        # strictly descending ones (the spectra of inv and inv_sqrt).
        if (vals[..., 1:] >= vals[..., :-1]).all():
            vecs = np.ascontiguousarray(vecs)
        elif (vals[..., 1:] < vals[..., :-1]).all():
            vals, vecs = vals[..., ::-1], np.ascontiguousarray(vecs[..., ::-1])
        else:
            order = vals.argsort(axis=-1, kind="stable")
            vals = np.take_along_axis(vals, order, axis=-1)
            vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
        stack = cls.__new__(cls)
        stack._start(symmetrize((vecs * vals[..., None, :]) @ transpose(vecs)),
                     {"spectrum": (stack._keep(vals), stack._keep(vecs))})
        return stack

    def _on_frame(self, vals) -> "StackedSpd":
        _require_positive(vals)
        return type(self)._sorted(vals, self.eigenvectors)

    def _apply(self, name: str) -> "StackedSpd":
        derived = self._memo.get(name)
        if derived is None:
            derived = self._memo[name] = self._on_frame(_SCALAR_FUNCS[name](self.eigenvalues))
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
        return self._on_frame(like_rows(factor, self.eigenvalues) * self.eigenvalues)


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, StackedSpd) else x


def bilinear(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x A y for probe stacks x, y (..., k, n) against A (..., n, n), as (..., k)."""
    return ((x[..., None, :] @ _entries(a)[..., None, :, :]) @ y[..., :, None])[..., 0, 0]


def quad_form(a, x: np.ndarray) -> np.ndarray:
    """<Ax, x> for every probe: (..., k) from probes (..., k, n)."""
    return bilinear(a, x, x)


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y of the vectors along the last axis, each as a 1 x n by n x 1 product."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def least_eigenvalue(x: np.ndarray) -> np.ndarray:
    """Each row's smallest eigenvalue of its symmetric part."""
    return np.linalg.eigvalsh(symmetrize(x))[..., 0]


def operator_norm(x) -> np.ndarray:
    if isinstance(x, StackedSpd):
        vals = x.eigenvalues
    else:
        vals = np.linalg.eigvalsh(symmetrize(x))
    return _pymax(np.abs(vals[..., 0]), np.abs(vals[..., -1]))


def spectral_norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False).max(axis=-1)


def geometric_mean(a: StackedSpd, b: StackedSpd) -> StackedSpd:
    """A # B = L (L^{-1} B L^{-T})^{1/2} L^T, with A = L L^T by A's Cholesky factor.

    The inner matrix's square root is its one ``eigh``; A's spectrum and
    the mean's are not read.
    """
    low, inv_low = a._factors()
    inner = StackedSpd(inv_low @ b.entries @ transpose(inv_low))
    return type(a)(low @ inner.sqrt().entries @ transpose(low))


def arithmetic_mean(a: StackedSpd, b: StackedSpd) -> StackedSpd:
    return type(a)(0.5 * (a.entries + b.entries))


MAP_KINDS = ("identity", "compression", "congruence_sum", "trace_normalize", "pinching")


class MapPart(NamedTuple):
    """The rows of a stack whose maps share one kind, with each row's own Kraus family.

    ``rows`` indexes the stack, or is slice(None) for every row. ``data``
    is the Kraus arrays V_j of T -> sum_j V_j^T T V_j, each (S, n, r):
    a compression's isometry (V,), a congruence_sum's members or a
    pinching's 0/1 block projectors; none for identity and trace_normalize.
    """

    rows: object
    kind: str
    data: tuple = ()

    def size(self, n: int) -> int:
        """The part's output size on n x n matrices."""
        return self.data[0].shape[-1] if self.data else n


def _is_int(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def unital_family(family: tuple, label: str) -> tuple:
    """The Kraus arrays, C-contiguous, after checking sum_j V_j^T V_j = I on every row."""
    family = tuple(map(np.ascontiguousarray, family))
    total = sum(transpose(v) @ v for v in family)
    defect = np.abs(total - np.eye(total.shape[-1])).max(axis=(-2, -1))
    if not (defect <= _MAP_TOL).all():
        raise ValueError(f"{label}: sum V^T V defect {defect.max():.3e}")
    return family


def pinching_projectors(blocks) -> tuple:
    """The n x n 0/1 diagonal projectors onto blocks of integer indices that partition 0..n-1."""
    blocks = tuple(tuple(block) for block in blocks)
    flat = [i for block in blocks for i in block]
    if not all(map(_is_int, flat)):
        raise ValueError(f"block indices must be integers, got {blocks}")
    if sorted(flat) != list(range(len(flat))) or not flat:
        raise ValueError(f"blocks must partition 0..n-1, got {blocks}")
    return tuple(np.diag(np.isin(np.arange(len(flat)), block) * 1.0) for block in blocks)


def _compression(isometry) -> tuple:
    v = np.array(isometry, dtype=float)
    if v.ndim != 2 or v.shape[0] < v.shape[1] or v.size == 0:
        raise ValueError(f"compression isometry must be tall n x r with r >= 1, got {v.shape}")
    return unital_family((v,), "compression columns not orthonormal")


def _congruence_sum(family) -> tuple:
    mats = tuple(np.array(u, dtype=float) for u in family)
    n = mats[0].shape[0] if mats and mats[0].ndim else 0
    if any(u.shape != (n, n) for u in mats) or n == 0:
        raise ValueError(f"congruence family members must share a non-empty square shape, "
                         f"got {[u.shape for u in mats]}")
    return unital_family(mats, "congruence family not normalized")


# Each Kraus kind's key in an instance's ``map``, its Kraus arrays (one row) from
# that key's value, and that value from them.
_KRAUS = {
    "compression": ("isometry", _compression, lambda family: family[0].tolist()),
    "congruence_sum": ("family", _congruence_sum, lambda family: [u.tolist() for u in family]),
    "pinching": ("blocks", pinching_projectors,
                 lambda family: [np.flatnonzero(np.diagonal(p)).tolist() for p in family]),
}


class StackedMap(tuple):
    """Each row's positive unital map on in_dim x in_dim matrices, as MapParts of its rows.

    One evaluator pass takes every row whose map has the same output size,
    whatever its kind: a view's ``per_map`` makes one pass per size. A map
    of one kind on every row, such as one instance's, is one part.
    """

    def __new__(cls, parts, in_dim: int):
        self = super().__new__(cls, parts)
        self.in_dim = in_dim
        return self

    def __getnewargs__(self) -> tuple:
        return tuple(self), self.in_dim

    @classmethod
    def single(cls, in_dim: int, kind: str, data: tuple = ()) -> "StackedMap":
        """The map of one kind on every row."""
        return cls((MapPart(slice(None), kind, data),), in_dim)

    @classmethod
    def catalog(cls, kind: str, value) -> "StackedMap":
        """One instance's map, read-only: ``value`` is a closed form's n, else its key's value."""
        if kind not in _KRAUS:
            if not value >= 1:
                raise ValueError(f"{kind} map needs sizes >= 1, got {value} -> {value}")
            return cls.single(value, kind)
        family = tuple(np.broadcast_to(v, (1, *v.shape)) for v in _KRAUS[kind][1](value))
        return cls.single(family[0].shape[1], kind, family)

    def pick(self, rows: list) -> "StackedMap":
        """The maps of the stack's rows ``rows``, in that order, as a map of those rows."""
        parts = []
        for part in self:
            # The part's places among the picked rows, and its data entries for them.
            where, at = slice(None), rows
            if not isinstance(part.rows, slice):
                index = {row: i for i, row in enumerate(part.rows)}
                where = [i for i, row in enumerate(rows) if row in index]
                at = [index[rows[i]] for i in where]
            if at:
                parts.append(MapPart(where, part.kind, tuple(v[at] for v in part.data)))
        return StackedMap(parts, self.in_dim)

    def to_json(self, row: int) -> dict | None:
        """Row ``row``'s map as an instance's ``map``: its kind and data; None for the identity."""
        ((_, kind, data),) = self.pick([row])
        if kind not in _KRAUS:
            return None if kind == "identity" else {"kind": kind}
        key, _, encode = _KRAUS[kind]
        return {"kind": kind, key: encode([v[0] for v in data])}

    @classmethod
    def from_json(cls, obj, n: int) -> "StackedMap":
        """to_json's inverse on n x n matrices, one row's map; a ValueError naming 'map' if bad."""
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in MAP_KINDS:
            raise ValueError(f"instance 'map' kind must be one of {MAP_KINDS}, got {obj!r}")
        key = _KRAUS[kind][0] if kind in _KRAUS else None
        keys = sorted({"kind", key} - {None})
        if sorted(obj) != keys:
            raise ValueError(f"instance 'map' of kind {kind} must hold {keys}, got {sorted(obj)}")
        try:
            phi = cls.catalog(kind, n if key is None else obj[key])
            _require_input(phi, (n, n))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"instance 'map' of kind {kind}: {exc}") from exc
        return phi


def _require_input(phi: StackedMap, shape: tuple) -> None:
    """Raise ValueError unless matrices of shape (..., n, n) are phi's inputs."""
    if shape[-2:] != (phi.in_dim,) * 2:
        raise ValueError(f"expected {phi.in_dim}x{phi.in_dim} input, got {shape[-2:]}")


def _apply_kind(kind: str, data: tuple, t: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return t
    if kind == "trace_normalize":
        n = t.shape[-1]
        return np.eye(n) * (np.trace(t, axis1=-2, axis2=-1) / n)[..., None, None]
    return sum(transpose(v) @ t @ v for v in data)


def map_spd(phi: StackedMap, a: StackedSpd) -> StackedSpd:
    """Phi(A) as a stack: A itself where phi is one identity on every row, else a raw stack."""
    _require_input(phi, a.entries.shape)
    whole = len(phi) == 1 and phi[0].kind == "identity" and isinstance(phi[0].rows, slice)
    return a if whole else StackedSpd(apply_map(phi, a))


def apply_map(phi: StackedMap, t) -> np.ndarray:
    """Each part's kind on its own rows, put back in row order: an array with t's leading axes."""
    t = _entries(t)
    _require_input(phi, t.shape)
    sizes = sorted({part.size(phi.in_dim) for part in phi})
    if len(sizes) > 1:
        raise ValueError(f"map parts give outputs of different sizes {sizes}: "
                         f"StackedView.per_map splits their rows")
    out = None
    for rows, kind, data in phi:
        part = _apply_kind(kind, data, t[rows])
        if out is None:
            out = np.empty(t.shape[:-2] + part.shape[-2:], part.dtype)
        out[rows] = part
    return out


class Deferred:
    """The arrays ``make`` returns, computed once, on the first read of any of them.

    A caller that reads none of them pays for none.
    """

    __slots__ = ("_make", "_values")

    def __init__(self, make):
        self._make = make
        self._values = None

    def __getitem__(self, field: int) -> np.ndarray:
        if self._values is None:
            self._values = self._make()
            self._make = None
        return self._values[field]


class Verdicts(Deferred):
    """Rows of ordering checks: whether each holds, its gap and its slack, as spd.CheckVerdict.

    ``make`` returns the three arrays.
    """

    __slots__ = ()

    holds = property(lambda self: self[0])
    gap = property(lambda self: self[1])
    slack = property(lambda self: self[2])


def _divide(num, den, where) -> np.ndarray:
    """num / den where ``where`` holds, without dividing elsewhere."""
    return num / np.where(where, den, 1.0)


def _verdicts(gap, bound, norm) -> tuple:
    """gap >= -bound; the slack is gap / norm, or gap where norm is not > 0."""
    positive = norm > 0.0
    return gap >= -bound, gap, np.where(positive, _divide(gap, norm, positive), gap)


def loewner_leq(lhs, rhs, tol: float, atol=0.0) -> Verdicts:
    """LHS <= RHS on every row: lambda_min(RHS - LHS) >= -max(tol ||RHS||, atol).

    The gap and ||RHS|| are decomposed on the first read of the verdict.
    """
    def make():
        gap = least_eigenvalue(_entries(rhs) - _entries(lhs))
        norm = operator_norm(rhs)
        return _verdicts(gap, _pymax(tol * norm, atol), norm)
    return Verdicts(make)


def scalar_leq(lhs, rhs, tol: float, scale=None, atol=0.0) -> Verdicts:
    """lhs <= rhs on every row: rhs - lhs >= -max(tol * scale, atol), scale |rhs| by default."""
    if scale is None:
        scale = np.abs(rhs)
    return Verdicts(lambda: _verdicts(rhs - lhs, _pymax(tol * scale, atol), scale))


def loewner_ratio(lhs, rhs: StackedSpd) -> np.ndarray:
    """lambda_max(L^{-1} X L^{-T}) for X the lhs and RHS = L L^T by its Cholesky factor."""
    w = rhs._factors()[1]
    return np.linalg.eigvalsh(symmetrize(w @ _entries(lhs) @ transpose(w)))[..., -1]


class Rows:
    """Per-record outcomes of a stack of instances, one array each.

    ``holds``, ``gap`` and ``slack`` are the refined verdict's and the
    ``classical_*`` fields the classical one's; a record without one has
    ``classical`` True and the refined gap and slack. ``lhs`` and ``rhs``
    are the sides' sizes (an operator norm for matrices). ``scale`` is c /
    kappa^p, ``classical_scale`` c and ``improvement`` 1 / kappa^p. The
    verdict fields are each Verdicts' own and the sides one Deferred's,
    computed on first read. Iterates as its ``_fields``, which reads all.
    """

    __slots__ = ("ratio", "improvement", "scale", "classical_scale", "_verdict", "_classical",
                 "_sides")
    _fields = ("ratio", "holds", "classical", "lhs", "rhs", "improvement", "gap", "slack",
               "classical_gap", "classical_slack", "scale", "classical_scale")

    def __init__(self, ratio, verdict: Verdicts, classical: Verdicts, sides: Deferred,
                 improvement, scale, classical_scale):
        self.ratio = ratio
        self._verdict = verdict
        self._classical = classical
        self._sides = sides
        self.improvement = improvement
        self.scale = scale
        self.classical_scale = classical_scale

    holds = property(lambda self: self._verdict.holds)
    gap = property(lambda self: self._verdict.gap)
    slack = property(lambda self: self._verdict.slack)
    classical = property(lambda self: self._classical.holds)
    classical_gap = property(lambda self: self._classical.gap)
    classical_slack = property(lambda self: self._classical.slack)
    lhs = property(lambda self: self._sides[0])
    rhs = property(lambda self: self._sides[1])

    def __iter__(self):
        return (getattr(self, name) for name in self._fields)

    @classmethod
    def _make(cls, fields) -> "Rows":
        """Rows from the values of its ``_fields``, in that order."""
        (ratio, holds, classical, lhs, rhs, improvement, gap, slack, classical_gap,
         classical_slack, scale, classical_scale) = fields
        return cls(ratio, Verdicts(lambda: (holds, gap, slack)),
                   Verdicts(lambda: (classical, classical_gap, classical_slack)),
                   Deferred(lambda: (lhs, rhs)), improvement, scale, classical_scale)

    @classmethod
    def columns(cls, parts) -> "Rows":
        """The records of several builders, side by side in record order."""
        return cls._make(np.stack(field, axis=-1) for field in zip(*parts))


def make_rows(ratio, verdict: Verdicts, classical, sides, scale, classical_scale,
              improvement) -> Rows:
    """Rows from their parts; ``classical`` None: no classical verdict. Scales may be per row.

    ``sides()`` returns (lhs, rhs), on the first read of either.
    """
    if classical is None:
        classical = Verdicts(lambda: (np.ones_like(verdict.holds), verdict.gap, verdict.slack))
    return Rows(ratio, verdict, classical, Deferred(sides), per_record(improvement, ratio),
                per_record(scale, ratio), per_record(classical_scale, ratio))


def _ratio(num, den, verdict: Verdicts) -> np.ndarray:
    """num / den, or the degenerate ratio (1 where the check holds, else inf) where den is 0.

    The verdict is read only when some den is 0.
    """
    nonzero = den != 0.0
    ratio = _divide(num, den, nonzero)
    if np.all(nonzero):
        return ratio
    return np.where(nonzero, ratio, np.where(verdict.holds, 1.0, np.inf))


# The record builders take c and kappa_pow as scalars or as each row's own,
# and check the classical bound (c in place of c / kappa_pow) only when
# kappa_pow is given.


def scalar_rows(lhs, core, tol: float, c=1.0, kappa_pow=None, **leq) -> Rows:
    """lhs <= (c / kappa_pow) core; ``leq`` goes to both scalar_leq calls (scale, atol)."""
    refined = c if kappa_pow is None else c / kappa_pow
    rhs = np.broadcast_to(like_rows(refined, lhs) * core, np.shape(lhs))
    verdict = scalar_leq(lhs, rhs, tol, **leq)
    classical = (None if kappa_pow is None
                 else scalar_leq(lhs, like_rows(c, lhs) * core, tol, **leq))
    return make_rows(_ratio(lhs, rhs, verdict), verdict, classical, lambda: (lhs, rhs), refined,
                     c, 1.0 if kappa_pow is None else 1.0 / kappa_pow)


def _require_scales(scale, rows: tuple) -> None:
    """Raise NotPositiveDefinite unless each row's scale is 0, or finite and > 0."""
    scale = np.broadcast_to(scale, rows)
    ok = (scale == 0.0) | ((scale > 0.0) & (scale < np.inf))
    if not ok.all():
        row = _first_bad(ok)
        raise NotPositiveDefinite(
            f"refined constant must be finite and > 0, got {scale.flat[row]} (row {row})")


def loewner_rows(lhs, core: StackedSpd, tol: float, c=1.0, kappa_pow=None, atol=0.0) -> Rows:
    """L <= (c / kappa_pow) CORE, for L an SPD stack or symmetric entries."""
    refined = c if kappa_pow is None else c / kappa_pow
    _require_scales(refined, core.entries.shape[:-2])
    verdict = loewner_leq(lhs, like_rows(refined, core.entries) * core.entries, tol, atol)
    classical = (None if kappa_pow is None
                 else loewner_leq(lhs, like_rows(c, core.entries) * core.entries, tol, atol))
    # The ratio to the refined CORE is the ratio to CORE over the constant;
    # a row whose constant is 0 takes the degenerate ratio.
    ratio = _ratio(loewner_ratio(lhs, core), like_rows(refined, core.entries[..., 0, 0]), verdict)
    return make_rows(ratio, verdict, classical,
                     lambda: (operator_norm(lhs), refined * operator_norm(core)), refined, c,
                     1.0 if kappa_pow is None else 1.0 / kappa_pow)


def identity_rows(lhs, tol: float, c, kappa_pow=None, classical_lhs=None) -> Rows:
    """L <= (c / kappa_pow) I, with classical_lhs (default L) <= c I as the classical check.

    When neither kappa_pow nor classical_lhs is given the two checks are
    the same, and the refined verdict serves as the classical one.
    """
    refined = c if kappa_pow is None else c / kappa_pow
    entries = _entries(lhs)
    eye = np.eye(entries.shape[-1])
    verdict = loewner_leq(lhs, like_rows(refined, entries) * eye, tol)
    if kappa_pow is None and classical_lhs is None:
        classical = verdict
    else:
        classical = loewner_leq(lhs if classical_lhs is None else classical_lhs,
                                like_rows(c, entries) * eye, tol)
    top = operator_norm(lhs)
    return make_rows(_ratio(top, refined, verdict), verdict, classical,
                     lambda: (top, per_record(refined, top)), refined, c,
                     1.0 if kappa_pow is None else 1.0 / kappa_pow)


class StackedView:
    """Instance states as the rows of one stack: what a TheoremSpec's evaluator reads.

    ``spectra``, ``frames``, ``vectors`` and ``scalars`` hold each state
    variable for every row; ``params`` is one BoundParams for all rows or
    a tuple of each row's own. ``classical`` asks for the classical
    search's instance, and ``validate`` for the hypotheses to be checked
    on every row. ``probes`` is each row's k unit vectors, (x,), or k
    orthonormal pairs, (x, y), each (S, k, n), and ``maps`` each row's
    map. None, the default, is each row's own vector or the first two
    columns of its frame, under the identity: a search climbs on one-row
    views with the defaults, and a campaign draws many random and
    eigenvector probes per row under maps of mixed kinds. A row is
    reported as its ``inequalities.snapshot``.
    """

    def __init__(self, params, dim: int, spectra: dict, frames: dict, vectors: dict,
                 scalars: dict, classical: bool = False, validate: bool = False,
                 probes: tuple | None = None, maps: StackedMap | None = None):
        self.params = params
        self.dim = dim
        self.classical = classical
        self.validate = validate
        self.spectra = spectra
        self.frames = frames
        self.vectors = vectors
        self.scalars = scalars
        self.probes = probes
        self.maps = maps
        self._spd = {}

    def spd(self, name: str) -> StackedSpd:
        """The matrices with spectra ``name`` on frames ``name``."""
        hit = self._spd.get(name)
        if hit is None:
            hit = self._spd[name] = StackedSpd.from_eigh(self.spectra[name], self.frames[name])
        return hit

    def per_map(self, n: int, evaluate) -> Rows:
        """evaluate(view, map) once per map output size, on every row of that size.

        Each row's map takes n x n matrices to its part's ``size``: its
        Kraus arrays' column count, or n for a closed form. The passes'
        results are put back in row order. Without maps, every row is
        evaluated in one pass under the identity.
        """
        if self.maps is None:
            return evaluate(self, StackedMap.single(n, "identity"))
        sizes = {}
        for part in self.maps:
            sizes.setdefault(part.size(n), []).append(part.rows)
        if len(sizes) == 1:
            return evaluate(self, self.maps)
        passes = [np.concatenate(sizes[size]) for size in sorted(sizes, reverse=True)]
        out = [evaluate(sub, sub.maps) for sub in map(self.subset, passes)]
        # Each row's place in the passes' results (an argsort raises the peak RSS).
        order = np.concatenate(passes)
        back = np.empty(order.size, dtype=int)
        back[order] = np.arange(order.size)
        return Rows._make(np.concatenate(fields)[back] for fields in zip(*out))

    def subset(self, rows) -> "StackedView":
        """The same states, probes and maps, rows ``rows`` only; one params object where it was."""
        def pick(group):
            return {k: v[rows] for k, v in group.items()}
        params = self.params
        if isinstance(params, tuple):
            params = tuple(params[row] for row in rows)
            if all(p is params[0] for p in params):
                params = params[0]
        probes = None if self.probes is None else tuple(p[rows] for p in self.probes)
        maps = None if self.maps is None else self.maps.pick([int(row) for row in rows])
        return StackedView(params, self.dim, pick(self.spectra), pick(self.frames),
                           pick(self.vectors), pick(self.scalars), self.classical,
                           self.validate, probes, maps)
