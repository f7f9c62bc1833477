"""Dense symmetric positive-definite matrix algebra.

Eigendecomposition is the single primitive here: every SpdMatrix holds
its spectrum and eigenframe from the moment it is made, and one test
(every eigenvalue finite and > 0) decides positivity for raw matrices,
given spectra and derived matrices alike. No iterative schemes. All
order comparisons are tolerance-aware relative to the operator norm of
the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite

DEFAULT_TOL = 1e-8
# Largest Gram defect |V^T V - I| accepted for an eigenframe.
_FRAME_TOL = 1e-10

_SCALAR_FUNCS = {
    "sqrt": np.sqrt,
    "inv": lambda v: 1.0 / v,
    "inv_sqrt": lambda v: 1.0 / np.sqrt(v),
    "square": np.square,
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _require_tol(tol) -> None:
    """Raise ValueError unless tol is a finite real number >= 0; a bool is not one."""
    if not (_is_real(tol) and tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def symmetrize(raw) -> np.ndarray:
    """Return (X + X^T)/2, the symmetric part of a square matrix."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {raw.shape}")
    return 0.5 * (raw + raw.T)


def _require_positive(vals: np.ndarray) -> None:
    # min and max propagate NaN, which fails both comparisons.
    if not (0.0 < vals.min() and vals.max() < np.inf):
        raise NotPositiveDefinite(f"eigenvalues must be finite and > 0, got min {vals.min()}")


def _require_orthonormal(vecs: np.ndarray, label: str, tol: float) -> None:
    """Raise ValueError unless the columns of ``vecs`` are orthonormal to ``tol``."""
    defect = np.abs(vecs.T @ vecs - np.eye(vecs.shape[1])).max()
    if defect > tol:
        raise ValueError(f"{label} columns not orthonormal (defect {defect:.3e})")


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] with lo > 0, holding spectrum bounds."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi):
            raise ValueError(f"invalid spectral interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of one ordering check.

    ``min_gap_eig`` is the smallest eigenvalue of RHS - LHS for matrix
    comparisons, or the plain difference rhs - lhs for scalar ones.
    The check holds when min_gap_eig >= -tol * ||RHS|| for the caller's tol.
    """

    holds: bool
    min_gap_eig: float
    rel_slack: float


class SpdMatrix:
    """Symmetric positive-definite matrix with its eigendecomposition.

    Instances are immutable. A raw matrix is symmetrized and decomposed
    by ``eigh`` once, at construction; :meth:`from_eigh` takes known
    spectral factors instead. Either way the matrix is accepted only if
    every eigenvalue is finite and > 0, and the ascending spectrum and
    its frame are set before construction returns.

    The derived matrices ``sqrt``, ``inv``, ``inv_sqrt``, ``square`` and
    ``scaled`` reuse the frame, and the first four are memoised on the
    instance. Each frame's orthonormality (a Gram check) is verified
    once: by ``from_eigh`` for the frame it is given, and on first use
    for a frame computed by ``eigh``. Every derived matrix has its
    eigenvalues checked for positivity and sorted.
    """

    __slots__ = ("_entries", "_eigenvalues", "_eigenvectors", "_frame_checked", "_derived")

    def __init__(self, entries, _eig=None):
        # _eig, when given, is a positive ascending spectrum on a checked frame.
        entries = symmetrize(entries)
        self._frame_checked = _eig is not None
        if _eig is None:
            try:
                _eig = np.linalg.eigh(entries)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"eigendecomposition failed: {exc}") from exc
            _require_positive(_eig[0])
            for part in _eig:
                part.setflags(write=False)
        self._eigenvalues, self._eigenvectors = _eig
        self._derived = {}
        entries.setflags(write=False)
        self._entries = entries

    @classmethod
    def from_eigh(cls, eigenvalues, eigenvectors) -> "SpdMatrix":
        """Build from known spectral factors without re-decomposing.

        ``eigenvalues`` must be finite and > 0; ``eigenvectors`` holds
        orthonormal columns. Eigenvalues are sorted ascending and the
        columns permuted to match.
        """
        vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
        vecs = np.asarray(eigenvectors, dtype=float)
        if vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvector matrix shape does not match eigenvalues")
        _require_positive(vals)
        _require_orthonormal(vecs, "eigenvector", _FRAME_TOL)
        return cls._sorted(vals, vecs)

    @classmethod
    def _sorted(cls, vals, vecs) -> "SpdMatrix":
        """Build from a positive spectrum on a checked frame, sorting both."""
        order = vals.argsort(kind="stable")
        vals = vals[order]
        # Column indexing yields Fortran order; keep frames C-contiguous.
        vecs = vecs[:, order].copy()
        entries = (vecs * vals) @ vecs.T
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(entries, _eig=(vals, vecs))

    def _on_frame(self, vals) -> "SpdMatrix":
        """The matrix with eigenvalues ``vals`` on this one's eigenframe."""
        _require_positive(vals)
        if not self._frame_checked:
            _require_orthonormal(self._eigenvectors, "eigenvector", _FRAME_TOL)
            self._frame_checked = True
        return SpdMatrix._sorted(vals, self._eigenvectors)

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, column i pairing with eigenvalue i."""
        return self._eigenvectors

    def _apply(self, name: str) -> "SpdMatrix":
        derived = self._derived.get(name)
        if derived is None:
            derived = self._derived[name] = self._on_frame(_SCALAR_FUNCS[name](self.eigenvalues))
        return derived

    def sqrt(self) -> "SpdMatrix":
        return self._apply("sqrt")

    def inv(self) -> "SpdMatrix":
        return self._apply("inv")

    def inv_sqrt(self) -> "SpdMatrix":
        return self._apply("inv_sqrt")

    def square(self) -> "SpdMatrix":
        return self._apply("square")

    def scaled(self, factor: float) -> "SpdMatrix":
        """Return factor * A for factor > 0, reusing the frame."""
        return self._on_frame(factor * self._eigenvalues)

    def quad_form(self, x: np.ndarray) -> float:
        """<Ax, x> for a vector x."""
        return float(x @ self._entries @ x)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def make_spd(raw) -> SpdMatrix:
    """Symmetrize a square matrix and wrap it as an SpdMatrix.

    Raises NotPositiveDefinite if the symmetric part has an eigenvalue
    that is not finite and > 0, and ValueError for non-square input.
    """
    return SpdMatrix(raw)


def _as_entries(x) -> np.ndarray:
    if isinstance(x, SpdMatrix):
        return x.entries
    return np.asarray(x, dtype=float)


def operator_norm(x) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    if isinstance(x, SpdMatrix):
        vals = x.eigenvalues
        return float(max(abs(vals[0]), abs(vals[-1])))
    vals = np.linalg.eigvalsh(symmetrize(x))
    return float(max(abs(vals[0]), abs(vals[-1])))


def spectral_norm(x) -> float:
    """Largest singular value; valid for non-symmetric products too."""
    return float(np.linalg.norm(_as_entries(x), 2))


def spectral_bounds(a: SpdMatrix) -> SpectralInterval:
    """Exact (lambda_min, lambda_max) of an SpdMatrix."""
    vals = a.eigenvalues
    return SpectralInterval(float(vals[0]), float(vals[-1]))


def loewner_leq(lhs, rhs, tol: float = DEFAULT_TOL, atol: float = 0.0) -> CheckVerdict:
    """Check LHS <= RHS in the Loewner order.

    holds iff lambda_min(RHS - LHS) >= -max(tol * ||RHS||, atol); the
    absolute floor ``atol`` is only for degenerate edges where RHS can
    vanish identically.
    """
    le = _as_entries(lhs)
    re = _as_entries(rhs)
    if le.shape != re.shape:
        raise ValueError(f"dimension mismatch: {le.shape} vs {re.shape}")
    gap = float(np.linalg.eigvalsh(symmetrize(re - le))[0])
    norm = operator_norm(rhs)
    holds = gap >= -max(tol * norm, atol)
    rel = gap / norm if norm > 0.0 else gap
    return CheckVerdict(holds=holds, min_gap_eig=gap, rel_slack=rel)


def scalar_leq(lhs: float, rhs: float, tol: float = DEFAULT_TOL,
               scale: float | None = None, atol: float = 0.0) -> CheckVerdict:
    """Scalar analogue of loewner_leq: holds iff rhs - lhs >= -max(tol*scale, atol).

    ``scale`` defaults to |rhs|; checkers pass a sturdier scale when the
    right side can degenerate to zero.
    """
    gap = float(rhs) - float(lhs)
    if scale is None:
        scale = abs(float(rhs))
    holds = gap >= -max(tol * scale, atol)
    rel = gap / scale if scale > 0.0 else gap
    return CheckVerdict(holds=holds, min_gap_eig=gap, rel_slack=rel)


def loewner_ratio(lhs, rhs: SpdMatrix) -> float:
    """Scale-free attained ratio lambda_max(R^{-1/2} L R^{-1/2}).

    Equals 1 exactly when LHS = RHS and stays <= 1 + tol whenever
    LHS <= RHS holds to tolerance.
    """
    w = rhs.inv_sqrt().entries
    conj = symmetrize(w @ _as_entries(lhs) @ w)
    return float(np.linalg.eigvalsh(conj)[-1])
