"""Dense symmetric positive-definite matrices, one at a time.

An SpdMatrix is the ``stacked.StackedSpd`` of one (n, n) matrix, so the
algebra written there for stacks of any shape (..., n, n) is its own,
and the order checks and norms here, and the ``check_*`` functions of
``inequalities``, call their stacked namesakes on the one matrix as it
is, without a row axis: an instance gets the bits it would get as a row
of any stack. Every SpdMatrix holds its spectrum and eigenframe from the
moment it is made, so the spectrum's test (every eigenvalue finite and
> 0) decides positivity for raw matrices, given spectra and derived
matrices alike. All order comparisons are tolerance-aware relative to the
operator norm of the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stacked

DEFAULT_TOL = 1e-8


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _require_tol(tol) -> None:
    """Raise ValueError unless tol is a finite real number >= 0; a bool is not one."""
    if not (_is_real(tol) and tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _square(raw) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {raw.shape}")
    return raw


def symmetrize(raw) -> np.ndarray:
    """Return (X + X^T)/2, the symmetric part of a square matrix."""
    return stacked.symmetrize(_square(raw))


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] with 0 < lo <= hi < inf, holding spectrum bounds."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi < np.inf):
            raise ValueError(f"invalid spectral interval [{self.lo}, {self.hi}]: "
                             f"needs finite 0 < lo <= hi")


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


class SpdMatrix(stacked.StackedSpd):
    """Symmetric positive-definite matrix with its eigendecomposition.

    A ``stacked.StackedSpd`` of one (n, n) matrix, with read-only
    arrays: its derived matrices ``sqrt``, ``inv``, ``inv_sqrt``,
    ``square`` and ``scaled``, and its means, are SpdMatrix too. A raw
    matrix is made as a raw stack is, and then decomposed by ``eigh`` at
    once, with no Cholesky (a raw stack waits for the first read of its
    spectrum); :meth:`from_eigh` takes known spectral factors instead.
    Either way the matrix is accepted only if every eigenvalue is finite
    and > 0, and the ascending spectrum and its frame are set before
    construction returns. Its Cholesky factor, which a geometric mean or
    a Loewner ratio reads, is made on first need. Each frame's
    orthonormality (a Gram check) is verified once: by ``from_eigh`` for
    the frame it is given, and on first use for a frame computed by
    ``eigh``.
    """

    __slots__ = ()

    def __init__(self, entries):
        # Decomposed when made, as make_spd promises.
        super().__init__(_square(entries))
        self._spectrum()

    def _keep(self, array: np.ndarray) -> np.ndarray:
        """An array the matrix holds, made read-only."""
        array.setflags(write=False)
        return array

    @classmethod
    def from_eigh(cls, eigenvalues, eigenvectors) -> "SpdMatrix":
        """Build from known spectral factors without re-decomposing.

        ``eigenvalues`` must be finite and > 0; ``eigenvectors`` holds
        orthonormal columns. Eigenvalues are sorted ascending and the
        columns permuted to match.
        """
        # Copies, as the matrix may keep them and makes them read-only.
        vals = np.array(eigenvalues, dtype=float).reshape(-1)
        return super().from_eigh(vals, np.array(eigenvectors, dtype=float))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def quad_form(self, x: np.ndarray) -> float:
        """<Ax, x> for a vector x."""
        return float(x @ self.entries @ x)

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def make_spd(raw) -> SpdMatrix:
    """Symmetrize a square matrix and wrap it as an SpdMatrix.

    Raises NotPositiveDefinite if the symmetric part has an eigenvalue
    that is not finite and > 0, and ValueError for non-square input.
    """
    return SpdMatrix(raw)


def _entries(x) -> np.ndarray:
    return x.entries if isinstance(x, SpdMatrix) else np.asarray(x, dtype=float)


def _operand(x):
    """x as a stacked operand: an SpdMatrix as it is, else a square matrix."""
    return x if isinstance(x, SpdMatrix) else _square(x)


def _require_same_dim(a: SpdMatrix, b: SpdMatrix) -> None:
    """Raise ValueError unless a and b share a dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _verdict(rows: stacked.Verdicts) -> CheckVerdict:
    return CheckVerdict(bool(rows.holds), float(rows.gap), float(rows.slack))


def operator_norm(x) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    return float(stacked.operator_norm(_operand(x)))


def spectral_norm(x) -> float:
    """Largest singular value; valid for non-symmetric products too, and a vector's 2-norm."""
    return float(stacked.spectral_norm(np.atleast_2d(_entries(x))))


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
    le = _entries(lhs)
    re = _entries(rhs)
    if le.shape != re.shape:
        raise ValueError(f"dimension mismatch: {le.shape} vs {re.shape}")
    return _verdict(stacked.loewner_leq(_operand(lhs), _operand(rhs), tol, atol))


def scalar_leq(lhs: float, rhs: float, tol: float = DEFAULT_TOL,
               scale: float | None = None, atol: float = 0.0) -> CheckVerdict:
    """Scalar analogue of loewner_leq: holds iff rhs - lhs >= -max(tol*scale, atol).

    ``scale`` defaults to |rhs|; checkers pass a sturdier scale when the
    right side can degenerate to zero.
    """
    return _verdict(stacked.scalar_leq(float(lhs), float(rhs), tol, scale, atol))


def loewner_ratio(lhs, rhs: SpdMatrix) -> float:
    """Scale-free attained ratio lambda_max(R^{-1/2} L R^{-1/2}).

    Equals 1 exactly when LHS = RHS and stays <= 1 + tol whenever
    LHS <= RHS holds to tolerance.
    """
    return float(stacked.loewner_ratio(_operand(lhs), rhs))
