"""Numerical kernels: PSD tests, semidefinite Cholesky, Schur complements, sign flips.

All tolerances are relative to max(1, largest absolute entry) of the input.
The Cholesky here deliberately does *no* pivoting: the cone-addition and
chordal-fiber algorithms rely on column supports staying inside faces, which
any permutation would destroy.  Pivots within tolerance of zero produce an
exactly-zero column instead.
"""

from __future__ import annotations

import numpy as np

from .core import SymmetricMatrix, tolerance_scale
from .errors import NotPsd, SingularBlock

DEFAULT_TOL = 1e-9

COND_LIMIT = 1e12


class PsdReport:
    """Outcome of a positive-semidefiniteness check."""

    __slots__ = ("is_psd", "min_eigenvalue", "tolerance_used")

    def __init__(self, is_psd: bool, min_eigenvalue: float, tolerance_used: float):
        self.is_psd = is_psd
        self.min_eigenvalue = min_eigenvalue
        self.tolerance_used = tolerance_used

    def __repr__(self):
        return (f"PsdReport(is_psd={self.is_psd}, min_eigenvalue={self.min_eigenvalue!r}, "
                f"tolerance_used={self.tolerance_used!r})")


def min_eigenvalue(arr: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(arr)[0])


def is_psd(sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> PsdReport:
    """Eigenvalue-based PSD verdict: min eigenvalue >= -tol * max(1, max|entry|)."""
    arr = sigma.a
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    lo = min_eigenvalue(arr)
    return PsdReport(lo >= -tol * tolerance_scale(arr), lo, tol)


def _semidef_cholesky(arr: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Lower-triangular L with L L^T = arr for PSD arr, zero columns at zero pivots.

    Pivots below -tol*scale raise NotPsd; pivots of at most tol*scale produce
    an exactly-zero column, with a guard against a ~zero pivot sitting on top
    of a non-negligible residual column.
    """
    n = arr.shape[0]
    scale = tolerance_scale(arr)
    work = np.array(arr, dtype=float)
    ell = np.zeros((n, n))
    for k in range(n):
        d = work[k, k]
        if d < -tol * scale:
            raise NotPsd(f"pivot {d:.3e} at position {k} below -{tol:.0e}*scale")
        if d <= tol * scale:
            resid = np.abs(work[k + 1:, k]).max() if k + 1 < n else 0.0
            if resid > 10.0 * np.sqrt(max(tol, 1e-14)) * scale:
                raise NotPsd(
                    f"zero pivot at position {k} with residual column {resid:.3e}"
                )
            continue  # column of L stays zero
        root = np.sqrt(d)
        ell[k, k] = root
        if k + 1 < n:
            col = work[k + 1:, k] / root
            ell[k + 1:, k] = col
            work[k + 1:, k + 1:] -= np.outer(col, col)
    return ell


def cholesky(sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Semidefinite Cholesky factor (no pivoting; see module docstring)."""
    return _semidef_cholesky(sigma.a, tol)


def schur_complement(matrix: SymmetricMatrix, block: set, tol: float = DEFAULT_TOL) -> SymmetricMatrix:
    """M/M_{U,U}: the kept block minus M_{A,U} M_{U,U}^{-1} M_{U,A}.

    The eliminated block must be well conditioned (condition number below 1e12).
    """
    u = sorted(set(block))
    m = matrix.m
    if not u:
        raise ValueError("block must be nonempty")
    if not all(0 <= v < m for v in u):
        raise ValueError("block outside vertex range")
    keep = [v for v in range(m) if v not in set(u)]
    if not keep:
        raise ValueError("block must be a proper subset")
    a = matrix.a
    d = a[np.ix_(u, u)]
    if np.linalg.cond(d) > COND_LIMIT:
        raise SingularBlock(f"block {u} has condition number above {COND_LIMIT:.0e}")
    b = a[np.ix_(keep, u)]
    comp = a[np.ix_(keep, keep)] - b @ np.linalg.solve(d, b.T)
    return SymmetricMatrix((comp + comp.T) / 2.0)


def sign_flip(sigma: SymmetricMatrix, i: int, j: int) -> SymmetricMatrix:
    """Negate the (i,j) and (j,i) entries; an involution."""
    if i == j:
        raise ValueError("sign_flip requires two distinct indices")
    arr = np.array(sigma.a)
    arr[i, j] = -arr[i, j]
    arr[j, i] = -arr[j, i]
    return SymmetricMatrix(arr)


def tridiagonal_minors(diag, off2):
    """Yield the leading principal minors of symmetric tridiagonal matrices.

    Batch-first: ``diag`` has shape (..., n) and ``off2`` shape (..., n-1)
    holding the *squared* off-diagonal entries; minor k+1 is
    ``diag[..., k] * minor_k - off2[..., k-1] * minor_(k-1)`` with minor_0 = 1.
    Minors are streamed, not stored, and the weights may have either sign.
    """
    a = np.asarray(diag, dtype=float)
    w = np.asarray(off2, dtype=float)
    n = a.shape[-1]
    if w.shape[-1] != max(n - 1, 0):
        raise ValueError(f"need {max(n - 1, 0)} off-diagonal entries, got {w.shape[-1]}")
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, a[..., k] * cur - (w[..., k - 1] * prev if k else 0.0)
        yield cur


def path_det(diag, off2):
    """Last of ``tridiagonal_minors`` (the determinant); 1 for the empty matrix.

    A batch (a ``diag`` array of two or more dimensions) goes through
    ``tridiagonal_minors``.  A single matrix runs the same recurrence on
    Python floats, which avoids numpy's per-element overhead; every step is
    the same IEEE operation, so it equals the batch form's row bitwise.
    """
    if getattr(diag, "ndim", 1) > 1:
        det = 1.0
        for det in tridiagonal_minors(diag, off2):
            pass
        return det
    n = len(diag)
    if len(off2) != max(n - 1, 0):
        raise ValueError(f"need {max(n - 1, 0)} off-diagonal entries, got {len(off2)}")
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, diag[k] * cur - (off2[k - 1] * prev if k else 0.0)
    return cur


def tridiagonal_det(diagonal, offdiagonal) -> float:
    """Determinant of the symmetric tridiagonal matrix with the given bands.

    Three-term recurrence d_k = a_k d_{k-1} - b_{k-1}^2 d_{k-2}; the empty
    matrix has determinant 1.
    """
    return float(path_det(diagonal, [b * b for b in np.asarray(offdiagonal, dtype=float)]))
