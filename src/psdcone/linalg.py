"""Numerical kernels: PSD tests, semidefinite Cholesky, Schur complements, sign flips.

All tolerances are relative to max(1, largest absolute entry) of the input.
The Cholesky here deliberately does *no* pivoting and, on a sparse matrix,
works only on the fill pattern: in a perfect elimination ordering there is no
fill (Rose 1970), so each factor column lives on a clique, which the chordal
fiber reads as a face.  A dense matrix takes the dense update, with the same
columns.  Pivots within tolerance of zero produce an exactly-zero column instead.
"""

from __future__ import annotations

import math

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
    return PsdReport(lo >= -tol * sigma.scale(), lo, tol)


# Above this many entry updates per column, counted from arr's nonzeros below
# the diagonal, one numpy update per column beats the entry-by-entry update on
# Python floats.  They break even near 8 at m = 8..48 on complete and
# large-clique chordal graphs (2-vCPU host); random sparse chordal graphs
# count 1 to 3.
DENSE_UPDATES_PER_COLUMN = 8


def _semidef_cholesky(arr: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """Columns of the lower-triangular L with L L^T = arr for PSD arr: None at a
    zero pivot, else (rows, values) with rows ascending from the pivot.

    Pivots below -tol*scale raise NotPsd; pivots of at most tol*scale give a
    zero column unless a non-negligible residual column sits under them.  A
    sparse arr is factored on its fill pattern: each pivot updates only its
    column's rows, adding the fill it makes (George & Liu 1981), and entries get
    the dense update's IEEE operations, less ±0.0 subtractions.  An arr past
    DENSE_UPDATES_PER_COLUMN takes the dense update, with the same columns; the
    count leaves out fill, which a perfect elimination ordering does not make.
    """
    a = np.asarray(arr, dtype=float)
    n = a.shape[0]
    scale = tolerance_scale(a)
    lower = np.tril(a, -1)
    below = np.count_nonzero(lower, axis=0)
    if below @ (below + 1) > 2 * DENSE_UPDATES_PER_COLUMN * n:
        return _dense_columns(a, tol, scale)
    # flat positions in row-major order, as np.nonzero gives them
    ii, jj = np.divmod(np.flatnonzero(lower), n)
    # work[k]: row -> entry (row, k) of the trailing matrix, lower triangle
    work = [{k: d} for k, d in enumerate(np.diagonal(a).tolist())]
    for i, j, v in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
        work[j][i] = v
    cols = []
    for k, col in enumerate(work):
        root = _pivot_root(col.pop(k), k, col.values(), tol, scale)
        if root is None:
            cols.append(None)  # column of L stays zero
            continue
        rows = sorted(col)
        vals = [col[i] / root for i in rows]
        for t, j in enumerate(rows):
            wj, cj = work[j], vals[t]
            for i, ci in zip(rows[t:], vals[t:]):
                wj[i] = wj.get(i, 0.0) - ci * cj
        cols.append(([k, *rows], [root, *vals]))
    return cols


def _dense_columns(a: np.ndarray, tol: float, scale: float) -> list:
    """_semidef_cholesky's columns by the dense right-looking update, every row below kept."""
    n = a.shape[0]
    work = np.array(a)
    cols = []
    for k in range(n):
        below = work[k + 1:, k]
        root = _pivot_root(work[k, k], k, below, tol, scale)
        if root is None:
            cols.append(None)
            continue
        col = below / root
        work[k + 1:, k + 1:] -= np.outer(col, col)
        cols.append((list(range(k, n)), [root, *col.tolist()]))
    return cols


def _pivot_root(d, k: int, below, tol: float, scale: float):
    """sqrt(d) for the pivot d at position k, or None for a zero pivot; NotPsd
    for d below -tol*scale or a zero pivot over a residual column ``below``
    that is not negligible.  math.sqrt gives np.sqrt's bits."""
    if d < -tol * scale:
        raise NotPsd(f"pivot {d:.3e} at position {k} below -{tol:.0e}*scale")
    if d > tol * scale:
        return math.sqrt(d)
    resid = max(map(abs, below), default=0.0)
    if resid > 10.0 * math.sqrt(max(tol, 1e-14)) * scale:
        raise NotPsd(
            f"zero pivot at position {k} with residual column {resid:.3e}"
        )
    return None


def cholesky(sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dense semidefinite Cholesky factor (no pivoting; see module docstring)."""
    ell = np.zeros((sigma.m, sigma.m))
    for k, col in enumerate(_semidef_cholesky(sigma.a, tol)):
        if col:
            ell[col[0], k] = col[1]
    return ell


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
