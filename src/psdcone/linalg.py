"""Numerical kernels: the PSD test, semidefinite Cholesky, Schur complements, sign flips.

PSD is decided in the correlation units of the input diagonal, with
``zero_pivot`` the one rule for a pivot near zero, here and in ``cycle``;
``is_psd`` is that decision on its own, by the Cholesky below.  The
Cholesky does *no* pivoting and, on a sparse matrix, works only on the fill
pattern: in a perfect elimination ordering there is no fill (Rose 1970), so
each factor column lives on a clique, which the chordal fiber reads as a face.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SymmetricMatrix
from .errors import NotPsd, SingularBlock

DEFAULT_TOL = 1e-9

COND_LIMIT = 1e12


def is_psd(sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Whether sigma is PSD by the decisions' rule: ``_semidef_cholesky`` at tol."""
    try:
        _semidef_cholesky(sigma.a, tol)
    except NotPsd:
        return False
    return True


def zero_pivot(p: float, r: float, tol: float, at: str) -> bool:
    """The rule for a correlation-form pivot p <= tol at ``at`` whose rest of row
    v has squared length r: True for a zero column, which leaves out a block of
    least eigenvalue p/2 - sqrt(p^2/4 + r) >= -tol exactly when r <= tol (p + tol);
    False to eliminate it as the pivot tol, adding tol - p <= 2 tol to the
    diagonal; p < -tol, or NaN, raises NotPsd, and so does r > 0 at tol = 0,
    where the zero pivot has no pivot tol to be eliminated as."""
    if not p >= -tol:
        raise NotPsd(f"pivot {p:.3e} at {at} below -{tol:.0e}")
    if r <= tol * (p + tol):
        return True
    if not tol:
        raise NotPsd(f"zero pivot at {at} beside a nonzero entry")
    return False


# Above this many entry updates per column, counted from arr's nonzeros below
# the diagonal, one numpy update per column beats the entry-by-entry update on
# Python floats.  They break even near 8 at m = 8..48 on complete and
# large-clique chordal graphs (2-vCPU host); random sparse chordal graphs
# count 1 to 3.
DENSE_UPDATES_PER_COLUMN = 8


def _semidef_cholesky(arr: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """Columns of the lower-triangular L with L L^T = arr for PSD arr: None at a
    zero pivot, else (rows, values) with rows ascending from the pivot.

    ``zero_pivot`` gets p = d_k / a_kk and r = sum_i (v_i / sqrt(a_kk a_ii))^2
    for a pivot d_k <= tol a_kk over its column v (Demmel 1989), and a pivot
    it does not zero is eliminated as tol a_kk; a negative diagonal is not
    PSD, and a zero one needs a zero row.  A sparse arr is factored on its
    fill pattern: each pivot updates only its column's rows, adding the fill
    it makes (George & Liu 1981), and entries get the dense update's IEEE
    operations, less ±0.0 subtractions.  An arr past DENSE_UPDATES_PER_COLUMN
    takes the dense update, with the same columns; the count leaves out fill,
    which a perfect elimination ordering does not make.
    """
    a = np.asarray(arr, dtype=float)
    n = a.shape[0]
    diag = np.diagonal(a).tolist()
    for k, x in enumerate(diag):
        if x < 0.0:
            raise NotPsd(f"negative diagonal entry {x!r} at position {k}")
        if x == 0.0 and np.any(a[k]):
            raise NotPsd(f"nonzero entry in the row of the zero diagonal at position {k}")
    lower = np.tril(a, -1)
    below = np.count_nonzero(lower, axis=0)
    if below @ (below + 1) > 2 * DENSE_UPDATES_PER_COLUMN * n:
        return _dense_columns(a, tol, diag)
    # flat positions in row-major order, as np.nonzero gives them
    ii, jj = np.divmod(np.flatnonzero(lower), n)
    # work[k]: row -> entry (row, k) of the trailing matrix, lower triangle
    work = [{k: d} for k, d in enumerate(diag)]
    for i, j, v in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
        work[j][i] = v
    cols = []
    for k, col in enumerate(work):
        d = col.pop(k)
        if not (diag[k] and d / diag[k] > tol):
            if _zero_column(d, k, sorted(col.items()), diag, tol):
                cols.append(None)  # column of L stays zero
                continue
            d = tol * diag[k]
        root = math.sqrt(d)
        rows = sorted(col)
        vals = [col[i] / root for i in rows]
        for t, j in enumerate(rows):
            wj, cj = work[j], vals[t]
            for i, ci in zip(rows[t:], vals[t:]):
                wj[i] = wj.get(i, 0.0) - ci * cj
        cols.append(([k, *rows], [root, *vals]))
    return cols


def _dense_columns(a: np.ndarray, tol: float, diag: list) -> list:
    """_semidef_cholesky's columns by the dense right-looking update, every row below kept."""
    n = a.shape[0]
    work = np.array(a)
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: a later pivot's NotPsd
        for k in range(n):
            d, below = work[k, k], work[k + 1:, k]
            if not (diag[k] and d / diag[k] > tol):
                if _zero_column(d, k, enumerate(below.tolist(), k + 1), diag, tol):
                    cols.append(None)
                    continue
                d = tol * diag[k]
            root = math.sqrt(d)  # np.sqrt's bits
            col = below / root
            work[k + 1:, k + 1:] -= np.outer(col, col)
            cols.append((list(range(k, n)), [root, *col.tolist()]))
    return cols


def _zero_column(d, k: int, below, diag: list, tol: float) -> bool:
    """``zero_pivot`` at position k over its (row, entry) pairs, rows ascending so
    that both updates sum alike; a zero diagonal's row is zero, with nothing to check."""
    if not diag[k]:
        return True
    s = math.sqrt(diag[k])
    r = sum(t * t for t in (v / s / math.sqrt(diag[i]) for i, v in below if v))
    return zero_pivot(d / diag[k], r, tol, f"position {k}")


def schur_complement(matrix: SymmetricMatrix, block: set) -> SymmetricMatrix:
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

    Indexed by path position first: ``diag[k]`` is diagonal entry k, a float
    for one matrix or row k of an (n, batch) array for a batch, and
    ``off2[k]`` the *squared* off-diagonal entry (k, k+1); minor k+1 is
    ``diag[k] * minor_k - off2[k-1] * minor_(k-1)`` with minor_0 = 1.
    Minors are streamed, not stored, and the weights may have either sign.
    """
    n = len(diag)
    if len(off2) != max(n - 1, 0):
        raise ValueError(f"need {max(n - 1, 0)} off-diagonal entries, got {len(off2)}")
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, diag[k] * cur - (off2[k - 1] * prev if k else 0.0)
        yield cur


def path_det(diag, off2):
    """Last of ``tridiagonal_minors`` (the determinant); 1 for the empty matrix."""
    det = 1.0
    for det in tridiagonal_minors(diag, off2):
        pass
    return det
