"""The face parametrization: evaluation, cone addition, extreme-ray decomposition.

The image of gamma -> Gamma(gamma) Gamma(gamma)^T is a convex cone; closure
under addition is realized constructively by peeling Cholesky factors of the
per-face column sums, largest faces first, pushing leftover columns (whose
supports are strictly smaller faces) down to smaller faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Face, FactorMatrix, FactorParams, SimplicialComplex, SymmetricMatrix,
                   as_face, face_key, induced_subcomplex, induced_vertex_map, tolerance_scale,
                   within_units)
from .errors import InternalInconsistency

RAY_DROP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """A rank-one summand v v^T supported on a face of the complex."""

    support: Face
    vector: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.outer(self.vector, self.vector)


def build_factor_matrix(delta: SimplicialComplex, gamma: FactorParams) -> FactorMatrix:
    """Dense Gamma(gamma) with one column per face in canonical order."""
    faces = delta.faces
    arr = np.zeros((delta.m, len(faces)))
    for (face, i), v in gamma.values.items():
        arr[i, delta.face_index[face]] = v
    return FactorMatrix(faces, arr)


# A face with more nonzero parameters than this, and every face after it in
# canonical order, adds its outer product over the whole matrix in one numpy
# call, which beats its entry-by-entry sum from about 7^2 updates on (m <= 64,
# 2-vCPU host): complete and large-clique chordal graphs.
PHI_DENSE_FACE = 6


def phi(delta: SimplicialComplex, gamma: FactorParams) -> SymmetricMatrix:
    """Evaluate the parametrization: sum over faces of the column outer products.

    Faces in canonical order (size, then lexicographic: ``gamma.columns``, the
    order ``to_json_dict`` writes) add c_i c_j at their own entries only, on
    Python floats, up to the first face with more than PHI_DENSE_FACE nonzero
    parameters; from it on they add dense outer products.  The dense sum's
    other terms, ±0.0, change no bit, and (i, j), (j, i) get equal sums.
    """
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    m = delta.m
    faces = [entries for _, entries in gamma.columns]
    split = next((n for n, e in enumerate(faces) if len(e) > PHI_DENSE_FACE), len(faces))
    acc: dict[int, float] = {}  # i * m + j -> entry (i, j)
    for entries in faces[:split]:
        for i, ci in entries:
            for j, cj in entries:
                acc[i * m + j] = acc.get(i * m + j, 0.0) + ci * cj
    out = np.zeros(m * m)
    out[list(acc)] = list(acc.values())
    out = out.reshape(m, m)
    for entries in faces[split:]:
        col = _column(entries, m)
        out += col[:, None] * col
    return SymmetricMatrix._trusted(out)


def check_certificate(gamma: FactorParams, sigma: SymmetricMatrix):
    """Raise InternalInconsistency unless |phi(gamma) - sigma| <= 1e-8 sqrt(|s_ii s_jj|)."""
    if not within_units(phi(gamma.complex, gamma).a - sigma.a, sigma.a.diagonal(), 1e-8):
        raise InternalInconsistency("certificate does not reproduce the input")


def _column(entries, m: int) -> np.ndarray:
    """The length-m column holding a face's (vertex, parameter) entries."""
    col = np.zeros(m)
    col[[i for i, _ in entries]] = [v for _, v in entries]
    return col


def _nonzero_columns(gamma: FactorParams):
    """Yield (face, length-m column) for faces carrying a nonzero parameter."""
    for face, entries in gamma.columns:
        yield face, _column(entries, gamma.complex.m)


def _combine_columns(delta: SimplicialComplex, blocks) -> FactorParams:
    """Merge a multiset of face-supported columns into one parameter vector.

    blocks: iterable of (face, k x m array whose rows are columns with support
    inside the face); several blocks may name the same face.  The result
    gamma satisfies Gamma(gamma) Gamma(gamma)^T = sum of the column outer
    products.  A face's columns, in the order they arrived, are re-factored
    into lower-trapezoidal L = R^T (QR of their rows: no Gram matrix squares
    the conditioning); L's leading column is kept, and column j >= 1, on rows
    j.., is pushed onto the strictly smaller face of its support.  So faces go
    one size at a time, largest first, each complete when its size starts:
    one stacked QR per row count (bitwise the per-face QR; one row is its own
    R), then the faces emit and push in canonical order.
    """
    blocks = [(face, np.asarray(rows, dtype=float)) for face, rows in blocks]
    drop = RAY_DROP_TOL * (tolerance_scale(np.concatenate([r for _, r in blocks]))
                           if blocks else 1.0)
    pending: dict[Face, list[list[float]]] = {}  # face -> its rows, face-local
    for face, rows in blocks:
        if not delta.has_face(face):
            raise ValueError(f"column support {face} is not a face")
        face = as_face(face)
        pending.setdefault(face, []).extend(rows[:, list(face)].tolist())

    out: dict[tuple[Face, int], float] = {}
    while pending:
        size = max(map(len, pending))
        level = sorted(f for f in pending if len(f) == size)
        by_rows: dict[int, list[Face]] = {}
        for face in level:
            by_rows.setdefault(len(pending[face]), []).append(face)
        factored = {}
        for k, faces in by_rows.items():
            x = np.array([row for f in faces for row in pending.pop(f)]).reshape(-1, k, size)
            r = x if k == 1 else np.linalg.qr(x, mode="r")
            factored.update(zip(faces, zip(r[:, 0].tolist(), r[:, 1:].tolist(),
                                           (np.abs(r[:, 1:]) > drop).tolist())))
        for face in level:
            lead, trailing, supp = factored[face]
            for i, v in zip(face, lead):
                if v != 0.0:
                    out[(face, i)] = v
            for row, on in zip(trailing, supp):
                if any(on):
                    pending.setdefault(tuple(v for v, b in zip(face, on) if b), []).append(
                        [t for t, b in zip(row, on) if b])
    return FactorParams._trusted(delta, out)


def cone_add(delta: SimplicialComplex, g1: FactorParams, g2: FactorParams) -> FactorParams:
    """Parameters whose image equals phi(g1) + phi(g2) (convexity, made effective)."""
    if g1.complex != delta or g2.complex != delta:
        raise ValueError("both parameter vectors must live on the given complex")
    return _combine_columns(delta, [(face, col[None]) for g in (g1, g2)
                                    for face, col in _nonzero_columns(g)])


def extreme_decomposition(delta: SimplicialComplex, gamma: FactorParams) -> list[RankOneTerm]:
    """Rank-one terms on faces summing to phi(delta, gamma).

    Columns are grouped by the first facet containing their face and each
    group is re-factored, so the term count is at most the sum of facet sizes.
    Columns below 1e-12 * scale are dropped.
    """
    groups: dict[Face, list[np.ndarray]] = {}
    scale = 1.0
    for face, col in _nonzero_columns(gamma):
        scale = max(scale, float(np.abs(col).max()))
        containing = delta.facets_containing(face)
        if not containing:
            raise ValueError(f"column support {face} is not a face")
        home = delta.facets[(containing & -containing).bit_length() - 1]
        groups.setdefault(home, []).append(col)
    terms: list[RankOneTerm] = []
    for facet in sorted(groups, key=face_key):
        idx = list(facet)
        ell = np.linalg.qr(np.array([c[idx] for c in groups[facet]]), mode="r").T
        for j in range(ell.shape[1]):
            col = ell[:, j]
            if np.linalg.norm(col) <= RAY_DROP_TOL * scale:
                continue
            supp = [i for i, v in zip(facet, col) if v != 0.0]
            full = np.zeros(delta.m)
            full[idx] = col
            terms.append(RankOneTerm(as_face(supp), full))
    return terms


def submatrix_witness(delta: SimplicialComplex, gamma: FactorParams, subset) -> FactorParams:
    """Parameters on the induced subcomplex whose image is the principal submatrix.

    Every column of Gamma(gamma) restricted to the subset keeps a face support
    (the face intersected with the subset), so the restricted columns merge
    into a parameter vector on the induced subcomplex.  For edge complexes
    this reduces to folding the cut-off mass into singleton faces.
    """
    a = sorted(set(subset))
    if not a or len(a) >= delta.m:
        if len(a) == delta.m:
            raise ValueError("subset must be proper")
        raise ValueError("subset must be nonempty")
    sub = induced_subcomplex(delta, a)
    relabel = induced_vertex_map(a)
    aset = set(a)
    cols = []
    for face, col in _nonzero_columns(gamma):
        inter = [v for v in face if v in aset]
        if not inter:
            continue
        restricted = np.zeros(len(a))
        for v in inter:
            restricted[relabel[v]] = col[v]
        if np.any(restricted != 0.0):
            cols.append((as_face(relabel[v] for v in inter), restricted[None]))
    return _combine_columns(sub, cols)
