"""The face parametrization: evaluation, cone addition, extreme-ray decomposition.

The image of gamma -> Gamma(gamma) Gamma(gamma)^T is a convex cone; closure
under addition is realized constructively by peeling Cholesky factors of the
per-face column sums, largest faces first, pushing leftover columns (whose
supports are strictly smaller faces) down to smaller faces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import (Face, FactorMatrix, FactorParams, SimplicialComplex,
                   SymmetricMatrix, as_face, face_key, induced_subcomplex,
                   induced_vertex_map)

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


def phi(delta: SimplicialComplex, gamma: FactorParams) -> SymmetricMatrix:
    """Evaluate the parametrization: sum over faces of the column outer products."""
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    out = np.zeros((delta.m, delta.m))
    for face, col in _nonzero_columns(gamma):
        out += col[:, None] * col  # np.outer(col, col) without its wrapper
    return SymmetricMatrix((out + out.T) / 2.0)


def _nonzero_columns(gamma: FactorParams):
    """Yield (face, length-m column) for faces carrying a nonzero parameter."""
    by_face: dict[Face, np.ndarray] = {}
    m = gamma.complex.m
    for (face, i), v in gamma.values.items():
        if v != 0.0:
            col = by_face.setdefault(face, np.zeros(m))
            col[i] = v
    for face in sorted(by_face, key=face_key):
        yield face, by_face[face]


def _lq_columns(block: np.ndarray) -> np.ndarray:
    """Lower-trapezoidal L with L L^T = block block^T (QR of the transpose).

    Column j of L has support in rows j.., which is what keeps re-factored
    columns inside nested sub-faces; QR on the raw columns avoids squaring
    the conditioning the way forming the Gram matrix would.
    """
    r = np.linalg.qr(block.T, mode="r")
    return r.T


def _combine_columns(delta: SimplicialComplex, columns) -> FactorParams:
    """Merge a multiset of face-supported columns into one parameter vector.

    columns: iterable of (face, length-m vector with support inside the face).
    The result gamma satisfies Gamma(gamma) Gamma(gamma)^T = sum of the column
    outer products.  Faces are processed largest-first (ties by the canonical
    order); at each face the stacked columns are re-factored into triangular
    form, the leading column is kept, and the trailing columns are pushed
    onto the faces given by their supports.
    """
    pending: dict[Face, list[np.ndarray]] = {}
    heap: list[tuple[int, Face]] = []
    scale = 1.0

    def push(face: Face, col: np.ndarray):
        if face not in pending:
            heapq.heappush(heap, (-len(face), face))
            pending[face] = []
        pending[face].append(col)

    for face, col in columns:
        if not delta.has_face(face):
            raise ValueError(f"column support {face} is not a face")
        scale = max(scale, float(np.abs(col).max()))
        push(as_face(face), np.asarray(col, dtype=float))

    out: dict[tuple[Face, int], float] = {}
    while heap:
        _, face = heapq.heappop(heap)
        cols = pending.pop(face)
        idx = list(face)
        block = np.array([c[idx] for c in cols]).T  # |face| x k
        ell = _lq_columns(block)
        for i, v in zip(face, ell[:, 0]):
            if v != 0.0:
                out[(face, i)] = v
        for j in range(1, ell.shape[1]):
            col = ell[:, j]
            supp = [i for i, v in zip(face, col) if abs(v) > RAY_DROP_TOL * scale]
            if not supp:
                continue
            sub = as_face(supp)
            full = np.zeros(delta.m)
            for i, v in zip(face, col):
                if abs(v) > RAY_DROP_TOL * scale:
                    full[i] = v
            push(sub, full)
    return FactorParams(delta, out)


def cone_add(delta: SimplicialComplex, g1: FactorParams, g2: FactorParams) -> FactorParams:
    """Parameters whose image equals phi(g1) + phi(g2) (convexity, made effective)."""
    if g1.complex != delta or g2.complex != delta:
        raise ValueError("both parameter vectors must live on the given complex")
    cols = list(_nonzero_columns(g1)) + list(_nonzero_columns(g2))
    return _combine_columns(delta, cols)


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
        block = np.array([c[idx] for c in groups[facet]]).T
        ell = _lq_columns(block)
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
            cols.append((as_face(relabel[v] for v in inter), restricted))
    return _combine_columns(sub, cols)
