"""Graph and complex quotients under Schur complementation.

Removing a vertex block U from a matrix in the image cone and taking the
Schur complement lands in the image of the quotient complex: original faces
avoiding U survive, and pairs of faces through an eliminated vertex spawn
induced faces carrying the cross terms.  General U reduces to iterated
single-vertex quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                   as_face, face_key, induced_vertex_map, tolerance_scale)
from .errors import ZeroDiagonal
from .linalg import DEFAULT_TOL
from .param import _combine_columns, _nonzero_columns, phi


def graph_quotient(g: Graph, block) -> Graph:
    """Graph on the kept vertices; an edge wherever one exists already or a
    path runs between the endpoints through eliminated vertices only.

    The result is relabeled onto 0..(m-|U|-1) in sorted-kept-vertex order.
    """
    u = set(block)
    if not u <= set(range(g.m)):
        raise ValueError("block outside vertex range")
    keep = [v for v in range(g.m) if v not in u]
    if not keep:
        raise ValueError("block must be a proper vertex subset")
    relabel = induced_vertex_map(keep)
    edges = {(relabel[a], relabel[b]) for a, b in g.edges if a not in u and b not in u}
    # components of the eliminated subgraph glue their outside neighborhoods
    seen: set[int] = set()
    for start in sorted(u):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in u and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        boundary = sorted({y for x in comp for y in g.neighbors(x) if y not in u})
        for i in range(len(boundary)):
            for j in range(i + 1, len(boundary)):
                edges.add((relabel[boundary[i]], relabel[boundary[j]]))
    return Graph.from_edges(len(keep), edges)


def _single_vertex_quotient_faces(faces: set[frozenset], u: int) -> set[frozenset]:
    """Faces of the one-vertex quotient on original labels: faces avoiding u,
    plus unions of distinct face pairs through u with u removed."""
    out = {f for f in faces if u not in f}
    through = sorted((f for f in faces if u in f), key=lambda f: face_key(tuple(f)))
    for i in range(len(through)):
        for j in range(i + 1, len(through)):
            merged = (through[i] | through[j]) - {u}
            if merged:
                out.add(frozenset(merged))
    return out


def complex_quotient(delta: SimplicialComplex, block) -> SimplicialComplex:
    """Quotient complex on the kept vertices, relabeled in sorted order.

    Computed by eliminating vertices one at a time in ascending order; the
    chain description is recovered by composition.
    """
    u = sorted(set(block))
    if not all(0 <= v < delta.m for v in u):
        raise ValueError("block outside ground set")
    keep = [v for v in range(delta.m) if v not in set(u)]
    if not keep:
        raise ValueError("block must be proper")
    faces = {frozenset(f) for f in delta.faces}
    for v in u:
        faces = _single_vertex_quotient_faces(faces, v)
    relabel = induced_vertex_map(keep)
    facets = [tuple(sorted(relabel[v] for v in f)) for f in faces]
    return SimplicialComplex.from_facets(len(keep), facets)


@dataclass(frozen=True, eq=False)
class QuotientWitness:
    """Parameters on the quotient complex realizing a Schur complement."""

    quotient_complex: SimplicialComplex
    params: FactorParams
    vertex_map: dict[int, int]  # original kept vertex -> quotient vertex
    eliminated: tuple[int, ...]

    def image(self) -> SymmetricMatrix:
        return phi(self.quotient_complex, self.params)


def schur_witness(delta: SimplicialComplex, gamma: FactorParams, u: int,
                  tol: float = DEFAULT_TOL) -> QuotientWitness:
    """Witness that the Schur complement of phi(gamma) at vertex u stays in the
    image of the one-vertex quotient complex.

    Original columns (faces avoiding u) are restricted; every ordered pair of
    faces through u contributes an induced-face column with entries
    (gamma_{i,F1} gamma_{u,F2} - gamma_{i,F2} gamma_{u,F1}) / sqrt(sigma_uu).
    Pair columns landing on the same induced face are merged by re-factoring.
    """
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    if not 0 <= u < delta.m:
        raise ValueError("vertex outside ground set")
    m = delta.m
    cols = dict(_nonzero_columns(gamma))
    sigma_uu = sum(col[u] ** 2 for col in cols.values())
    scale = tolerance_scale(list(cols.values())) ** 2
    if sigma_uu <= tol * scale:
        raise ZeroDiagonal(f"diagonal value {sigma_uu!r} at vertex {u} too small")
    root = np.sqrt(sigma_uu)

    quot = complex_quotient(delta, [u])
    keep = [v for v in range(m) if v != u]
    relabel = induced_vertex_map(keep)

    def restrict(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(m - 1)
        for v in keep:
            out[relabel[v]] = vec[v]
        return out

    merged = []
    for face, col in cols.items():
        if u not in face:
            merged.append((as_face(relabel[v] for v in face), restrict(col)))
    through = sorted((f for f in cols if u in f), key=face_key)
    for i in range(len(through)):
        for j in range(i + 1, len(through)):
            f1, f2 = through[i], through[j]
            col = cols[f1] * cols[f2][u] - cols[f2] * cols[f1][u]
            col[u] = 0.0
            if not np.any(col):
                continue
            induced = (frozenset(f1) | frozenset(f2)) - {u}
            face = as_face(relabel[v] for v in induced)
            merged.append((face, restrict(col) / root))
    params = _combine_columns(quot, merged)
    return QuotientWitness(quot, params, relabel, (u,))
