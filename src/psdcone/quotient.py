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
                   _dominated, _vertex_bitsets, as_face, induced_vertex_map)
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


def _single_vertex_quotient_facets(facets: list[frozenset], u: int) -> list[frozenset]:
    """Maximal sets of the one-vertex quotient on original labels.

    Candidates are the facets avoiding u and (F1 | F2) - u for every pair of
    facets through u, F1 = F2 included.  Every pair of faces through u lies
    in such a facet pair, so the candidates span the same complex as the
    unions of all face pairs.
    """
    out = {f for f in facets if u not in f}
    through = [f for f in facets if u in f]
    for i, f1 in enumerate(through):
        for f2 in through[i:]:
            merged = (f1 | f2) - {u}
            if merged:
                out.add(merged)
    sets = list(out)
    dominated = set(_dominated(sets, _vertex_bitsets(sets)))
    return [f for k, f in enumerate(sets) if k not in dominated]


def complex_quotient(delta: SimplicialComplex, block) -> SimplicialComplex:
    """Quotient complex on the kept vertices, relabeled in sorted order.

    Computed on facets, eliminating vertices one at a time in ascending
    order.  For a block of two or more vertices this can hold faces that no
    chain of faces through distinct eliminated vertices reaches: the
    elimination of one vertex may join two faces that both came through
    another.
    """
    u = sorted(set(block))
    if not all(0 <= v < delta.m for v in u):
        raise ValueError("block outside ground set")
    keep = [v for v in range(delta.m) if v not in set(u)]
    if not keep:
        raise ValueError("block must be proper")
    facets = [frozenset(f) for f in delta.facets]
    for v in u:
        facets = _single_vertex_quotient_facets(facets, v)
    relabel = induced_vertex_map(keep)
    return SimplicialComplex.from_facets(len(keep), ([relabel[v] for v in f] for f in facets))


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

    Original columns (faces avoiding u) are restricted; every unordered pair
    of faces F1, F2 through u, F1 before F2 in canonical order, contributes a
    column on the induced face (F1 | F2) - u with entries
    (gamma_{i,F1} gamma_{u,F2} - gamma_{i,F2} gamma_{u,F1}) / sqrt(sigma_uu).
    Columns landing on the same face are merged by re-factoring: the face's
    original column first, then its pair columns in pair order.
    """
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    if not 0 <= u < delta.m:
        raise ValueError("vertex outside ground set")
    m = delta.m
    cols = dict(_nonzero_columns(gamma))
    # the diagonal of phi(gamma), summed column by column
    diag = sum((col ** 2 for col in cols.values()), np.zeros(m))
    sigma_uu = diag[u]
    if sigma_uu <= tol * diag.max():
        raise ZeroDiagonal(f"diagonal value {float(sigma_uu)!r} at vertex {u} too small")
    root = np.sqrt(sigma_uu)

    quot = complex_quotient(delta, [u])
    keep = [v for v in range(m) if v != u]
    relabel = induced_vertex_map(keep)

    blocks = [(as_face(relabel[v] for v in face), col[keep][None])
              for face, col in cols.items() if u not in face]
    through = [f for f in cols if u in f]  # canonical order, as _nonzero_columns yields
    if len(through) > 1:
        c = np.array([cols[f] for f in through])
        cu = c[:, u]
        first, second = np.triu_indices(len(through), 1)
        pairs = c[first] * cu[second, None] - c[second] * cu[first, None]
        pairs[:, u] = 0.0
        live = pairs.any(axis=1)
        rows = pairs[live][:, keep] / root
        bits = [sum(1 << v for v in f) for f in through]
        by_face: dict[int, list[int]] = {}
        for k, (a, b) in enumerate(zip(first[live].tolist(), second[live].tolist())):
            by_face.setdefault(bits[a] | bits[b], []).append(k)
        for mask, ks in by_face.items():
            face = tuple(relabel[v] for v in keep if mask >> v & 1)
            blocks.append((face, rows[ks]))
    params = _combine_columns(quot, blocks)
    return QuotientWitness(quot, params, relabel, (u,))
