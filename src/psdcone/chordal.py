"""Chordality, clique complexes, and exact fiber recovery for chordal graphs.

For a chordal graph the parametrization over the clique complex is onto the
whole zero-constrained PSD cone, and a preimage can be read off a sparse
Cholesky factor after permuting the matrix into a perfect elimination
ordering: each factor column is then supported on a clique.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                   as_face, underlying_graph)
from .errors import (InternalInconsistency, NotChordal, NotPsd,
                     PatternViolation, TooManyCliques)
from .linalg import DEFAULT_TOL, _semidef_cholesky, is_psd

CLIQUE_GUARD = 10 ** 6


@dataclass(frozen=True)
class EliminationOrdering:
    """A vertex order; perfect when every vertex's later neighbors form a clique."""

    order: tuple[int, ...]
    is_perfect: bool


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order; ties broken by smallest vertex index.

    A heap of (-weight, vertex) pops the largest weight, then the smallest
    index.  Raising a weight pushes a fresh entry; the stale ones are skipped
    when they surface (Tarjan & Yannakakis 1984 give the bucket form).
    """
    weight = [0] * g.m
    visited = [False] * g.m
    heap = [(0, v) for v in range(g.m)]
    order = []
    while heap:
        neg, v = heapq.heappop(heap)
        if visited[v] or -neg != weight[v]:
            continue
        visited[v] = True
        order.append(v)
        for w in g.neighbors(v):
            if not visited[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    return order


def _perfect_check(g: Graph, order: list[int]):
    """Return None if the order is a perfect elimination ordering, else a violating triple."""
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = sorted((w for w in g.neighbors(v) if pos[w] > pos[v]),
                       key=lambda w: pos[w])
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not g.has_edge(later[a], later[b]):
                    return v, later[a], later[b]
    return None


def _chordless_cycle_through(g: Graph, v: int, x: int, y: int):
    """Shortest chordless cycle through v using non-adjacent neighbors x, y of v."""
    banned = (g.neighbors(v) | {v}) - {x, y}
    prev = {x: None}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        if cur == y:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple([v] + path[::-1])
        for w in g.neighbors(cur):
            if w not in banned and w not in prev:
                prev[w] = cur
                queue.append(w)
    return None


def _chordless_cycle_from(g: Graph, bad) -> tuple[int, ...]:
    """A chordless cycle of length >= 4 from a violating triple of an ordering."""
    cyc = _chordless_cycle_through(g, *bad)
    if cyc is None:
        # the PEO violation guarantees some non-adjacent neighbor pair works
        for v in range(g.m):
            nbrs = sorted(g.neighbors(v))
            for i, x in enumerate(nbrs):
                for y in nbrs[i + 1:]:
                    if not g.has_edge(x, y):
                        cyc = _chordless_cycle_through(g, v, x, y)
                        if cyc is not None:
                            return cyc
        raise InternalInconsistency("imperfect ordering but no chordless cycle found")
    return cyc


def find_chordless_cycle(g: Graph) -> tuple[int, ...] | None:
    """Some induced cycle of length >= 4, or None if the graph is chordal."""
    ok, info = is_chordal(g)
    return None if ok else info


def is_chordal(g: Graph):
    """(True, EliminationOrdering) or (False, chordless-cycle witness of length >= 4).

    The candidate ordering is the reverse of a maximum cardinality search;
    its first violating triple seeds the witness search.
    """
    order = tuple(maximum_cardinality_search(g)[::-1])
    bad = _perfect_check(g, list(order))
    if bad is None:
        return True, EliminationOrdering(order, True)
    witness = _chordless_cycle_from(g, bad)
    if len(witness) < 4:
        raise InternalInconsistency("MCS ordering imperfect on a chordal graph")
    return False, witness


def clique_complex(g: Graph, guard: int = CLIQUE_GUARD) -> SimplicialComplex:
    """Simplicial complex of all cliques; facets via Bron-Kerbosch with pivoting."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            if len(cliques) > guard:
                raise TooManyCliques(f"more than {guard} maximal cliques")
            return
        pivot = max(sorted(p | x), key=lambda u: len(g.neighbors(u) & p))
        for v in sorted(p - g.neighbors(pivot)):
            expand(r | {v}, p & g.neighbors(v), x & g.neighbors(v))
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(g.m)), set())
    return SimplicialComplex.from_facets(g.m, cliques)


def ordering_clique_complex(g: Graph, ordering: EliminationOrdering) -> SimplicialComplex:
    """Clique complex of a chordal graph from a perfect elimination ordering.

    Each maximal clique is a vertex together with its later neighbors
    (Vandenberghe & Andersen 2015), so from_facets on those m sets keeps
    exactly the maximal cliques, without a clique search.
    """
    pos = {v: k for k, v in enumerate(ordering.order)}
    return SimplicialComplex.from_facets(
        g.m, ([v, *(w for w in g.neighbors(v) if pos[w] > pos[v])] for v in range(g.m)))


def chordal_fiber(g: Graph, sigma: SymmetricMatrix, tol: float = DEFAULT_TOL,
                  chordality: tuple | None = None) -> FactorParams:
    """A preimage of sigma under the clique-complex parametrization of a chordal graph.

    Permute by a perfect elimination ordering, factor, and assign each factor
    column to the clique given by its support.  Supports of distinct nonzero
    columns are distinct (each contains its own pivot as least element), so
    every column lands on its own face.  ``chordality`` is ``is_chordal(g)``
    when the caller already holds it; it is computed here otherwise.
    """
    if sigma.m != g.m:
        raise ValueError("matrix and graph sizes differ")
    ok, info = is_chordal(g) if chordality is None else chordality
    if not ok:
        raise NotChordal(f"graph has chordless cycle {tuple(v + 1 for v in info)}")
    if not sigma.respects_pattern(g):
        raise PatternViolation("matrix has a nonzero entry at a non-edge of the graph")
    report = is_psd(sigma, tol)
    if not report.is_psd:
        raise NotPsd(f"min eigenvalue {report.min_eigenvalue:.3e}")

    perm = list(info.order)
    ix = np.ix_(perm, perm)
    arr = np.array(sigma.a[ix])
    # exact zeros off the pattern make the factor's clique structure exact
    arr[~g.pattern_mask[ix]] = 0.0
    ell = _semidef_cholesky(arr, tol)

    delta = ordering_clique_complex(g, info)
    values: dict = {}
    for k in range(g.m):
        col = ell[:, k]
        supp = np.nonzero(col)[0]
        if supp.size == 0:
            continue
        clique = as_face(perm[i] for i in supp)
        if not delta.has_face(clique):
            raise InternalInconsistency(
                f"factor column support {clique} is not a clique"
            )
        for i in supp:
            values[(clique, perm[i])] = float(col[i])
    return FactorParams(delta, values)


def is_surjective(delta: SimplicialComplex) -> bool:
    """True iff the underlying graph is chordal and delta is its clique complex."""
    g = underlying_graph(delta)
    ok, info = is_chordal(g)
    return ok and ordering_clique_complex(g, info) == delta
