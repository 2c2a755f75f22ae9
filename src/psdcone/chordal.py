"""Chordality, clique complexes, and exact fiber recovery for chordal graphs.

For a chordal graph the parametrization over the clique complex is onto the
whole zero-constrained PSD cone, and a preimage can be read off a sparse
Cholesky factor after permuting the matrix into a perfect elimination
ordering: each factor column is then supported on a clique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                   _bit_positions, underlying_graph)
from .errors import InternalInconsistency, NotChordal, PatternViolation, TooManyCliques
# is_psd is not called here; perfbench/spans.py wraps it by this name
from .linalg import DEFAULT_TOL, _semidef_cholesky, check_tol, is_psd  # noqa: F401

CLIQUE_GUARD = 10 ** 6


@dataclass(frozen=True)
class EliminationOrdering:
    """A vertex order; perfect when every vertex's later neighbors form a clique."""

    order: tuple[int, ...]
    is_perfect: bool


def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order; ties broken by smallest vertex index.

    buckets[w] is the bitset of unvisited vertices of weight w (the bucket
    form of Tarjan & Yannakakis 1984): the next vertex is the lowest bit of
    the highest nonempty bucket, and its unvisited neighbours move up one
    bucket, scanned from the top so that none moves twice.
    """
    adj = g.adjacency_bits
    unvisited = (1 << g.m) - 1
    buckets = [unvisited] + [0] * g.m
    top = 0
    order = []
    while unvisited:
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        order.append(v)
        rising, w = adj[v] & unvisited, top
        while rising:
            moved = rising & buckets[w]
            buckets[w] ^= moved
            buckets[w + 1] |= moved
            rising ^= moved
            w -= 1
        top += 1
    return order


def _perfect_check(g: Graph, order: list[int]):
    """None if the order is a perfect elimination ordering, else its first violating triple.

    Each later neighbour of each vertex must be adjacent to all the others
    (one AND apiece); the first vertex that fails gets the ordered pair scan.
    """
    adj = g.adjacency_bits
    left = (1 << g.m) - 1  # not yet eliminated
    for v in order:
        left ^= 1 << v
        later = rest = adj[v] & left
        while rest:
            low = rest & -rest
            if (later & ~adj[low.bit_length() - 1]) != low:
                pos = {u: k for k, u in enumerate(order)}
                later = sorted(_bit_positions(later), key=pos.__getitem__)
                return next((v, x, y) for a, x in enumerate(later) for y in later[a + 1:]
                            if not g.has_edge(x, y))
            rest ^= low
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


def clique_complex(g: Graph) -> SimplicialComplex:
    """Simplicial complex of all cliques; facets via Bron-Kerbosch with pivoting."""
    cliques: list[tuple[int, ...]] = []

    def expand(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            if len(cliques) > CLIQUE_GUARD:
                raise TooManyCliques(f"more than {CLIQUE_GUARD} maximal cliques")
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

    Each maximal clique is a vertex v together with its later neighbours
    later(v), and such a set is not maximal exactly when it equals later(u)
    for some vertex u (Blair & Peyton 1993; Vandenberghe & Andersen 2015,
    section 4).  So the maximal cliques come without a clique search or a
    dominance test, and an isolated vertex stays a singleton facet.
    """
    adj = g.adjacency_bits
    left = (1 << g.m) - 1
    later = {}
    for v in ordering.order:
        left ^= 1 << v
        later[v] = adj[v] & left
    candidates = [s | 1 << v for v, s in later.items()]
    laters = set(later.values())
    cliques = sorted(tuple(_bit_positions(c)) for c in candidates if c not in laters)
    # a stable sort by size keeps the lexicographic order within each size
    return SimplicialComplex._trusted(g.m, tuple(sorted(cliques, key=len)))


def chordal_fiber(g: Graph, sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> FactorParams:
    """A preimage of sigma under the clique-complex parametrization of a chordal graph.

    Permute by a perfect elimination ordering, factor, and assign each factor
    column to the clique given by its support.  Supports of distinct nonzero
    columns are distinct (each contains its own pivot as least element), so
    every column lands on its own face.
    """
    check_tol(tol)
    if sigma.m != g.m:
        raise ValueError("matrix and graph sizes differ")
    ok, info = is_chordal(g)
    if not ok:
        raise NotChordal(f"graph has chordless cycle {tuple(v + 1 for v in info)}")
    if not sigma.respects_pattern(g):
        raise PatternViolation("matrix has a nonzero entry at a non-edge of the graph")
    return _fiber(g, sigma, info, None, tol)


def _fiber(g: Graph, sigma: SymmetricMatrix, ordering: EliminationOrdering,
           delta: SimplicialComplex | None, tol: float) -> FactorParams:
    """chordal_fiber on a sigma that respects the pattern of g, with a perfect
    elimination ordering of g; delta is g's clique complex, or None to build it."""
    perm = list(ordering.order)
    ix = np.ix_(perm, perm)
    arr = np.array(sigma.a[ix])
    # exact zeros off the pattern make the factor's clique structure exact
    arr[~g.pattern_mask[ix]] = 0.0
    cols = _semidef_cholesky(arr, tol)

    if delta is None:
        delta = ordering_clique_complex(g, ordering)
    values: dict = {}
    columns = []
    for rows, vals in filter(None, cols):  # None: a zero pivot's column
        entries = sorted([(perm[i], v) for i, v in zip(rows, vals) if v != 0.0])
        clique = tuple([p for p, _ in entries])
        if not delta.has_face(clique):
            raise InternalInconsistency(f"factor column support {clique} is not a clique")
        columns.append((clique, entries))
        for p, v in entries:
            values[(clique, p)] = v
    return FactorParams._trusted(delta, values, columns)


def is_surjective(delta: SimplicialComplex) -> bool:
    """True iff the underlying graph is chordal and delta is its clique complex."""
    g = underlying_graph(delta)
    ok, info = is_chordal(g)
    return ok and ordering_clique_complex(g, info) == delta
