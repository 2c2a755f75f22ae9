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
from .errors import InternalInconsistency, NotChordal, PatternViolation
# is_psd is not called here; perfbench/spans.py wraps it by this name
from .linalg import (DEFAULT_TOL, DENSE_UPDATES_PER_COLUMN, _array_entries,  # noqa: F401
                     _semidef_cholesky, check_tol, is_psd)


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


def _later_neighbours(g: Graph, order) -> list[int]:
    """Per position in order, the bitset of that vertex's neighbours later in order."""
    adj, left, later = g.adjacency_bits, (1 << g.m) - 1, []
    for v in order:
        left ^= 1 << v
        later.append(adj[v] & left)
    return later


def _perfect_check(g: Graph, order: list[int]):
    """None if the order is a perfect elimination ordering, else its first violating triple.

    Each later neighbour of each vertex must be adjacent to all the others
    (one AND apiece); the first vertex that fails gets the ordered pair scan.
    """
    adj = g.adjacency_bits
    for v, later in zip(order, _later_neighbours(g, order)):
        rest = later
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
    """Shortest chordless cycle through v using non-adjacent neighbors x, y of v.

    A breadth-first search from x to y that keeps off v and its other
    neighbours, visiting each vertex's neighbours in ascending order.
    """
    adj = g.adjacency_bits
    closed = (adj[v] | 1 << v) & ~(1 << y)  # banned or visited; x is visited
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
        new = adj[cur] & ~closed
        closed |= new
        for w in _bit_positions(new):
            prev[w] = cur
            queue.append(w)
    return None


def _chordless_cycle_from(g: Graph, bad) -> tuple[int, ...]:
    """A chordless cycle of length >= 4 from a violating triple of an ordering."""
    cyc = _chordless_cycle_through(g, *bad)
    if cyc is None:
        # the PEO violation guarantees some non-adjacent neighbor pair works
        adj = g.adjacency_bits
        for v in range(g.m):
            nbrs = _bit_positions(adj[v])
            for i, x in enumerate(nbrs):
                for y in nbrs[i + 1:]:
                    if not adj[x] >> y & 1:
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


def _perfect_ordering(g: Graph) -> EliminationOrdering:
    """is_chordal's perfect elimination ordering of g, or NotChordal naming a
    chordless cycle in 1-based labels."""
    ok, info = is_chordal(g)
    if not ok:
        raise NotChordal(f"graph has chordless cycle {tuple(v + 1 for v in info)}")
    return info


def clique_complex(g: Graph) -> SimplicialComplex:
    """The clique complex of a chordal graph; NotChordal for any other graph."""
    return ordering_clique_complex(g, _perfect_ordering(g))


def ordering_clique_complex(g: Graph, ordering: EliminationOrdering) -> SimplicialComplex:
    """Clique complex of a chordal graph from a perfect elimination ordering.

    Each maximal clique is a vertex v together with its later neighbours
    later(v), and such a set is not maximal exactly when it equals later(u)
    for some vertex u (Blair & Peyton 1993; Vandenberghe & Andersen 2015,
    section 4).  So the maximal cliques come without a clique search or a
    dominance test, and an isolated vertex stays a singleton facet.
    """
    later = _later_neighbours(g, ordering.order)
    candidates = [s | 1 << v for v, s in zip(ordering.order, later)]
    laters = set(later)
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
    ordering = _perfect_ordering(g)
    if not sigma.respects_pattern(g):
        raise PatternViolation("matrix has a nonzero entry at a non-edge of the graph")
    return _fiber(g, sigma, ordering, None, tol)


def _fiber(g: Graph, sigma: SymmetricMatrix, ordering: EliminationOrdering,
           delta: SimplicialComplex | None, tol: float) -> FactorParams:
    """chordal_fiber on a sigma that respects the pattern of g, with a perfect
    elimination ordering of g; delta is g's clique complex, or None to build it.
    The factor reads sigma's diagonal and entries at g's edges (or, where the
    later-neighbour counts allow the dense update, the permuted array, zero off
    the pattern); with no fill, each column lies in its pivot and later(pivot)."""
    perm = ordering.order
    later = _later_neighbours(g, perm)
    if sum(b * (b + 1) for b in map(int.bit_count, later)) > 2 * DENSE_UPDATES_PER_COLUMN * g.m:
        arr = np.where(g.pattern_mask, sigma.a, 0.0)[np.ix_(perm, perm)]
        cols = _semidef_cholesky(*_array_entries(arr), tol)
    else:
        pos = {v: k for k, v in enumerate(perm)}
        below = [(u, k) for k, s in enumerate(later) for u in _bit_positions(s)]
        diag = sigma.a.diagonal()[list(perm)].tolist()
        lower = [{k: x} for k, x in enumerate(diag)]
        # sigma at each edge (u, v) of a later u, in one gather
        for (u, k), x in zip(below, sigma.a.take([u * g.m + perm[k] for u, k in below]).tolist()):
            if x:
                lower[k][pos[u]] = x
        cols = _semidef_cholesky(diag, lower, tol)

    if delta is None:
        delta = ordering_clique_complex(g, ordering)
    values: dict = {}
    columns = []
    for col, v, s in zip(cols, perm, later):
        if col is None:  # a zero pivot's column
            continue
        entries = sorted([(perm[i], x) for i, x in zip(*col) if x])
        clique = tuple([p for p, _ in entries])
        s |= 1 << v
        for p, x in entries:
            if not s >> p & 1:
                raise InternalInconsistency(f"factor column support {clique} is not a clique")
            values[clique, p] = x
        columns.append((clique, entries))
    return FactorParams._trusted(delta, values, columns)


def is_surjective(delta: SimplicialComplex) -> bool:
    """True iff the underlying graph is chordal and delta is its clique complex."""
    g = underlying_graph(delta)
    ok, info = is_chordal(g)
    return ok and ordering_clique_complex(g, info) == delta
