"""Chordality detection, clique complexes, and the chordal fiber construction."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone import chordal
from psdcone.chordal import (EliminationOrdering, _chordless_cycle_from, _fiber, _perfect_check,
                             chordal_fiber, clique_complex, is_chordal,
                             maximum_cardinality_search, is_surjective,
                             ordering_clique_complex)
from psdcone.core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                          cycle_graph, edge_complex)
from psdcone.cycle import CycleMatrix, counterexample_sigma, cycle_membership
from psdcone.decide import chordal_certificate
from psdcone.errors import InternalInconsistency, NotChordal, NotPsd, PatternViolation
from psdcone.instances import random_chordal_graph, random_params
from psdcone.linalg import _array_entries, _semidef_cholesky
from psdcone.param import phi

from oracles import (chordal_fiber_by_array, chordless_cycle_from_mcs, clique_complex_bk,
                     complete_graph, find_chordless_cycle, is_clique, later_neighbours,
                     neighbor_sets, path_graph, pattern_mask_from_edges, perfect_check_scan,
                     random_tree)


def assert_chordless_cycle(g, cyc):
    assert len(cyc) >= 4
    assert len(set(cyc)) == len(cyc)
    k = len(cyc)
    for i, j in itertools.combinations(range(k), 2):
        adjacent_on_cycle = (j - i == 1) or (i == 0 and j == k - 1)
        assert g.has_edge(cyc[i], cyc[j]) == adjacent_on_cycle


def mcs_scan(g):
    """Oracle: maximum cardinality search by a full scan per step, O(m^2)."""
    weight = [0] * g.m
    visited = [False] * g.m
    order = []
    nbrs = neighbor_sets(g)
    for _ in range(g.m):
        v = max(range(g.m), key=lambda u: (not visited[u], weight[u], -u))
        visited[v] = True
        order.append(v)
        for w in nbrs[v]:
            if not visited[w]:
                weight[w] += 1
    return order


def relabelled(rng, g, m=None):
    """g on the first g.m of m vertices (default g.m), under a random relabelling."""
    perm = [int(p) for p in rng.permutation(m or g.m)]
    return Graph.from_edges(m or g.m, ((perm[i], perm[j]) for i, j in g.edges))


def random_graph(rng, kind, m):
    if kind == "chordal":
        return random_chordal_graph(rng, m)
    if kind == "relabelled":
        return relabelled(rng, random_chordal_graph(rng, m))
    if kind == "isolated":  # a chordal graph on some vertices, the others isolated
        return relabelled(rng, random_chordal_graph(rng, int(rng.integers(1, m + 1))), m)
    if kind == "complete":
        return Graph.from_edges(m, itertools.combinations(range(m), 2))
    if kind == "two-cliques":  # 0..a-1 and b..m-1, sharing a - b >= 0 vertices
        a = int(rng.integers(1, m + 1))
        b = int(rng.integers(0, a + 1))
        return relabelled(rng, Graph.from_edges(m, itertools.chain(
            itertools.combinations(range(a), 2), itertools.combinations(range(b, m), 2))))
    if kind == "cycle" and m >= 3:
        perm = rng.permutation(m)
        return Graph.from_edges(m, [(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)])
    density = 0.9 if kind == "dense" else rng.random()
    return Graph.from_edges(m, [(i, j) for i, j in itertools.combinations(range(m), 2)
                                if rng.random() < density])


def pattern_matrix(rng, g):
    """A positive definite matrix on g's pattern: the identity plus a Gram block per clique."""
    arr = np.eye(g.m)
    for facet in clique_complex(g).facets:
        block = rng.standard_normal((len(facet), len(facet)))
        arr[np.ix_(facet, facet)] += block @ block.T / len(facet)
    return SymmetricMatrix(arr)


class TestIsChordal:
    @given(st.integers(1, 64), st.sampled_from(["random", "chordal", "cycle", "dense"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_mcs_matches_scan(self, m, kind, seed):
        g = random_graph(np.random.default_rng(seed), kind, m)
        assert maximum_cardinality_search(g)[0] == mcs_scan(g)

    def test_path(self):
        ok, ordering = is_chordal(path_graph(3))
        assert ok and ordering == EliminationOrdering((2, 1, 0), (0b010, 0b001, 0))

    def test_four_cycle_witness(self):
        ok, witness = is_chordal(cycle_graph(4))
        assert not ok
        assert sorted(witness) == [0, 1, 2, 3]
        assert_chordless_cycle(cycle_graph(4), witness)

    def test_triangle(self):
        ok, _ = is_chordal(complete_graph(3))
        assert ok

    def test_random_graphs_witness_validity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(4, 10))
            density = rng.uniform(0.2, 0.8)
            edges = [(i, j) for i, j in itertools.combinations(range(m), 2)
                     if rng.random() < density]
            g = Graph.from_edges(m, edges)
            ok, info = is_chordal(g)
            if ok:
                # verify the perfect elimination ordering directly
                pos = {v: k for k, v in enumerate(info.order)}
                for v in range(m):
                    later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
                    for a, b in itertools.combinations(later, 2):
                        assert g.has_edge(a, b)
            else:
                assert_chordless_cycle(g, info)

    def test_random_chordal_generator_is_chordal(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_chordal_graph(rng, int(rng.integers(2, 12)))
            ok, _ = is_chordal(g)
            assert ok

    @given(st.integers(4, 64), st.sampled_from(["random", "cycle", "dense"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_witness_matches_fresh_search(self, m, kind, seed):
        g = random_graph(np.random.default_rng(seed), kind, m)
        ok, info = is_chordal(g)
        if ok:
            assert find_chordless_cycle(g) is None is chordless_cycle_from_mcs(g)
        else:
            assert info == find_chordless_cycle(g) == chordless_cycle_from_mcs(g)
            assert_chordless_cycle(g, info)

    @given(st.integers(1, 64), st.sampled_from(["random", "chordal", "cycle", "dense"]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_perfect_check_matches_pair_scan(self, m, kind, mcs, seed):
        """Same verdict and same violating triple, on MCS and on random orders."""
        rng = np.random.default_rng(seed)
        g = random_graph(rng, kind, m)
        order = maximum_cardinality_search(g)[0][::-1] if mcs else rng.permutation(m).tolist()
        assert _perfect_check(g, order, later_neighbours(g, order)) == perfect_check_scan(g, order)

    def test_fallback_finds_a_cycle_away_from_the_triple(self):
        """A triple whose own search fails sends the search over every vertex's
        neighbour pairs, in ascending order, to the first pair that closes a cycle."""
        g = Graph.from_edges(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                  (6, 7), (7, 8), (8, 9), (6, 9)])
        assert _chordless_cycle_from(g, (4, 3, 5)) == (6, 7, 8, 9)
        with pytest.raises(InternalInconsistency):
            _chordless_cycle_from(path_graph(3), (1, 0, 2))

    def test_mcs_tie_break_smallest_vertex(self):
        assert maximum_cardinality_search(path_graph(3))[0][0] == 0


class TestBitsetStructure:
    """MCS, the PEO check and the clique complex on vertex bitsets, and the
    complexes and parameters built from them without a second validation."""

    CHORDAL_KINDS = ["chordal", "relabelled", "isolated", "complete", "two-cliques"]
    KINDS = ["random", *CHORDAL_KINDS, "cycle", "dense"]

    @given(st.integers(1, 64), st.sampled_from(KINDS), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracles(self, m, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, kind, m)
        order = mcs_scan(g)
        assert maximum_cardinality_search(g)[0] == order
        bad = perfect_check_scan(g, order[::-1])
        ok, info = is_chordal(g)
        assert ok is (bad is None)
        edges = edge_complex(g)
        assert edges == SimplicialComplex.from_facets(m, g.edges)
        edges.__post_init__()
        if not ok:
            assert info == _chordless_cycle_from(g, bad)
            return
        assert info.order == tuple(order[::-1])
        delta = ordering_clique_complex(g, info)
        assert delta == clique_complex(g) == clique_complex_bk(g)
        delta.__post_init__()
        gamma = chordal_fiber(g, pattern_matrix(rng, g))
        assert gamma.complex == delta
        assert gamma == FactorParams(delta, gamma.values)
        gamma.__post_init__()

    @given(st.integers(1, 64), st.sampled_from(KINDS), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mcs_yields_the_later_neighbours(self, m, kind, seed):
        """MCS collects each vertex's earlier-visited neighbours as it goes:
        reversed, they are the edges' later neighbours, which _perfect_check
        reads as the pair scan does and a chordal graph's ordering carries."""
        g = random_graph(np.random.default_rng(seed), kind, m)
        visit, earlier = maximum_cardinality_search(g)
        order, later = visit[::-1], earlier[::-1]
        assert later == later_neighbours(g, order)
        assert _perfect_check(g, order, later) == perfect_check_scan(g, order)
        ok, ordering = is_chordal(g)
        assert ok or kind not in self.CHORDAL_KINDS
        if ok:
            assert ordering == EliminationOrdering(tuple(order), tuple(later))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_isolated_vertices_stay_singleton_facets(self, m):
        g = Graph.from_edges(m + 3, [(m, m + 1), (m + 1, m + 2), (m, m + 2)])
        delta = ordering_clique_complex(g, is_chordal(g)[1])
        assert delta.facets == tuple((v,) for v in range(m)) + ((m, m + 1, m + 2),)

    def test_trusted_parameters_still_refuse_non_finite_values(self):
        delta = clique_complex(path_graph(3))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"non-finite parameter at \(\(1, 2\), 2\)"):
                FactorParams._trusted(delta, {((0, 1), 0): 1.0, ((1, 2), 2): bad})


def named_cycle(exc) -> tuple[int, ...]:
    """The 0-based chordless cycle that a NotChordal message names 1-based."""
    labels = re.fullmatch(r"graph has chordless cycle \(([0-9, ]+)\)", str(exc)).group(1)
    return tuple(int(v) - 1 for v in labels.split(","))


class TestCliqueComplex:
    def test_triangle(self):
        assert clique_complex(complete_graph(3)).facets == ((0, 1, 2),)

    def test_four_cycle_is_its_edges(self):
        """Bron-Kerbosch finds the 4-cycle's edges; the library refuses the graph."""
        assert clique_complex_bk(cycle_graph(4)) == edge_complex(cycle_graph(4))
        with pytest.raises(NotChordal) as exc:
            clique_complex(cycle_graph(4))
        assert_chordless_cycle(cycle_graph(4), named_cycle(exc.value))

    def test_three_chain(self):
        assert clique_complex(path_graph(3)).facets == ((0, 1), (1, 2))

    @given(st.integers(1, 64), st.sampled_from(TestBitsetStructure.CHORDAL_KINDS),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_bron_kerbosch_on_chordal_graphs(self, m, kind, seed):
        g = random_graph(np.random.default_rng(seed), kind, m)
        assert clique_complex(g) == clique_complex_bk(g)

    @given(st.integers(4, 64), st.sampled_from(["random", "cycle", "dense"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_refuses_other_graphs_naming_a_chordless_cycle(self, m, kind, seed):
        g = random_graph(np.random.default_rng(seed), kind, m)
        ok, info = is_chordal(g)
        if ok:
            assert clique_complex(g) == clique_complex_bk(g)
            return
        with pytest.raises(NotChordal) as exc:
            clique_complex(g)
        assert named_cycle(exc.value) == info
        assert_chordless_cycle(g, info)
        assert "adjacency" not in vars(g)  # the witness search walks adjacency_bits

    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ordering_complex_matches_clique_search(self, m, seed):
        """The {v} + later-neighbor sets of the MCS ordering give the
        Bron-Kerbosch complex, for the graph and for a relabelled copy."""
        rng = np.random.default_rng(seed)
        g = random_chordal_graph(rng, m)
        perm = [int(p) for p in rng.permutation(m)]
        h = Graph.from_edges(m, ((perm[i], perm[j]) for i, j in g.edges))
        for graph in (g, h):
            ok, ordering = is_chordal(graph)
            assert ok
            assert ordering_clique_complex(graph, ordering) == clique_complex_bk(graph)
        relabelled = SimplicialComplex.from_facets(
            m, ([perm[v] for v in f] for f in clique_complex_bk(g).facets))
        assert ordering_clique_complex(h, is_chordal(h)[1]) == relabelled


class TestChordalFiber:
    def test_identity_matrix(self):
        g = random_chordal_graph(np.random.default_rng(2), 6)
        gamma = chordal_fiber(g, SymmetricMatrix(np.eye(6)))
        for (face, i), v in gamma.items():
            assert face == (i,)
            assert v == pytest.approx(1.0)

    def test_three_chain_tridiagonal_round_trip(self):
        arr = np.array([[2.0, 0.8, 0.0], [0.8, 1.5, -0.4], [0.0, -0.4, 1.0]])
        sig = SymmetricMatrix(arr)
        g = path_graph(3)
        gamma = chordal_fiber(g, sig)
        image = phi(gamma.complex, gamma)
        assert np.abs(image.a - arr).max() <= 1e-9 * sig.scale()

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(2, 11))
            g = random_chordal_graph(rng, m)
            delta = clique_complex(g)
            gamma0 = random_params(rng, delta, density=0.7)
            sig = phi(delta, gamma0)
            gamma = chordal_fiber(g, sig)
            assert np.abs(phi(delta, gamma).a - sig.a).max() <= 1e-9 * sig.scale()
            # every recovered support must be a clique: guaranteed by construction,
            # re-checked here from the emitted incidences
            for (face, _), v in gamma.items():
                assert is_clique(g, face) or len(face) == 1

    def test_rejects_non_chordal(self):
        with pytest.raises(NotChordal):
            chordal_fiber(cycle_graph(4), SymmetricMatrix(np.eye(4)))
        with pytest.raises(NotChordal):
            chordal_certificate(SymmetricMatrix(np.eye(4)), cycle_graph(4))

    @pytest.mark.parametrize("m", [2, 9, 33, 64])
    def test_passed_chordality_gives_bitwise_equal_fiber(self, m):
        """_fiber, given the ordering and optionally the clique complex (as a
        membership decision holds them), builds chordal_fiber's parameters."""
        rng = np.random.default_rng(m)
        for _ in range(5):
            g = random_chordal_graph(rng, m)
            delta = clique_complex(g)
            sig = phi(delta, random_params(rng, delta, density=0.7))
            fresh = chordal_fiber(g, sig)
            for cliques in (None, delta):
                passed = _fiber(g, sig, is_chordal(g)[1], cliques, 1e-9)
                assert passed.complex == fresh.complex == delta
                assert [(k, v.hex()) for k, v in passed.values.items()] == \
                    [(k, v.hex()) for k, v in fresh.values.items()]

    def test_rejects_pattern_violation(self):
        arr = np.eye(3)
        arr[0, 2] = arr[2, 0] = 0.5
        with pytest.raises(PatternViolation):
            chordal_fiber(path_graph(3), SymmetricMatrix(arr))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            chordal_fiber(path_graph(2), SymmetricMatrix(np.diag([1.0, -1.0])))


def kernel_case(rng, kind, m, zero_diagonal):
    """A chordal graph of kind and a matrix on its pattern aimed at the factor's
    edges, in the graph's own labels.

    Gram blocks on the maximal cliques, of random rank and half the time with
    small-integer entries, so that zero pivots come exactly; exact zeros on
    some edges; a shift by -3..3 tol times the diagonal, which puts pivots on
    each branch of ``zero_pivot``; and, by ``zero_diagonal``, one vertex's
    diagonal entry set to zero with its row ("zero-row") or without it ("row").
    """
    g = random_graph(rng, kind, m)
    arr = np.zeros((m, m))
    integer = rng.random() < 0.5
    for facet in clique_complex(g).facets:
        rank = int(rng.integers(1, len(facet) + 1))
        if integer:
            b = rng.integers(-2, 3, (len(facet), rank)).astype(float)
        else:
            b = rng.standard_normal((len(facet), rank))
        arr[np.ix_(facet, facet)] += b @ b.T
    i, j = np.nonzero(np.triu(pattern_mask_from_edges(g), 1) & (rng.random((m, m)) < 0.1))
    arr[i, j] = arr[j, i] = 0.0
    arr += rng.choice([-3.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0]) * 1e-9 * np.diag(np.diag(arr))
    v = int(rng.integers(m))
    if zero_diagonal == "zero-row":
        arr[v, :] = arr[:, v] = 0.0
    elif zero_diagonal == "row":
        arr[v, v] = 0.0
    return g, SymmetricMatrix(arr)


def hexed(cols):
    """Factor columns with every value as float.hex."""
    return [None if col is None else (col[0], [x.hex() for x in col[1]]) for col in cols]


def factor_outcome(run):
    """run()'s factor columns, hexed, or its NotPsd message."""
    try:
        return hexed(run())
    except NotPsd as exc:
        return str(exc)


def fiber_outcome(run):
    """run()'s fiber as its complex and its values with float.hex, or its NotPsd message."""
    try:
        gamma = run()
    except NotPsd as exc:
        return str(exc)
    return gamma.complex, [(key, v.hex()) for key, v in gamma.values.items()]


def pattern_fed(g, sigma, ordering, delta=None):
    """(the factor outcome of the kernel call _fiber makes, _fiber's outcome)."""
    fed = []

    def spy(*args):
        try:
            cols = _semidef_cholesky(*args)
        except NotPsd as exc:
            fed.append(str(exc))
            raise
        fed.append(hexed(cols))
        return cols

    with mock.patch.object(chordal, "_semidef_cholesky", spy):
        fiber = fiber_outcome(lambda: _fiber(g, sigma, ordering, delta, 1e-9))
    assert len(fed) == 1
    return fed[0], fiber


def array_fed(g, sigma, ordering):
    """(the kernel's outcome on the permuted array zeroed off the pattern, the
    fiber by that array route)."""
    perm = list(ordering.order)
    arr = np.where(pattern_mask_from_edges(g), sigma.a, 0.0)[np.ix_(perm, perm)]
    return (factor_outcome(lambda: _semidef_cholesky(*_array_entries(arr), 1e-9)),
            fiber_outcome(lambda: chordal_fiber_by_array(g, sigma, ordering)))


class TestPatternFedFactor:
    """``_fiber`` feeds the factor the diagonal and sigma's entries at the graph's
    edges, an array caller the permuted array: both give the same factor, bit
    for bit, the same zero columns and NotPsd messages, and the same fiber."""

    @given(st.integers(1, 40), st.sampled_from(["chordal", "isolated", "two-cliques", "complete"]),
           st.sampled_from([None, None, "zero-row", "row"]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pattern_fed_factor_equals_the_array_fed_one(self, m, kind, zero_diagonal, seed):
        """Sparse cliques take the entries at the edges, large ones (two-cliques,
        complete) the dense update past DENSE_UPDATES_PER_COLUMN."""
        g, sigma = kernel_case(np.random.default_rng(seed), kind, m, zero_diagonal)
        ordering = is_chordal(g)[1]
        assert pattern_fed(g, sigma, ordering) == array_fed(g, sigma, ordering)

    # In elimination positions on a triangle, whose every order is perfect: the
    # factor column at the zero_pivot branch, or the NotPsd message.
    BRANCHES = {
        "zero column": ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], None),
        "pivot tol": ([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-6], [0.0, 1e-6, 1.0]],
                      ([1, 2], [1e-9 ** 0.5, 1e-6 / 1e-9 ** 0.5])),
        "below -tol": ([[1.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
                       "pivot -1.000e+00 at position 1 below -1e-09"),
        "zero diagonal, zero row": ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], None),
        "zero diagonal, nonzero row": (
            [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            "nonzero entry in the row of the zero diagonal at position 1"),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_each_zero_pivot_branch(self, branch):
        positions, expected = self.BRANCHES[branch]
        g = complete_graph(3)
        ordering = is_chordal(g)[1]
        perm = list(ordering.order)
        arr = np.empty((3, 3))
        arr[np.ix_(perm, perm)] = positions
        factor, fiber = pattern_fed(g, SymmetricMatrix(arr), ordering, clique_complex(g))
        assert (factor, fiber) == array_fed(g, SymmetricMatrix(arr), ordering)
        if isinstance(expected, str):
            assert factor == fiber == expected
        else:
            col = expected and (expected[0], [x.hex() for x in expected[1]])
            assert factor[1] == col

    def test_sparse_route_builds_no_square_array(self):
        """The entries at the edges come from sigma's diagonal and one gather at
        the edges, never from an m x m array or the pattern mask; a complete
        graph takes the dense update, on the permuted array zeroed off the mask."""
        class Watched(np.ndarray):
            shapes = []

            def __array_finalize__(self, obj):
                Watched.shapes.append(self.shape)

        rng = np.random.default_rng(5)
        for g, dense in ((random_chordal_graph(rng, 64), False), (complete_graph(16), True)):
            plain = pattern_matrix(rng, g)
            sigma = SymmetricMatrix._trusted(np.array(plain.a).view(Watched))
            ordering = is_chordal(g)[1]
            Watched.shapes.clear()
            gamma = _fiber(g, sigma, ordering, None, 1e-9)
            assert ("pattern_mask" in vars(g)) == dense
            if not dense:
                assert Watched.shapes and all(len(shape) == 1 for shape in Watched.shapes)
            assert gamma.values == _fiber(g, plain, ordering, None, 1e-9).values

    def test_a_row_outside_the_later_neighbours_is_an_internal_inconsistency(self):
        """Eliminating the middle of a path first fills in the entry between its
        ends: vertex 0's column then holds vertex 2, which does not follow 0."""
        g = path_graph(3)
        sigma = SymmetricMatrix([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        ordering = EliminationOrdering((1, 0, 2), tuple(later_neighbours(g, (1, 0, 2))))
        with pytest.raises(InternalInconsistency, match=re.escape("support (0, 2) is not")):
            _fiber(g, sigma, ordering, clique_complex(g), 1e-9)


class TestIsSurjective:
    def test_clique_complex_of_triangle(self):
        assert is_surjective(clique_complex(complete_graph(3)))

    def test_edge_complex_of_triangle(self):
        assert not is_surjective(edge_complex(complete_graph(3)))

    def test_trees(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 10)))
            assert is_surjective(edge_complex(tree))

    def test_cycle_edge_complexes(self):
        for m in range(4, 8):
            assert not is_surjective(edge_complex(cycle_graph(m)))


class TestCounterexampleEmbedding:
    def test_induced_cycle_restriction_rejected(self):
        """A matrix carrying the counterexample on an induced chordless cycle
        cannot be in the image: its principal submatrix on the cycle fails the
        exact cycle membership test."""
        # graph: C_4 on {0,1,2,3} plus a pendant vertex 4 attached to 0
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        ok, witness = is_chordal(g)
        assert not ok
        cyc_vertices = sorted(witness)
        assert cyc_vertices == [0, 1, 2, 3]
        rho = -1.25
        block = counterexample_sigma(4, rho).to_symmetric()
        arr = np.eye(5)
        order = list(witness)
        for a in range(4):
            for b in range(4):
                arr[order[a], order[b]] = block.a[a, b]
        sig = SymmetricMatrix(arr)
        restricted = CycleMatrix.from_symmetric(
            SymmetricMatrix(sig.a[np.ix_(order, order)]))
        verdict = cycle_membership(restricted)
        assert not verdict.member
