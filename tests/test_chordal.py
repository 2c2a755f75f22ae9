"""Chordality detection, clique complexes, and the chordal fiber construction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.chordal import (EliminationOrdering, _chordless_cycle_from, _fiber, _perfect_check,
                             chordal_fiber, clique_complex, is_chordal,
                             maximum_cardinality_search, is_surjective,
                             ordering_clique_complex)
from psdcone.core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                          cycle_graph, edge_complex)
from psdcone.cycle import CycleMatrix, counterexample_sigma, cycle_membership
from psdcone.decide import chordal_certificate
from psdcone.errors import NotChordal, NotPsd, PatternViolation
from psdcone.instances import random_chordal_graph, random_params
from psdcone.param import phi

from oracles import (chordless_cycle_from_mcs, complete_graph, find_chordless_cycle, is_clique,
                     path_graph,
                     perfect_check_scan, random_tree)


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
    for _ in range(g.m):
        v = max(range(g.m), key=lambda u: (not visited[u], weight[u], -u))
        visited[v] = True
        order.append(v)
        for w in g.neighbors(v):
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
        assert maximum_cardinality_search(g) == mcs_scan(g)

    def test_path(self):
        ok, ordering = is_chordal(path_graph(3))
        assert ok and isinstance(ordering, EliminationOrdering) and ordering.is_perfect

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
        order = maximum_cardinality_search(g)[::-1] if mcs else rng.permutation(m).tolist()
        assert _perfect_check(g, order) == perfect_check_scan(g, order)

    def test_mcs_tie_break_smallest_vertex(self):
        assert maximum_cardinality_search(path_graph(3))[0] == 0


class TestBitsetStructure:
    """MCS, the PEO check and the clique complex on vertex bitsets, and the
    complexes and parameters built from them without a second validation."""

    KINDS = ["random", "chordal", "relabelled", "isolated", "complete", "two-cliques",
             "cycle", "dense"]

    @given(st.integers(1, 64), st.sampled_from(KINDS), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracles(self, m, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, kind, m)
        order = mcs_scan(g)
        assert maximum_cardinality_search(g) == order
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
        assert delta == clique_complex(g)
        delta.__post_init__()
        gamma = chordal_fiber(g, pattern_matrix(rng, g))
        assert gamma.complex == delta
        assert gamma == FactorParams(delta, gamma.values)
        gamma.__post_init__()

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


class TestCliqueComplex:
    def test_triangle(self):
        assert clique_complex(complete_graph(3)).facets == ((0, 1, 2),)

    def test_four_cycle_is_its_edges(self):
        delta = clique_complex(cycle_graph(4))
        assert delta == edge_complex(cycle_graph(4))

    def test_three_chain(self):
        assert clique_complex(path_graph(3)).facets == ((0, 1), (1, 2))

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
            assert ordering_clique_complex(graph, ordering) == clique_complex(graph)
        relabelled = SimplicialComplex.from_facets(
            m, ([perm[v] for v in f] for f in clique_complex(g).facets))
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
