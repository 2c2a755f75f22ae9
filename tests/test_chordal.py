"""Chordality detection, clique complexes, and the chordal fiber construction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.chordal import (EliminationOrdering, chordal_fiber,
                             clique_complex, find_chordless_cycle, is_chordal,
                             maximum_cardinality_search, is_surjective,
                             ordering_clique_complex)
from psdcone.core import (Graph, SimplicialComplex, SymmetricMatrix,
                          complete_graph, cycle_graph, edge_complex,
                          path_graph)
from psdcone.cycle import CycleMatrix, counterexample_sigma, cycle_membership
from psdcone.errors import NotChordal, NotPsd, PatternViolation
from psdcone.instances import random_chordal_graph, random_params, random_tree
from psdcone.param import phi

from oracles import chordless_cycle_from_mcs


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


def random_graph(rng, kind, m):
    if kind == "chordal":
        return random_chordal_graph(rng, m)
    if kind == "cycle" and m >= 3:
        perm = rng.permutation(m)
        return Graph.from_edges(m, [(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)])
    density = 0.9 if kind == "dense" else rng.random()
    return Graph.from_edges(m, [(i, j) for i, j in itertools.combinations(range(m), 2)
                                if rng.random() < density])


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

    def test_mcs_tie_break_smallest_vertex(self):
        assert maximum_cardinality_search(path_graph(3))[0] == 0


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
                assert g.is_clique(face) or len(face) == 1

    def test_rejects_non_chordal(self):
        with pytest.raises(NotChordal):
            chordal_fiber(cycle_graph(4), SymmetricMatrix(np.eye(4)))
        with pytest.raises(NotChordal):
            chordal_fiber(cycle_graph(4), SymmetricMatrix(np.eye(4)),
                          chordality=is_chordal(cycle_graph(4)))

    @pytest.mark.parametrize("m", [2, 9, 33, 64])
    def test_passed_chordality_gives_bitwise_equal_fiber(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            g = random_chordal_graph(rng, m)
            delta = clique_complex(g)
            sig = phi(delta, random_params(rng, delta, density=0.7))
            fresh = chordal_fiber(g, sig)
            passed = chordal_fiber(g, sig, chordality=is_chordal(g))
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
