"""Quotients of graphs and complexes, and the Schur-complement witness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.chordal import chordal_fiber, is_surjective
from psdcone.core import (FactorParams, Graph, SimplicialComplex,
                          cycle_graph, edge_complex, underlying_graph)
from psdcone.cycle import CycleMatrix, cycle_membership
from psdcone.errors import ZeroDiagonal
from psdcone.instances import random_complex, random_params
from psdcone.linalg import schur_complement
from psdcone.param import cone_add, phi, submatrix_witness
from psdcone.quotient import complex_quotient, graph_quotient, schur_witness

from oracles import (chain_quotient_faces, complete_graph, complex_quotient_by_faces,
                     cone_add_by_column, is_clique, scaled_params, schur_witness_by_pairs,
                     submatrix_witness_by_column)


class TestGraphQuotient:
    def test_c4_minus_vertex_is_triangle(self):
        assert graph_quotient(cycle_graph(4), {3}) == complete_graph(3)

    def test_isolated_eliminated_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert graph_quotient(g, {3}) == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_c5_minus_two_adjacent_is_triangle(self):
        # explicit path enumeration: 2-3-4 and 2-4? paths through {3,4} connect 0 and 2
        assert graph_quotient(cycle_graph(5), {3, 4}) == complete_graph(3)

    def test_rejects_everything_removed(self):
        with pytest.raises(ValueError):
            graph_quotient(cycle_graph(3), {0, 1, 2})


class TestComplexQuotient:
    def test_c4_edge_complex_single_vertex(self):
        delta = edge_complex(cycle_graph(4))
        quot = complex_quotient(delta, [3])
        assert quot == edge_complex(complete_graph(3))

    def test_vertex_in_no_shared_face(self):
        # eliminating a vertex that only appears in singletons restricts the complex
        delta = edge_complex(Graph.from_edges(4, [(0, 1), (1, 2)]))
        quot = complex_quotient(delta, [3])
        assert quot == edge_complex(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_faces_stay_cliques(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            m = int(rng.integers(3, 8))
            delta = random_complex(rng, m)
            g = underlying_graph(delta)
            # make the faces cliques by construction: use the complex's own graph
            u = sorted(rng.choice(m, size=int(rng.integers(1, m - 1)), replace=False).tolist())
            quot = complex_quotient(delta, u)
            gq = graph_quotient(g, u)
            for face in quot.faces:
                assert is_clique(gq, face)

    def test_graph_and_complex_quotients_commute(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            m = int(rng.integers(3, 8))
            delta = random_complex(rng, m)
            u = sorted(rng.choice(m, size=int(rng.integers(1, m - 1)), replace=False).tolist())
            lhs = graph_quotient(underlying_graph(delta), u)
            rhs = underlying_graph(complex_quotient(delta, u))
            # faces of delta are cliques of its underlying graph only when the
            # complex is a subcomplex of the clique complex; random_complex
            # guarantees it (faces are stored subsets), so the identity applies
            assert rhs == lhs

    def test_chain_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(3, 7))
            delta = random_complex(rng, m)
            size = int(rng.integers(1, min(3, m - 1) + 1))
            u = sorted(rng.choice(m, size=size, replace=False).tolist())
            iterated = complex_quotient(delta, u)
            keep = [v for v in range(delta.m) if v not in set(u)]
            relabel = {v: k for k, v in enumerate(keep)}
            oracle = chain_quotient_faces(delta, u)
            oracle_relabel = {tuple(sorted(relabel[v] for v in f)) for f in oracle}
            assert set(iterated.faces) == oracle_relabel


class TestSchurWitness:
    def test_single_face_through_vertex(self):
        delta = edge_complex(complete_graph(3))
        gamma = FactorParams(delta, {((0, 2), 0): 1.0, ((0, 2), 2): 2.0})
        witness = schur_witness(delta, gamma, 2)
        target = schur_complement(phi(delta, gamma), {2})
        assert np.abs(witness.image().a - target.a).max() <= 1e-12

    def test_triangle_random(self):
        rng = np.random.default_rng(3)
        delta = edge_complex(complete_graph(3))
        for _ in range(30):
            gamma = random_params(rng, delta)
            witness = schur_witness(delta, gamma, 2)
            target = schur_complement(phi(delta, gamma), {2})
            assert np.abs(witness.image().a - target.a).max() <= 1e-10 * target.scale()

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(3, 9))
            delta = random_complex(rng, m)
            gamma = random_params(rng, delta)  # full density keeps sigma_uu > 0
            u = int(rng.integers(0, m))
            witness = schur_witness(delta, gamma, u)
            target = schur_complement(phi(delta, gamma), {u})
            assert np.abs(witness.image().a - target.a).max() <= 1e-10 * target.scale()

    def test_iterated_matches_joint_block(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(4, 8))
            delta = random_complex(rng, m)
            gamma = random_params(rng, delta)
            u1, u2 = sorted(rng.choice(m, size=2, replace=False).tolist())
            sigma = phi(delta, gamma)
            joint = schur_complement(sigma, {u1, u2})
            w1 = schur_witness(delta, gamma, u1)
            # u2's label after removing u1
            u2_new = w1.vertex_map[u2]
            w2 = schur_witness(w1.quotient_complex, w1.params, u2_new)
            assert np.abs(w2.image().a - joint.a).max() <= 1e-9 * joint.scale()

    def test_zero_diagonal_rejected(self):
        delta = edge_complex(complete_graph(3))
        gamma = FactorParams(delta, {((0, 1), 0): 1.0, ((0, 1), 1): 1.0})
        with pytest.raises(ZeroDiagonal, match=r"^diagonal value 0\.0 at vertex 2 too small$"):
            schur_witness(delta, gamma, 2)

    @pytest.mark.parametrize("scale", [1e-5, 1e-6, 1e-9, 1e3])
    def test_small_parameters_are_not_a_zero_diagonal(self, scale):
        """sigma_uu is measured against the largest diagonal entry of phi(gamma),
        so scaling every parameter scales the witness and keeps it exact."""
        delta = SimplicialComplex.from_facets(4, [(0, 1, 2), (2, 3)])
        gamma = scaled_params(random_params(np.random.default_rng(0), delta), scale)
        for fn in (schur_witness, schur_witness_by_pairs):
            witness = fn(delta, gamma, 2)
            target = schur_complement(phi(delta, gamma), {2})
            assert np.abs(witness.image().a - target.a).max() <= 1e-12 * np.abs(target.a).max()

    def test_converse_fails_on_triangle(self):
        """Every Schur complement of the 0.9-equicorrelation matrix lies in the
        quotient image, yet the matrix itself is not in the triangle image."""
        arr = np.full((3, 3), 0.9)
        np.fill_diagonal(arr, 1.0)
        from psdcone.core import SymmetricMatrix

        sig = SymmetricMatrix(arr)
        delta = edge_complex(complete_graph(3))
        assert not cycle_membership(CycleMatrix.from_symmetric(sig)).member
        for u in range(3):
            quot = complex_quotient(delta, [u])
            # the quotient of the triangle edge complex is the full complex on
            # two vertices, whose parametrization is surjective
            assert is_surjective(quot)
            comp = schur_complement(sig, {u})
            recovered = chordal_fiber(underlying_graph(quot), comp)
            assert np.abs(phi(quot, recovered).a - comp.a).max() <= 1e-9


def _instance(m, density, seed):
    """A random complex on m vertices (facets of up to 6 vertices), parameters
    at the given density, and the generator that drew them."""
    rng = np.random.default_rng(seed)
    delta = random_complex(rng, m, max_size=int(rng.integers(2, 7)))
    return rng, delta, random_params(rng, delta, density=density)


def _block(rng, m, size):
    return sorted(rng.choice(m, size=min(size, m - 1), replace=False).tolist())


def _assert_same_params(got, want):
    """Equal complexes and equal values float.hex for float.hex, in equal order."""
    assert got.complex == want.complex
    assert list(got.values) == list(want.values)
    assert ([float(v).hex() for v in got.values.values()]
            == [float(v).hex() for v in want.values.values()])


def _witness_or_none(fn, delta, gamma, u):
    try:
        return fn(delta, gamma, u)
    except ZeroDiagonal:
        return None


class TestBulkAgainstOracles:
    """The facet quotient and the bulk witness against the face-pair forms."""

    @given(st.integers(2, 9), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_complex_quotient_equals_face_and_chain_oracles(self, m, size, seed):
        rng, delta, _ = _instance(m, 1.0, seed)
        block = _block(rng, m, size)
        quot = complex_quotient(delta, block)
        assert quot == complex_quotient_by_faces(delta, block)
        if max(map(len, delta.facets)) > 4:
            return  # the chain oracle is exponential in the facet size
        relabel = {v: k for k, v in enumerate(v for v in range(m) if v not in block)}
        chain = {tuple(sorted(relabel[v] for v in f)) for f in chain_quotient_faces(delta, block)}
        if len(block) == 1:
            assert set(quot.faces) == chain
        else:
            # iterated elimination may reuse an eliminated vertex, which the
            # chain description does not (test_iterated_quotient_exceeds_chains)
            assert chain <= set(quot.faces)

    def test_iterated_quotient_exceeds_chains(self):
        """Eliminating 0 then 2 joins {0,1}, {0,3} and {0,2,4} into {1,3,4};
        a chain would have to pass through 0 twice."""
        delta = SimplicialComplex.from_facets(5, [[0, 1], [0, 3], [0, 2, 4]])
        assert complex_quotient(delta, [0, 2]).facets == ((0, 1, 2),)
        assert frozenset({1, 3, 4}) not in chain_quotient_faces(delta, [0, 2])

    @given(st.integers(2, 9), st.sampled_from([0.3, 0.8, 1.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_schur_witness_equals_pair_oracle_iterated_twice(self, m, density, seed):
        rng, delta, gamma = _instance(m, density, seed)
        u = int(rng.integers(0, m))
        got = _witness_or_none(schur_witness, delta, gamma, u)
        want = _witness_or_none(schur_witness_by_pairs, delta, gamma, u)
        assert (got is None) == (want is None)
        if got is None or m == 2:
            return
        assert got.quotient_complex == want.quotient_complex
        assert got.vertex_map == want.vertex_map
        _assert_same_params(got.params, want.params)
        # a second elimination on each side's own result
        u2 = int(rng.integers(0, m - 1))
        got = _witness_or_none(schur_witness, got.quotient_complex, got.params, u2)
        want = _witness_or_none(schur_witness_by_pairs, want.quotient_complex, want.params, u2)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.quotient_complex == want.quotient_complex
            _assert_same_params(got.params, want.params)

    @given(st.integers(2, 9), st.sampled_from([0.3, 0.8, 1.0]), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_cone_add_and_submatrix_witness_equal_column_oracles(self, m, density, size, seed):
        rng, delta, g1 = _instance(m, density, seed)
        g2 = random_params(rng, delta, density=density)
        _assert_same_params(cone_add(delta, g1, g2), cone_add_by_column(delta, g1, g2))
        dropped = _block(rng, m, size)
        subset = [v for v in range(m) if v not in dropped]
        _assert_same_params(submatrix_witness(delta, g1, subset),
                            submatrix_witness_by_column(delta, g1, subset))

    def test_zero_diagonal_matches_oracle_on_sparse_parameters(self):
        """At density 0.3 many vertices carry no parameter; both forms refuse
        exactly those."""
        raised = 0
        for seed in range(200):
            rng, delta, gamma = _instance(int(3 + seed % 7), 0.3, seed)
            u = int(rng.integers(0, delta.m))
            got = _witness_or_none(schur_witness, delta, gamma, u)
            want = _witness_or_none(schur_witness_by_pairs, delta, gamma, u)
            assert (got is None) == (want is None)
            raised += got is None
        assert 20 <= raised <= 180
