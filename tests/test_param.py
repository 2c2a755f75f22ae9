"""Parametrization evaluation, cone addition, decomposition, submatrix witnesses."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdcone.core import (FactorParams, SimplicialComplex, SymmetricMatrix,
                          cycle_graph, edge_complex, underlying_graph)
from psdcone.instances import random_complex, random_params
from psdcone.linalg import is_psd, sign_flip
from psdcone.param import (PHI_DENSE_FACE, RAY_DROP_TOL, _combine_columns,
                           build_factor_matrix, cone_add, extreme_decomposition, phi,
                           submatrix_witness)

from oracles import (combine_blocks_by_column, complete_graph, gamma_edge, phi_outer_sum,
                     phi_symmetrized, scaled_params, with_value)


def three_chain():
    return SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])


def chain_params(g1, g2, g3, g12, g21, g23, g32):
    delta = three_chain()
    return delta, FactorParams(delta, {
        ((0,), 0): g1, ((1,), 1): g2, ((2,), 2): g3,
        ((0, 1), 0): g12, ((0, 1), 1): g21,
        ((1, 2), 1): g23, ((1, 2), 2): g32,
    })


class TestPhi:
    # parameters of 1e-3..1e3 times 10^+-147 keep every sum of products finite
    @given(st.integers(1, 64), st.sampled_from([0.3, 0.8, 1.0]), st.floats(-147.0, 147.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_symmetrized_sum(self, m, density, exponent, seed):
        """Adding each face's products at its own entries only gives the bytes
        of the dense outer-product sum, sign of zero included, at any scale;
        that sum is exactly symmetric, so symmetrizing it changes no bit."""
        rng = np.random.default_rng(seed)
        delta = random_complex(rng, m, max_size=6)
        gamma = random_params(rng, delta, density=density, low=1e-3, high=1e3)
        gamma = scaled_params(gamma, 10.0 ** exponent)
        out = phi(delta, gamma).a.tobytes()
        assert out == phi_outer_sum(delta, gamma).tobytes()
        assert out == phi_symmetrized(delta, gamma).a.tobytes()

    @given(st.integers(7, 40), st.sampled_from([0.6, 1.0]), st.floats(-147.0, 147.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_with_large_faces(self, m, density, exponent, seed):
        """Faces with more than PHI_DENSE_FACE nonzero parameters, and those
        after them, add dense outer products after the small faces' entries."""
        rng = np.random.default_rng(seed)
        delta = random_complex(rng, m, max_size=9)
        gamma = random_params(rng, delta, density=density, low=1e-3, high=1e3)
        gamma = scaled_params(gamma, 10.0 ** exponent)
        assert phi(delta, gamma).a.tobytes() == phi_outer_sum(delta, gamma).tobytes()

    def test_large_faces_take_the_dense_sum(self):
        """A facet of 9 vertices puts 130 faces past the split, 9 of them
        carrying a nonzero parameter here; the bytes still match."""
        delta = SimplicialComplex.from_facets(12, [list(range(9)), [8, 9, 10, 11]])
        rng = np.random.default_rng(3)
        gamma = random_params(rng, delta, density=0.5)
        big = {f for f, _ in gamma.values if len(f) > PHI_DENSE_FACE}
        assert big
        assert phi(delta, gamma).a.tobytes() == phi_outer_sum(delta, gamma).tobytes()

    def test_products_that_underflow_stay_positive_zero(self):
        """1e-200 * -1e-200 is -0.0; the dense sum from +0.0 keeps +0.0."""
        delta = SimplicialComplex.from_facets(2, [[0, 1]])
        gamma = FactorParams(delta, {((0, 1), 0): 1e-200, ((0, 1), 1): -1e-200})
        out = phi(delta, gamma).a
        assert out.tobytes() == phi_outer_sum(delta, gamma).tobytes()
        assert not np.signbit(out).any()

    def test_three_chain_closed_form(self):
        vals = dict(g1=0.7, g2=-1.2, g3=0.4, g12=1.1, g21=0.6, g23=-0.8, g32=1.3)
        delta, gamma = chain_params(**vals)
        sig = phi(delta, gamma)
        v = vals
        expected = np.array([
            [v["g1"] ** 2 + v["g12"] ** 2, v["g12"] * v["g21"], 0.0],
            [v["g12"] * v["g21"], v["g2"] ** 2 + v["g21"] ** 2 + v["g23"] ** 2,
             v["g23"] * v["g32"]],
            [0.0, v["g23"] * v["g32"], v["g3"] ** 2 + v["g32"] ** 2],
        ])
        assert np.allclose(sig.a, expected, atol=1e-14)

    def test_zero_params(self):
        delta = three_chain()
        assert np.array_equal(phi(delta, FactorParams.zeros(delta)).a, np.zeros((3, 3)))

    def test_triangle_closed_form(self):
        delta = edge_complex(complete_graph(3))
        vals = {((i,), i): 0.5 + i for i in range(3)}
        edges = {(0, 1): (1.0, -2.0), (0, 2): (0.5, 3.0), (1, 2): (-1.5, 0.25)}
        for (i, j), (a, b) in edges.items():
            vals[((i, j), i)] = a
            vals[((i, j), j)] = b
        gamma = FactorParams(delta, vals)
        sig = phi(delta, gamma)
        for (i, j), (a, b) in edges.items():
            assert sig.a[i, j] == pytest.approx(a * b)
        assert sig.a[0, 0] == pytest.approx(0.5 ** 2 + 1.0 ** 2 + 0.5 ** 2)

    def test_result_is_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            delta = random_complex(rng, int(rng.integers(2, 8)))
            gamma = random_params(rng, delta, density=0.8)
            assert is_psd(phi(delta, gamma))

    @given(st.integers(0, 10_000), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_quadratic(self, seed, c):
        rng = np.random.default_rng(seed)
        delta = random_complex(rng, int(rng.integers(2, 7)))
        gamma = random_params(rng, delta, density=0.8)
        lhs = phi(delta, scaled_params(gamma, c)).a
        rhs = c * c * phi(delta, gamma).a
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_zero_pattern_soundness(self, seed):
        rng = np.random.default_rng(seed)
        delta = random_complex(rng, int(rng.integers(2, 8)))
        gamma = random_params(rng, delta)
        sig = phi(delta, gamma)
        g = underlying_graph(delta)
        for i in range(delta.m):
            for j in range(i + 1, delta.m):
                if not g.has_edge(i, j):
                    assert sig.a[i, j] == 0.0

    def test_sign_flip_fiber_symmetry(self):
        # negating the (i, {i,j}) parameter flips exactly the (i,j) entry
        rng = np.random.default_rng(7)
        delta = edge_complex(cycle_graph(5))
        gamma = random_params(rng, delta)
        flipped = with_value(gamma, (1, 2), 1, -gamma_edge(gamma, 1, 2))
        lhs = phi(delta, flipped).a
        rhs = sign_flip(phi(delta, gamma), 1, 2).a
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestFactorMatrix:
    def test_three_chain_shape_and_supports(self):
        delta, gamma = chain_params(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        fm = build_factor_matrix(delta, gamma)
        assert fm.array.shape == (3, 5)
        assert fm.faces == ((0,), (1,), (2,), (0, 1), (1, 2))
        assert np.array_equal(fm.column((0, 1)), [4.0, 5.0, 0.0])
        sig = phi(delta, gamma)
        assert np.abs(fm.array @ fm.array.T - sig.a).max() <= 1e-12 * sig.scale()

    def test_singleton_identity_pattern(self):
        delta = SimplicialComplex.from_facets(3, [])
        gamma = FactorParams(delta, {((i,), i): 1.0 for i in range(3)})
        fm = build_factor_matrix(delta, gamma)
        assert np.array_equal(fm.array, np.eye(3))


class TestConeAdd:
    def test_additive_identity(self):
        rng = np.random.default_rng(1)
        delta = random_complex(rng, 5)
        gamma = random_params(rng, delta)
        out = cone_add(delta, gamma, FactorParams.zeros(delta))
        assert np.abs(phi(delta, out).a - phi(delta, gamma).a).max() <= 1e-12

    def test_two_rank_one_terms_on_an_edge(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1]])
        g1 = FactorParams(delta, {((0, 1), 0): 1.0, ((0, 1), 1): 1.0})
        g2 = FactorParams(delta, {((0, 1), 0): 1.0, ((0, 1), 1): -1.0})
        out = cone_add(delta, g1, g2)
        expected = np.diag([2.0, 2.0, 0.0])
        assert np.abs(phi(delta, out).a - expected).max() <= 1e-12

    def test_random_pairs_against_matrix_addition(self):
        rng = np.random.default_rng(2)
        delta = edge_complex(cycle_graph(5))
        for _ in range(20):
            g1 = random_params(rng, delta, density=0.9)
            g2 = random_params(rng, delta, density=0.9)
            target = SymmetricMatrix(phi(delta, g1).a + phi(delta, g2).a)
            out = phi(delta, cone_add(delta, g1, g2))
            assert np.abs(out.a - target.a).max() <= 1e-9 * target.scale()

    def test_associativity_at_image_level(self):
        rng = np.random.default_rng(3)
        delta = random_complex(rng, 6)
        gs = [random_params(rng, delta, density=0.8) for _ in range(3)]
        total = sum(phi(delta, g).a for g in gs)
        nested = cone_add(delta, cone_add(delta, gs[0], gs[1]), gs[2])
        assert np.abs(phi(delta, nested).a - total).max() <= 1e-8 * max(1.0, np.abs(total).max())


class TestExtremeDecomposition:
    def test_single_face_column(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1, 2]])
        gamma = FactorParams(delta, {((0, 1, 2), 0): 1.0, ((0, 1, 2), 1): 2.0,
                                     ((0, 1, 2), 2): -1.0})
        terms = extreme_decomposition(delta, gamma)
        assert len(terms) == 1
        assert terms[0].support == (0, 1, 2)
        assert np.abs(terms[0].matrix() - phi(delta, gamma).a).max() <= 1e-12

    def test_diagonal_params(self):
        delta = SimplicialComplex.from_facets(4, [])
        gamma = FactorParams(delta, {((i,), i): float(i + 1) for i in range(4)})
        terms = extreme_decomposition(delta, gamma)
        assert len(terms) == 4
        assert all(len(t.support) == 1 for t in terms)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(2, 8))
            delta = random_complex(rng, m)
            gamma = random_params(rng, delta, density=0.8)
            sig = phi(delta, gamma)
            terms = extreme_decomposition(delta, gamma)
            assert len(terms) <= sum(len(f) for f in delta.facets)
            recon = sum((t.matrix() for t in terms), np.zeros((m, m)))
            assert np.abs(recon - sig.a).max() <= 1e-10 * sig.scale()
            for t in terms:
                assert delta.has_face(t.support)
                outside = [i for i in range(m) if i not in t.support]
                assert np.all(t.vector[outside] == 0.0)


class TestSubmatrixWitness:
    def test_cycle_restriction(self):
        rng = np.random.default_rng(5)
        delta = edge_complex(cycle_graph(4))
        gamma = random_params(rng, delta)
        sub = [0, 1, 2]
        witness = submatrix_witness(delta, gamma, sub)
        target = phi(delta, gamma).submatrix(sub)
        assert np.abs(phi(witness.complex, witness).a - target.a).max() \
            <= 1e-10 * target.scale()

    def test_zero_params(self):
        delta = edge_complex(cycle_graph(4))
        witness = submatrix_witness(delta, FactorParams.zeros(delta), [0, 1])
        assert np.array_equal(phi(witness.complex, witness).a, np.zeros((2, 2)))

    def test_triangle_face_cut_in_half(self):
        # a 3-face losing one vertex keeps its cross terms on the surviving edge
        rng = np.random.default_rng(6)
        delta = SimplicialComplex.from_facets(3, [[0, 1, 2]])
        gamma = random_params(rng, delta)
        witness = submatrix_witness(delta, gamma, [0, 1])
        target = phi(delta, gamma).submatrix([0, 1])
        assert np.abs(phi(witness.complex, witness).a - target.a).max() \
            <= 1e-10 * target.scale()

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(3, 8))
            delta = random_complex(rng, m)
            gamma = random_params(rng, delta, density=0.8)
            k = int(rng.integers(1, m))
            sub = sorted(rng.choice(m, size=k, replace=False).tolist())
            witness = submatrix_witness(delta, gamma, sub)
            target = phi(delta, gamma).submatrix(sub)
            assert np.abs(phi(witness.complex, witness).a - target.a).max() \
                <= 1e-10 * target.scale()


@st.composite
def column_blocks(draw):
    """(m, facets, blocks): a complex on up to 7 vertices and blocks of 1-4
    rows on its faces, entries zero off the face and now and then near the
    drop threshold."""
    m = draw(st.integers(1, 7))
    facets = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=6, unique=True),
                           min_size=1, max_size=4))
    faces = SimplicialComplex.from_facets(m, facets).faces
    entry = st.one_of(st.floats(-10.0, 10.0, allow_subnormal=False),
                      st.sampled_from([0.0, RAY_DROP_TOL, -0.5 * RAY_DROP_TOL, 1e-11]))
    blocks = []
    for _ in range(draw(st.integers(1, 12))):
        face = draw(st.sampled_from(faces))
        rows = [[draw(entry) if v in face else 0.0 for v in range(m)]
                for _ in range(draw(st.integers(1, 4)))]
        blocks.append((face, rows))
    return m, facets, blocks


def _same_faces(n, size, rows, m):
    """n faces of one size in one facet, each with the same number of rows."""
    faces = [tuple(range(k, k + size)) for k in range(n)]
    return m, [list(range(m))], [
        (f, [[float((3 * k + j + v) % 7 - 3) if v in f else 0.0 for v in range(m)]
             for j in range(rows)]) for k, f in enumerate(faces)]


class TestCombineColumns:
    """The level-by-level re-factoring against one QR per face, row by row."""

    @given(column_blocks())
    @example(_same_faces(4, 3, 2, 6))  # one stacked QR for the whole level
    @example((4, [[0, 1, 2], [2, 3]], [((0, 1, 2), [[1.0, -2.0, 3.0, 0.0]]),
                                        ((2, 3), [[0.0, 0.0, 1.5, -1.0]]),
                                        ((1,), [[0.0, 4.0, 0.0, 0.0]])]))  # single rows
    @example((3, [[0, 1, 2]], [((0, 1, 2), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                                ((1, 2), [[0.0, 1.0, 1.0]])]))  # a push onto a pending face
    @example((3, [[0, 1, 2]], [((0, 1, 2), [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-14],
                                            [1.0, 2.0 + 1e-14, 4.0]])]))  # dropped entries
    @settings(max_examples=200, deadline=None)
    def test_equals_column_oracle(self, case):
        m, facets, blocks = case
        delta = SimplicialComplex.from_facets(m, facets)
        blocks = [(face, np.array(rows)) for face, rows in blocks]
        got = _combine_columns(delta, blocks)
        want = combine_blocks_by_column(delta, blocks)
        assert got.complex == want.complex
        assert list(got.values) == list(want.values)
        assert ([float(v).hex() for v in got.values.values()]
                == [float(v).hex() for v in want.values.values()])

    def test_one_row_qr_is_the_row(self):
        """LAPACK's Householder step on one row has tau = 0, so R is the row."""
        rng = np.random.default_rng(0)
        for s in range(1, 8):
            for row in (rng.normal(size=s), -np.abs(rng.normal(size=s)), np.zeros(s) - 0.0,
                        rng.normal(size=s) * 1e-310):
                r = np.linalg.qr(row[None], mode="r")
                assert r.tobytes() == row[None].tobytes()

    def test_stacked_qr_is_the_per_matrix_qr(self):
        rng = np.random.default_rng(1)
        for k in range(1, 8):
            for s in range(1, 8):
                stack = rng.normal(size=(5, k, s))
                stacked = np.linalg.qr(stack, mode="r")
                for x, r in zip(stack, stacked):
                    assert np.linalg.qr(x, mode="r").tobytes() == r.tobytes()
