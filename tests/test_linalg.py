"""Numerical kernel checks against hand values and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone import linalg
from psdcone.chordal import is_chordal, ordering_clique_complex
from psdcone.core import SymmetricMatrix
from psdcone.cycle import counterexample_sigma
from psdcone.errors import NotPsd, SingularBlock
from psdcone.instances import random_chordal_graph, random_params
from psdcone.linalg import (_semidef_cholesky, cholesky, is_psd, schur_complement,
                            sign_flip, tridiagonal_det)
from psdcone.param import phi

from oracles import random_psd_matrix, semidef_cholesky_dense


def assert_factor_matches_dense(arr, tol=1e-9):
    """The fill-pattern factor of the symmetrized arr equals the dense loop's:
    same columns with their supports, or the same NotPsd message."""
    arr = SymmetricMatrix(arr).a
    try:
        dense = semidef_cholesky_dense(arr, tol)
    except NotPsd as exc:
        with pytest.raises(NotPsd) as got:
            _semidef_cholesky(arr, tol)
        assert str(got.value) == str(exc)
        return
    for k, col in enumerate(_semidef_cholesky(arr, tol)):
        support = np.flatnonzero(dense[:, k]).tolist()
        if col is None:
            assert support == []
            continue
        rows, vals = col
        assert rows[0] == k and rows == sorted(set(rows))
        kept = [(i, v) for i, v in zip(rows, vals) if v != 0.0]
        assert [i for i, _ in kept] == support
        assert [v for _, v in kept] == dense[support, k].tolist()
    assert np.array_equal(cholesky(SymmetricMatrix(arr)), dense)


class TestIsPsd:
    def test_identity(self):
        rep = is_psd(SymmetricMatrix(np.eye(3)))
        assert rep.is_psd
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite(self):
        assert not is_psd(SymmetricMatrix(np.diag([1.0, -1.0]))).is_psd

    def test_equicorrelation_eigenvalues(self):
        # 1*I + 0.9*(J - I): eigenvalues 1 + 2*0.9 and 1 - 0.9 (twice)
        arr = np.full((3, 3), 0.9)
        np.fill_diagonal(arr, 1.0)
        rep = is_psd(SymmetricMatrix(arr))
        assert rep.is_psd
        eigs = np.linalg.eigvalsh(arr)
        assert np.allclose(sorted(eigs), [0.1, 0.1, 2.8])


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(SymmetricMatrix(np.eye(4))), np.eye(4))

    def test_hand_example(self):
        ell = cholesky(SymmetricMatrix(np.array([[4.0, 2.0], [2.0, 2.0]])))
        assert np.allclose(ell, [[2.0, 0.0], [1.0, 1.0]])

    def test_rank_one(self):
        v = np.array([1.0, 2.0, 3.0])
        ell = cholesky(SymmetricMatrix(np.outer(v, v)))
        assert np.allclose(ell[:, 0], v)
        assert np.allclose(ell[:, 1:], 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            cholesky(SymmetricMatrix(np.diag([1.0, -1.0])))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            sig = random_psd_matrix(rng, m, rank=int(rng.integers(1, m + 1)))
            ell = cholesky(sig)
            assert np.abs(ell @ ell.T - sig.a).max() <= 1e-10 * sig.scale()
            assert np.allclose(np.triu(ell, 1), 0.0)


class TestFillPatternCholesky:
    """Bitwise agreement of the fill-pattern kernel with the dense loop."""

    @given(st.integers(1, 64), st.sampled_from([0.3, 0.7, 1.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_peo_permuted_chordal_members(self, m, density, seed):
        """No fill; D Sigma D with D in 10^+-6 puts some pivots near the zero band."""
        rng = np.random.default_rng(seed)
        g = random_chordal_graph(rng, m)
        _, ordering = is_chordal(g)
        delta = ordering_clique_complex(g, ordering)
        sigma = phi(delta, random_params(rng, delta, density=density)).a
        d = 10.0 ** rng.uniform(-6.0, 6.0, m)
        perm = np.ix_(ordering.order, ordering.order)
        arr = (d[:, None] * sigma * d)[perm]
        arr[~g.pattern_mask[perm]] = 0.0
        assert_factor_matches_dense(arr)

    @given(st.integers(1, 64), st.booleans(), st.sampled_from([0.1, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_low_rank_and_integer_matrices(self, m, integer, density, seed):
        """Rank below m gives zero pivots; integer factors make them exact.
        A sparse factor keeps the product sparse enough for the fill pattern."""
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, m + 1))
        if integer:
            b = rng.integers(-2, 3, (m, rank)).astype(float)
        else:
            b = rng.standard_normal((m, rank))
        b *= rng.random((m, rank)) < density
        assert_factor_matches_dense(b @ b.T)

    @given(st.integers(2, 64), st.sampled_from([0.05, 0.15, 0.4]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_non_chordal_sparse_matrices_with_fill(self, m, density, indefinite, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((m, m)) * (rng.random((m, m)) < density)
        arr = b + b.T if indefinite else b @ b.T + np.diag(rng.random(m))
        assert_factor_matches_dense(arr)

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_dense_structure_takes_the_dense_update(self, m, monkeypatch):
        """More than DENSE_UPDATES_PER_COLUMN updates per column, counted from
        the nonzeros, picks the dense update; both give the oracle's columns."""
        calls, dense_columns = [], linalg._dense_columns
        monkeypatch.setattr(linalg, "_dense_columns",
                            lambda *args: calls.append(m) or dense_columns(*args))
        rng = np.random.default_rng(m)
        b = np.tril(rng.uniform(0.5, 2.0, (m, m)))
        assert_factor_matches_dense(b @ b.T)  # complete graph
        assert len(calls) == 2  # the check and the comparison through cholesky()
        path = np.diag(rng.uniform(0.5, 2.0, m)) + np.diag(rng.uniform(0.5, 2.0, m - 1), -1)
        assert_factor_matches_dense(path @ path.T)  # tridiagonal: 1 update per column
        assert len(calls) == 2

    def test_reads_the_lower_triangle(self):
        """Like the dense loop, which reads column k below the pivot."""
        arr = np.array([[4.0, 9.0], [2.0, 5.0]])
        assert _semidef_cholesky(arr) == [([0, 1], [2.0, 1.0]), ([1], [2.0])]
        assert np.array_equal(semidef_cholesky_dense(arr), [[2.0, 0.0], [1.0, 2.0]])

    def test_zero_pivot_messages(self):
        assert_factor_matches_dense(np.diag([1.0, -1.0]))
        assert_factor_matches_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert_factor_matches_dense(np.zeros((3, 3)))


class TestSchurComplement:
    def test_identity(self):
        out = schur_complement(SymmetricMatrix(np.eye(4)), {3})
        assert np.array_equal(out.a, np.eye(3))

    def test_hand_example(self):
        out = schur_complement(SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 1.0]])), {1})
        assert out.a == pytest.approx(np.array([[1.0]]))

    def test_quotient_formula(self):
        rng = np.random.default_rng(1)
        sig = random_psd_matrix(rng, 5)
        # eliminate the trailing 3x3 block directly, or through its trailing 2x2 sub-block
        left = schur_complement(sig, {2, 3, 4})
        inner = schur_complement(sig, {3, 4})
        right = schur_complement(inner, {2})
        assert np.abs(left.a - right.a).max() <= 1e-10 * sig.scale()

    def test_singular_block(self):
        arr = np.zeros((3, 3))
        arr[0, 0] = 1.0
        with pytest.raises(SingularBlock):
            schur_complement(SymmetricMatrix(arr), {2})

    def test_preserves_psd_bulk(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            sig = random_psd_matrix(rng, m)
            u = set(rng.choice(m, size=int(rng.integers(1, m)), replace=False).tolist())
            try:
                comp = schur_complement(sig, u)
            except SingularBlock:
                continue
            assert is_psd(comp, 1e-8).is_psd


class TestSignFlip:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((4, 4))
        sig = SymmetricMatrix((arr + arr.T) / 2)
        flipped = sign_flip(sign_flip(sig, 0, 2), 0, 2)
        assert np.array_equal(flipped.a, sig.a)

    def test_counterexample_flip(self):
        m, rho = 5, 1.2
        flipped = sign_flip(counterexample_sigma(m, rho).to_symmetric(), 0, m - 1)
        target = counterexample_sigma(m, -rho).to_symmetric()
        assert np.array_equal(flipped.a, target.a)

    def test_zero_matrix(self):
        z = SymmetricMatrix(np.zeros((3, 3)))
        assert np.array_equal(sign_flip(z, 0, 1).a, z.a)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            sign_flip(SymmetricMatrix(np.eye(2)), 1, 1)


class TestTridiagonalDet:
    def test_hand_example(self):
        assert tridiagonal_det([1.0, 1.0, 1.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_one_by_one(self):
        assert tridiagonal_det([7.0], []) == 7.0

    def test_empty(self):
        assert tridiagonal_det([], []) == 1.0

    def test_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.standard_normal(8)
            off = rng.standard_normal(7)
            dense = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
            expected = np.linalg.det(dense)
            got = tridiagonal_det(d, off)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tridiagonal_det([1.0, 2.0], [1.0, 2.0])
