"""Numerical kernel checks against hand values and dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone import linalg
from psdcone.chordal import chordal_fiber, is_chordal, ordering_clique_complex
from psdcone.core import FactorParams, SimplicialComplex, SymmetricMatrix, cycle_graph
from psdcone.cycle import (CycleMatrix, _bordered_ldl, counterexample_sigma, cycle_fiber,
                           cycle_membership)
from psdcone.decide import chordal_certificate, membership
from psdcone.errors import NotPsd, SingularBlock
from psdcone.instances import random_chordal_graph, random_params
from psdcone.linalg import _array_entries, _semidef_cholesky, is_psd, schur_complement, sign_flip
from psdcone.param import phi
from psdcone.quotient import schur_witness

from oracles import (cholesky, exact_psd, path_graph, random_psd_matrix,
                     semidef_cholesky_dense, tridiagonal_det)


def assert_factor_matches_dense(arr, tol=1e-9):
    """The fill-pattern factor of the symmetrized arr equals the dense loop's:
    same columns with their supports, or the same NotPsd message."""
    arr = SymmetricMatrix(arr).a
    try:
        dense = semidef_cholesky_dense(arr, tol)
    except NotPsd as exc:
        with pytest.raises(NotPsd) as got:
            _semidef_cholesky(*_array_entries(arr), tol)
        assert str(got.value) == str(exc)
        return
    for k, col in enumerate(_semidef_cholesky(*_array_entries(arr), tol)):
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
        assert is_psd(SymmetricMatrix(np.eye(3))) is True

    def test_indefinite(self):
        assert is_psd(SymmetricMatrix(np.diag([1.0, -1.0]))) is False

    def test_equicorrelation_eigenvalues(self):
        # 1*I + 0.9*(J - I): eigenvalues 1 + 2*0.9 and 1 - 0.9 (twice)
        arr = np.full((3, 3), 0.9)
        np.fill_diagonal(arr, 1.0)
        assert is_psd(SymmetricMatrix(arr))
        eigs = np.linalg.eigvalsh(arr)
        assert np.allclose(sorted(eigs), [0.1, 0.1, 2.8])


class TestZeroTolerance:
    """At tol 0 a zero pivot beside a nonzero entry is not PSD; it has no pivot
    tol to be eliminated as.  Both kernels and ``is_psd`` take tol 0; the
    decisions refuse it."""

    PATH = [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]

    def test_chordal_path(self):
        sigma = SymmetricMatrix(self.PATH)
        with pytest.raises(NotPsd, match="zero pivot at position 1"):
            _semidef_cholesky(*_array_entries(sigma.a), 0.0)
        assert is_psd(sigma, 0.0) is False
        with pytest.raises(ValueError, match="tol must be between 0 and 1"):
            membership(sigma, path_graph(3), tol=0.0)

    def test_four_cycle(self):
        sigma = CycleMatrix.from_arrays([1.0] * 4, [1.0, 0.5, 0.5, 0.5])
        with pytest.raises(NotPsd, match="zero pivot at vertex 1"):
            _bordered_ldl(sigma.diag, sigma.cyc, 0.0)
        assert is_psd(sigma.to_symmetric(), 0.0) is False
        with pytest.raises(ValueError, match="tol must be between 0 and 1"):
            cycle_membership(sigma, 0.0)

    def test_exact_zero_columns_stay_psd(self):
        assert is_psd(SymmetricMatrix(np.ones((3, 3))), 0.0)
        _, det, flip_last, flip = _bordered_ldl((1.0,) * 4, (1.0, 0.0, 1.0, 0.0), 0.0)
        assert flip_last is not None and min(det, flip) >= 0.0


# The PD 4-cycle with unit diagonal and 0.3 on its edges, and a triangle's
# parameters: inputs every decision entry point accepts at the default tol.
PD_FOUR_CYCLE = CycleMatrix.from_arrays([1.0] * 4, [0.3] * 4)
TRIANGLE = SimplicialComplex.from_facets(3, [[0, 1, 2]])
DECISIONS = {
    "membership": lambda tol: membership(PD_FOUR_CYCLE.to_symmetric(), cycle_graph(4), tol=tol),
    "chordal_certificate": lambda tol: chordal_certificate(
        SymmetricMatrix(np.eye(3)), path_graph(3), tol=tol),
    "chordal_fiber": lambda tol: chordal_fiber(path_graph(3), SymmetricMatrix(np.eye(3)), tol),
    "cycle_membership": lambda tol: cycle_membership(PD_FOUR_CYCLE, tol),
    "cycle_fiber": lambda tol: cycle_fiber(PD_FOUR_CYCLE, tol),
    "schur_witness": lambda tol: schur_witness(
        TRIANGLE, FactorParams(TRIANGLE, {((0, 1, 2), i): 1.0 for i in range(3)}), 0, tol=tol),
}


class TestTolContract:
    """Decisions take a tol in (0, 1) only; ``is_psd`` takes 0 as well."""

    @pytest.mark.parametrize("entry", sorted(DECISIONS))
    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, math.inf, math.nan])
    def test_decisions_refuse_tol_outside_the_open_unit_interval(self, entry, tol):
        with pytest.raises(ValueError, match="tol must be between 0 and 1, exclusive"):
            DECISIONS[entry](tol)

    @pytest.mark.parametrize("entry", sorted(DECISIONS))
    @pytest.mark.parametrize("tol", [1e-300, 1e-40, 1e-9, 0.5])
    def test_decisions_take_tol_inside_it(self, entry, tol):
        DECISIONS[entry](tol)

    def test_cycle_membership_below_rounding(self):
        """The expansion and the pivot product differ in the last bit; the
        cross-check's rounding floor takes that at any tol."""
        for tol in (1e-300, 1e-40):
            verdict = cycle_membership(PD_FOUR_CYCLE, tol)
            assert verdict == cycle_membership(PD_FOUR_CYCLE)
            assert verdict.member and verdict.det == 0.64

    @pytest.mark.parametrize("tol", [-1.0, 1.0, 2.0, math.inf, math.nan])
    def test_is_psd_refuses_tol_outside_zero_to_one(self, tol):
        with pytest.raises(ValueError, match="tol must be between 0 and 1"):
            is_psd(PD_FOUR_CYCLE.to_symmetric(), tol)

    def test_is_psd_takes_zero(self):
        assert is_psd(PD_FOUR_CYCLE.to_symmetric(), 0.0)


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

    @given(st.integers(1, 24), st.sampled_from(["integer", "low_rank", "near_zero_pivot"]),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dicts_and_the_dense_array_give_the_same_columns(self, m, kind, density, seed):
        """The dict form skips the zero entries that the dense update carries:
        the same nonzero entries, bit for bit, or the same NotPsd message."""
        arr = _exact_case(m, kind, seed)
        keep = np.random.default_rng(seed).random((m, m)) < density
        arr = np.where(keep | keep.T | np.eye(m, dtype=bool), arr, 0.0)
        a = arr.tolist()
        diag = [a[k][k] for k in range(m)]
        lower = [{k: a[k][k], **{i: a[i][k] for i in range(k + 1, m) if a[i][k]}}
                 for k in range(m)]

        def nonzero(form):
            try:
                cols = _semidef_cholesky(diag, form)
            except NotPsd as exc:
                return str(exc)
            return [col and [(i, v.hex()) for i, v in zip(*col) if v] for col in cols]

        assert nonzero(lower) == nonzero(arr)

    @pytest.mark.parametrize("arr, k", [
        ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], 0),  # beside it, below
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], 2),  # an earlier column's entry
    ])
    def test_zero_diagonal_row_in_either_form(self, arr, k):
        """The dicts hold a zero diagonal's row in its own column and in the
        earlier ones; the array form reads the row."""
        diag, lower = _array_entries(np.array(arr))
        assert isinstance(lower, list)
        for form in (lower, np.array(arr)):
            with pytest.raises(NotPsd, match=f"row of the zero diagonal at position {k}$"):
                _semidef_cholesky(diag, form)

    def test_reads_the_lower_triangle(self):
        """Like the dense loop, which reads column k below the pivot."""
        arr = np.array([[4.0, 9.0], [2.0, 5.0]])
        assert _semidef_cholesky(*_array_entries(arr)) == [([0, 1], [2.0, 1.0]), ([1], [2.0])]
        assert np.array_equal(semidef_cholesky_dense(arr), [[2.0, 0.0], [1.0, 2.0]])

    def test_zero_pivot_messages(self):
        assert_factor_matches_dense(np.diag([1.0, -1.0]))
        assert_factor_matches_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert_factor_matches_dense(np.zeros((3, 3)))

    def test_overflowing_dense_update_is_not_psd(self):
        """Entries 1e10 beside the diagonal 1e-300 give factor entries near 1e160,
        whose products overflow in the dense update: the next pivot is -inf,
        and no warning is raised."""
        arr = np.ones((8, 8)) + 7 * np.eye(8)
        arr[0, 0] = 1e-300
        arr[0, 1:] = arr[1:, 0] = 1e10
        with pytest.raises(NotPsd, match="pivot -inf at position 1 "):
            _semidef_cholesky(*_array_entries(arr))


def _exact_case(m, kind, seed):
    """D S D with D in 10^+-6 for an S of one kind: an integer Gram matrix less
    0, 1 or 2 times I; a Gram matrix of rank 1..m; or one of rank below m
    moved by a few tol times its diagonal, which puts pivots near zero."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        b = rng.integers(-2, 3, (m, m)).astype(float)
        s = b @ b.T - int(rng.integers(0, 3)) * np.eye(m)
    else:
        rank = int(rng.integers(1, m + 1 if kind == "low_rank" else max(m, 2)))
        b = rng.standard_normal((m, rank))
        s = b @ b.T
        if kind == "near_zero_pivot":
            s += rng.choice([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]) * 1e-9 * np.diag(
                np.diag(s))
    d = 10.0 ** rng.uniform(-6.0, 6.0, m)
    return SymmetricMatrix(d[:, None] * s * d[None, :]).a


class TestExactOracle:
    """The kernel's PSD decisions, and ``is_psd``'s, against exact rational arithmetic.

    With T = diag(Sigma): if Sigma - 2 tol T is PSD, every correlation-form
    pivot is at least 2 tol and the kernel accepts.  If the kernel accepts with
    z pivots at most tol, Sigma + 2 (1 + z) tol T is PSD: each such pivot p
    either has a zero column, leaving out a block whose least eigenvalue is at
    least -tol, or is eliminated as tol, adding tol - p <= 2 tol to the
    diagonal (``linalg.zero_pivot``); with no such pivot this is the bound
    2 tol.  Rounding is far below tol at m <= 8 (Demmel 1989).
    """

    def test_hand_values(self):
        assert exact_psd(np.eye(3)) and exact_psd(np.ones((3, 3))) and exact_psd(np.zeros((2, 2)))
        assert not exact_psd(np.diag([1.0, -1.0]))
        assert not exact_psd([[0.0, 1.0], [1.0, 1.0]])
        assert not exact_psd([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        # determinant -2**-52: no float eigenvalue test resolves its sign
        assert not exact_psd([[1.0, 1.0], [1.0, 1.0 - 2.0 ** -52]])
        # the diagonal shift is exact: I - 1 * I is the zero matrix
        assert exact_psd(np.eye(2), -1.0) and not exact_psd(np.eye(2), -1.5)

    @given(st.integers(1, 8), st.sampled_from(["integer", "low_rank", "near_zero_pivot"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_kernel_decides_within_its_bound(self, m, kind, seed):
        tol = 1e-9
        arr = _exact_case(m, kind, seed)
        psd = is_psd(SymmetricMatrix(arr), tol)
        try:
            cols = _semidef_cholesky(*_array_entries(arr), tol)
        except NotPsd:
            assert not psd and not exact_psd(arr, -2 * tol)
            return
        assert psd
        small = sum(arr[k, k] != 0.0 and (col is None or col[1][0] ** 2 <= 2 * tol * arr[k, k])
                    for k, col in enumerate(cols))
        assert exact_psd(arr, 2 * (1 + small) * tol)


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
            assert is_psd(comp, 1e-8)


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
