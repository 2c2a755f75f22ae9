"""Cycle decisions on the correlation form: invariance under the transformations
that preserve the image cone, the exact diagonal rules, and the O(m) kernels
against their dense and batch counterparts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.cycle import (CycleMatrix, counterexample_sigma, cycle_fiber,
                           cycle_membership, matching_sum)
from psdcone.errors import Degenerate, NotPsd
from psdcone.instances import random_cycle_member, random_cycle_pattern_matrix
from psdcone.linalg import path_det, sign_flip, tridiagonal_minors
from psdcone.param import phi

from oracles import random_cycle_member_via_params

TOL = 1e-9
KINDS = ("member", "zero_edge", "psd", "nonmember", "not_psd")


def cycle_case(m, seed, kind):
    """A cycle-patterned matrix of the given kind, from a seeded numpy stream.

    "member" and "zero_edge" are positive definite members, the latter with
    one parameter of an edge set to zero; "psd" shifts a random cycle
    pattern to a positive smallest eigenvalue (member or not); "not_psd"
    shifts it to -0.05 times its largest entry; "nonmember" is the
    counterexample family at its window midpoint.
    """
    rng = np.random.default_rng(seed)
    if kind in ("member", "zero_edge"):
        zero_edges = (int(rng.integers(m)),) if kind == "zero_edge" else ()
        return random_cycle_member(rng, m, zero_edges)[0]
    if kind == "nonmember":
        rho = 1 + 1 / (m - 1) if m % 2 else -1 - 1 / (m - 1)
        return counterexample_sigma(m, rho)
    base = random_cycle_pattern_matrix(rng, m)
    a = base.to_array()
    lo = float(np.linalg.eigvalsh(a)[0])
    margin = rng.uniform(0.01, 1.0) if kind == "psd" else -0.05 * float(np.abs(a).max())
    return CycleMatrix.from_arrays(np.asarray(base.diag) - lo + margin, base.cyc)


def congruence(sigma, d):
    """D sigma D for the diagonal matrix D = diag(d)."""
    m = sigma.m
    return CycleMatrix.from_arrays(
        [d[i] * x * d[i] for i, x in enumerate(sigma.diag)],
        [d[k] * x * d[(k + 1) % m] for k, x in enumerate(sigma.cyc)])


def outcome(sigma):
    try:
        return cycle_membership(sigma, TOL)
    except NotPsd:
        return None


def assert_same_verdict(v1, v2, same_order=True):
    """Verdicts agree unless both slacks are inside the band; pivots depend on
    the elimination order, so they are compared only when it is the same."""
    assert (v1 is None) == (v2 is None)
    if v1 is not None and not (v1.boundary and v2.boundary):
        assert v1.member == v2.member
        assert v1.boundary == v2.boundary
        if same_order:
            assert v1.min_pivot == pytest.approx(v2.min_pivot, rel=1e-9, abs=1e-12)


def assert_fiber_reproduces(sigma, tol_rel=1e-8):
    """Each representative reproduces every entry within tol_rel of sqrt(s_ii s_jj)."""
    fib = cycle_fiber(sigma, TOL)
    dense = sigma.to_array()
    ref = np.sqrt(np.outer(sigma.diag, sigma.diag))
    for rep in fib.representatives:
        err = np.abs(phi(fib.complex, rep).a - dense)
        assert np.all(err <= tol_rel * ref), float((err / ref).max())


@given(st.integers(3, 32), st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
@settings(max_examples=150, deadline=None)
def test_verdict_invariant_under_positive_diagonal_congruence(m, seed, kind):
    if kind == "nonmember" and m > 24:
        kind = "not_psd"  # the counterexample's slack halves with m: -1.3e-7 at m = 24
    sigma = cycle_case(m, seed, kind)
    d = 10.0 ** np.random.default_rng(seed + 1).uniform(-6, 6, m)
    scaled = congruence(sigma, d)
    v1, v2 = outcome(sigma), outcome(scaled)
    assert_same_verdict(v1, v2)
    if kind == "nonmember":
        assert v1 is not None and not v1.member
    if kind == "not_psd":
        assert v1 is None
    if kind in ("member", "zero_edge") and v2.min_pivot > TOL:
        assert_fiber_reproduces(scaled)


@given(st.integers(3, 32), st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS))
@settings(max_examples=100, deadline=None)
def test_verdict_bitwise_invariant_under_sign_congruence(m, seed, kind):
    """Sign flips are exact, and every quantity of the decision is even in them."""
    sigma = cycle_case(m, seed, kind)
    signs = np.random.default_rng(seed + 2).choice([-1.0, 1.0], m)
    v1, v2 = outcome(sigma), outcome(congruence(sigma, signs))
    assert v1 == v2


@given(st.integers(3, 32), st.integers(0, 2 ** 32 - 1), st.integers(0, 31), st.booleans())
@settings(max_examples=100, deadline=None)
def test_verdict_invariant_under_rotation_and_reflection(m, seed, shift, reflect):
    sigma = cycle_case(m, seed, KINDS[seed % len(KINDS)] if m <= 24 else "psd")
    diag, cyc = np.roll(sigma.diag, shift), np.roll(sigma.cyc, shift)
    if reflect:
        # vertex i -> -i: edge k = {k, k+1} becomes edge -k-1 = {-k-1, -k}
        diag = diag[-np.arange(m) % m]
        cyc = cyc[(-np.arange(m) - 1) % m]
    assert_same_verdict(outcome(sigma), outcome(CycleMatrix.from_arrays(diag, cyc)),
                        same_order=False)


def test_scaled_non_member_is_rejected():
    """D = diag(30, 1/30, 1, 1) kept a clear non-member inside a band that grew
    with the largest entry; the correlation form is the same matrix as before."""
    base = CycleMatrix.from_arrays([1.0] * 4, [0.5, 0.5, 0.5, -0.6])
    scaled = congruence(base, [30.0, 1 / 30, 1.0, 1.0])
    for sigma in (base, scaled):
        v = cycle_membership(sigma, TOL)
        assert not v.member and not v.boundary
        assert v.slack == pytest.approx(-0.1075, rel=1e-12)
        assert v.det == pytest.approx(np.linalg.det(sigma.to_array()), rel=1e-10)


@pytest.mark.parametrize("m", [4, 5, 8])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e6])
def test_zero_diagonal_with_zero_row_is_a_path(m, scale):
    """The vertex drops out; what is left is a path, a member iff PSD, and singular."""
    k = 2
    cyc = [0.4 * scale] * m
    cyc[k - 1] = cyc[k] = 0.0
    diag = [scale] * m
    diag[k] = 0.0
    v = cycle_membership(CycleMatrix.from_arrays(diag, cyc), TOL)
    assert v.member and v.boundary
    assert v.det == v.flip_determinant == v.slack == 0.0 and v.min_pivot == 0.0
    with pytest.raises(Degenerate):
        cycle_fiber(CycleMatrix.from_arrays(diag, cyc), TOL)
    # the same path with correlations 0.9 is not PSD (a path of four needs <= 0.618)
    cyc = [0.0 if c == 0.0 else 0.9 * scale for c in cyc]
    with pytest.raises(NotPsd):
        cycle_membership(CycleMatrix.from_arrays(diag, cyc), TOL)


def test_zero_diagonal_with_nonzero_row_is_not_psd():
    diag = [1.0, 1.0, 0.0, 1.0, 1.0]
    for cyc in ([0.1, 1e-300, 0.0, 0.1, 0.1], [0.1, 0.0, -1e-300, 0.1, 0.1]):
        with pytest.raises(NotPsd):
            cycle_membership(CycleMatrix.from_arrays(diag, cyc), TOL)
    with pytest.raises(NotPsd):
        cycle_membership(CycleMatrix.from_arrays([1.0, -1e-300, 1.0, 1.0], [0.0] * 4), TOL)


@pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0, 1.0], [4.0, 9.0, 1e-8, 1e8]])
def test_unit_correlation(diag):
    """|r_0| = 1: PSD (and a singular member) iff both neighbouring edges vanish."""
    c0 = -math.sqrt(diag[0]) * math.sqrt(diag[1])
    singular = CycleMatrix.from_arrays(diag, [c0, 0.0, 0.3 * math.sqrt(diag[2] * diag[3]), 0.0])
    v = cycle_membership(singular, TOL)
    assert v.member and v.boundary and v.min_pivot <= TOL
    with pytest.raises(Degenerate):
        cycle_fiber(singular, TOL)
    # a residual of 2e-4 hides an eigenvalue of -2e-8 of the correlation form
    for cyc in ([c0, 0.2, 0.0, 0.0], [c0, 0.0, 0.0, 0.2], [c0, 2e-4, 0.0, 0.0],
                [c0, 0.0, 0.0, 2e-4]):
        scaled = [x * math.sqrt(diag[k] * diag[(k + 1) % 4]) if k else x
                  for k, x in enumerate(cyc)]
        with pytest.raises(NotPsd):
            cycle_membership(CycleMatrix.from_arrays(diag, scaled), TOL)


@pytest.mark.parametrize("m, edge", [(3, 1), (3, 2), (4, 1), (4, 3), (6, 1), (6, 5)])
def test_zero_pivot_residual_is_bounded_by_tol(m, edge):
    """r_0 = 1 makes the pivot of vertex 1 zero, and the entry on ``edge`` is
    the rest of its row: from 1e-6 to 1e-2, a smallest eigenvalue below -tol
    must give NotPsd and one above -tol/4 a boundary member."""
    for a in np.geomspace(1e-6, 1e-2, 41):
        cyc = [0.0] * m
        cyc[0], cyc[edge] = 1.0, a
        sigma = CycleMatrix.from_arrays([1.0] * m, cyc)
        lo = float(np.linalg.eigvalsh(sigma.to_array())[0])
        v = outcome(sigma)
        if lo < -TOL:
            assert v is None, (a, lo)
        elif lo > -TOL / 4:
            assert v is not None and v.member and v.boundary, (a, lo)


@pytest.mark.parametrize("d, c", [(1e7, 1e6), (1e-7, 1e-8), (1e-7, -4e-8)])
def test_unrepresentable_determinants_raise(d, c):
    """At m = 64 the diagonal product leaves the float range; the verdict is
    still decided on the correlation form, but no determinant of the input
    is reported as inf or as a zero it is not."""
    sigma = CycleMatrix.from_arrays([d] * 64, [c] * 64)
    v = cycle_membership(sigma, TOL)
    assert v.member and not v.boundary
    for name in ("det", "flip_determinant", "slack"):
        with pytest.raises(ValueError, match="outside the normal float range"):
            getattr(v, name)
    with pytest.raises(ValueError):
        v.to_json_dict()
    assert_fiber_reproduces(sigma)


@pytest.mark.parametrize("r", [0.3, -0.7, 1e-3])
def test_singular_psd_non_member(r):
    """Vertices 0 and 1 are one variable (r_0 = 1), both correlated r with vertex 2:
    PSD with a zero pivot, yet negating the wrap entry gives det -4 r^2."""
    d = [4.0, 0.25, 9.0]
    sigma = CycleMatrix.from_arrays(d, [1.0, r * 1.5, r * 6.0])
    assert np.linalg.eigvalsh(sigma.to_array())[0] >= -1e-12
    v = cycle_membership(sigma, TOL)
    assert not v.member and v.min_pivot <= TOL
    assert v.slack == v.flip_determinant == pytest.approx(-4 * r * r * math.prod(d), rel=1e-9)
    assert v.det == 0.0


def test_determinants_match_dense_oracle():
    """det, flip_determinant and the PSD verdict against np.linalg and eigvalsh."""
    rng = np.random.default_rng(11)
    for _ in range(400):
        m = int(rng.integers(3, 12))
        sigma = cycle_case(m, int(rng.integers(2 ** 32)), ("psd", "not_psd")[_ % 2])
        sigma = congruence(sigma, 10.0 ** rng.uniform(-2, 2, m))
        dense = sigma.to_symmetric()
        v = outcome(sigma)
        if min(sigma.diag) <= 0.0:
            assert v is None
            continue
        unscale = np.diag(np.asarray(sigma.diag) ** -0.5)
        lo = float(np.linalg.eigvalsh(unscale @ dense.a @ unscale)[0])
        assert (v is None) == (lo < 0)
        if v is None:
            continue
        for got, arr in ((v.det, dense.a), (v.flip_determinant, sign_flip(dense, 0, 1).a)):
            want = float(np.linalg.det(arr))
            assert abs(got - want) <= 1e-9 * math.prod(sigma.diag), (got, want)
        assert v.slack == min(v.det, v.flip_determinant)
        assert v.min_pivot >= lo - 1e-12


def test_scalar_matching_sum_equals_batch_form_bitwise():
    rng = np.random.default_rng(12)
    for m in range(3, 12):
        diag = np.abs(rng.standard_normal((300, m))) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        cyc = rng.standard_normal((300, m)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        sq = cyc ** 2
        for full_path in tridiagonal_minors(diag.T, sq[:, : m - 1].T):
            pass
        batch = full_path - sq[:, m - 1] * path_det(diag[:, 1: m - 1].T, sq[:, 1: m - 2].T)
        for row in range(300):
            scalar = matching_sum(CycleMatrix.from_arrays(diag[row], cyc[row]))
            assert scalar.hex() == float(batch[row]).hex(), (m, row)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 16, 32])
def test_random_cycle_member_draws_as_before(m):
    """Same stream, same entries and parameters, bit for bit, as reading the
    entries back through FactorParams and a dense SymmetricMatrix."""
    for seed in range(4):
        for zero_edges in ((), (0,), (m - 1,), (1, m - 1)):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                (sig_new, gam_new), (sig_old, gam_old) = \
                    random_cycle_member(new, m, zero_edges), \
                    random_cycle_member_via_params(old, m, zero_edges)
                assert [x.hex() for x in sig_new.diag + sig_new.cyc] \
                    == [x.hex() for x in sig_old.diag + sig_old.cyc]
                assert {k: v.hex() for k, v in gam_new.values.items()} \
                    == {k: v.hex() for k, v in gam_old.values.items()}
                assert gam_new.complex == gam_old.complex
            assert new.bit_generator.state == old.bit_generator.state
