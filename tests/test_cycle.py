"""Cycle membership, the counterexample family, quartic fiber solving."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone import cycle, decide
from psdcone.core import FactorParams, Graph, SymmetricMatrix, cycle_graph, edge_complex
from psdcone.cycle import (CycleFiber, CycleMatrix, _edge_params, _fiber_edges,
                           counterexample_det, counterexample_sigma, cycle_determinant,
                           cycle_edge_complex, cycle_fiber, cycle_membership, matching_sum,
                           quartic_coefficients)
from psdcone.errors import Degenerate, NotMember, NotPsd, PatternViolation
from psdcone.instances import (random_cycle_member, random_cycle_pattern_matrix,
                               random_psd_cycle_matrix)
from psdcone.linalg import is_psd, sign_flip
from psdcone.param import phi

from oracles import (closure_mobius_coefficients, cycle_order_by_neighbors,
                     edge_complex_by_neighbors, expand_edge_signs, gamma_edge, tridiagonal_det,
                     with_value)


def identity_cycle(m):
    return CycleMatrix.from_arrays(np.ones(m), np.zeros(m))


def correlation_cycle(r12, r23, r13):
    return CycleMatrix.from_arrays([1.0, 1.0, 1.0], [r12, r23, r13])


class TestCycleMatrix:
    def test_entry_accessor(self):
        sig = CycleMatrix.from_arrays([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        arr = sig.to_array()
        assert arr[0, 1] == arr[1, 0] == 0.1
        assert arr[3, 0] == arr[0, 3] == 0.4
        assert arr[0, 2] == 0.0

    def test_round_trip_dense(self):
        sig = CycleMatrix.from_arrays([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        again = CycleMatrix.from_symmetric(sig.to_symmetric())
        assert again == sig

    def test_pattern_violation(self):
        arr = np.eye(4)
        arr[0, 2] = arr[2, 0] = 0.5
        with pytest.raises(PatternViolation):
            CycleMatrix.from_symmetric(SymmetricMatrix(arr))

    def test_m3_has_no_excluded_entries(self):
        arr = np.array([[1.0, 0.2, 0.3], [0.2, 1.0, 0.4], [0.3, 0.4, 1.0]])
        sig = CycleMatrix.from_symmetric(SymmetricMatrix(arr))
        assert sig.cyc == (0.2, 0.4, 0.3)


class TestMatchingSum:
    def test_identity_counts_only_empty_matching(self):
        for m in range(3, 8):
            assert matching_sum(identity_cycle(m)) == pytest.approx(1.0)

    def test_triangle_formula(self):
        sig = correlation_cycle(0.3, -0.5, 0.2)
        expected = 1.0 - 0.3 ** 2 - 0.5 ** 2 - 0.2 ** 2
        assert matching_sum(sig) == pytest.approx(expected)

    def test_determinant_expansion_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(3, 11))
            sig = random_cycle_pattern_matrix(rng, m)
            dense = sig.to_symmetric()
            det = float(np.linalg.det(dense.a))
            got = cycle_determinant(sig)
            assert abs(got - det) <= 1e-10 * max(1.0, abs(det), dense.scale() ** m)


class TestCycleMembership:
    def test_identity_member(self):
        v = cycle_membership(identity_cycle(5))
        assert v.member and not v.boundary
        assert v.slack == pytest.approx(1.0)

    def test_high_equicorrelation_not_member(self):
        # rho = 0.9 > 1/sqrt(2): PSD but outside the image
        sig = correlation_cycle(0.9, 0.9, 0.9)
        assert is_psd(sig.to_symmetric())
        v = cycle_membership(sig)
        assert not v.member
        assert v.slack == pytest.approx(1 - 3 * 0.81 - 2 * 0.729)

    def test_counterexample_psd_not_member(self):
        sig = counterexample_sigma(4, -1.4)
        assert is_psd(sig.to_symmetric())
        assert not cycle_membership(sig).member

    def test_raises_on_indefinite(self):
        with pytest.raises(NotPsd):
            cycle_membership(CycleMatrix.from_arrays([1.0, -1.0, 1.0], [0, 0, 0]))

    def test_exact_boundary_resolves_to_member(self):
        sig = CycleMatrix.from_arrays([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        v = cycle_membership(sig)
        assert v.member and v.boundary
        assert v.slack == pytest.approx(0.0, abs=1e-12)

    def test_membership_form_equivalences(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = int(rng.integers(3, 7))
            sig = random_psd_cycle_matrix(rng, m)
            v = cycle_membership(sig)
            if v.boundary:
                continue
            dense = sig.to_symmetric()
            flips = [is_psd(sign_flip(dense, e, (e + 1) % m)) for e in range(m)]
            assert v.member == all(flips) == any(flips)

    def test_membership_preserved_by_edge_flip_of_member(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sig, _ = random_cycle_member(rng, 5)
            flipped = CycleMatrix.from_symmetric(sign_flip(sig.to_symmetric(), 1, 2))
            assert cycle_membership(flipped).member


class TestFlipDeterminantPrediction:
    def test_dense_flip_matches_expansion(self):
        # negating one cycle edge flips the sign of the cyclic product term only
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(3, 9))
            sig = random_cycle_pattern_matrix(rng, m)
            sign = 1.0 if m % 2 == 1 else -1.0
            predicted = matching_sum(sig) - sign * 2.0 * float(np.prod(sig.cyc))
            for e in range(m):
                flipped = sign_flip(sig.to_symmetric(), e, (e + 1) % m)
                dense = float(np.linalg.det(flipped.a))
                assert abs(dense - predicted) <= 1e-10 * max(1.0, abs(dense),
                                                             sig.to_symmetric().scale() ** m)


class TestCounterexampleFamily:
    def test_m3_reference_values(self):
        assert counterexample_det(3, 1.5) == pytest.approx(0.3125)
        assert counterexample_det(3, -1.5) == pytest.approx((1 / 8) * 7 * (-0.5))

    @pytest.mark.parametrize("m, rho", [(5, 1e308), (64, 1e200), (6, -1e308)])
    def test_overflow_is_refused(self, m, rho):
        with pytest.raises(ValueError, match="overflows"):
            counterexample_det(m, rho)

    def test_closed_form_matches_dense(self):
        rng = np.random.default_rng(3)
        for m in range(3, 10):
            for rho in rng.uniform(-2, 2, size=8):
                sig = counterexample_sigma(m, rho)
                dense = float(np.linalg.det(sig.to_symmetric().a))
                assert counterexample_det(m, rho) == pytest.approx(dense, abs=1e-12)

    def test_rho_zero_matches_tridiagonal_path(self):
        for m in range(3, 9):
            sig = counterexample_sigma(m, 0.0)
            path_det = tridiagonal_det([1.0] * m, [0.5] * (m - 1))
            assert counterexample_det(m, 0.0) == pytest.approx(path_det)

    def test_family_psd_non_member(self):
        for m in range(3, 9):
            rho = 1 + 1 / (m - 1) if m % 2 else -1 - 1 / (m - 1)
            sig = counterexample_sigma(m, rho)
            assert is_psd(sig.to_symmetric())
            assert counterexample_det(m, rho) > 0
            assert counterexample_det(m, -rho) < 0
            assert not cycle_membership(sig).member

    def test_rho_one_boundary_against_slack(self):
        sig = counterexample_sigma(3, 1.0)
        v = cycle_membership(sig)
        assert v.member
        assert v.slack == pytest.approx(matching_sum(sig) - 2 * (0.5 ** 3))


class TestQuarticCoefficients:
    def test_identity_3(self):
        a, b, c = quartic_coefficients(identity_cycle(3))
        assert (a, b, c) == (-1.0, 1.0, 0.0)
        roots = np.roots([a, 0.0, b, 0.0, c])
        assert sorted(np.round(r.real ** 2, 9) for r in roots) == [0.0, 0.0, 1.0, 1.0]

    def test_discriminant_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = int(rng.integers(3, 9))
            sig, _ = random_cycle_member(rng, m)
            a, b, c = quartic_coefficients(sig)
            dense = sig.to_symmetric()
            det = float(np.linalg.det(dense.a))
            det_flip = float(np.linalg.det(sign_flip(dense, 0, 1).a))
            lhs = b * b - 4 * a * c
            rhs = det * det_flip
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs), b * b)

    def test_sign_pattern_for_definite_members(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(3, 9))
            sig, _ = random_cycle_member(rng, m)
            a, b, c = quartic_coefficients(sig)
            assert a < 0 and b > 0 and c <= 0


class TestTridiagonalIdentity:
    def test_discriminant_supporting_identity(self):
        """The product identity relating the four principal-path determinants
        that underlies the discriminant factorization."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = int(rng.integers(3, 11))
            sig = random_cycle_pattern_matrix(rng, m)
            d = list(sig.diag)
            c = list(sig.cyc)
            dense = sig.to_symmetric().a

            def sub_det(keep):
                return float(np.linalg.det(dense[np.ix_(keep, keep)])) if keep else 1.0

            det_no0 = tridiagonal_det(d[1:], c[1: m - 1])
            det_no01 = tridiagonal_det(d[2:], c[2: m - 1])
            det_mid = tridiagonal_det(d[1: m - 1], c[1: m - 2])
            det_inner = tridiagonal_det(d[2: m - 1], c[2: m - 2])
            # each tridiagonal value agrees with the dense determinant
            assert det_no0 == pytest.approx(sub_det(list(range(1, m))), rel=1e-9, abs=1e-9)
            assert det_no01 == pytest.approx(sub_det(list(range(2, m))), rel=1e-9, abs=1e-9)
            assert det_mid == pytest.approx(sub_det(list(range(1, m - 1))), rel=1e-9, abs=1e-9)
            assert det_inner == pytest.approx(sub_det(list(range(2, m - 1))), rel=1e-9, abs=1e-9)
            w = c[0] ** 2 * c[m - 1] ** 2
            lhs = w * det_no0 * det_inner
            rhs = w * det_no01 * det_mid - float(np.prod(c)) ** 2
            scale = max(1.0, sig.to_symmetric().scale() ** (m + 2))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestCycleFiber:
    def test_identity_3_representatives(self):
        fib = cycle_fiber(identity_cycle(3))
        assert isinstance(fib, CycleFiber)
        assert fib.count_total == 16
        assert len(fib.representatives) == 2
        rep_a, rep_b = fib.representatives
        # forward branch: gamma_21 = 0, gamma_23 = 1, gamma_32 = 0,
        #                 gamma_31 = 1, gamma_13 = 0, gamma_12 = 1  (1-based labels)
        assert gamma_edge(rep_a, 1, 0) == 0.0
        assert gamma_edge(rep_a, 1, 2) == pytest.approx(1.0)
        assert gamma_edge(rep_a, 2, 1) == 0.0
        assert gamma_edge(rep_a, 2, 0) == pytest.approx(1.0)
        assert gamma_edge(rep_a, 0, 2) == 0.0
        assert gamma_edge(rep_a, 0, 1) == pytest.approx(1.0)
        # dual branch
        assert gamma_edge(rep_b, 0, 1) == 0.0
        assert gamma_edge(rep_b, 0, 2) == pytest.approx(1.0)
        assert gamma_edge(rep_b, 2, 0) == 0.0
        assert gamma_edge(rep_b, 2, 1) == pytest.approx(1.0)
        assert gamma_edge(rep_b, 1, 2) == 0.0
        assert gamma_edge(rep_b, 1, 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_round_trip(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(60):
            sig, gamma0 = random_cycle_member(rng, m)
            fib = cycle_fiber(sig)
            dense = sig.to_symmetric()
            assert len(fib.representatives) == 2
            matched = False
            for rep in fib.representatives:
                err = np.abs(phi(fib.complex, rep).a - dense.a).max()
                assert err <= 1e-9 * dense.scale()
                for cand in expand_edge_signs(rep):
                    if all(abs(cand.get(f, i) - v) <= 1e-7
                           for (f, i), v in gamma0.values.items()):
                        matched = True
            assert matched

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_zero_edge_branch(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(40):
            sig, gamma0 = random_cycle_member(rng, m, zero_edges=(int(rng.integers(0, m)),))
            fib = cycle_fiber(sig)
            dense = sig.to_symmetric()
            for rep in fib.representatives:
                err = np.abs(phi(fib.complex, rep).a - dense.a).max()
                assert err <= 1e-9 * dense.scale()

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_zero_edge_at_every_rotation(self, m):
        rng = np.random.default_rng(250 + m)
        base, _ = random_cycle_member(rng, m, zero_edges=(0,))
        base_reps = cycle_fiber(base).representatives
        for r in range(m):
            # vertex i of the base is vertex i + r here, so the zero sits on edge r
            sig = CycleMatrix.from_arrays(np.roll(base.diag, r), np.roll(base.cyc, r))
            fib = cycle_fiber(sig)
            dense = sig.to_symmetric()
            u, v = r, (r + 1) % m
            forward, backward = fib.representatives
            assert gamma_edge(forward, v, u) == 0.0 and gamma_edge(forward, u, v) != 0.0
            assert gamma_edge(backward, u, v) == 0.0 and gamma_edge(backward, v, u) != 0.0
            for rep, base_rep in zip(fib.representatives, base_reps):
                err = np.abs(phi(fib.complex, rep).a - dense.a).max()
                assert err <= 1e-9 * dense.scale()
                for k in range(m):
                    a, b = k, (k + 1) % m
                    shifted = ((a + r) % m, (b + r) % m)
                    assert gamma_edge(rep, *shifted) == gamma_edge(base_rep, a, b)
                    assert gamma_edge(rep, *shifted[::-1]) == gamma_edge(base_rep, b, a)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sign_expansion_count(self, m):
        rng = np.random.default_rng(300 + m)
        for _ in range(20):
            sig, _ = random_cycle_member(rng, m)
            fib = cycle_fiber(sig)
            sols = set()
            for rep in fib.representatives:
                for cand in expand_edge_signs(rep):
                    key = tuple(
                        round(cand.get(f, i), 8)
                        for f, i in cand.complex.incidences() if len(f) == 2
                    )
                    sols.add(key)
            assert len(sols) == 2 ** (m + 1)

    def test_edge_flip_maps_fibers(self):
        rng = np.random.default_rng(7)
        sig, _ = random_cycle_member(rng, 5)
        flipped = CycleMatrix.from_symmetric(sign_flip(sig.to_symmetric(), 1, 2))
        fib = cycle_fiber(sig)
        target = flipped.to_symmetric()
        for rep in fib.representatives:
            moved = with_value(rep, (1, 2), 1, -gamma_edge(rep, 1, 2))
            assert np.abs(phi(rep.complex, moved).a - target.a).max() \
                <= 1e-9 * target.scale()

    def test_not_member_raises(self):
        with pytest.raises(NotMember):
            cycle_fiber(counterexample_sigma(4, -1.4))

    @pytest.mark.parametrize("m", [3, 5, 8, 16])
    def test_passed_verdict_gives_bitwise_equal_fiber(self, m):
        """_fiber_edges from a verdict, as a membership decision holds it, builds
        cycle_fiber's representatives."""
        rng = np.random.default_rng(400 + m)
        for zero_edges in ((), (int(rng.integers(0, m)),)) * 5:
            sig, _ = random_cycle_member(rng, m, zero_edges=zero_edges)
            own = cycle_fiber(sig)
            passed = [_edge_params(cycle_edge_complex(m), tails, heads)
                      for tails, heads in _fiber_edges(cycle_membership(sig), 1e-9)]
            assert [{k: v.hex() for k, v in rep.values.items()} for rep in own.representatives] \
                == [{k: v.hex() for k, v in rep.values.items()} for rep in passed]

    def test_passed_verdict_is_checked(self):
        nonmember = counterexample_sigma(4, -1.4)
        with pytest.raises(NotMember):
            _fiber_edges(cycle_membership(nonmember), 1e-9)
        singular = CycleMatrix.from_arrays([2.0, 2.0, 2.0], [1.0, -1.0, 1.0])
        with pytest.raises(Degenerate):
            _fiber_edges(cycle_membership(singular), 1e-9)

    @pytest.mark.parametrize("m", [3, 5, 8, 16])
    def test_trusted_edge_params_equal_validated_ones(self, m):
        """On a relabelled cycle every key _edge_params builds is a canonical edge
        of the edge complex, so the validating constructor accepts the same
        values; a non-finite value is refused with the same message."""
        rng = np.random.default_rng(900 + m)
        for _ in range(5):
            labels = rng.permutation(m).tolist()
            g = Graph.from_edges(m, [(labels[k], labels[(k + 1) % m]) for k in range(m)])
            tails, heads = rng.standard_normal(m).tolist(), rng.standard_normal(m).tolist()
            trusted = _edge_params(edge_complex(g), tails, heads, labels)
            assert FactorParams(edge_complex(g), dict(trusted.values)) == trusted
            k = m // 2
            u, v = labels[k], labels[(k + 1) % m]
            heads[k] = math.inf
            bad = {**trusted.values, (tuple(sorted((u, v))), v): math.inf}
            with pytest.raises(ValueError) as checked:
                FactorParams(edge_complex(g), bad)
            with pytest.raises(ValueError, match="non-finite parameter") as built:
                _edge_params(edge_complex(g), tails, heads, labels)
            assert str(built.value) == str(checked.value)

    def test_fibers_reuse_the_verdicts_correlation_form(self, monkeypatch):
        """The correlation form is computed once, by cycle_membership, and kept
        on the verdict outside its JSON form and its equality."""
        calls = []

        def counting(sigma, tol, original=cycle._correlation):
            calls.append(sigma)
            return original(sigma, tol)

        sig, _ = random_cycle_member(np.random.default_rng(12), 6)
        verdict = cycle_membership(sig)
        monkeypatch.setattr(cycle, "_correlation", counting)
        cycle_fiber(sig)
        assert len(calls) == 1
        _fiber_edges(verdict, 1e-9)
        assert len(calls) == 1
        calls.clear()
        assert decide.membership(sig.to_symmetric(), cycle_graph(6)).certificate is not None
        assert len(calls) == 1
        assert set(verdict.to_json_dict()) == {"member", "boundary", "slack", "det",
                                               "flip_determinant", "method"}
        assert verdict == dataclasses.replace(verdict, s=(), e=(), r=())

    def test_singular_member_raises_degenerate(self):
        # image of (g12, g21, g23, g32, g31, g13) = (1, 1, 1, -1, 1, 1): rank 2
        sig = CycleMatrix.from_arrays([2.0, 2.0, 2.0], [1.0, -1.0, 1.0])
        assert np.linalg.det(sig.to_symmetric().a) == pytest.approx(0.0, abs=1e-12)
        assert cycle_membership(sig).member
        with pytest.raises(Degenerate):
            cycle_fiber(sig)

    def test_fibonacci_specialization(self):
        def fib_seq(k):
            a, b = 0, 1
            for _ in range(k):
                a, b = b, a + b
            return a  # F_0 = 0, F_1 = 1, F_2 = 1, ...

        for m in range(3, 12):
            a, b, c, d = closure_mobius_coefficients([1.0] * m, [-1.0] * m)
            assert (a, b, c, d) == (fib_seq(m + 1), fib_seq(m), fib_seq(m), fib_seq(m - 1))
            # closure equation c*X^2 + (d-a)*X - b = 0 reduces to X^2 - X - 1 = 0
            assert d - a == -b
            assert c == b


def _ring(vertices):
    vertices = list(vertices)
    return [(v, vertices[(k + 1) % len(vertices)]) for k, v in enumerate(vertices)]


@st.composite
def walk_graphs(draw):
    """Relabelled graphs near and far from one cycle through every vertex."""
    kind = draw(st.sampled_from(["cycle", "two cycles", "cycle and isolated vertex",
                                 "cycle and chord", "path", "degree 3", "m < 3", "random"]))
    if kind == "cycle":
        m = draw(st.integers(3, 64))
        edges = _ring(range(m))
    elif kind == "two cycles":
        a, b = draw(st.sampled_from([(3, 3), (4, 5)]))
        m, edges = a + b, _ring(range(a)) + _ring(range(a, a + b))
    elif kind == "cycle and isolated vertex":
        m = draw(st.integers(4, 20))
        edges = _ring(range(m - 1))
    elif kind == "cycle and chord":
        m = draw(st.integers(4, 20))
        edges = _ring(range(m)) + [(0, draw(st.integers(2, m - 2)))]
    elif kind == "path":
        m = draw(st.integers(1, 20))
        edges = [(v, v + 1) for v in range(m - 1)]
    elif kind == "degree 3":  # a k-cycle with a tail at 0: m edges, 0 of degree 3
        m = draw(st.integers(4, 20))
        k = draw(st.integers(3, m - 1))
        edges = _ring(range(k)) + [(0 if v == k else v - 1, v) for v in range(k, m)]
    elif kind == "m < 3":
        m = draw(st.integers(1, 2))
        edges = draw(st.sampled_from([[], [(0, 1)]])) if m == 2 else []
    else:
        m = draw(st.integers(2, 10))
        pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * m))
    p = draw(st.permutations(range(m)))
    return Graph.from_edges(m, [(p[i], p[j]) for i, j in edges])


class TestCycleOrder:
    """The decision reads its graph through ``adjacency_bits`` alone."""

    @settings(max_examples=300, deadline=None)
    @given(walk_graphs())
    def test_bitset_walk_equals_the_neighbour_set_walk(self, g):
        assert decide._cycle_order(g) == cycle_order_by_neighbors(g)

    @settings(max_examples=200, deadline=None)
    @given(walk_graphs())
    def test_edge_complex_equals_the_one_built_from_neighbour_sets(self, g):
        assert edge_complex(g).facets == edge_complex_by_neighbors(g).facets

    def test_walk_goes_from_0_to_its_smaller_neighbour(self):
        g = Graph.from_edges(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])
        assert decide._cycle_order(g) == [0, 2, 4, 1, 3]
        assert decide._cycle_order(Graph.from_edges(6, _ring(range(3)) + _ring(range(3, 6)))) is None

    @pytest.mark.parametrize("m", [4, 5, 16])
    def test_a_cycle_decision_builds_no_neighbour_sets(self, m):
        rng = np.random.default_rng(m)
        sig, _ = random_cycle_member(rng, m)
        p = rng.permutation(m)
        a = np.empty((m, m))
        a[np.ix_(p, p)] = sig.to_array()
        g = Graph.from_edges(m, [(p[i], p[j]) for i, j in _ring(range(m))])
        decision = decide.membership(SymmetricMatrix(a), g)
        assert decision.member and decision.certificate is not None
        assert "adjacency" not in vars(g)
