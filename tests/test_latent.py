"""Latent-variable realizations: digraph output, covariance identities, simulation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.core import FactorParams, SimplicialComplex, cycle_graph, edge_complex
from psdcone.errors import ZeroDiagonalParam
from psdcone.instances import random_complex, random_params
from psdcone.latent import (SIMULATE_BLOCK, SIMULATE_MAX_ENTRIES, LatentSystem, _gamma2,
                            build_digraph, conditional_precision, covariance_identity,
                            simulate_y)
from psdcone.param import phi

from oracles import simulate_y_dense


def three_chain():
    return SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])


GOLDEN_CHAIN_DOT = """digraph latent_factors {
  "Y1";
  "Y2";
  "Y3";
  "H_1_2" [shape=box];
  "H_2_3" [shape=box];
  "H_1_2" -> "Y1";
  "H_1_2" -> "Y2";
  "H_2_3" -> "Y2";
  "H_2_3" -> "Y3";
}
"""


class TestDigraph:
    def test_three_chain_golden(self):
        assert build_digraph(three_chain()) == GOLDEN_CHAIN_DOT

    def test_singletons_only_no_arcs(self):
        delta = SimplicialComplex.from_facets(3, [])
        dot = build_digraph(delta)
        assert "->" not in dot
        assert dot.count('"Y') == 3

    def test_node_and_arc_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            delta = random_complex(rng, int(rng.integers(2, 8)))
            dot = build_digraph(delta)
            faces2 = [f for f in delta.faces if len(f) >= 2]
            assert dot.count("shape=box") == len(faces2)
            assert dot.count("->") == sum(len(f) for f in faces2)


class TestCovarianceIdentity:
    def test_diagonal_only(self):
        delta = three_chain()
        gamma = FactorParams(delta, {((i,), i): float(i + 1) for i in range(3)})
        block = covariance_identity(delta, gamma)
        assert np.allclose(block.a, np.diag([1.0, 4.0, 9.0]))

    def test_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            delta = random_complex(rng, int(rng.integers(2, 8)))
            gamma = random_params(rng, delta, density=0.8)
            block = covariance_identity(delta, gamma)
            target = phi(delta, gamma)
            assert np.abs(block.a - target.a).max() <= 1e-10 * target.scale()

    def test_block_negation_inverse_is_exact(self):
        rng = np.random.default_rng(2)
        delta = edge_complex(cycle_graph(4))
        gamma = random_params(rng, delta)
        system = LatentSystem.build(delta, gamma)
        inv = system.lam_inverse()
        n = inv.shape[0]
        assert np.abs(system.lam @ inv - np.eye(n)).max() == 0.0
        assert np.abs(inv @ system.lam - np.eye(n)).max() == 0.0


class TestSimulateY:
    def test_zero_params_give_zero_covariance(self):
        delta = three_chain()
        cov = simulate_y(delta, FactorParams.zeros(delta), 5000, seed=3)
        assert np.abs(cov.a).max() <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        delta = edge_complex(cycle_graph(4))
        gamma = random_params(rng, delta)
        a = simulate_y(delta, gamma, 2000, seed=9)
        b = simulate_y(delta, gamma, 2000, seed=9)
        assert np.array_equal(a.a, b.a)

    def test_close_to_image_at_large_n(self):
        rng = np.random.default_rng(5)
        delta = edge_complex(cycle_graph(4))
        gamma = random_params(rng, delta)
        target = phi(delta, gamma)
        n = 200_000
        cov = simulate_y(delta, gamma, n, seed=6)
        se = np.sqrt((np.outer(np.diag(target.a), np.diag(target.a))
                      + target.a ** 2) / n)
        assert np.all(np.abs(cov.a - target.a) <= 3.0 * se + 1e-12)

    def test_error_shrinks_with_sample_rate(self):
        rng = np.random.default_rng(6)
        delta = edge_complex(cycle_graph(5))
        gamma = random_params(rng, delta)
        target = phi(delta, gamma).a
        # average over several instances: quadrupling n should halve the error
        ratios = []
        for seed in range(8):
            e1 = np.abs(simulate_y(delta, gamma, 20_000, seed=seed).a - target).max()
            e2 = np.abs(simulate_y(delta, gamma, 80_000, seed=seed + 100).a - target).max()
            ratios.append(e1 / e2)
        mean_ratio = float(np.mean(ratios))
        assert 1.5 <= mean_ratio <= 2.5


def block_rows(delta, gamma):
    """k and the rows of simulate_y's draw block: the largest power of two
    whose rows of max(k, m) doubles fit in SIMULATE_BLOCK."""
    k = _gamma2(delta, gamma).shape[1]
    rows = 1
    while 2 * rows * max(k, delta.m) <= SIMULATE_BLOCK:
        rows *= 2
    return k, rows


class TestSimulateYBlocks:
    """simulate_y against the one-shot oracle that holds every draw at once."""

    @pytest.mark.parametrize("m, facets", [(3, []), (3, [[0, 1]]), (40, [[0, 39]])])
    def test_bitwise_with_at_most_one_factor(self, m, facets):
        # with k <= 1 every sample entry is one product plus one scaled noise
        # term, so a draw taken out of stream order changes the bits
        delta = SimplicialComplex.from_facets(m, facets)
        gamma = random_params(np.random.default_rng(m + len(facets)), delta)
        k, rows = block_rows(delta, gamma)
        assert k == len(facets)
        for n in (2, 3, rows - 1, rows, rows + 1, 10_000):
            for seed in (0, 11):
                got = simulate_y(delta, gamma, n, seed).a
                assert np.array_equal(got, simulate_y_dense(delta, gamma, n, seed).a), (n, seed)

    @given(st.integers(2, 12), st.data(), st.integers(2, 5_000), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle(self, m, data, n, seed):
        facets = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=6,
                                             unique=True), max_size=6))
        delta = SimplicialComplex.from_facets(m, facets)
        gamma = random_params(np.random.default_rng(seed), delta)
        k = _gamma2(delta, gamma).shape[1]
        got = simulate_y(delta, gamma, n, seed).a
        want = simulate_y_dense(delta, gamma, n, seed).a
        # the product may run on another BLAS kernel: k-term sums, rounded anew
        assert np.abs(got - want).max() <= 4 * k * np.finfo(float).eps * np.abs(want).max()

    def test_memory_is_the_sample_array_and_a_block(self):
        delta = SimplicialComplex.from_facets(
            12, [[0, 1, 2, 3, 4, 5], [5, 6, 7, 8], [8, 9, 10, 11], [0, 6, 9], [1, 7, 10], [2, 11]])
        gamma = random_params(np.random.default_rng(8), delta)
        k, _ = block_rows(delta, gamma)
        n = 100_000
        peaks = []
        for simulate in (simulate_y, simulate_y_dense):
            simulate(delta, gamma, 10, 0)  # the complex's faces are built once
            tracemalloc.start()
            try:
                simulate(delta, gamma, n, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < n * 12 * 8 + 2 * SIMULATE_BLOCK * 8 + 256 * 1024
        assert peaks[1] > n * k * 8

    def test_sample_count_is_capped_before_any_draw(self, monkeypatch):
        delta = SimplicialComplex.from_facets(12, [[0, 1, 2]])
        gamma = random_params(np.random.default_rng(9), delta)
        cap = SIMULATE_MAX_ENTRIES // 12
        monkeypatch.setattr(np.random, "Generator", None)  # any draw would raise TypeError
        for n in (cap + 1, 10 ** 12, 1, 0, -5):
            with pytest.raises(ValueError, match=f"need 2 <= n <= {cap}, got {n}"):
                simulate_y(delta, gamma, n, seed=0)


class TestConditionalPrecision:
    def test_diagonal_only(self):
        delta = three_chain()
        gamma = FactorParams(delta, {((i,), i): float(i + 1) for i in range(3)})
        prec = conditional_precision(delta, gamma)
        assert np.allclose(prec.a, np.diag([1.0, 4.0, 9.0]))

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            delta = random_complex(rng, int(rng.integers(2, 8)))
            gamma = random_params(rng, delta)  # full density: nonzero singletons
            prec = conditional_precision(delta, gamma)
            target = phi(delta, gamma)
            assert np.abs(prec.a - target.a).max() <= 1e-9 * target.scale()

    def test_zero_singleton_rejected(self):
        delta = three_chain()
        gamma = FactorParams(delta, {((0, 1), 0): 1.0, ((0, 1), 1): 1.0,
                                     ((0,), 0): 1.0, ((1,), 1): 1.0})
        with pytest.raises(ZeroDiagonalParam):
            conditional_precision(delta, gamma)
