"""Random instance generators shared by the self-test command and the test suite."""

from __future__ import annotations

import numpy as np

from .core import FactorParams, Graph, SimplicialComplex, tolerance_scale
from .cycle import CycleMatrix, _edge_params, cycle_edge_complex


def random_chordal_graph(rng: np.random.Generator, m: int) -> Graph:
    """Chordal graph built so that 0..m-1 is a perfect elimination ordering:
    each vertex's later neighborhood is a vertex plus a subset of that
    vertex's own later neighborhood."""
    later: list[set[int]] = [set() for _ in range(m)]
    for v in range(m - 2, -1, -1):
        if rng.random() < 0.15:
            continue  # isolated-from-later vertex
        p = int(rng.integers(v + 1, m))
        pool = sorted(later[p])
        take = {u for u in pool if rng.random() < 0.5}
        later[v] = {p} | take
    edges = [(v, u) for v in range(m) for u in later[v]]
    return Graph.from_edges(m, edges)


def random_complex(rng: np.random.Generator, m: int, n_facets: int | None = None,
                   max_size: int = 4) -> SimplicialComplex:
    if n_facets is None:
        n_facets = int(rng.integers(1, m + 1))
    facets = []
    for _ in range(n_facets):
        size = int(rng.integers(1, min(max_size, m) + 1))
        facets.append(rng.choice(m, size=size, replace=False).tolist())
    return SimplicialComplex.from_facets(m, facets)


def random_params(rng: np.random.Generator, delta: SimplicialComplex,
                  density: float = 1.0, low: float = 0.5, high: float = 2.0) -> FactorParams:
    """Parameters with magnitudes bounded away from zero and random signs."""
    values = {}
    for face, i in delta.incidences():
        if rng.random() <= density:
            mag = rng.uniform(low, high)
            values[(face, i)] = float(rng.choice([-1.0, 1.0]) * mag)
    return FactorParams(delta, values)


def random_cycle_member(rng: np.random.Generator, m: int,
                        zero_edges: tuple[int, ...] = ()) -> tuple[CycleMatrix, FactorParams]:
    """A positive definite member of the cycle image with its generating
    parameters (diagonal parameters zero); optionally force exact zeros of
    one parameter on the listed edges.  Draws whose image is numerically
    near-singular are rejected: fiber solving is contractually definite-only.
    """
    delta = cycle_edge_complex(m)
    while True:
        tails, heads = [], []  # parameters of vertices k and k+1 on edge k
        for k in range(m):
            # each sign is the draw rng.choice([-1.0, 1.0]) makes internally,
            # rng.integers(0, 2), at a quarter of the cost: same stream, same values
            pu = rng.uniform(0.5, 2.0) if rng.integers(0, 2) else -rng.uniform(0.5, 2.0)
            pv = rng.uniform(0.5, 2.0) if rng.integers(0, 2) else -rng.uniform(0.5, 2.0)
            if k in zero_edges:
                pu = 0.0
            tails.append(pu)
            heads.append(pv)
        # vertex i carries heads[i-1] on edge i-1 and tails[i] on edge i
        diag = [sum((heads[i - 1] ** 2, tails[i] ** 2)) for i in range(m)]
        cyc = [tails[k] * heads[k] for k in range(m)]
        sigma = CycleMatrix.from_arrays(diag, cyc)
        arr = sigma.to_array()
        if np.linalg.eigvalsh(arr)[0] > 1e-6 * tolerance_scale(arr):
            return sigma, _edge_params(delta, tails, heads)


def random_psd_cycle_matrix(rng: np.random.Generator, m: int) -> CycleMatrix:
    """Rejection-sample a PSD matrix with the cycle pattern (half-normal diagonal)."""
    from .linalg import is_psd

    while True:
        diag = np.abs(rng.standard_normal(m))
        cyc = rng.standard_normal(m)
        cand = CycleMatrix.from_arrays(diag, cyc)
        if is_psd(cand.to_symmetric(), 0.0).is_psd:
            return cand


def random_cycle_pattern_matrix(rng: np.random.Generator, m: int) -> CycleMatrix:
    """Unconstrained symmetric matrix with the cycle pattern."""
    return CycleMatrix.from_arrays(rng.standard_normal(m), rng.standard_normal(m))
