"""Seeded benchmark inputs, each op labelled with the outcome it must produce.

Inputs are built with ``psdcone.instances``, numpy and the constructors of
the core types only: no decision code of the library (membership, fibers,
phi, PSD tests) is used to make or to label an op.  Everything written to disk is what the CLI reads; the labels
stay in the benchmark.

Ops are laid out in rounds, and each round holds the same mix of sizes and
classes in a fixed order, so any prefix of the op list has the workload's
stated mix.  The seed only changes the random instances inside the slots.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from psdcone.core import SimplicialComplex
from psdcone.cycle import counterexample_sigma
from psdcone.instances import (random_chordal_graph, random_cycle_member,
                               random_params)

# cycle-decide: a round holds, for every m, two PD members, one PSD
# non-member and one non-PSD input.  The counterexample family's slack
# clears -1e3*tol only for m <= 16, so at m = 32 that slot is non-PSD.
CYCLE_MS = (5, 8, 16, 32)
CYCLE_ROUNDS = 25
COUNTEREXAMPLE_MAX_M = 16

# chordal-decide: per m, members at density 0.7 and 1.0 (two of each) and
# one non-PSD input; every input is decided by `membership` and by
# `fiber --chordal`.
CHORDAL_MS = (16, 32, 64)
CHORDAL_ROUNDS = 20

# complex-build: per m, one complex of random facets with the sizes below
# (at most 6 vertices), driven through five construction subcommands.  The
# sizes are fixed because the cost of every subcommand grows with the face
# count: with instances.random_complex's random facet count and sizes the
# cost per complex had a coefficient of variation near 1 (0.27 with these
# sizes), so a seed's few largest complexes set its figures.
COMPLEX_FACETS = {8: (6, 4, 3, 2), 12: (6, 4, 4, 3, 3, 2)}
COMPLEX_ROUNDS = 40

# volume-sample: one op is `volume --m 5` then `volume --m 7` at the same N
# and seed.  The pair keeps the op latency unimodal.  N sits halfway between
# whole batches of draws at m = 7 (about 331 PSD samples per batch of
# 100,000), so every seed needs exactly 4 batches there and 1 at m = 5.
VOLUME_MS = (5, 7)
VOLUME_SAMPLES = 1160
VOLUME_SEEDS = 24

# log10 of the diagonal congruence D is uniform in [-1, 1].
LOG10_D = 1.0
# Non-PSD inputs: a member shifted down to min eigenvalue -0.05 * max|entry|.
NOT_PSD_SHIFT = 0.05


@dataclass
class Op:
    """One CLI operation: one or more argv lists and the expected outcome."""

    workload: str
    kind: str
    m: int
    argvs: list
    label: dict = field(default_factory=dict)


class _Writer:
    """Writes JSON input files under one directory with unique names."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def __call__(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _gram(m: int, gamma) -> np.ndarray:
    """Gamma Gamma^T from a FactorParams' stored values (numpy only)."""
    cols: dict = {}
    for (face, i), v in gamma.values.items():
        cols.setdefault(face, np.zeros(m))[i] = v
    g = np.column_stack(list(cols.values()))
    return g @ g.T


def _shift_not_psd(a: np.ndarray) -> np.ndarray:
    lo = float(np.linalg.eigvalsh(a)[0])
    return a - (lo + NOT_PSD_SHIFT * float(np.abs(a).max())) * np.eye(a.shape[0])


def _congruence(rng, a: np.ndarray, edges):
    """Random sign and scale congruence D S a S D, then a random relabelling.

    Returns the transformed matrix and the relabelled 1-based edge list.
    Membership, PSD-ness and the graph pattern are invariant under all three.
    """
    m = a.shape[0]
    d = 10.0 ** rng.uniform(-LOG10_D, LOG10_D, m) * rng.choice([-1.0, 1.0], m)
    b = d[:, None] * a * d[None, :]
    perm = rng.permutation(m)
    out = np.empty_like(b)
    out[np.ix_(perm, perm)] = b
    new_edges = sorted(sorted((int(perm[i]) + 1, int(perm[j]) + 1)) for i, j in edges)
    return out, new_edges


def _write_decision(write, m, a, edges):
    mpath = write({"m": m, "entries": a.tolist()})
    gpath = write({"m": m, "edges": edges})
    return mpath, gpath


def cycle_decide(rng, write) -> list[Op]:
    ops = []
    for _ in range(CYCLE_ROUNDS):
        for slot in ("member", "member", "nonmember", "not_psd"):
            for m in CYCLE_MS:
                kind = slot
                if slot == "nonmember" and m > COUNTEREXAMPLE_MAX_M:
                    kind = "not_psd"
                if kind == "nonmember":
                    rho = 1 + 1 / (m - 1) if m % 2 else -1 - 1 / (m - 1)  # window midpoint
                    a = counterexample_sigma(m, rho).to_symmetric().a
                else:
                    a = random_cycle_member(rng, m)[0].to_symmetric().a
                    if kind == "not_psd":
                        a = _shift_not_psd(a)
                edges = [(k, (k + 1) % m) for k in range(m)]
                a, edges = _congruence(rng, a, edges)
                mpath, gpath = _write_decision(write, m, a, edges)
                ops.append(Op("cycle-decide", f"cycle-{kind}", m,
                              [["membership", "--matrix", mpath, "--graph", gpath]],
                              {"verdict": kind, "matrix": a, "edges": edges}))
    return ops


def _clique_facets(g) -> list[list[int]]:
    """Maximal cliques of a random_chordal_graph, whose order 0..m-1 is a
    perfect elimination ordering: each is a vertex plus its later neighbours."""
    cands = [frozenset({v} | {w for w in g.neighbors(v) if w > v}) for v in range(g.m)]
    return [sorted(c) for c in set(cands) if not any(c < o for o in cands)]


def chordal_decide(rng, write) -> list[Op]:
    ops = []
    for _ in range(CHORDAL_ROUNDS):
        for slot in (0.7, 1.0, 0.7, 1.0, "not_psd"):
            for m in CHORDAL_MS:
                g = random_chordal_graph(rng, m)
                delta = SimplicialComplex.from_facets(m, _clique_facets(g))
                density = 0.7 if slot == "not_psd" else slot
                a = _gram(m, random_params(rng, delta, density=density))
                kind = "member"
                if slot == "not_psd":
                    kind = "not_psd"
                    a = _shift_not_psd(a)
                a, edges = _congruence(rng, a, sorted(g.edges))
                mpath, gpath = _write_decision(write, m, a, edges)
                label = {"verdict": kind, "matrix": a, "edges": edges}
                ops.append(Op("chordal-decide", f"chordal-{kind}", m,
                              [["membership", "--matrix", mpath, "--graph", gpath]], label))
                ops.append(Op("chordal-decide", f"fiber-{kind}", m,
                              [["fiber", "--chordal", "--matrix", mpath, "--graph", gpath]],
                              label))
    return ops


def complex_build(rng, write) -> list[Op]:
    ops = []
    for _ in range(COMPLEX_ROUNDS):
        for m, sizes in COMPLEX_FACETS.items():
            delta = SimplicialComplex.from_facets(
                m, [rng.choice(m, size=s, replace=False).tolist() for s in sizes])
            gamma = random_params(rng, delta)
            facets = [list(f) for f in delta.facets]
            cpath = write({"m": m, "facets": [[v + 1 for v in f] for f in facets]})
            ppath = write(gamma.to_json_dict())
            label = {"facets": facets, "sigma": _gram(m, gamma)}
            # Eliminate a vertex of the 6-vertex facet that lies in the fewest
            # other facets.  The witness pairs the faces through the vertex, so
            # its cost grows with their square; this keeps every witness near
            # the 32 faces that the big facet alone puts through the vertex.
            big = delta.facets[-1]
            load = [sum(v in f for f in delta.facets) for v in big]
            vertex = int(rng.choice([v for v, n in zip(big, load) if n == min(load)])) + 1
            block = sorted(int(v) + 1 for v in
                           rng.choice(m, size=int(rng.integers(1, 3)), replace=False))
            sim_seed = int(rng.integers(0, 2 ** 31))
            src = ["--complex", cpath]
            both = src + ["--params", ppath]
            for kind, argv, extra in (
                ("phi", ["phi"] + both, {}),
                ("schur-witness", ["schur-witness"] + both + ["--vertex", str(vertex)],
                 {"vertex": vertex}),
                ("quotient", ["quotient"] + src + ["--remove", ",".join(map(str, block))],
                 {"block": block}),
                ("simulate", ["simulate"] + both + ["--seed", str(sim_seed)], {}),
                ("digraph", ["digraph"] + src, {}),
            ):
                ops.append(Op("complex-build", kind, m, [argv], dict(label, **extra)))
    return ops


def volume_sample(rng, write) -> list[Op]:
    del write  # the volume command takes no input file
    ops = []
    for seed in rng.choice(2 ** 31, size=VOLUME_SEEDS, replace=False):
        argvs = [["volume", "--m", str(m), "--samples", str(VOLUME_SAMPLES),
                  "--seed", str(int(seed)), "--workers", "1"] for m in VOLUME_MS]
        ops.append(Op("volume-sample", "volume", 0, argvs,
                      {"ms": VOLUME_MS, "samples": VOLUME_SAMPLES, "seed": int(seed)}))
    return ops


WORKLOADS = {
    "cycle-decide": cycle_decide,
    "chordal-decide": chordal_decide,
    "volume-sample": volume_sample,
    "complex-build": complex_build,
}

# Ops per pass of the traced run: whole rounds, so the pass has the mix.
# cycle-decide takes 8 rounds so that some m = 5 non-member is decided
# correctly (each is with probability about 0.68) and its calls are checked.
TRACE_OPS = {
    "cycle-decide": 8 * 4 * len(CYCLE_MS),
    "chordal-decide": 2 * 5 * 2 * len(CHORDAL_MS),
    "volume-sample": 4,
    "complex-build": 5 * 5 * len(COMPLEX_FACETS),
}


def generate(workload: str, seed: int, directory: str) -> list[Op]:
    """The workload's op list for this seed; input files go under directory."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, _Writer(directory))
