"""Reference implementations that only tests use.

Each is the direct (often exponential or quadratic) form of something the
library computes faster; tests compare the two on small instances.
"""

import itertools

import numpy as np

from psdcone.chordal import (_chordless_cycle_through, _perfect_check,
                             maximum_cardinality_search)
from psdcone.core import FactorParams, SimplicialComplex, as_face
from psdcone.cycle import CycleMatrix, cycle_edge_complex


def has_face_scan(delta: SimplicialComplex, face) -> bool:
    """Nonempty and inside some facet, by one frozenset test per facet."""
    fs = frozenset(face)
    if not fs:
        return False
    return any(fs <= frozenset(facet) for facet in delta.facets)


def dominated_scan(sets) -> set:
    """The sets strictly inside another one, by the pairwise O(F^2) scan."""
    fsets = [frozenset(s) for s in sets]
    return {a for a in fsets if any(a < b for b in fsets)}


def chordless_cycle_from_mcs(g):
    """The witness of the reversed-MCS ordering's first violating triple, or None."""
    bad = _perfect_check(g, maximum_cardinality_search(g)[::-1])
    return None if bad is None else _chordless_cycle_through(g, *bad)


def chain_quotient_faces(delta: SimplicialComplex, block) -> set[frozenset]:
    """Reference implementation of the quotient by chains: a kept set A is a
    face iff it is one already, or distinct eliminated vertices u_1..u_k and
    distinct faces F_1..F_{k+1} exist with u_i in F_i and F_{i+1}, and A is
    the union of the F_i minus the eliminated block.

    Exponential; meant as an oracle on small instances.
    """
    u = set(block)
    faces = [frozenset(f) for f in delta.faces]
    out = {f for f in faces if not (f & u)}
    through = [f for f in faces if f & u]

    def extend(used_u: frozenset, used_f: tuple, union: frozenset, last: frozenset):
        kept = union - u
        if kept:
            out.add(kept)
        for uu in sorted(last & u):
            if uu in used_u:
                continue
            for nxt in through:
                if nxt in used_f or uu not in nxt:
                    continue
                extend(used_u | {uu}, used_f + (nxt,), union | nxt, nxt)

    for f in through:
        extend(frozenset(), (f,), f, f)
    return {f for f in out if f}


def expand_edge_signs(gamma: FactorParams) -> list[FactorParams]:
    """All parameter vectors obtained by flipping the sign of both parameters
    on any subset of edges; these have the same image."""
    delta = gamma.complex
    m = delta.m
    edges = [as_face((k, (k + 1) % m)) for k in range(m)]
    out = []
    for signs in itertools.product((1.0, -1.0), repeat=m):
        vals = {}
        for (face, i), v in gamma.values.items():
            s = signs[edges.index(face)]
            vals[(face, i)] = s * v
        out.append(FactorParams(delta, vals))
    return out


def closure_mobius_coefficients(diag, off_sq) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, d) such that after propagating the squared-parameter
    recurrence once around the cycle, x^2 must satisfy x^2 = (a x^2 + b)/(c x^2 + d).

    off_sq entries are the *squared* cycle entries and may be negative, which
    exercises the recurrence with formally complex data.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for dk, sk in zip(diag, off_sq):
        a, b, c, d = dk * a - sk * c, dk * b - sk * d, a, b
    return a, b, c, d


def random_cycle_member_via_params(rng, m: int, zero_edges=()):
    """``instances.random_cycle_member`` as it read its entries back through
    ``FactorParams.gamma_edge`` and built the dense matrix with ``to_symmetric``;
    the library version must draw the same stream and return equal values."""
    delta = cycle_edge_complex(m)
    while True:
        values = {}
        for k in range(m):
            u, v = k, (k + 1) % m
            face = tuple(sorted((u, v)))
            pu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            pv = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            if k in zero_edges:
                pu = 0.0
            values[(face, u)] = pu
            values[(face, v)] = pv
        gamma = FactorParams(delta, values)
        diag = [sum(gamma.gamma_edge(i, j) ** 2 for j in ((i - 1) % m, (i + 1) % m))
                for i in range(m)]
        cyc = [gamma.gamma_edge(k, (k + 1) % m) * gamma.gamma_edge((k + 1) % m, k)
               for k in range(m)]
        sigma = CycleMatrix.from_arrays(diag, cyc)
        arr = sigma.to_symmetric()
        if np.linalg.eigvalsh(arr.a)[0] > 1e-6 * arr.scale():
            return sigma, gamma
