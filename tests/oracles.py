"""Reference implementations and helpers that only tests use.

Each reference is the direct (often exponential or quadratic) form of
something the library computes faster; tests compare the two on small
instances.  The helpers at the end build or inspect test inputs.
"""

import heapq
import itertools
import math
import operator
import sys
from collections import deque
from fractions import Fraction

import numpy as np

from psdcone.chordal import _perfect_check, is_chordal, maximum_cardinality_search
from psdcone.core import (PATTERN_TOL, Face, FactorParams, Graph, SimplicialComplex,
                          SymmetricMatrix, _malformed, as_face, face_key, induced_subcomplex,
                          induced_vertex_map)
from psdcone.cycle import CycleMatrix, cycle_edge_complex
from psdcone.errors import NotPsd, ZeroDiagonal
from psdcone.latent import _gamma2, _noise_sd
from psdcone.linalg import DEFAULT_TOL, _array_entries, _semidef_cholesky, path_det
from psdcone.param import PHI_DENSE_FACE, RAY_DROP_TOL, _column, _nonzero_columns
from psdcone.quotient import QuotientWitness
from psdcone.volume import _batch_masks


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


def neighbor_sets(g: Graph) -> list[set[int]]:
    """Per vertex, its neighbours as a set, built from ``g.edges`` alone."""
    nbrs = [set() for _ in range(g.m)]
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def chordless_cycle_through_by_sets(g: Graph, v: int, x: int, y: int):
    """``chordal._chordless_cycle_through`` on neighbour sets: a breadth-first
    search from x to y off v's other neighbours, neighbours in ascending order."""
    nbrs = neighbor_sets(g)
    banned = (nbrs[v] | {v}) - {x, y}
    prev = {x: None}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        if cur == y:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return tuple([v] + path[::-1])
        for w in sorted(nbrs[cur]):
            if w not in banned and w not in prev:
                prev[w] = cur
                queue.append(w)
    return None


def later_neighbours(g: Graph, order) -> list[int]:
    """Per position in order, the bitset of that vertex's neighbours after it in
    order, built from ``g.edges`` alone."""
    pos = {v: k for k, v in enumerate(order)}
    later = [0] * len(pos)
    for i, j in g.edges:
        first, last = (i, j) if pos[i] < pos[j] else (j, i)
        later[pos[first]] |= 1 << last
    return later


def chordless_cycle_from_mcs(g):
    """The witness of the reversed-MCS ordering's first violating triple, or None."""
    order = maximum_cardinality_search(g)[0][::-1]
    bad = _perfect_check(g, order, later_neighbours(g, order))
    return None if bad is None else chordless_cycle_through_by_sets(g, *bad)


def clique_complex_bk(g: Graph) -> SimplicialComplex:
    """The complex of all cliques of any graph, its facets by Bron-Kerbosch
    with pivoting on neighbour sets."""
    nbrs = neighbor_sets(g)
    cliques: list[tuple[int, ...]] = []

    def expand(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(nbrs[u] & p))
        for v in sorted(p - nbrs[pivot]):
            expand(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(g.m)), set())
    return SimplicialComplex.from_facets(g.m, cliques)


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
    ``gamma_edge`` and built the dense matrix with ``to_symmetric``;
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
        diag = [sum(gamma_edge(gamma, i, j) ** 2 for j in ((i - 1) % m, (i + 1) % m))
                for i in range(m)]
        cyc = [gamma_edge(gamma, k, (k + 1) % m) * gamma_edge(gamma, (k + 1) % m, k)
               for k in range(m)]
        sigma = CycleMatrix.from_arrays(diag, cyc)
        arr = sigma.to_symmetric()
        if np.linalg.eigvalsh(arr.a)[0] > 1e-6 * arr.scale():
            return sigma, gamma


def phi_outer_sum(delta: SimplicialComplex, gamma: FactorParams) -> np.ndarray:
    """``param.phi`` as a dense sum: each face's length-m column outer
    product added to the whole m x m array, faces in canonical order."""
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    out = np.zeros((delta.m, delta.m))
    for face in sorted({face for face, _ in gamma.values}, key=face_key):
        col = np.zeros(delta.m)
        for i in face:
            col[i] = gamma.values.get((face, i), 0.0)
        if np.any(col):
            out += col[:, None] * col  # np.outer(col, col) without its wrapper
    return out


def phi_symmetrized(delta: SimplicialComplex, gamma: FactorParams) -> SymmetricMatrix:
    """``param.phi`` as it symmetrized its (already symmetric) outer-product sum."""
    out = phi_outer_sum(delta, gamma)
    return SymmetricMatrix((out + out.T) / 2.0)


def cholesky(sigma: SymmetricMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The dense factor of ``linalg._semidef_cholesky``'s columns (no pivoting)."""
    ell = np.zeros((sigma.m, sigma.m))
    for k, col in enumerate(_semidef_cholesky(*_array_entries(sigma.a), tol)):
        if col:
            ell[col[0], k] = col[1]
    return ell


def tridiagonal_det(diagonal, offdiagonal) -> float:
    """Determinant of the symmetric tridiagonal matrix with the given bands.

    Three-term recurrence d_k = a_k d_{k-1} - b_{k-1}^2 d_{k-2}; the empty
    matrix has determinant 1.
    """
    return float(path_det(diagonal, [b * b for b in np.asarray(offdiagonal, dtype=float)]))


def semidef_cholesky_dense(arr: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``linalg._semidef_cholesky`` as a dense loop: each pivot updates the
    whole trailing block, and the factor comes back as an n x n array.

    Its PSD rule is written out here: a negative diagonal, or a nonzero row at
    a zero one, is not PSD; the pivot d counts as p = d / a_kk, and one at most
    tol needs p at least -tol.  With its rest of row squared in units of
    sqrt(a_kk a_ii) at most tol (p + tol), its column stays zero; else it is
    eliminated as the pivot tol a_kk.
    """
    n = arr.shape[0]
    diag = np.diagonal(arr).tolist()
    for k, x in enumerate(diag):
        if x < 0.0:
            raise NotPsd(f"negative diagonal entry {x!r} at position {k}")
        if x == 0.0 and np.any(arr[k]):
            raise NotPsd(f"nonzero entry in the row of the zero diagonal at position {k}")
    s = [math.sqrt(x) for x in diag]
    work = np.array(arr, dtype=float)
    ell = np.zeros((n, n))
    for k in range(n):
        if diag[k] == 0.0:
            continue  # a zero row: the column of L stays zero
        d = work[k, k]
        p = d / diag[k]
        if not p > tol:
            if not p >= -tol:
                raise NotPsd(f"pivot {p:.3e} at position {k} below -{tol:.0e}")
            r = sum(t * t for t in (v / s[k] / s[i]
                                    for i, v in enumerate(work[k + 1:, k].tolist(), k + 1) if v))
            if r <= tol * (p + tol):
                continue  # column of L stays zero
            d = tol * diag[k]
        root = np.sqrt(d)
        ell[k, k] = root
        if k + 1 < n:
            col = work[k + 1:, k] / root
            ell[k + 1:, k] = col
            work[k + 1:, k + 1:] -= np.outer(col, col)
    return ell


def exact_psd(arr, shift: float = 0.0) -> bool:
    """Whether arr + shift * diag(arr), for a matrix of floats arr, is PSD, decided
    exactly: every float is a dyadic rational, so a Fraction LDL^T has no
    rounding.  A negative pivot is not PSD; a zero pivot needs an exactly zero
    rest of its row, and drops out."""
    a = [[Fraction(x) for x in row] for row in np.asarray(arr, dtype=float).tolist()]
    n = len(a)
    for k in range(n):
        a[k][k] += Fraction(shift) * a[k][k]
    for k in range(n):
        p = a[k][k]
        if p < 0 or (p == 0 and any(a[i][k] for i in range(k + 1, n))):
            return False
        if p == 0:
            continue
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / p
                for j in range(k + 1, i + 1):
                    a[i][j] -= f * a[j][k]
    return True


def exact_cycle_verdict(sigma: CycleMatrix) -> tuple[bool, Fraction, Fraction | None]:
    """(member, slack, closing pivot) of a cycle-patterned matrix, exactly.

    Every float is a dyadic rational, so Fractions carry no rounding.  PSD-ness
    is ``exact_psd``'s.  The slack is the input form's matching expansion less
    twice the absolute cyclic product, min(det, det with one edge negated).
    The closing pivot is the correlation-form slack over the leading (m-1)
    minor of the correlation form, the last LDL^T pivot of whichever form has
    the smaller determinant; None unless every diagonal entry and that minor
    are positive.  Negating an edge keeps every proper principal minor, so a
    PSD matrix stays PSD under it exactly when the slack is >= 0, which is the
    paper's test for the image of the edge complex.
    """
    d = [Fraction(x) for x in sigma.diag]
    w = [Fraction(x) ** 2 for x in sigma.cyc]
    m = len(d)

    def path(diag, off2):  # the tridiagonal determinant's three-term recurrence
        prev, cur = Fraction(0), Fraction(1)
        for k, x in enumerate(diag):
            prev, cur = cur, x * cur - (off2[k - 1] * prev if k else 0)
        return cur

    matching = path(d, w[: m - 1]) - w[m - 1] * path(d[1: m - 1], w[1: m - 2])
    slack = matching - 2 * abs(math.prod(Fraction(x) for x in sigma.cyc))
    member = slack >= 0 and exact_psd(sigma.to_array())
    # slack_R / minor_R = (slack / prod d) / (lead / prod d[:m-1]) = slack / (d[m-1] lead)
    lead = path(d[: m - 1], w[: m - 2])
    return member, slack, slack / (d[m - 1] * lead) if min(d) > 0 and lead > 0 else None


def chordal_fiber_by_array(g: Graph, sigma: SymmetricMatrix, ordering,
                           tol: float = DEFAULT_TOL) -> FactorParams:
    """``chordal._fiber`` by the array route: the permuted copy of sigma, zeroed off
    the pattern, factored through ``linalg._array_entries``, each column's
    support checked to be a face of the clique complex."""
    perm = list(ordering.order)
    ix = np.ix_(perm, perm)
    arr = np.array(sigma.a[ix])
    arr[~pattern_mask_from_edges(g)[ix]] = 0.0
    delta = clique_complex_bk(g)
    values, columns = {}, []
    for col in _semidef_cholesky(*_array_entries(arr), tol):
        if col is None:
            continue
        entries = sorted([(perm[i], v) for i, v in zip(*col) if v != 0.0])
        clique = tuple([p for p, _ in entries])
        assert delta.has_face(clique), clique
        columns.append((clique, entries))
        values.update({(clique, p): v for p, v in entries})
    return FactorParams._trusted(delta, values, columns)


def perfect_check_scan(g: Graph, order) -> tuple[int, int, int] | None:
    """``chordal._perfect_check`` by the ordered pair scan at every vertex."""
    pos = {v: k for k, v in enumerate(order)}
    nbrs = neighbor_sets(g)
    for v in order:
        later = sorted((w for w in nbrs[v] if pos[w] > pos[v]),
                       key=lambda w: pos[w])
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not g.has_edge(later[a], later[b]):
                    return v, later[a], later[b]
    return None


def cycle_order_by_neighbors(g: Graph) -> list[int] | None:
    """``decide._cycle_order`` on neighbour sets: degrees from the sets, each
    step to the smallest neighbour other than the vertex just left."""
    nbrs = neighbor_sets(g)
    if g.m < 3 or len(g.edges) != g.m or any(len(s) != 2 for s in nbrs):
        return None
    order, prev = [0], None
    while len(order) < g.m:
        nxt = min(w for w in nbrs[order[-1]] if w != prev)
        prev = order[-1]
        order.append(nxt)
    return order if len(set(order)) == g.m else None


def edge_complex_by_neighbors(g: Graph) -> SimplicialComplex:
    """``core.edge_complex`` through the validating constructor: the vertices
    with an empty neighbour set as singletons, then the sorted edges."""
    singletons = tuple((v,) for v, s in enumerate(neighbor_sets(g)) if not s)
    return SimplicialComplex(g.m, singletons + tuple(sorted(g.edges)))


def graph_quotient_by_sets(g: Graph, block) -> Graph:
    """``quotient.graph_quotient`` on neighbour sets: a depth-first search grows
    each component of the eliminated vertices, and its outside neighbours are
    joined pairwise."""
    u = set(block)
    nbrs = neighbor_sets(g)
    keep = [v for v in range(g.m) if v not in u]
    relabel = induced_vertex_map(keep)
    edges = {(relabel[a], relabel[b]) for a, b in g.edges if a not in u and b not in u}
    seen: set[int] = set()
    for start in sorted(u):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for y in nbrs[stack.pop()]:
                if y in u and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        boundary = sorted({y for x in comp for y in nbrs[x] if y not in u})
        edges.update(itertools.combinations([relabel[y] for y in boundary], 2))
    return Graph.from_edges(len(keep), edges)


def single_vertex_quotient_faces(faces: set[frozenset], u: int) -> set[frozenset]:
    """Faces of the one-vertex quotient on original labels: faces avoiding u,
    plus unions of distinct face pairs through u with u removed."""
    out = {f for f in faces if u not in f}
    through = sorted((f for f in faces if u in f), key=lambda f: face_key(tuple(f)))
    for i in range(len(through)):
        for j in range(i + 1, len(through)):
            merged = (through[i] | through[j]) - {u}
            if merged:
                out.add(frozenset(merged))
    return out


def complex_quotient_by_faces(delta: SimplicialComplex, block) -> SimplicialComplex:
    """``quotient.complex_quotient`` by pairing every face (not facet) through
    each eliminated vertex; exponential in the facet size."""
    u = sorted(set(block))
    if not all(0 <= v < delta.m for v in u):
        raise ValueError("block outside ground set")
    keep = [v for v in range(delta.m) if v not in set(u)]
    if not keep:
        raise ValueError("block must be proper")
    faces = {frozenset(f) for f in delta.faces}
    for v in u:
        faces = single_vertex_quotient_faces(faces, v)
    relabel = induced_vertex_map(keep)
    facets = [tuple(sorted(relabel[v] for v in f)) for f in faces]
    return SimplicialComplex.from_facets(len(keep), facets)


def _lq_columns(block: np.ndarray) -> np.ndarray:
    """Lower-trapezoidal L with L L^T = block block^T (QR of the transpose)."""
    return np.linalg.qr(block.T, mode="r").T


def combine_columns_by_column(delta: SimplicialComplex, columns) -> FactorParams:
    """``param._combine_columns`` on (face, length-m vector) pairs, one column
    at a time."""
    pending: dict[Face, list[np.ndarray]] = {}
    heap: list[tuple[int, Face]] = []
    scale = 1.0

    def push(face: Face, col: np.ndarray):
        if face not in pending:
            heapq.heappush(heap, (-len(face), face))
            pending[face] = []
        pending[face].append(col)

    for face, col in columns:
        if not delta.has_face(face):
            raise ValueError(f"column support {face} is not a face")
        scale = max(scale, float(np.abs(col).max()))
        push(as_face(face), np.asarray(col, dtype=float))

    out: dict[tuple[Face, int], float] = {}
    while heap:
        _, face = heapq.heappop(heap)
        cols = pending.pop(face)
        idx = list(face)
        block = np.array([c[idx] for c in cols]).T  # |face| x k
        ell = _lq_columns(block)
        for i, v in zip(face, ell[:, 0]):
            if v != 0.0:
                out[(face, i)] = v
        for j in range(1, ell.shape[1]):
            col = ell[:, j]
            supp = [i for i, v in zip(face, col) if abs(v) > RAY_DROP_TOL * scale]
            if not supp:
                continue
            sub = as_face(supp)
            full = np.zeros(delta.m)
            for i, v in zip(face, col):
                if abs(v) > RAY_DROP_TOL * scale:
                    full[i] = v
            push(sub, full)
    return FactorParams(delta, out)


def combine_blocks_by_column(delta: SimplicialComplex, blocks) -> FactorParams:
    """``param._combine_columns`` on its (face, k x m block) input, one row at
    a time through ``combine_columns_by_column``."""
    return combine_columns_by_column(delta, [(face, row) for face, rows in blocks
                                             for row in np.asarray(rows, dtype=float)])


def params_from_json_by_record(delta: SimplicialComplex, d) -> FactorParams:
    """``FactorParams.from_json_dict`` making every record's face canonical and
    building through the validating constructor."""
    vals = {}
    try:
        for rec in d["values"]:
            face = as_face(operator.index(v) - 1 for v in rec["face"])
            vals[(face, operator.index(rec["vertex"]) - 1)] = float(rec["gamma"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise _malformed("params", exc) from None
    return FactorParams(delta, vals)


def items_by_sort(gamma: FactorParams) -> list:
    """``FactorParams.items``: every stored key sorted by (size, face, vertex),
    zeros skipped (stored faces are canonical)."""
    return [(key, gamma.values[key])
            for key in sorted(gamma.values, key=lambda k: (len(k[0]), k[0], k[1]))
            if gamma.values[key] != 0.0]


def params_json_by_items(gamma: FactorParams) -> dict:
    """``FactorParams.to_json_dict``, one record per item of ``items_by_sort``."""
    return {"values": [{"face": [v + 1 for v in face], "vertex": i + 1, "gamma": val}
                       for (face, i), val in items_by_sort(gamma)]}


def phi_by_face_entries(delta: SimplicialComplex, gamma: FactorParams) -> np.ndarray:
    """``param.phi``'s array, its faces grouped from ``values`` and sorted by
    (size, face), their pairs in insertion order."""
    by_face: dict[Face, list[tuple[int, float]]] = {}
    for (face, i), v in gamma.values.items():
        if v != 0.0:
            by_face.setdefault(face, []).append((i, v))
    faces = [e for _, e in sorted(by_face.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    m = delta.m
    split = next((n for n, e in enumerate(faces) if len(e) > PHI_DENSE_FACE), len(faces))
    acc: dict[int, float] = {}
    for entries in faces[:split]:
        for i, ci in entries:
            for j, cj in entries:
                acc[i * m + j] = acc.get(i * m + j, 0.0) + ci * cj
    out = np.zeros(m * m)
    out[list(acc)] = list(acc.values())
    out = out.reshape(m, m)
    for entries in faces[split:]:
        col = _column(entries, m)
        out += col[:, None] * col
    return out


def cone_add_by_column(delta: SimplicialComplex, g1: FactorParams,
                       g2: FactorParams) -> FactorParams:
    """``param.cone_add`` through ``combine_columns_by_column``."""
    if g1.complex != delta or g2.complex != delta:
        raise ValueError("both parameter vectors must live on the given complex")
    cols = list(_nonzero_columns(g1)) + list(_nonzero_columns(g2))
    return combine_columns_by_column(delta, cols)


def submatrix_witness_by_column(delta: SimplicialComplex, gamma: FactorParams,
                                subset) -> FactorParams:
    """``param.submatrix_witness`` through ``combine_columns_by_column``."""
    a = sorted(set(subset))
    if not a or len(a) >= delta.m:
        if len(a) == delta.m:
            raise ValueError("subset must be proper")
        raise ValueError("subset must be nonempty")
    sub = induced_subcomplex(delta, a)
    relabel = induced_vertex_map(a)
    aset = set(a)
    cols = []
    for face, col in _nonzero_columns(gamma):
        inter = [v for v in face if v in aset]
        if not inter:
            continue
        restricted = np.zeros(len(a))
        for v in inter:
            restricted[relabel[v]] = col[v]
        if np.any(restricted != 0.0):
            cols.append((as_face(relabel[v] for v in inter), restricted))
    return combine_columns_by_column(sub, cols)


def schur_witness_by_pairs(delta: SimplicialComplex, gamma: FactorParams, u: int,
                           tol: float = DEFAULT_TOL) -> QuotientWitness:
    """``quotient.schur_witness`` building one induced-face column per pair of
    faces through u, on the face-pairing quotient."""
    if gamma.complex != delta:
        raise ValueError("parameters belong to a different complex")
    if not 0 <= u < delta.m:
        raise ValueError("vertex outside ground set")
    m = delta.m
    cols = dict(_nonzero_columns(gamma))
    # the diagonal of phi(gamma), each entry summed as the scalar sum would be
    diag = sum((col ** 2 for col in cols.values()), np.zeros(m))
    sigma_uu = diag[u]
    if sigma_uu <= tol * diag.max():
        raise ZeroDiagonal(f"diagonal value {float(sigma_uu)!r} at vertex {u} too small")
    root = np.sqrt(sigma_uu)

    quot = complex_quotient_by_faces(delta, [u])
    keep = [v for v in range(m) if v != u]
    relabel = induced_vertex_map(keep)

    def restrict(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(m - 1)
        for v in keep:
            out[relabel[v]] = vec[v]
        return out

    merged = []
    for face, col in cols.items():
        if u not in face:
            merged.append((as_face(relabel[v] for v in face), restrict(col)))
    through = sorted((f for f in cols if u in f), key=face_key)
    for i in range(len(through)):
        for j in range(i + 1, len(through)):
            f1, f2 = through[i], through[j]
            col = cols[f1] * cols[f2][u] - cols[f2] * cols[f1][u]
            col[u] = 0.0
            if not np.any(col):
                continue
            induced = (frozenset(f1) | frozenset(f2)) - {u}
            face = as_face(relabel[v] for v in induced)
            merged.append((face, restrict(col) / root))
    params = combine_columns_by_column(quot, merged)
    return QuotientWitness(quot, params, relabel, (u,))


def sequential_staged_candidates(draw, n: int, m: int):
    """The volume sampler's staging as it ran on one thread: candidates among
    `n` whose leading minors 1..m-1 are positive, in stream order.

    ``draw(j, rows)`` returns coordinate ``j`` of the candidates ``rows``
    (ascending row numbers), with ``j < m`` the diagonal entry ``d_j`` before
    its absolute value is taken and ``j >= m`` the cycle entry ``c_(j-m)``.
    ``d_0``, ``d_1`` and ``c_0`` are drawn for all candidates, then
    ``(d_k, c_(k-1))`` only for those whose minors 1..k are positive, and the
    last diagonal entry and the last two cycle entries (which enter no
    leading minor below m) only for the survivors.  Returns their row numbers
    and their full ``(len(rows), m)`` diagonal and cycle coordinates.
    """
    stages = []  # (rows, coordinate numbers, values) of each stage's draws

    def stage(rows, *js):
        xs = [np.abs(draw(j, rows)) if j < m else draw(j, rows) for j in js]
        stages.append((rows, js, xs))
        return xs

    rows = np.arange(n)
    d0, d1, c0 = stage(rows, 0, 1, m)
    # The two latest leading minors, by the recurrence of linalg.tridiagonal_minors.
    # Minor 1 is d_0 >= 0, and minor 2 = d_0 d_1 - c_0^2 is positive only where it is.
    prev, cur = d0, d0 * d1 - np.square(c0)
    for k in range(2, m - 1):
        live = np.flatnonzero(cur > 0)
        rows, prev, cur = rows[live], prev[live], cur[live]
        d, c = stage(rows, k, m + k - 1)
        prev, cur = cur, d * cur - np.square(c) * prev
    rows = rows[cur > 0]
    stage(rows, m - 1, 2 * m - 2, 2 * m - 1)
    coords = np.empty((rows.size, 2 * m))
    for at, js, xs in stages:
        pos = np.searchsorted(at, rows)
        for j, x in zip(js, xs):
            coords[:, j] = x[pos]
    return rows, coords[:, :m], coords[:, m:]


def sequential_count_stream(m: int, quota: int, seed_seq: np.random.SeedSequence,
                            batch: int, progress=False) -> tuple[int, int, int]:
    """The volume sampler's stream count, drawing each stage's normals inline:
    consume one RNG stream until `quota` PSD samples are taken, in stream order.

    Returns (PSD samples taken, members among them, candidates drawn up to
    the last sample taken).
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))

    def draw(j, rows):
        return rng.standard_normal(rows.size)

    taken = 0
    members = 0
    drawn = 0
    while taken < quota:
        rows, diag, cyc = sequential_staged_candidates(draw, batch, m)
        pd, member = _batch_masks(diag, cyc)
        idx = np.flatnonzero(pd)[: quota - taken]
        taken += idx.size
        members += int(member[idx].sum())
        drawn += batch if taken < quota else int(rows[idx[-1]]) + 1
        if progress and drawn % (10 * batch) == 0:
            print(f"[volume m={m}] {taken}/{quota} psd samples after {drawn} draws "
                  f"(acceptance {taken / drawn:.3g})", file=sys.stderr)
    return taken, members, drawn


def simulate_y_dense(delta: SimplicialComplex, gamma: FactorParams, n: int,
                     seed: int) -> SymmetricMatrix:
    """``latent.simulate_y`` holding every draw at once: the n x k factors, then
    the n x m noise, from one PCG64 stream, and one n-row product."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g2 = _gamma2(delta, gamma)
    sd = _noise_sd(delta, gamma)
    h = rng.standard_normal((n, g2.shape[1]))
    eps = rng.standard_normal((n, delta.m)) * np.abs(sd)
    y = h @ g2.T + eps
    cov = (y.T @ y) / n
    return SymmetricMatrix((cov + cov.T) / 2.0)


def path_graph(m: int) -> Graph:
    return Graph.from_edges(m, ((i, i + 1) for i in range(m - 1)))


def complete_graph(m: int) -> Graph:
    return Graph.from_edges(m, itertools.combinations(range(m), 2))


def gamma_edge(gamma: FactorParams, i: int, j: int) -> float:
    """gamma_{i,{i,j}}: the parameter of vertex i on edge {i,j}."""
    return gamma.get((i, j) if i < j else (j, i), i)


def is_clique(g: Graph, vertices) -> bool:
    """Every two of the vertices are adjacent in g."""
    vs = sorted(set(vertices))
    return all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))


def pattern_mask_from_edges(g: Graph) -> np.ndarray:
    """Graph.pattern_mask built from an array of the edge tuples, read-only."""
    mask = np.eye(g.m, dtype=bool)
    if g.edges:
        i, j = np.array(list(g.edges)).T
        mask[i, j] = mask[j, i] = True
    mask.setflags(write=False)
    return mask


def pattern_graph(sigma: SymmetricMatrix, tol: float = PATTERN_TOL) -> Graph:
    """Graph of the off-diagonal entries (i, j) above tol * sqrt(|a_ii a_jj|)."""
    a = sigma.a
    edges = [(i, j) for i in range(sigma.m) for j in range(i + 1, sigma.m)
             if abs(a[i, j]) > tol * (np.sqrt(abs(a[i, i])) * np.sqrt(abs(a[j, j])))]
    return Graph.from_edges(sigma.m, edges)


def scaled_params(gamma: FactorParams, c: float) -> FactorParams:
    """Every parameter of gamma times c."""
    return FactorParams(gamma.complex, {k: c * v for k, v in gamma.values.items()})


def with_value(gamma: FactorParams, face, vertex, value) -> FactorParams:
    """gamma with the parameter of vertex on face set to value."""
    vals = dict(gamma.values)
    vals[(as_face(face), int(vertex))] = float(value)
    return FactorParams(gamma.complex, vals)


def find_chordless_cycle(g: Graph) -> tuple[int, ...] | None:
    """Some induced cycle of length >= 4, or None if the graph is chordal."""
    ok, info = is_chordal(g)
    return None if ok else info


def random_tree(rng: np.random.Generator, m: int) -> Graph:
    edges = [(int(rng.integers(0, v)), v) for v in range(1, m)]
    return Graph.from_edges(m, edges)


def random_psd_matrix(rng: np.random.Generator, m: int, rank: int | None = None) -> SymmetricMatrix:
    r = rank if rank is not None else m
    b = rng.standard_normal((m, r))
    return SymmetricMatrix(b @ b.T / r)
