"""Exact membership and fibers for the edge complex of a chordless cycle.

A PSD matrix with the m-cycle zero pattern lies in the image of the edge
parametrization iff its matching expansion dominates twice the absolute
cyclic product; equivalently iff negating any single cycle edge keeps the
matrix PSD.  Fibers over positive definite members are finite: fixing the
squared parameter at one edge to a root of a quartic determines everything
else by propagation around the cycle, giving two solutions up to per-edge
sign flips (2^(m+1) points in total).

The image is invariant under positive diagonal congruence, since
``D Gamma Gamma^T D = (D Gamma)(D Gamma)^T`` keeps every support.  Decisions
and fibers therefore work on the correlation form ``D^-1/2 Sigma D^-1/2``
(unit diagonal, ``r_k = c_k / sqrt(d_k d_(k+1))``) with one dimensionless
tolerance, in O(m) Python float arithmetic.

Vertex convention: 0-based; edge k joins vertices k and (k+1) mod m, and
``cyc[k]`` holds that entry, so ``cyc[m-1]`` is the wrap-around entry.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (PATTERN_TOL, FactorParams, Graph, SimplicialComplex,
                   SymmetricMatrix, cycle_graph, edge_complex)
from .errors import (Degenerate, InternalInconsistency, NotMember, NotPsd,
                     PatternViolation)
# is_psd is not called here; perfbench/spans.py wraps it by this name
from .linalg import DEFAULT_TOL, is_psd, path_det, zero_pivot  # noqa: F401


@functools.lru_cache(maxsize=64)  # one entry per documented size m <= 64
def _cycle_pattern(m: int) -> Graph:
    """The m-cycle graph 0 - 1 - ... - (m-1) - 0."""
    return cycle_graph(m)


@functools.lru_cache(maxsize=64)
def cycle_edge_complex(m: int) -> SimplicialComplex:
    """The complex whose facets are the m cycle edges."""
    return edge_complex(_cycle_pattern(m))


@dataclass(frozen=True)
class CycleMatrix:
    """Symmetric matrix supported on the m-cycle pattern: a diagonal and m cycle entries."""

    diag: tuple[float, ...]
    cyc: tuple[float, ...]

    def __post_init__(self):
        if len(self.diag) < 3 or len(self.cyc) != len(self.diag):
            raise ValueError("need m >= 3 diagonal entries and m cycle entries")
        if not all(map(math.isfinite, self.diag + self.cyc)):
            raise ValueError("entries must be finite")

    @property
    def m(self) -> int:
        return len(self.diag)

    def to_array(self) -> np.ndarray:
        m = self.m
        arr = np.diag(np.asarray(self.diag, dtype=float))
        for k in range(m):
            i, j = k, (k + 1) % m
            arr[i, j] = self.cyc[k]
            arr[j, i] = self.cyc[k]
        return arr

    def to_symmetric(self) -> SymmetricMatrix:
        return SymmetricMatrix(self.to_array())

    @classmethod
    def from_symmetric(cls, sigma: SymmetricMatrix, tol: float = PATTERN_TOL) -> "CycleMatrix":
        m = sigma.m
        if m < 3:
            raise ValueError("cycle pattern needs m >= 3")
        if not sigma.respects_pattern(_cycle_pattern(m), tol):
            raise PatternViolation("matrix has a nonzero entry off the cycle pattern")
        a = sigma.a
        return cls(tuple(a.diagonal().tolist()),
                   tuple(a[k, (k + 1) % m].item() for k in range(m)))

    @classmethod
    def from_arrays(cls, diag, cyc) -> "CycleMatrix":
        return cls(tuple(map(float, diag)), tuple(map(float, cyc)))


def matching_sum(sigma: CycleMatrix) -> float:
    """Signed matching expansion: sum over matchings M of the cycle of
    (-1)^|M| * prod of squared matched entries * prod of unmatched diagonals.

    Matchings of a cycle split on the wrap edge, so two tridiagonal
    determinants suffice: the full path minus the wrap weight times the
    interior path.
    """
    d = sigma.diag
    w = [c * c for c in sigma.cyc]
    m = sigma.m
    full_path = path_det(d, w[: m - 1])
    interior = path_det(d[1: m - 1], w[1: m - 2])
    return float(full_path - w[m - 1] * interior)


def cycle_determinant(sigma: CycleMatrix) -> float:
    """det via the expansion: matching sum plus (-1)^(m+1) * 2 * cyclic product."""
    sign = 1.0 if sigma.m % 2 == 1 else -1.0
    return matching_sum(sigma) + sign * 2.0 * math.prod(sigma.cyc)


@dataclass(frozen=True)
class MembershipVerdict:
    """Decision for membership in the image cone, with supporting numbers.

    The ``_r`` fields belong to the correlation form R = D^-1/2 Sigma D^-1/2;
    ``slack``, ``det`` and ``flip_determinant`` are determinants of the input,
    those values times ``diag_product``, the product of the input diagonal.
    """

    member: bool
    boundary: bool
    slack_r: float
    det_r: float
    flip_r: float
    # smallest LDL^T pivot of R, reused by cycle_fiber; not part of the JSON form
    min_pivot: float
    diag_product: float
    # _correlation's (sqrt of the input diagonal, diagonal of R, cycle entries
    # of R), reused by the fibers; not part of the JSON form
    s: tuple[float, ...] = field(compare=False)
    e: tuple[float, ...] = field(compare=False)
    r: tuple[float, ...] = field(compare=False)

    @property
    def slack(self) -> float:
        return _input_determinant(self.slack_r, self.diag_product)

    @property
    def det(self) -> float:
        return _input_determinant(self.det_r, self.diag_product)

    @property
    def flip_determinant(self) -> float:
        return _input_determinant(self.flip_r, self.diag_product)

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "boundary": self.boundary,
            "slack": self.slack,
            "det": self.det,
            "flip_determinant": self.flip_determinant,
            "method": "cycle",
        }


def _input_determinant(x: float, diag_product: float) -> float:
    """x, a determinant of the correlation form, times ``diag_product``.

    A zero stays zero (no 0 * inf).  Raises ValueError when a nonzero result
    is not a normal float, i.e. it overflows or loses precision to underflow;
    the verdict itself does not depend on it.
    """
    if x == 0.0:
        return x
    v = x * diag_product
    if not sys.float_info.min <= abs(v) < math.inf:
        raise ValueError(f"determinant {x!r} of the correlation form times the diagonal "
                         f"product {diag_product!r} is outside the normal float range")
    return v


def _correlation(sigma: CycleMatrix, tol: float) -> tuple[tuple, tuple, tuple]:
    """(sqrt of the diagonal, correlation diagonal, correlation cycle entries).

    A vertex with zero diagonal stays in place with correlation diagonal 0; PSD
    forces its two cycle entries to vanish exactly, and its zero row then
    drops out of every pivot.  A negative diagonal, a nonzero entry next to a
    zero diagonal, or a correlation above 1 + tol in magnitude (a negative
    2x2 principal minor) raises NotPsd.
    """
    d, c = sigma.diag, sigma.cyc
    m = len(d)
    if min(d) < 0.0:
        raise NotPsd(f"negative diagonal entry {min(d)!r}")
    s = [math.sqrt(x) for x in d]
    r = [0.0] * m
    for k in range(m):
        k1 = k + 1 if k + 1 < m else 0
        if c[k] == 0.0:
            continue
        if d[k] == 0.0 or d[k1] == 0.0:
            raise NotPsd(f"nonzero entry on edge {k} at a zero diagonal")
        r[k] = c[k] / s[k] / s[k1]
        if abs(r[k]) > 1.0 + tol:
            raise NotPsd(f"correlation {r[k]!r} on edge {k} exceeds 1 in magnitude")
    return tuple(s), tuple([1.0 if x > 0.0 else 0.0 for x in d]), tuple(r)


def _bordered_ldl(e, r, tol: float) -> tuple[float, float, float]:
    """(smallest pivot, det, flip det) of the correlation form by LDL^T in vertex order.

    ``e`` is the unit (or zero) diagonal and ``r`` the cycle entries.
    Eliminating vertex k < m - 2 touches only vertex k + 1 and the last row
    (the bordered tridiagonal), whose fill ``f`` carries the wrap entry along
    the path.  Negating the wrap entry negates every fill and leaves the
    pivots of vertices 0..m-2 unchanged, so the flip determinant differs
    only in the closing 2x2 block.  A pivot p <= tol goes through
    ``zero_pivot``, the library's one rule for it: NotPsd, a zero column,
    which contributes 0 to the determinants, or the pivot tol.
    """
    m = len(r)
    p = e[0]
    f = r[m - 1]        # entry (k, m-1) of the active block, before r[m-2]
    corner = e[m - 1]   # entry (m-1, m-1) of the active block
    lead = 1.0          # product of the pivots of vertices 0..k-1
    lo = math.inf
    for k in range(m - 2):
        a = r[k]
        lo = min(lo, p)
        if p <= tol:
            if zero_pivot(p, a * a + f * f, tol, f"vertex {k}"):
                lead = 0.0
                p, f = e[k + 1], 0.0
                continue
            p = tol
        lead *= p
        corner -= f * f / p
        p, f = e[k + 1] - a * a / p, -a * f / p
    g, g_flip = r[m - 2] + f, r[m - 2] - f
    zero = p <= tol and zero_pivot(p, g * g, tol, f"vertex {m - 2}")
    q = p if zero else max(p, tol)
    det2 = q * corner - g * g
    flip2 = q * corner - g_flip * g_flip
    last = corner if zero else det2 / q
    if not last > tol:
        zero_pivot(last, 0.0, tol, f"vertex {m - 1}")
    return min(lo, p, last), lead * det2, lead * flip2


def cycle_membership(sigma: CycleMatrix, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Membership of a PSD cycle-patterned matrix in the image cone, in O(m).

    Operational test on the correlation form R: min(det R, det R with the
    wrap edge negated) >= -tol, from one bordered-tridiagonal LDL^T.
    Negating any other edge gives the same determinant (it only flips the
    sign of the cyclic product), so one flip suffices.  The matching
    expansion of R is evaluated independently and must agree; ties within
    tolerance resolve to member with the boundary flag set.
    """
    s, e, r = _correlation(sigma, tol)
    min_pivot, det_r, flip_r = _bordered_ldl(e, r, tol)
    slack_r = min(det_r, flip_r)

    slack_matching = matching_sum(CycleMatrix(e, r)) - 2.0 * abs(math.prod(r))
    if abs(slack_matching - slack_r) > math.sqrt(tol) * max(1.0, abs(slack_matching),
                                                            abs(slack_r)):
        raise InternalInconsistency(
            f"matching expansion {slack_matching!r} vs pivot product {slack_r!r}"
        )
    member = slack_r >= -tol
    if member != (slack_matching >= -tol) and min(abs(slack_matching), abs(slack_r)) > 2 * tol:
        raise InternalInconsistency(
            f"membership forms disagree: {slack_r!r} vs {slack_matching!r}"
        )
    return MembershipVerdict(
        member=member,
        boundary=abs(slack_r) <= tol,
        slack_r=slack_r,
        det_r=det_r,
        flip_r=flip_r,
        min_pivot=min_pivot,
        diag_product=math.prod(sigma.diag),
        s=s,
        e=e,
        r=r,
    )


def counterexample_sigma(m: int, rho: float) -> CycleMatrix:
    """Unit diagonal, 1/2 on the cycle edges except rho/2 at the wrap edge."""
    if m < 3:
        raise ValueError("need m >= 3")
    cyc = [0.5] * (m - 1) + [rho / 2.0]
    return CycleMatrix.from_arrays([1.0] * m, cyc)


def counterexample_det(m: int, rho: float) -> float:
    """Closed-form determinant of the counterexample matrix."""
    if m % 2 == 1:
        return (1.0 / 2 ** m) * ((m + 1) - (m - 1) * rho) * (1.0 + rho)
    return (1.0 / 2 ** m) * ((m + 1) + (m - 1) * rho) * (1.0 - rho)


def quartic_coefficients(sigma: CycleMatrix) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the quartic a*g^4 + b*g^2 + c = 0 satisfied by
    the parameter of vertex 0 on edge {0,1}, for a matrix in the image.

    All principal sub-determinants of a cycle pattern are tridiagonal after
    rotating the deleted vertex to the boundary, so the three determinants
    are evaluated by the three-term recurrence.
    """
    d = list(sigma.diag)
    c = list(sigma.cyc)
    w = [x * x for x in c]
    m = sigma.m
    det_full = cycle_determinant(sigma)
    # delete vertex 0: path 1 - 2 - ... - m-1
    det_no0 = path_det(d[1:], w[1: m - 1])
    # delete vertex 1: path 0 - (m-1) - (m-2) - ... - 2
    det_no1 = path_det([d[0]] + d[:1:-1], w[:1:-1])
    # delete vertices 0 and 1: path 2 - 3 - ... - m-1
    det_no01 = path_det(d[2:], w[2: m - 1])
    sign = 1.0 if m % 2 == 0 else -1.0  # (-1)**m
    a = -det_no0
    b = det_full + 2.0 * w[0] * det_no01 + sign * 2.0 * math.prod(c)
    cc = -w[0] * det_no1
    return float(a), float(b), float(cc)


@dataclass(frozen=True)
class CycleFiber:
    """Fiber over a positive definite member: two representatives up to sign,
    2^(m+1) solutions after expanding per-edge sign choices.

    On the boundary of the image the two quartic roots coincide and a single
    representative is returned (the sign expansion then has 2^m points).
    """

    m: int
    representatives: list[FactorParams]
    count_total: int

    @property
    def complex(self) -> SimplicialComplex:
        return cycle_edge_complex(self.m)


def _edge_params(delta: SimplicialComplex, tails, heads, labels=None) -> FactorParams:
    """Parameters with tails[k] at vertex k and heads[k] at vertex k+1 of edge k;
    vertex k of the cycle is vertex ``labels[k]`` of ``delta`` (k by default).

    ``delta`` is the edge complex of that cycle, so every key is one of its
    canonical edges and only finiteness is checked.
    """
    m = len(tails)
    values = {}
    for k in range(m):
        u, v = (k, (k + 1) % m) if labels is None else (labels[k], labels[(k + 1) % m])
        face = (u, v) if u < v else (v, u)
        values[(face, u)] = tails[k]
        values[(face, v)] = heads[k]
    return FactorParams._trusted(delta, values)


def _propagate_forward(d, c, tol):
    """Zero branch with the vertex-1 parameter of edge 0 set to zero.

    Walks edges 1, 2, ..., m-1 using the diagonal equations for magnitudes
    and the product equations for partners, then closes at vertex 0.
    ``d`` and ``c`` are a correlation form, so the tolerance is absolute.
    """
    m = len(d)
    pairs = [None] * m
    prev = 0.0  # parameter of vertex i on edge i-1
    for i in range(1, m):
        t = d[i] - prev * prev
        if t < 0:
            if t < -math.sqrt(tol):
                raise Degenerate(f"negative propagated square {t:.3e} at vertex {i}")
            t = 0.0
        p = math.sqrt(t)
        if c[i] == 0.0:
            q = 0.0
        else:
            if p == 0.0:
                raise Degenerate(f"zero divisor while propagating at edge {i}")
            q = c[i] / p
        pairs[i] = (p, q)
        prev = q
    t0 = d[0] - prev * prev
    if t0 < 0:
        if t0 < -math.sqrt(tol):
            raise Degenerate(f"negative closing square {t0:.3e}")
        t0 = 0.0
    pairs[0] = (math.sqrt(t0), 0.0)
    return pairs


def _propagate_root(d, c, t0, tol):
    """Quartic branch: all cycle entries nonzero; propagate squared magnitudes.

    ``d`` and ``c`` are a correlation form, so the closure tolerance is absolute.
    """
    m = len(d)
    t = [0.0] * m
    t[0] = t0
    for i in range(1, m):
        if t[i - 1] <= 0.0:
            return None
        t[i] = d[i] - c[i - 1] * c[i - 1] / t[i - 1]
        if t[i] <= 0.0:
            return None
    closure = abs(d[0] - c[m - 1] * c[m - 1] / t[m - 1] - t[0])
    if closure > math.sqrt(tol):
        return None
    pairs = []
    for k in range(m):
        p = math.sqrt(t[k])
        pairs.append((p, c[k] / p))
    return pairs


def _reversed(d, c):
    """The cycle walked backwards: its vertex j is vertex 1 - j, and its edge k
    is edge -k with the endpoints swapped, so edge 0 stays edge 0."""
    m = len(d)
    return [d[(1 - j) % m] for j in range(m)], [c[-k % m] for k in range(m)]


def _unreversed(pairs):
    """Pairs of the reversed cycle back in the labels of the original."""
    m = len(pairs)
    return [pairs[-k % m][::-1] for k in range(m)]


def _fiber_edges(verdict: MembershipVerdict, tol: float) -> list[tuple[list, list]]:
    """The fiber representatives of the matrix that ``verdict`` decided at tol,
    as (tails, heads) lists, as in _edge_params.

    Solved on the verdict's correlation form R and mapped back by
    gamma -> D^1/2 gamma, which is exact because the supports do not change.
    Raises Degenerate when the smallest pivot of the verdict is at most tol.
    """
    m = len(verdict.r)
    if not verdict.member:
        raise NotMember(f"correlation-form slack {verdict.slack_r!r} negative")
    if verdict.min_pivot <= tol:
        raise Degenerate(
            f"fiber solving needs positive definite input; smallest pivot {verdict.min_pivot:.3e}"
        )

    s, d, c = verdict.s, verdict.e, verdict.r
    zeros = [k for k in range(m) if c[k] == 0.0]
    if zeros:
        r = zeros[0]
        dr = [d[(i + r) % m] for i in range(m)]
        cr = [c[(i + r) % m] for i in range(m)]
        forward = _propagate_forward(dr, cr, tol)
        # the other branch zeroes the vertex-0 parameter of edge 0: the forward
        # walk on the reversed cycle
        backward = _unreversed(_propagate_forward(*_reversed(dr, cr), tol))
        solutions = [(forward, r), (backward, r)]
    else:
        a, b, cc = quartic_coefficients(CycleMatrix(d, c))
        if a >= 0.0 or b <= 0.0:
            raise InternalInconsistency(
                f"quartic coefficients a={a!r}, b={b!r} violate the definite-member signs"
            )
        disc = b * b - 4.0 * a * cc
        if disc < 0.0:
            if disc < -math.sqrt(tol) * max(1.0, b * b):
                raise InternalInconsistency(f"negative discriminant {disc!r} for a member")
            disc = 0.0
        q = -0.5 * (b + math.sqrt(disc))
        roots = sorted({t for t in (q / a, cc / q) if t > 0.0}, reverse=True)
        solutions = []
        for n, t0 in enumerate(roots):
            # A walk around the cycle is an increasing concave map of t0: it
            # pulls rounding errors towards the larger root and amplifies them
            # at the smaller one, the more so the longer the cycle.  The
            # reversed walk, started at vertex 1's parameter on edge 0, pulls
            # towards the smaller root.
            if n == 0:
                pairs = _propagate_root(d, c, t0, tol)
            else:
                pairs = _propagate_root(*_reversed(d, c), c[0] * c[0] / t0, tol)
                pairs = pairs and _unreversed(pairs)
            if pairs is not None:
                solutions.append((pairs, 0))
        if not solutions:
            raise Degenerate("no quartic root propagated to a consistent solution")
        if len(solutions) == 1 and len(roots) == 2:
            raise InternalInconsistency("only one quartic root propagated for an interior member")

    reps = []
    for pairs, rotation in solutions:
        tails, heads = [0.0] * m, [0.0] * m
        for k, (p, q) in enumerate(pairs):
            u = (k + rotation) % m
            tails[u] = p * s[u]
            heads[u] = q * s[(u + 1) % m]
        reps.append((tails, heads))
    return reps


def cycle_fiber(sigma: CycleMatrix, tol: float = DEFAULT_TOL) -> CycleFiber:
    """Solve for the fiber over a positive definite member (diagonal parameters zero).

    With every cycle entry nonzero, the squared edge-0 parameter satisfies a
    quartic whose two nonnegative roots both propagate to full solutions.
    With a zero entry (rotated to edge 0), one of that edge's two parameters
    must vanish and each choice determines the rest of the cycle walk.
    Both are solved on the correlation form.  Raises Degenerate when the
    smallest pivot is at most tol.
    """
    delta = cycle_edge_complex(sigma.m)
    reps = [_edge_params(delta, tails, heads)
            for tails, heads in _fiber_edges(cycle_membership(sigma, tol), tol)]
    return CycleFiber(sigma.m, reps, 2 ** (sigma.m + 1))
