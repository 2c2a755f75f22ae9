"""Exact membership and fibers for the edge complex of a chordless cycle.

A PSD matrix with the m-cycle zero pattern lies in the image of the edge
parametrization iff its matching expansion dominates twice the absolute
cyclic product; equivalently iff negating any single cycle edge keeps the
matrix PSD.  Fibers over positive definite members are finite: fixing the
squared parameter at one edge to a root of a quartic determines everything
else by propagation around the cycle, giving two solutions up to per-edge
sign flips (2^(m+1) points in total).

Vertex convention: 0-based; edge k joins vertices k and (k+1) mod m, and
``cyc[k]`` holds that entry, so ``cyc[m-1]`` is the wrap-around entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (PATTERN_TOL, FactorParams, SimplicialComplex,
                   SymmetricMatrix, as_face, cycle_graph, edge_complex,
                   tolerance_scale)
from .errors import (Degenerate, InternalInconsistency, NotMember, NotPsd,
                     PatternViolation)
from .linalg import DEFAULT_TOL, is_psd, path_det, sign_flip


@functools.lru_cache(maxsize=64)  # one entry per documented size m <= 64
def cycle_edge_complex(m: int) -> SimplicialComplex:
    """The complex whose facets are the m cycle edges."""
    return edge_complex(cycle_graph(m))


@dataclass(frozen=True)
class CycleMatrix:
    """Symmetric matrix supported on the m-cycle pattern: a diagonal and m cycle entries."""

    diag: tuple[float, ...]
    cyc: tuple[float, ...]

    def __post_init__(self):
        if len(self.diag) < 3 or len(self.cyc) != len(self.diag):
            raise ValueError("need m >= 3 diagonal entries and m cycle entries")
        if not all(np.isfinite(self.diag)) or not all(np.isfinite(self.cyc)):
            raise ValueError("entries must be finite")

    @property
    def m(self) -> int:
        return len(self.diag)

    def scale(self) -> float:
        return tolerance_scale(self.diag + self.cyc)

    def entry(self, i: int, j: int) -> float:
        m = self.m
        if i == j:
            return self.diag[i]
        a, b = min(i, j), max(i, j)
        if b == a + 1:
            return self.cyc[a]
        if a == 0 and b == m - 1:
            return self.cyc[m - 1]
        return 0.0

    def to_symmetric(self) -> SymmetricMatrix:
        m = self.m
        arr = np.diag(np.asarray(self.diag, dtype=float))
        for k in range(m):
            i, j = k, (k + 1) % m
            arr[i, j] = self.cyc[k]
            arr[j, i] = self.cyc[k]
        return SymmetricMatrix(arr)

    @classmethod
    def from_symmetric(cls, sigma: SymmetricMatrix, tol: float = PATTERN_TOL) -> "CycleMatrix":
        m = sigma.m
        if m < 3:
            raise ValueError("cycle pattern needs m >= 3")
        if not sigma.respects_pattern(cycle_graph(m), tol):
            raise PatternViolation("matrix has a nonzero entry off the cycle pattern")
        a = sigma.a
        cyc = [float(a[k, (k + 1) % m]) for k in range(m)]
        return cls(tuple(float(a[i, i]) for i in range(m)), tuple(cyc))

    @classmethod
    def from_arrays(cls, diag, cyc) -> "CycleMatrix":
        return cls(tuple(float(x) for x in diag), tuple(float(x) for x in cyc))


def matching_sum(sigma: CycleMatrix) -> float:
    """Signed matching expansion: sum over matchings M of the cycle of
    (-1)^|M| * prod of squared matched entries * prod of unmatched diagonals.

    Matchings of a cycle split on the wrap edge, so two tridiagonal
    determinants suffice: the full path minus the wrap weight times the
    interior path.
    """
    d = np.asarray(sigma.diag)
    w = [c ** 2 for c in sigma.cyc]
    m = sigma.m
    full_path = path_det(d, w[: m - 1])
    interior = path_det(d[1: m - 1], w[1: m - 2])
    return float(full_path - w[m - 1] * interior)


def cycle_determinant(sigma: CycleMatrix) -> float:
    """det via the expansion: matching sum plus (-1)^(m+1) * 2 * cyclic product."""
    sign = 1.0 if sigma.m % 2 == 1 else -1.0
    return matching_sum(sigma) + sign * 2.0 * float(np.prod(sigma.cyc))


@dataclass(frozen=True)
class MembershipVerdict:
    """Decision for membership in the image cone, with supporting numbers."""

    member: bool
    boundary: bool
    slack: float
    det: float
    flip_determinant: float
    # PSD check margin, reused by cycle_fiber; not part of the JSON form
    min_eigenvalue: float

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "boundary": self.boundary,
            "slack": self.slack,
            "det": self.det,
            "flip_determinant": self.flip_determinant,
            "method": "cycle",
        }


def cycle_membership(sigma: CycleMatrix, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Membership of a PSD cycle-patterned matrix in the image cone.

    Operational test: min(det, det with edge 0 negated) >= -tol, by dense
    determinants.  Negating any other edge gives the same determinant (it
    only flips the sign of the cyclic product), so one flip suffices.  The
    matching-expansion inequality is evaluated independently and must agree;
    ties within tolerance resolve to member with the boundary flag set.
    """
    m = sigma.m
    dense = sigma.to_symmetric()
    report = is_psd(dense, tol)
    if not report.is_psd:
        raise NotPsd(f"min eigenvalue {report.min_eigenvalue:.3e}")

    det_scale = sigma.scale() ** m
    band = tol * det_scale

    msum = matching_sum(sigma)
    absprod = float(np.prod(np.abs(sigma.cyc)))
    slack_matching = msum - 2.0 * absprod

    det_sigma = float(np.linalg.det(dense.a))
    flip_det = float(np.linalg.det(sign_flip(dense, 0, 1).a))
    slack_op = min(det_sigma, flip_det)

    denom = max(det_scale, abs(slack_matching), abs(slack_op))
    if abs(slack_matching - slack_op) > np.sqrt(tol) * denom:
        raise InternalInconsistency(
            f"matching expansion {slack_matching!r} vs dense minimum {slack_op!r}"
        )
    member = slack_op >= -band
    member_matching = slack_matching >= -band
    if member != member_matching and abs(slack_matching) > 2 * band and abs(slack_op) > 2 * band:
        raise InternalInconsistency(
            f"membership forms disagree: {slack_op!r} vs {slack_matching!r}"
        )
    return MembershipVerdict(
        member=member,
        boundary=abs(slack_op) <= band,
        slack=slack_op,
        det=det_sigma,
        flip_determinant=flip_det,
        min_eigenvalue=report.min_eigenvalue,
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
    w = [x ** 2 for x in c]
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
    b = det_full + 2.0 * w[0] * det_no01 + sign * 2.0 * float(np.prod(c))
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


def _pairs_to_params(m: int, pairs, rotation: int = 0) -> FactorParams:
    """pairs[k] = (value at vertex k, value at vertex k+1) on rotated edge k."""
    delta = cycle_edge_complex(m)
    values = {}
    for k, (p, q) in enumerate(pairs):
        u = (k + rotation) % m
        v = (u + 1) % m
        face = as_face((u, v))
        values[(face, u)] = float(p)
        values[(face, v)] = float(q)
    return FactorParams(delta, values)


def _propagate_forward(d, c, tol):
    """Zero branch with the vertex-1 parameter of edge 0 set to zero.

    Walks edges 1, 2, ..., m-1 using the diagonal equations for magnitudes
    and the product equations for partners, then closes at vertex 0.
    """
    m = len(d)
    scale = tolerance_scale(d + c)
    pairs = [None] * m
    prev = 0.0  # parameter of vertex i on edge i-1
    for i in range(1, m):
        t = d[i] - prev * prev
        if t < 0:
            if t < -np.sqrt(tol) * scale:
                raise Degenerate(f"negative propagated square {t:.3e} at vertex {i}")
            t = 0.0
        p = np.sqrt(t)
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
        if t0 < -np.sqrt(tol) * scale:
            raise Degenerate(f"negative closing square {t0:.3e}")
        t0 = 0.0
    pairs[0] = (np.sqrt(t0), 0.0)
    return pairs


def _propagate_root(d, c, t0, tol):
    """Quartic branch: all cycle entries nonzero; propagate squared magnitudes."""
    m = len(d)
    scale = tolerance_scale(d + c)
    t = [0.0] * m
    t[0] = t0
    for i in range(1, m):
        if t[i - 1] <= 0.0:
            return None
        t[i] = d[i] - c[i - 1] ** 2 / t[i - 1]
        if t[i] <= 0.0:
            return None
    closure = abs(d[0] - c[m - 1] ** 2 / t[m - 1] - t[0])
    if closure > np.sqrt(tol) * scale:
        return None
    pairs = []
    for k in range(m):
        p = np.sqrt(t[k])
        pairs.append((p, c[k] / p))
    return pairs


def cycle_fiber(sigma: CycleMatrix, tol: float = DEFAULT_TOL,
                verdict: MembershipVerdict | None = None) -> CycleFiber:
    """Solve for the fiber over a positive definite member (diagonal parameters zero).

    With every cycle entry nonzero, the squared edge-0 parameter satisfies a
    quartic whose two nonnegative roots both propagate to full solutions.
    With a zero entry (rotated to edge 0), one of that edge's two parameters
    must vanish and each choice determines the rest of the cycle walk.
    ``verdict`` is ``cycle_membership(sigma, tol)`` when the caller already
    holds it; it is computed here otherwise.
    """
    m = sigma.m
    if verdict is None:
        verdict = cycle_membership(sigma, tol)
    if not verdict.member:
        raise NotMember(f"slack {verdict.slack!r} negative")
    if verdict.min_eigenvalue <= tol * sigma.scale():
        raise Degenerate(
            f"fiber solving needs positive definite input; min eigenvalue {verdict.min_eigenvalue:.3e}"
        )

    d = list(sigma.diag)
    c = list(sigma.cyc)
    zeros = [k for k in range(m) if c[k] == 0.0]
    if zeros:
        r = zeros[0]
        dr = [d[(i + r) % m] for i in range(m)]
        cr = [c[(i + r) % m] for i in range(m)]
        forward = _propagate_forward(dr, cr, tol)
        # The other branch zeroes the vertex-0 parameter of edge 0: it is the
        # forward walk on the reversed cycle, whose vertex j is vertex 1 - j
        # here and whose edge k is edge -k with its endpoints swapped.
        reverse = _propagate_forward([dr[(1 - j) % m] for j in range(m)],
                                     [cr[-k % m] for k in range(m)], tol)
        backward = [reverse[-k % m][::-1] for k in range(m)]
        reps = [_pairs_to_params(m, pairs, rotation=r) for pairs in (forward, backward)]
        return CycleFiber(m, reps, 2 ** (m + 1))

    a, b, cc = quartic_coefficients(sigma)
    scale = sigma.scale() ** m
    if a >= 0.0 or b <= 0.0:
        raise InternalInconsistency(
            f"quartic coefficients a={a!r}, b={b!r} violate the definite-member signs"
        )
    disc = b * b - 4.0 * a * cc
    if disc < 0.0:
        if disc < -np.sqrt(tol) * max(scale * scale, b * b):
            raise InternalInconsistency(f"negative discriminant {disc!r} for a member")
        disc = 0.0
    q = -0.5 * (b + np.sqrt(disc))
    roots = sorted({r for r in (q / a, cc / q) if r > 0.0}, reverse=True)
    reps = []
    for t0 in roots:
        pairs = _propagate_root(d, c, t0, tol)
        if pairs is not None:
            reps.append(_pairs_to_params(m, pairs))
    if not reps:
        raise Degenerate("no quartic root propagated to a consistent solution")
    if len(reps) == 1 and len(roots) == 2:
        raise InternalInconsistency("only one quartic root propagated for an interior member")
    return CycleFiber(m, reps, 2 ** (m + 1))
