"""Exact membership in the image cone: which test applies, its verdict and certificate.

On a chordal graph with its clique complex the parametrization is onto, and
a preimage is read off a Cholesky factor; on a chordless cycle with its edge
complex ``cycle`` decides the paper's inequality.  A decision checks the zero
pattern once, picks the test, and re-checks the certificate it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chordal, cycle
from .core import FactorParams, Graph, SimplicialComplex, SymmetricMatrix, edge_complex
from .errors import Degenerate, NotPsd, PatternViolation, Undecidable
from .linalg import DEFAULT_TOL, check_tol
from .param import check_certificate


@dataclass(frozen=True)
class Decision:
    """A verdict, by ``method`` "chordal" or "cycle", and a preimage of a member.

    ``certificate`` is None for a non-member and for a singular cycle member,
    whose fiber is not solved.  ``verdict`` holds the cycle test's numbers for
    the cycle walked in ``vertex_order``; ``not_psd`` says why an input is not PSD.
    """

    member: bool
    method: str
    certificate: FactorParams | None = None
    verdict: cycle.MembershipVerdict | None = None
    vertex_order: tuple[int, ...] = ()
    not_psd: str | None = None

    def to_json_dict(self) -> dict:
        """The ``membership`` command's output, with 1-based vertices."""
        if self.not_psd is not None:
            return {"member": False, "method": self.method,
                    "reason": "not_psd", "message": self.not_psd}
        if self.verdict is None:
            out = {"member": True, "boundary": False, "method": "chordal"}
        else:
            out = dict(self.verdict.to_json_dict(),
                       vertex_order=[v + 1 for v in self.vertex_order])
        if not self.member:
            out["violated"] = {"flip_determinant": self.verdict.flip_determinant,
                               "det": self.verdict.det}
        elif self.certificate is None:
            out["certificate"] = None
        else:
            out["certificate"] = self.certificate.to_json_dict()
            out["complex"] = self.certificate.complex.to_json_dict()
        return out


def membership(sigma: SymmetricMatrix, graph: Graph, complex: SimplicialComplex | None = None,
               tol: float = DEFAULT_TOL) -> Decision:
    """Whether sigma lies in the image of the parametrization over complex.

    ``complex`` defaults to the clique complex of a chordal graph and to the
    edge complex of a chordless cycle; a non-PSD sigma is a non-member.
    Raises ValueError when the sizes differ, PatternViolation when sigma is
    nonzero off the graph, and Undecidable when neither test applies.
    """
    check_tol(tol)
    if not sigma.respects_pattern(graph):  # a ValueError when the sizes differ
        raise PatternViolation("matrix has a nonzero entry at a non-edge of the graph")
    order = _cycle_order(graph)
    # a chordless cycle of length >= 4 is never chordal
    if order is None or graph.m == 3:
        ok, ordering = chordal.is_chordal(graph)
        if ok and (complex is None or complex == chordal.ordering_clique_complex(graph, ordering)):
            try:
                gamma = chordal._fiber(graph, sigma, ordering, complex, tol)
            except NotPsd as exc:
                return Decision(False, "chordal", not_psd=str(exc))
            check_certificate(gamma, sigma)
            return Decision(True, "chordal", gamma)
    if order is not None and (complex is None or complex == edge_complex(graph)):
        return _decide_cycle(sigma, graph, order, complex, tol)
    raise Undecidable("graph is neither chordal nor a chordless cycle; no exact test applies")


def chordal_certificate(sigma: SymmetricMatrix, graph: Graph,
                        complex: SimplicialComplex | None = None,
                        tol: float = DEFAULT_TOL) -> FactorParams:
    """``chordal.chordal_fiber``, re-checked as ``membership`` re-checks it, on
    the clique complex of the graph, which ``complex`` must be when given."""
    gamma = chordal.chordal_fiber(graph, sigma, tol)
    if complex is not None and complex != gamma.complex:
        raise ValueError("the complex is not the clique complex of its graph, "
                         "on which chordal fibers live")
    check_certificate(gamma, sigma)
    return gamma


def _cycle_order(g: Graph) -> list[int] | None:
    """g's vertices in walk order from 0, or None unless g is one cycle on all m >= 3."""
    if g.m < 3 or len(g.edges) != g.m or any(b.bit_count() != 2 for b in g.adjacency_bits):
        return None
    # 2-regular, so the walk from 0 goes round 0's cycle: one cycle iff it repeats nothing.
    # A step takes the neighbour bit other than the vertex just left; the first step
    # leaves 0 as if it came from its larger neighbour, so it goes to the smaller one.
    bits = g.adjacency_bits
    order, v, came = [0], 0, 1 << (bits[0].bit_length() - 1)
    while len(order) < g.m:
        came, v = 1 << v, (bits[v] ^ came).bit_length() - 1
        order.append(v)
    return order if len(set(order)) == g.m else None


def _decide_cycle(sigma: SymmetricMatrix, g: Graph, order: list[int], complex,
                  tol: float) -> Decision:
    """The verdict on the chordless cycle g walked in order, on its edge complex."""
    a = sigma.a
    cyc = cycle.CycleMatrix(tuple(a.diagonal()[order].tolist()),
                            tuple(a[order, order[1:] + order[:1]].tolist()))
    try:
        verdict = cycle.cycle_membership(cyc, tol=tol)
    except NotPsd as exc:
        return Decision(False, "cycle", not_psd=str(exc))
    cert = None
    if verdict.member:
        try:
            tails, heads = cycle._fiber_edges(verdict, tol)[0]
        except Degenerate:
            pass
        else:
            cert = cycle._edge_params(edge_complex(g) if complex is None else complex,
                                       tails, heads, order)
            check_certificate(cert, sigma)
    return Decision(verdict.member, "cycle", cert, verdict, tuple(order))
