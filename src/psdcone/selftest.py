"""The load-bearing identity checks, and small random suites that run them.

Each ``check_*`` takes an iterable of instances and raises AssertionError
naming the first one that fails.  The acceptance criteria pass their pinned
draws; each suite in ``SUITES`` draws its n instances lazily from rng.
"""

from __future__ import annotations

import numpy as np

from .chordal import chordal_fiber, clique_complex
from .core import SymmetricMatrix
from .cycle import (CycleMatrix, cycle_determinant, cycle_fiber,
                    cycle_membership, quartic_coefficients)
from .instances import (random_chordal_graph, random_complex,
                        random_cycle_member, random_cycle_pattern_matrix,
                        random_params, random_psd_cycle_matrix)
from .linalg import is_psd, path_det, schur_complement, sign_flip
from .param import cone_add, extreme_decomposition, phi
from .quotient import schur_witness


def _abs_expansion_bound(sigma: CycleMatrix) -> float:
    """Sum of absolute values of all determinant-expansion terms (error scale)."""
    d = np.abs(np.asarray(sigma.diag))
    c = np.abs(np.asarray(sigma.cyc))
    m = sigma.m
    # weights -c^2 turn every subtraction of the recurrence into an addition
    neg = [-(x ** 2) for x in c]
    interior = path_det(d[1: m - 1], neg[1: m - 2])
    return float(path_det(d, neg[: m - 1]) - neg[m - 1] * interior
                 + 2.0 * np.prod(c))


def check_determinant(instances) -> float:
    """Cycle determinant expansion vs dense determinant; the worst relative error."""
    worst = 0.0
    for k, sig in enumerate(instances):
        expansion = cycle_determinant(sig)
        dense = float(np.linalg.det(sig.to_symmetric().a))
        denom = max(1.0, abs(dense), _abs_expansion_bound(sig))
        if not abs(expansion - dense) <= 1e-10 * denom:
            raise AssertionError(
                f"instance {k} (m={sig.m}): expansion {expansion!r} vs dense {dense!r}"
            )
        worst = max(worst, abs(expansion - dense) / denom)
    return worst


def check_discriminant(instances):
    """Quartic discriminant identity and coefficient signs on definite cycle members."""
    for k, sig in enumerate(instances):
        a, b, c = quartic_coefficients(sig)
        dense = sig.to_symmetric()
        det = float(np.linalg.det(dense.a))
        det_flip = float(np.linalg.det(sign_flip(dense, 0, 1).a))
        lhs = b * b - 4.0 * a * c
        rhs = det * det_flip
        denom = max(1.0, abs(lhs), abs(rhs), b * b)
        if not abs(lhs - rhs) <= 1e-10 * denom:
            raise AssertionError(f"instance {k}: discriminant {lhs!r} vs {rhs!r}")
        if not (b > 0 and a < 0 and c <= 0):
            raise AssertionError(f"instance {k}: sign pattern a={a!r} b={b!r} c={c!r}")


def check_schur(instances):
    """Schur witness identity on (complex, params, vertex) instances."""
    for k, (delta, gamma, u) in enumerate(instances):
        witness = schur_witness(delta, gamma, u)
        target = schur_complement(phi(delta, gamma), {u})
        err = np.abs(witness.image().a - target.a).max()
        if not err <= 1e-10 * target.scale():
            raise AssertionError(f"instance {k}: witness error {err:.3e}")


def check_chordal(instances):
    """Fiber recovery round trip on (chordal graph, its clique complex, member)."""
    for k, (g, delta, sigma) in enumerate(instances):
        recovered = chordal_fiber(g, sigma)
        err = np.abs(phi(delta, recovered).a - sigma.a).max()
        if not err <= 1e-9 * sigma.scale():
            raise AssertionError(f"instance {k}: round trip error {err:.3e}")


def check_cycle_fiber(instances) -> list:
    """Cycle fiber round trip on definite cycle members; the fibers, in order."""
    fibers = []
    for k, sig in enumerate(instances):
        fib = cycle_fiber(sig)
        target = sig.to_symmetric()
        for rep in fib.representatives:
            err = np.abs(phi(fib.complex, rep).a - target.a).max()
            if not err <= 1e-9 * target.scale():
                raise AssertionError(f"instance {k}: fiber image error {err:.3e}")
        fibers.append(fib)
    return fibers


def check_cone(instances):
    """Cone addition and extreme-ray reconstruction on (complex, params, params)."""
    for k, (delta, g1, g2) in enumerate(instances):
        total = SymmetricMatrix(phi(delta, g1).a + phi(delta, g2).a)
        summed = phi(delta, cone_add(delta, g1, g2))
        if not np.abs(summed.a - total.a).max() <= 1e-9 * total.scale():
            raise AssertionError(f"instance {k}: cone_add image mismatch")
        terms = extreme_decomposition(delta, g1)
        recon = sum((t.matrix() for t in terms), np.zeros((delta.m, delta.m)))
        if not np.abs(recon - phi(delta, g1).a).max() <= 1e-10 * total.scale():
            raise AssertionError(f"instance {k}: decomposition mismatch")
        if not all(delta.has_face(t.support) for t in terms):
            raise AssertionError(f"instance {k}: non-face support emitted")


def chordal_instance(rng, m, density):
    """A chordal graph on m vertices, its clique complex and a member on it."""
    g = random_chordal_graph(rng, m)
    delta = clique_complex(g)
    return g, delta, phi(delta, random_params(rng, delta, density=density))


def schur_instance(rng, m):
    """A random complex on m vertices, parameters on it and a vertex to eliminate."""
    delta = random_complex(rng, m)
    return delta, random_params(rng, delta), int(rng.integers(0, m))


def cone_instance(rng, m, density):
    """A random complex on m vertices and two parameter draws on it."""
    delta = random_complex(rng, m)
    return (delta, random_params(rng, delta, density=density),
            random_params(rng, delta, density=density))


def suite_determinant(rng, n):
    """Criterion 03 on n cycle-pattern matrices with m in 3..10."""
    check_determinant(random_cycle_pattern_matrix(rng, int(rng.integers(3, 11)))
                      for _ in range(n))


def suite_discriminant(rng, n):
    """Criterion 04 on n cycle members with m in 3..8."""
    check_discriminant(random_cycle_member(rng, int(rng.integers(3, 9)))[0]
                       for _ in range(n))


def suite_schur(rng, n):
    """Criterion 08's single-vertex identity on n random complexes with m in 3..8."""
    check_schur(schur_instance(rng, int(rng.integers(3, 9))) for _ in range(n))


def suite_chordal(rng, n):
    """Criterion 07's round trip on n chordal graphs with m in 3..10."""
    check_chordal(chordal_instance(rng, int(rng.integers(3, 11)), 0.8) for _ in range(n))


def suite_cycle(rng, n):
    """Criterion 05's round trip, then the pivot determinants against dense ones
    and the slack verdict against the PSD-ness of every sign flip."""
    check_cycle_fiber(random_cycle_member(rng, int(rng.integers(3, 9)))[0]
                      for _ in range(n))
    for k in range(n):
        m = int(rng.integers(3, 7))
        sig = random_psd_cycle_matrix(rng, m)
        verdict = cycle_membership(sig)
        dense = sig.to_symmetric()
        flipped = sign_flip(dense, 0, 1)
        bound = 1e-9 * max(1.0, float(np.prod(sig.diag)))
        for got, arr in ((verdict.det, dense.a), (verdict.flip_determinant, flipped.a)):
            if not abs(got - float(np.linalg.det(arr))) <= bound:
                raise AssertionError(f"instance {k}: pivot determinant {got!r} vs dense")
        if verdict.boundary:
            continue
        flips_psd = all(
            is_psd(sign_flip(dense, e, (e + 1) % m)).is_psd
            for e in range(m)
        )
        if verdict.member != flips_psd:
            raise AssertionError(
                f"instance {k}: slack verdict {verdict.member} vs flips {flips_psd}"
            )


def suite_cone(rng, n):
    """Criterion 09 on n random complexes with m in 2..8."""
    check_cone(cone_instance(rng, int(rng.integers(2, 9)), 0.7) for _ in range(n))


SUITES = {
    "determinant": suite_determinant,
    "discriminant": suite_discriminant,
    "schur": suite_schur,
    "chordal": suite_chordal,
    "cycle": suite_cycle,
    "cone": suite_cone,
}


def run_suites(names=None, n: int = 100, seed: int = 0):
    """Run the named suites (all by default); returns (all_passed, report lines)."""
    picked = list(SUITES) if not names else list(names)
    lines = []
    ok = True
    for name in picked:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        rng = np.random.default_rng(seed)
        try:
            SUITES[name](rng, n)
        except AssertionError as exc:
            ok = False
            lines.append(f"suite {name}: FAIL ({exc})")
        else:
            lines.append(f"suite {name}: PASS ({n} instances)")
    return ok, lines
