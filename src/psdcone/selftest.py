"""Reduced-size property suites runnable from the command line.

Each suite re-checks one of the load-bearing identities on fresh random
instances; the CLI exposes them for quick post-install verification.
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


def suite_determinant(rng, n):
    """Cycle determinant expansion vs dense determinant."""
    for k in range(n):
        m = int(rng.integers(3, 11))
        sig = random_cycle_pattern_matrix(rng, m)
        expansion = cycle_determinant(sig)
        dense = float(np.linalg.det(sig.to_symmetric().a))
        denom = max(1.0, abs(dense), _abs_expansion_bound(sig))
        if abs(expansion - dense) > 1e-10 * denom:
            raise AssertionError(
                f"instance {k} (m={m}): expansion {expansion!r} vs dense {dense!r}"
            )


def suite_discriminant(rng, n):
    """Quartic discriminant identity and coefficient signs on definite members."""
    for k in range(n):
        m = int(rng.integers(3, 9))
        sig, _ = random_cycle_member(rng, m)
        a, b, c = quartic_coefficients(sig)
        dense = sig.to_symmetric()
        det = float(np.linalg.det(dense.a))
        det_flip = float(np.linalg.det(sign_flip(dense, 0, 1).a))
        lhs = b * b - 4.0 * a * c
        rhs = det * det_flip
        denom = max(1.0, abs(lhs), abs(rhs), b * b)
        if abs(lhs - rhs) > 1e-10 * denom:
            raise AssertionError(f"instance {k}: discriminant {lhs!r} vs {rhs!r}")
        if not (b > 0 and a < 0 and c <= 0):
            raise AssertionError(f"instance {k}: sign pattern a={a!r} b={b!r} c={c!r}")


def suite_schur(rng, n):
    """Schur witness identity on random complexes."""
    for k in range(n):
        m = int(rng.integers(3, 9))
        delta = random_complex(rng, m)
        gamma = random_params(rng, delta)
        u = int(rng.integers(0, m))
        sigma = phi(delta, gamma)
        witness = schur_witness(delta, gamma, u)
        target = schur_complement(sigma, {u})
        err = np.abs(witness.image().a - target.a).max()
        if err > 1e-10 * target.scale():
            raise AssertionError(f"instance {k}: witness error {err:.3e}")


def suite_chordal(rng, n):
    """Fiber recovery round trip on random chordal graphs."""
    for k in range(n):
        m = int(rng.integers(3, 11))
        g = random_chordal_graph(rng, m)
        delta = clique_complex(g)
        gamma = random_params(rng, delta, density=0.8)
        sigma = phi(delta, gamma)
        recovered = chordal_fiber(g, sigma)
        err = np.abs(phi(delta, recovered).a - sigma.a).max()
        if err > 1e-9 * sigma.scale():
            raise AssertionError(f"instance {k}: round trip error {err:.3e}")


def suite_cycle(rng, n):
    """Cycle fiber round trip and agreement of the membership forms."""
    for k in range(n):
        m = int(rng.integers(3, 9))
        sig, _ = random_cycle_member(rng, m)
        fib = cycle_fiber(sig)
        target = sig.to_symmetric()
        for rep in fib.representatives:
            err = np.abs(phi(fib.complex, rep).a - target.a).max()
            if err > 1e-9 * target.scale():
                raise AssertionError(f"instance {k}: fiber image error {err:.3e}")
    for k in range(n):
        m = int(rng.integers(3, 7))
        sig = random_psd_cycle_matrix(rng, m)
        verdict = cycle_membership(sig)
        dense = sig.to_symmetric()
        flipped = sign_flip(dense, 0, 1)
        for got, arr in ((verdict.det, dense.a), (verdict.flip_determinant, flipped.a)):
            if abs(got - float(np.linalg.det(arr))) > 1e-9 * max(1.0, float(np.prod(sig.diag))):
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
    """Cone addition and extreme-ray reconstruction."""
    for k in range(n):
        m = int(rng.integers(2, 9))
        delta = random_complex(rng, m)
        g1 = random_params(rng, delta, density=0.7)
        g2 = random_params(rng, delta, density=0.7)
        total = SymmetricMatrix(phi(delta, g1).a + phi(delta, g2).a)
        summed = phi(delta, cone_add(delta, g1, g2))
        if np.abs(summed.a - total.a).max() > 1e-9 * total.scale():
            raise AssertionError(f"instance {k}: cone_add image mismatch")
        terms = extreme_decomposition(delta, g1)
        recon = sum((t.matrix() for t in terms), np.zeros((m, m)))
        if np.abs(recon - phi(delta, g1).a).max() > 1e-10 * total.scale():
            raise AssertionError(f"instance {k}: decomposition mismatch")
        if not all(delta.has_face(t.support) for t in terms):
            raise AssertionError(f"instance {k}: non-face support emitted")


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
