"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Sample counts and
tolerances are pinned here and nowhere loosened; the heavy criteria
(the volume table, the 10^4-sample equivalence sweeps) take a few minutes
single-threaded in total.
"""

import numpy as np
import pytest

from psdcone.chordal import is_surjective
from psdcone.core import edge_complex
from psdcone.cycle import (CycleMatrix, counterexample_det,
                           counterexample_sigma, cycle_determinant,
                           cycle_fiber, cycle_membership, matching_sum)
from psdcone.errors import SingularBlock
from psdcone.instances import (random_complex, random_cycle_member,
                               random_cycle_pattern_matrix, random_params)
from psdcone.latent import (conditional_precision, covariance_identity,
                            simulate_y)
from psdcone.linalg import schur_complement
from psdcone.param import phi
from psdcone.quotient import schur_witness
from psdcone.selftest import (check_chordal, check_cone, check_cycle_fiber,
                              check_determinant, check_discriminant,
                              chordal_instance, cone_instance, suite_schur)
from psdcone.volume import _batch_masks, volume_table

from oracles import complete_graph, expand_edge_signs, gamma_edge, random_tree

TOL = 1e-9


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number:>2} ({name}): PASS {detail}")


def _canonical_edge_signs(gamma, m):
    """Representative of the per-edge sign orbit: first nonzero of each pair positive."""
    out = []
    for k in range(m):
        u, v = k, (k + 1) % m
        p, q = gamma_edge(gamma, u, v), gamma_edge(gamma, v, u)
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        out.extend((p, q))
    return np.array(out)


def _sample_psd_cycles(rng, m, count, batch=200_000):
    """Vectorized rejection sampler: (count, m) diag and cyc arrays, PD rows only."""
    diags, cycs = [], []
    got = 0
    while got < count:
        diag = np.abs(rng.standard_normal((batch, m)))
        cyc = rng.standard_normal((batch, m))
        pd, _ = _batch_masks(diag, cyc)
        idx = np.nonzero(pd)[0][: count - got]
        diags.append(diag[idx])
        cycs.append(cyc[idx])
        got += idx.size
    return np.concatenate(diags), np.concatenate(cycs)


def _stacked_cycle_dense(diag, cyc):
    n, m = diag.shape
    arr = np.zeros((n, m, m))
    for i in range(m):
        arr[:, i, i] = diag[:, i]
    for k in range(m):
        i, j = k, (k + 1) % m
        arr[:, i, j] = cyc[:, k]
        arr[:, j, i] = cyc[:, k]
    return arr


def test_criterion_01_volume_fractions():
    expected = {3: 0.78, 4: 0.90, 5: 0.95, 6: 0.98, 7: 0.99}
    estimates = volume_table(100_000, seed=20260810)
    errs = {}
    for est in estimates:
        errs[est.m] = abs(est.fraction - expected[est.m])
        assert errs[est.m] <= 0.01, (est.m, est.fraction)
    detail = " ".join(f"m={e.m}:{e.fraction:.4f}" for e in estimates)
    report(1, "reference volume fractions", detail)


def test_criterion_02_counterexample_family():
    for m in range(3, 9):
        rho = 1 + 1 / (m - 1) if m % 2 else -1 - 1 / (m - 1)  # window midpoint
        sig = counterexample_sigma(m, rho)
        dense = sig.to_symmetric()
        min_eig = float(np.linalg.eigvalsh(dense.a)[0])
        assert min_eig >= -1e-9, (m, min_eig)
        verdict = cycle_membership(sig, TOL)
        assert not verdict.member, (m, verdict.slack)
        closed = counterexample_det(m, rho)
        dense_det = float(np.linalg.det(dense.a))
        assert abs(dense_det - closed) <= 1e-12 * max(1.0, abs(closed)), m
        assert abs(cycle_determinant(sig) - closed) <= 1e-12 * max(1.0, abs(closed)), m
    report(2, "counterexample family PSD non-members, closed-form det")


def test_criterion_03_determinant_expansion():
    rng = np.random.default_rng(3)
    worst = check_determinant(random_cycle_pattern_matrix(rng, m)
                              for m in range(3, 11) for _ in range(1000))
    report(3, "matching expansion equals dense determinant",
           f"worst rel err {worst:.2e} over 8000 instances")


def test_criterion_04_discriminant_identity():
    rng = np.random.default_rng(4)
    check_discriminant(random_cycle_member(rng, m)[0]
                       for m in range(3, 9) for _ in range(1000))
    report(4, "quartic discriminant identity and sign pattern", "6000 instances")


def test_criterion_05_cycle_fiber_round_trip():
    rng = np.random.default_rng(5)
    members = [random_cycle_member(rng, m, zero_edges=(int(rng.integers(0, m)),)
                                   if trial % 10 == 0 else ())
               for m in range(3, 9) for trial in range(1000)]
    fibers = check_cycle_fiber(sig for sig, _ in members)
    for k, ((sig, gamma0), fib) in enumerate(zip(members, fibers)):
        assert len(fib.representatives) == 2
        target_sig = _canonical_edge_signs(gamma0, sig.m)
        assert any(np.abs(_canonical_edge_signs(rep, sig.m) - target_sig).max() <= 1e-6
                   for rep in fib.representatives), k
    for m in (3, 4, 5):
        for _ in range(100):
            sig, _ = random_cycle_member(rng, m)
            fib = cycle_fiber(sig, TOL)
            sols = set()
            for rep in fib.representatives:
                for cand in expand_edge_signs(rep):
                    sols.add(tuple(np.round(_canonical_raw(cand, m), 8)))
            assert len(sols) == 2 ** (m + 1), (m, len(sols))
    report(5, "cycle fiber round trip and 2^(m+1) fiber count", "6000 + 300 instances")


def _canonical_raw(gamma, m):
    out = []
    for k in range(m):
        u, v = k, (k + 1) % m
        out.extend((gamma_edge(gamma, u, v), gamma_edge(gamma, v, u)))
    return np.array(out)


def test_criterion_06_membership_equivalences():
    rng = np.random.default_rng(6)
    boundary_total = 0
    for m in range(3, 7):
        n = 10_000
        diag, cyc = _sample_psd_cycles(rng, m, n)
        scale = np.maximum(1.0, np.maximum(np.abs(diag).max(axis=1),
                                           np.abs(cyc).max(axis=1)))
        det_scale = scale ** m

        full = _stacked_cycle_dense(diag, cyc)
        prod = np.prod(cyc, axis=1)
        sign = 1.0 if m % 2 == 1 else -1.0
        dets = np.linalg.det(full)
        msum = dets - sign * 2.0 * prod
        slack = msum - 2.0 * np.abs(prod)

        flip_min_eig = np.empty((n, m))
        for e in range(m):
            flipped = full.copy()
            i, j = e, (e + 1) % m
            flipped[:, i, j] *= -1.0
            flipped[:, j, i] *= -1.0
            flip_min_eig[:, e] = np.linalg.eigvalsh(flipped)[:, 0]

        member_matching = slack >= -TOL * det_scale
        flips_psd = flip_min_eig >= (-TOL * scale)[:, None]
        member_all = flips_psd.all(axis=1)
        member_any = flips_psd.any(axis=1)

        boundary = (np.abs(slack) <= TOL * det_scale) | \
            (np.abs(flip_min_eig) <= (TOL * scale)[:, None]).any(axis=1)
        boundary_total += int(boundary.sum())
        solid = ~boundary
        disagreements = int((member_matching[solid] != member_all[solid]).sum()
                            + (member_matching[solid] != member_any[solid]).sum())
        assert disagreements == 0, (m, disagreements)
    report(6, "three membership conditions agree",
           f"40000 samples, {boundary_total} boundary-flagged")


def test_criterion_07_chordal_surjectivity():
    rng = np.random.default_rng(7)
    check_chordal(chordal_instance(rng, int(rng.integers(2, 11)), 0.7) for _ in range(1000))
    for _ in range(100):
        tree = random_tree(rng, int(rng.integers(2, 11)))
        assert is_surjective(edge_complex(tree))
    assert not is_surjective(edge_complex(complete_graph(3)))
    report(7, "chordal fiber round trip; forests surjective", "1000 + 100 instances")


def test_criterion_08_schur_identity():
    rng = np.random.default_rng(8)
    suite_schur(rng, 1000)
    # iterated single-vertex quotients match the block elimination
    count = 0
    while count < 200:
        m = int(rng.integers(4, 9))
        delta = random_complex(rng, m)
        gamma = random_params(rng, delta)
        u1, u2 = sorted(rng.choice(m, size=2, replace=False).tolist())
        sigma = phi(delta, gamma)
        try:
            joint = schur_complement(sigma, {u1, u2})
        except SingularBlock:
            continue
        w1 = schur_witness(delta, gamma, u1, TOL)
        w2 = schur_witness(w1.quotient_complex, w1.params, w1.vertex_map[u2], TOL)
        err = np.abs(w2.image().a - joint.a).max()
        assert err <= 1e-9 * joint.scale(), err
        count += 1
    report(8, "Schur witness identity and quotient formula", "1000 + 200 instances")


def test_criterion_09_cone_addition():
    rng = np.random.default_rng(9)
    check_cone(cone_instance(rng, int(rng.integers(2, 9)), 0.8) for _ in range(1000))
    report(9, "cone addition and extreme-ray reconstruction", "1000 pairs")


def test_criterion_10_latent_identities():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        delta = random_complex(rng, m)
        gamma = random_params(rng, delta)
        target = phi(delta, gamma)
        block = covariance_identity(delta, gamma, rtol=1e-10)
        assert np.abs(block.a - target.a).max() <= 1e-10 * target.scale()
        prec = conditional_precision(delta, gamma, rtol=1e-9)
        assert np.abs(prec.a - target.a).max() <= 1e-9 * target.scale()
    # empirical covariance within 3 standard errors entrywise
    rng = np.random.default_rng(11)
    n = 200_000
    for _ in range(20):
        delta = random_complex(rng, int(rng.integers(2, 6)))
        gamma = random_params(rng, delta, density=0.9)
        target = phi(delta, gamma)
        cov = simulate_y(delta, gamma, n, seed=int(rng.integers(0, 2 ** 31)))
        se = np.sqrt((np.outer(np.diag(target.a), np.diag(target.a))
                      + target.a ** 2) / n)
        assert np.all(np.abs(cov.a - target.a) <= 3.0 * se + 1e-12)
    report(10, "latent covariance and dual precision identities", "1000 + 20 instances")


def test_criterion_11_triangle_fixtures():
    hot = CycleMatrix.from_arrays([1.0, 1.0, 1.0], [0.9, 0.9, 0.9])
    assert np.linalg.eigvalsh(hot.to_symmetric().a)[0] >= -1e-12
    v = cycle_membership(hot, TOL)
    assert not v.member
    assert v.slack == pytest.approx(1 - 3 * 0.81 - 2 * 0.729)

    grid = np.linspace(-0.9, 0.9, 10)
    checked = 0
    for r12 in grid:
        for r13 in grid:
            for r23 in grid:
                sig = CycleMatrix.from_arrays([1.0, 1.0, 1.0], [r12, r23, r13])
                dense = sig.to_symmetric()
                eigs = np.linalg.eigvalsh(dense.a)
                slack = matching_sum(sig) - 2.0 * abs(r12 * r13 * r23)
                if eigs[0] < -TOL or abs(slack) <= TOL or abs(eigs[0]) <= TOL:
                    continue  # not PSD, or boundary-flagged
                member = slack >= 0
                if min(r12, r13, r23) > 0.5:
                    # all correlations above 1/2 force non-membership
                    assert not member, (r12, r13, r23)
                flipped = dense.a.copy()
                flipped[0, 1] = -flipped[0, 1]
                flipped[1, 0] = -flipped[1, 0]
                flip_eig = np.linalg.eigvalsh(flipped)[0]
                if abs(flip_eig) <= TOL:
                    continue
                assert member == (flip_eig >= 0), (r12, r13, r23)
                checked += 1
    assert checked > 400
    report(11, "triangle image fixtures on the correlation grid",
           f"{checked} PSD grid points checked")
