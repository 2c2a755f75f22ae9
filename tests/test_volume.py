"""Monte Carlo volume estimator: determinism, instrumentation, invariances."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from psdcone import volume
from psdcone.cycle import CycleMatrix, cycle_membership
from psdcone.linalg import tridiagonal_minors
from psdcone.volume import (VolumeEstimate, _batch_masks, estimate_volume,
                            format_table, volume_table)


class TestEstimateVolume:
    def test_deterministic_bitwise(self):
        a = estimate_volume(4, 5000, seed=11)
        b = estimate_volume(4, 5000, seed=11)
        assert a == b

    def test_seed_changes_stream(self):
        a = estimate_volume(4, 5000, seed=11)
        b = estimate_volume(4, 5000, seed=12)
        assert a.members != b.members or a.fraction != b.fraction

    def test_member_counts_pinned(self):
        # any change to the draws or to the masks moves these counts
        got = [estimate_volume(m, 5000, seed=11).members for m in range(3, 8)]
        assert got == [3904, 4537, 4771, 4865, 4926]

    def test_always_true_predicate_gives_one(self, monkeypatch):
        masks = volume._batch_masks
        monkeypatch.setattr(volume, "_batch_masks", lambda diag, cyc: (
            masks(diag, cyc)[0], np.ones(diag.shape[0], dtype=bool)))
        est = estimate_volume(5, 2000, seed=0)
        assert est.fraction == 1.0
        assert est.members == est.samples_psd == 2000

    def test_worker_split_counts(self):
        est = estimate_volume(3, 7001, seed=5, workers=3)
        assert est.samples_psd == 7001
        assert est == estimate_volume(3, 7001, seed=5, workers=3)
        # each worker stops at its last sample, well inside its first batch
        assert est.samples_psd < est.draws < 3 * volume.DEFAULT_BATCH
        assert est.acceptance_rate == est.samples_psd / est.draws
        assert 0.09 < est.acceptance_rate < 0.11

    def test_progress_reports_draws_and_acceptance(self, capsys):
        estimate_volume(3, 2000, seed=2, batch=1000, progress=True)
        lines = capsys.readouterr().err.splitlines()
        assert lines and all("draws (acceptance 0." in line for line in lines)

    def test_std_error_formula(self):
        est = estimate_volume(3, 4000, seed=1)
        p = est.fraction
        assert est.std_error == pytest.approx(np.sqrt(p * (1 - p) / 4000))

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_volume(2, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_volume(3, 0, seed=0)
        with pytest.raises(ValueError, match="workers"):
            estimate_volume(3, 10, seed=0, workers=volume.MAX_WORKERS + 1)


class TestBatchMasks:
    def test_masks_match_reference_implementations(self):
        rng = np.random.default_rng(2)
        for m in range(3, 8):
            diag = np.abs(rng.standard_normal((200, m)))
            cyc = rng.standard_normal((200, m))
            pd, member = _batch_masks(diag, cyc)
            for k in range(200):
                sig = CycleMatrix.from_arrays(diag[k], cyc[k])
                dense = sig.to_symmetric().a
                assert pd[k] == bool(np.linalg.eigvalsh(dense)[0] > 0), k
                if pd[k]:
                    assert member[k] == cycle_membership(sig).member

    def test_membership_scale_invariant(self):
        rng = np.random.default_rng(3)
        diag = np.abs(rng.standard_normal((500, 5)))
        cyc = rng.standard_normal((500, 5))
        _, member = _batch_masks(diag, cyc)
        for c in (0.01, 7.3):
            _, scaled = _batch_masks(c * diag, c * cyc)
            assert np.array_equal(member, scaled)


class TestStagedCandidates:
    def test_survivors_are_exactly_the_rows_with_positive_leading_minors(self):
        rng = np.random.default_rng(4)
        n = 20_000
        for m in range(3, 11):
            diag = np.abs(rng.standard_normal((n, m)))
            diag[:5, 0] = 0.0  # minor 1 vanishes on these rows only
            cyc = rng.standard_normal((n, m))
            coords = np.hstack([diag, cyc])
            served = []

            def draw(j, rows):
                served.append(j)
                return coords[rows, j]

            rows, d, c = volume._staged_candidates(draw, n, m)
            minors = list(tridiagonal_minors(diag, cyc[:, : m - 1] ** 2))[: m - 1]
            expected = np.flatnonzero(np.all(np.array(minors) > 0, axis=0))
            assert expected.size > 0 and expected[0] >= 5
            assert np.array_equal(rows, expected), m
            assert sorted(served) == list(range(2 * m))
            assert np.array_equal(d, diag[rows]) and np.array_equal(c, cyc[rows])
            pd, member = _batch_masks(diag, cyc)
            staged_pd, staged_member = _batch_masks(d, c)
            assert np.array_equal(staged_pd, pd[rows])
            assert np.array_equal(staged_member, member[rows])
            assert not np.delete(pd, rows).any()


class TestTable:
    def test_monotone_in_m_at_moderate_n(self):
        ests = volume_table(20_000, seed=17, ms=(3, 4, 5))
        fracs = [e.fraction for e in ests]
        ses = [e.std_error for e in ests]
        assert fracs[0] + 3 * ses[0] < fracs[1]
        assert fracs[1] + 3 * ses[1] < fracs[2]

    def test_volume_table_script_reaches_m9(self, monkeypatch, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "volume_table.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--samples", "2000", "--m-max", "9"])
        assert runpy.run_path(str(script))["main"]() == 0
        out, err = capsys.readouterr()
        assert [line.split()[0] for line in out.splitlines()[1:]] == [str(m) for m in range(3, 10)]
        summary = [line for line in err.splitlines() if " draws, acceptance " in line]
        assert [line.split()[1] for line in summary] == [f"m={m}:" for m in range(3, 10)]

    def test_format(self):
        est = VolumeEstimate(3, 100, 78, 0.78, 0.041, 0)
        text = format_table([est])
        assert "fraction" in text and "78/100" in text
