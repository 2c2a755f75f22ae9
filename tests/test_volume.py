"""Monte Carlo volume estimator: determinism, instrumentation, invariances."""

import numpy as np
import pytest

from psdcone import volume
from psdcone.cycle import CycleMatrix, cycle_membership
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
        assert got == [3922, 4542, 4754, 4857, 4934]

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

    def test_std_error_formula(self):
        est = estimate_volume(3, 4000, seed=1)
        p = est.fraction
        assert est.std_error == pytest.approx(np.sqrt(p * (1 - p) / 4000))

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_volume(2, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_volume(3, 0, seed=0)


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


class TestTable:
    def test_monotone_in_m_at_moderate_n(self):
        ests = volume_table(20_000, seed=17, ms=(3, 4, 5))
        fracs = [e.fraction for e in ests]
        ses = [e.std_error for e in ests]
        assert fracs[0] + 3 * ses[0] < fracs[1]
        assert fracs[1] + 3 * ses[1] < fracs[2]

    def test_format(self):
        est = VolumeEstimate(3, 100, 78, 0.78, 0.041, 0)
        text = format_table([est])
        assert "fraction" in text and "78/100" in text
