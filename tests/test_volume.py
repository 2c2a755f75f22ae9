"""Monte Carlo volume estimator: determinism, instrumentation, invariances."""

import contextlib
import runpy
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sequential_count_stream
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

    def test_draw_counts_pinned(self):
        got = [estimate_volume(m, 5000, seed=11).draws for m in range(3, 8)]
        assert got == [50707, 124681, 295959, 682458, 1543879]

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
        for workers in (0, -4, volume.MAX_WORKERS + 1):
            with pytest.raises(ValueError, match=f"workers, got {workers}"):
                estimate_volume(3, 10, seed=0, workers=workers)
        with pytest.raises(ValueError, match=f"m <= {volume.MAX_M}, got {volume.MAX_M + 1}"):
            estimate_volume(volume.MAX_M + 1, 1, seed=0)


@contextlib.contextmanager
def cpus(n):
    """Report n CPUs to the sampler, which starts a helper thread per worker
    only when that leaves a CPU for each."""
    with mock.patch.object(volume.os, "sched_getaffinity", lambda pid: set(range(n))):
        yield


@st.composite
def streams(draw):
    """(m, batch, quota) that run within a few thousand candidates per batch
    size: acceptance is about 0.1 at m = 3 and falls about twofold per m."""
    m = draw(st.integers(3, 10))
    batch = draw(st.sampled_from([1, 7, 1000]))
    cap = (300 if batch == 1000 else 12) >> (m - 3)
    return m, batch, draw(st.integers(1, max(1, cap)))


class TestStream:
    """Drawing ahead cuts the stream elsewhere but takes the same normals."""

    @given(streams(), st.sampled_from([5, 4096, volume.CHUNK]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_the_sequential_stream(self, stream, chunk, ahead, seed):
        m, batch, quota = stream
        seed_seq = np.random.SeedSequence(seed)
        expected = sequential_count_stream(m, quota, seed_seq, batch)
        with cpus(2 if ahead else 1), mock.patch.object(volume, "CHUNK", chunk):
            assert volume._count_stream(m, quota, seed_seq, batch) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimate_matches_sequential_streams(self, workers):
        n = 301
        quotas = [n // workers + (w < n % workers) for w in range(workers)]
        counts = [sequential_count_stream(4, q, ss, 1000)
                  for q, ss in zip(quotas, np.random.SeedSequence(9).spawn(workers))]
        expected = tuple(sum(c[i] for c in counts) for i in range(3))
        for n_cpus in (1, 2 * workers):  # helper off, then on in every worker
            with cpus(n_cpus):
                est = estimate_volume(4, n, seed=9, workers=workers, batch=1000)
            assert (est.samples_psd, est.members, est.draws) == expected


class TestHelperThread:
    def test_one_cpu_starts_no_helper(self, monkeypatch):
        masks = volume._batch_masks
        seen = []
        monkeypatch.setattr(volume, "_batch_masks",
                            lambda diag, cyc: seen.append(threading.active_count())
                            or masks(diag, cyc))
        before = threading.active_count()
        got = {}
        for n_cpus in (1, 2):
            seen.clear()
            with cpus(n_cpus):
                got[n_cpus] = estimate_volume(5, 500, seed=3, batch=1000)
            assert set(seen) == {before + n_cpus - 1}
            assert threading.active_count() == before
        assert got[1] == got[2]

    def test_error_mid_stream_propagates_and_joins_the_helper(self, monkeypatch):
        masks = volume._batch_masks
        seen = []

        def failing(diag, cyc):
            seen.append(threading.active_count())
            if len(seen) == 3:
                raise RuntimeError("mask failure")
            return masks(diag, cyc)

        monkeypatch.setattr(volume, "_batch_masks", failing)
        before = threading.active_count()
        with cpus(2), pytest.raises(RuntimeError, match="mask failure"):
            estimate_volume(7, 10_000, seed=3, batch=1000)
        assert seen == [before + 1] * 3
        assert threading.active_count() == before

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        class Generator:
            """Fails, saying whether the helper filled an array or a draw was inline."""

            def __init__(self, bit_generator):
                pass

            def standard_normal(self, size=None, out=None):
                raise FloatingPointError("drawn inline" if out is None else "helper failure")

        monkeypatch.setattr(volume.np.random, "Generator", Generator)
        before = threading.active_count()
        with cpus(2), pytest.raises(FloatingPointError, match="helper failure"):
            estimate_volume(3, 10, seed=0)
        assert threading.active_count() == before


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
            minors = list(tridiagonal_minors(diag.T, cyc[:, : m - 1].T ** 2))[: m - 1]
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
