"""Monte Carlo estimate of the spherical volume fraction of the cycle image cone.

Directions in the 2m-dimensional cycle-pattern coordinate space are drawn
with i.i.d. standard normal coordinates (rotation invariance makes this the
spherical measure; both the PSD test and the membership inequality are
scale invariant, so normalization is immaterial to the counts).  Draws are
rejected until the requested number of PSD samples is collected and the
membership fraction among them is returned.

Three exact accelerations keep the rejection affordable: diagonal coordinates
are drawn half-normal (PSD forces a nonnegative diagonal, and conditioning
factorizes over independent coordinates); positive definiteness is decided
by the leading-principal-minor recurrences of the cycle pattern instead of
an eigendecomposition; and coordinates are drawn in leading-minor order, so
a candidate is dropped at its first non-positive minor before its later
coordinates are drawn.  None of them changes the conditional law of the
accepted samples: the coordinates are independent, and a failed leading
minor rejects a candidate whatever its later coordinates are.  The
complement of PD within PSD has measure zero.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import path_det, tridiagonal_minors

DEFAULT_BATCH = 100_000
# Each worker is one process; a larger request fails before any is started.
MAX_WORKERS = 64


@dataclass(frozen=True)
class VolumeEstimate:
    """Fraction of PSD cycle-pattern directions lying in the image cone."""

    m: int
    samples_psd: int
    members: int
    fraction: float
    std_error: float
    seed: int
    draws: int = 0  # candidates drawn up to the last PSD sample taken, over all workers

    @property
    def acceptance_rate(self) -> float:
        """PSD samples per candidate drawn."""
        return self.samples_psd / self.draws if self.draws else float("nan")

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "samples_psd": self.samples_psd,
            "members": self.members,
            "fraction": self.fraction,
            "std_error": self.std_error,
            "seed": self.seed,
        }


def _batch_masks(diag: np.ndarray, cyc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(is positive definite, membership slack >= 0) masks for a batch.

    Leading principal minors of the cycle pattern are tridiagonal
    determinants (the wrap entry only enters the full determinant, through
    the matching expansion), so everything reduces to three-term
    recurrences over the batch.
    """
    m = diag.shape[1]
    sq = cyc ** 2
    pd = np.ones(diag.shape[0], dtype=bool)
    # path minors 1..m-1 are leading minors of the cycle; minor m is the full path
    for k, full_path in enumerate(tridiagonal_minors(diag, sq[:, : m - 1]), 1):
        if k < m:
            pd &= full_path > 0
    interior = path_det(diag[:, 1: m - 1], sq[:, 1: m - 2])
    msum = full_path - sq[:, m - 1] * interior
    cycprod = np.prod(cyc, axis=1)
    sign = 1.0 if m % 2 == 1 else -1.0
    det = msum + sign * 2.0 * cycprod
    pd &= det > 0
    member = msum - 2.0 * np.abs(cycprod) >= 0.0
    return pd, member


def _staged_candidates(draw, n: int, m: int):
    """Candidates among `n` whose leading minors 1..m-1 are positive, in stream order.

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


def _count_stream(m: int, quota: int, seed_seq: np.random.SeedSequence,
                  batch: int, progress=False) -> tuple[int, int, int]:
    """Consume one RNG stream until `quota` PSD samples are taken, in stream order.

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
        rows, diag, cyc = _staged_candidates(draw, batch, m)
        pd, member = _batch_masks(diag, cyc)
        idx = np.flatnonzero(pd)[: quota - taken]
        taken += idx.size
        members += int(member[idx].sum())
        drawn += batch if taken < quota else int(rows[idx[-1]]) + 1
        if progress and drawn % (10 * batch) == 0:
            print(f"[volume m={m}] {taken}/{quota} psd samples after {drawn} draws "
                  f"(acceptance {taken / drawn:.3g})", file=sys.stderr)
    return taken, members, drawn


def _worker(args):
    m, quota, state, batch = args
    return _count_stream(m, quota, np.random.SeedSequence(entropy=state[0], spawn_key=state[1]),
                         batch)


def estimate_volume(m: int, n_samples: int, seed: int, workers: int = 1,
                    batch: int = DEFAULT_BATCH, progress: bool = False) -> VolumeEstimate:
    """Estimate the spherical volume fraction of the image cone for the m-cycle.

    Deterministic for fixed (m, n_samples, seed, workers): worker streams are
    spawned from the seed and merged counts do not depend on scheduling.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    workers = max(1, int(workers))
    if workers > MAX_WORKERS:
        raise ValueError(f"at most {MAX_WORKERS} workers, got {workers}")
    quotas = [n_samples // workers + (1 if w < n_samples % workers else 0)
              for w in range(workers)]
    quotas = [q for q in quotas if q > 0]
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(quotas))
    if len(quotas) == 1:
        counts = [_count_stream(m, quotas[0], children[0], batch, progress)]
    else:
        jobs = [(m, q, (ss.entropy, ss.spawn_key), batch)
                for q, ss in zip(quotas, children)]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            counts = list(pool.map(_worker, jobs))
    taken = sum(c[0] for c in counts)
    members = sum(c[1] for c in counts)
    draws = sum(c[2] for c in counts)
    frac = members / taken
    se = float(np.sqrt(frac * (1.0 - frac) / taken))
    return VolumeEstimate(m, taken, members, frac, se, seed, draws)


def volume_table(n_samples: int, seed: int, ms=(3, 4, 5, 6, 7),
                 workers: int = 1, progress: bool = False) -> list[VolumeEstimate]:
    return [estimate_volume(m, n_samples, seed, workers=workers, progress=progress)
            for m in ms]


def format_table(estimates) -> str:
    lines = ["m    fraction   std_error   members/samples"]
    for est in estimates:
        lines.append(
            f"{est.m:<4d} {est.fraction:<10.4f} {est.std_error:<11.2e} "
            f"{est.members}/{est.samples_psd}"
        )
    return "\n".join(lines)
