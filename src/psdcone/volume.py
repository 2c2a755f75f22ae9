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

import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import path_det, tridiagonal_minors

DEFAULT_BATCH = 100_000
# Each worker is one process; a larger request fails before any is started.
MAX_WORKERS = 64
# The PSD acceptance rate falls about 2.5-fold per vertex (near 2e-6 at m = 16
# and 5e-8 at m = 20) and a candidate costs about 1e-7 s on one worker (2-vCPU
# host): a PSD sample takes about 0.05 s at m = 16 and 2 s at m = 20, so a
# larger m is refused before any draw.
MAX_M = 16
# The helper thread fills BUFFERS arrays of CHUNK normals in turn: 128k
# normals (1 MB) in flight.  Larger chunks ran slower.
CHUNK = 32_768
BUFFERS = 4


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
    for k, full_path in enumerate(tridiagonal_minors(diag.T, sq[:, : m - 1].T), 1):
        if k < m:
            pd &= full_path > 0
    interior = path_det(diag[:, 1: m - 1].T, sq[:, 1: m - 2].T)
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


class _Normals:
    """One PCG64 stream's standard normals, taken in stream order.

    ``standard_normal(a)`` followed by ``standard_normal(b)`` returns the
    values of ``standard_normal(a + b)``, so where the stream is cut does not
    change it.  With ``ahead``, a helper thread fills BUFFERS arrays of CHUNK
    normals in turn while the caller works (numpy releases the GIL while it
    fills).  ``take`` copies out of them and hands an array back for refilling
    only once it has read all of it, so nothing it returned is written again.
    Use as a context manager: leaving it stops and joins the helper, so the
    process never forks with it alive.
    """

    def __init__(self, seed_seq: np.random.SeedSequence, ahead: bool):
        self._rng = np.random.Generator(np.random.PCG64(seed_seq))
        self._thread = None
        if ahead:
            import queue

            self._empty, self._full = queue.SimpleQueue(), queue.SimpleQueue()
            for _ in range(BUFFERS):
                self._empty.put(np.empty(CHUNK))
            self._stop = threading.Event()
            self._head, self._pos = None, 0
            self._thread = threading.Thread(target=self._fill, daemon=True)
            self._thread.start()

    def _fill(self):
        try:
            while (buf := self._empty.get()) is not None and not self._stop.is_set():
                self._rng.standard_normal(out=buf)
                self._full.put(buf)
        except Exception as exc:  # raised again by take
            self._full.put(exc)

    def take(self, n: int) -> np.ndarray:
        """The next n normals of the stream."""
        if self._thread is None:
            return self._rng.standard_normal(n)
        out = np.empty(n)
        at = 0
        while at < n:
            if self._head is None or self._pos == self._head.size:
                if self._head is not None:
                    self._empty.put(self._head)
                self._head, self._pos = self._full.get(), 0
                if isinstance(self._head, Exception):
                    raise self._head
            k = min(n - at, self._head.size - self._pos)
            out[at: at + k] = self._head[self._pos: self._pos + k]
            self._pos += k
            at += k
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._stop.set()
            self._empty.put(None)  # wakes the helper if it waits for an array
            self._thread.join()


def _spare_cpu(workers: int) -> bool:
    """Whether this process may run one helper thread per sampling worker."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2 * workers


def _count_stream(m: int, quota: int, seed_seq: np.random.SeedSequence,
                  batch: int, progress=False, *, workers: int = 1) -> tuple[int, int, int]:
    """Consume one RNG stream until `quota` PSD samples are taken, in stream order.

    Returns (PSD samples taken, members among them, candidates drawn up to
    the last sample taken).  ``workers`` is the number of streams running at
    once; the normals are drawn ahead on a helper thread when the process
    has a spare CPU for each.
    """
    taken = 0
    members = 0
    drawn = 0
    with _Normals(seed_seq, ahead=_spare_cpu(workers)) as normals:
        def draw(j, rows):
            return normals.take(rows.size)

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
    m, quota, state, batch, workers = args
    return _count_stream(m, quota, np.random.SeedSequence(entropy=state[0], spawn_key=state[1]),
                         batch, workers=workers)


def estimate_volume(m: int, n_samples: int, seed: int, workers: int = 1,
                    batch: int = DEFAULT_BATCH, progress: bool = False) -> VolumeEstimate:
    """Estimate the spherical volume fraction of the image cone for the m-cycle.

    Deterministic for fixed (m, n_samples, seed, workers): worker streams are
    spawned from the seed and merged counts do not depend on scheduling.
    """
    if not 3 <= m <= MAX_M:
        raise ValueError(f"need 3 <= m <= {MAX_M}, got {m}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    workers = int(workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"need 1 to {MAX_WORKERS} workers, got {workers}")
    quotas = [n_samples // workers + (1 if w < n_samples % workers else 0)
              for w in range(workers)]
    quotas = [q for q in quotas if q > 0]
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(quotas))
    if len(quotas) == 1:
        counts = [_count_stream(m, quotas[0], children[0], batch, progress)]
    else:
        # the pool machinery (multiprocessing and its dependencies) loads only here
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(m, q, (ss.entropy, ss.spawn_key), batch, len(quotas))
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
