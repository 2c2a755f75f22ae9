"""Calibration kernels that turn wall time into calibrated time.

The benchmark runs on shared hosts where other tenants change the speed of
this process by up to half, for seconds to minutes at a time (measured on a
2-vCPU VM: a fixed pure-Python loop alternates between 2.9 ms and 4.3 ms).
Every timing the benchmark reports is therefore divided by the time of a
fixed kernel run next to it, and multiplied by the kernel's nominal time:

    calibrated ms = wall ms * NOMINAL_MS / kernel ms

A kernel mimics its workload's mix of work, so that contention slows both
by the same factor.  The kernels are part of the benchmark's definition:
changing one, or its nominal time, re-bases every timing measured with it.
Nothing here calls psdcone, so a change to the program never moves them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

import numpy as np

REPEATS = 3

_DOC = {"values": [{"face": [i + 1, i + 2, i + 3], "vertex": i + 2, "gamma": 0.1 * i}
                   for i in range(60)]}
_SPD = np.arange(64.0).reshape(8, 8)
_SPD = _SPD @ _SPD.T + np.eye(8)


def interpreter_kernel() -> float:
    """The CLI's mix: argparse, JSON round trip, tuple/set churn, small numpy calls."""
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command")
    for k in range(6):
        p = sub.add_parser(f"c{k}")
        p.add_argument("--path", required=True)
        p.add_argument("--tol", type=float, default=1e-9)
    parser.parse_args(["c3", "--path", "x.json", "--tol", "2"])
    doc = json.loads(json.dumps(_DOC, indent=2, sort_keys=True))
    acc = 0.0
    for rec in doc["values"]:
        acc += rec["gamma"] * len(tuple(sorted(set(rec["face"]))))
    for _ in range(20):
        v = np.zeros(8)
        v[3] = acc
        acc += 1e-9 * float(np.abs(np.outer(v, v) + _SPD).max())
        acc += 1e-9 * float(np.linalg.eigvalsh(_SPD)[0])
    return acc


def sampler_kernel() -> float:
    """The sampler's mix: a block of normal draws and a three-term recurrence over it."""
    rng = np.random.Generator(np.random.PCG64(12345))
    diag = np.abs(rng.standard_normal((25_000, 7)))
    cyc = rng.standard_normal((25_000, 7))
    t_prev, t = np.ones(25_000), diag[:, 0].copy()
    for k in range(1, 7):
        t, t_prev = diag[:, k] * t - cyc[:, k - 1] ** 2 * t_prev, t
    return float(np.count_nonzero(t > 0))


# kernel -> (function, nominal ms).  The nominal times are about what the
# kernels take on an uncontended 2-vCPU x86-64 VM with Python 3.11 and
# numpy 2.4, so calibrated times read close to wall times there.
KERNELS = {
    "interpreter": (interpreter_kernel, 1.6),
    "sampler": (sampler_kernel, 6.0),
}
# The sampler workload is numpy on large arrays; the others are
# interpreter-bound.
WORKLOAD_KERNEL = {"volume-sample": "sampler"}

# Set-up is timed in fresh interpreters, where most of the work is loading
# modules, so its kernel is a fresh interpreter that loads a fixed set of the
# modules psdcone needs and makes a first numpy.linalg call.  It prints its
# time from its first statement on, as the set-up child does.
STARTUP_KERNEL = """
import time
t0 = time.perf_counter()
import argparse, collections, concurrent.futures, dataclasses, heapq, itertools, json
import numpy
numpy.linalg.eigvalsh(numpy.eye(3))
print(time.perf_counter() - t0)
"""
STARTUP_NOMINAL_S = 0.09


class Calibration:
    """Times one kernel; factor() turns wall ms into calibrated ms."""

    def __init__(self, kernel: str):
        self.kernel, self.nominal_ms = KERNELS[kernel]
        self.kernel()  # the first call pays imports and caches

    def kernel_ms(self) -> float:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self.kernel()
            times.append((perf_counter() - start) * 1e3)
        return statistics.median(times)

    def factor(self, kernel_ms: float) -> float:
        return self.nominal_ms / kernel_ms


def for_workload(workload: str) -> Calibration:
    return Calibration(WORKLOAD_KERNEL.get(workload, "interpreter"))
