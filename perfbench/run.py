#!/usr/bin/env python3
"""psdcone benchmark: one workload, one closed-loop client, in one process.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload cycle-decide --seed 1 --seconds 10 --trace 0

The program is driven only through ``psdcone.cli.main(argv)``, called
in-process on JSON files generated from ``--seed`` (see workloads.py), with
stdout captured.  Every output is checked against the generator's label by
check.py.  No threads; ``volume`` runs with ``--workers 1``.

Times are calibrated (see calibration.py): every BLOCK_S seconds of ops, a
fixed kernel is timed, and op wall times are scaled by the kernel's nominal
time over its measured time; each set-up is paired with a start-up kernel in
the same way.  Wall-time figures are kept in the report.

``--trace 0`` measures the end-to-end metrics with the library unpatched,
cycling over the op list until ``--seconds`` have passed:

* setup_s: median over SETUP_REPEATS fresh interpreters of the time from the
  first statement to ``import psdcone.cli`` plus the first op completed.
* ops_per_s: op runs divided by their summed time (checking excluded): the
  throughput of one closed-loop client.
* latency_p50_ms / latency_tail_ms: an op's latency is the median time of
  its runs, which filters out bursts of contention that calibration over
  BLOCK_S cannot follow; these are the median over ops, and the highest
  percentile with at least 10 ops beyond it (p99 from 1000 ops on).
* ok_frac: 1 - failed_frac, the share of the pool's ops whose exit code,
  verdict and certificate agree with the label and the checker.

Every op of the pool runs at least once, however short ``--seconds`` is, and
the result's ``attempted`` and ``failed`` count distinct ops, not op runs: an
op's outcome is fixed by its input, so both are a function of the seed alone
and two runs with one seed report the same counts.  An op whose outcome
changes between its runs is counted as nondeterministic and makes the run
incorrect.  Op-run counts are kept in the report.
* peak_rss_mb: peak resident set of this process.

``--trace 1`` alternates untraced and traced passes over a fixed prefix of
the op list and reports per-layer self time (ms/op), calls per op, the
sampler's counters and the tracing overhead; see spans.py for where each
layer is wrapped.

The last stdout line is the result object; the lines before it are a
readable summary.  A fuller report (machine facts, sample counts, failure
kinds, per-op call counts) and, with ``--trace 1``, the spans are written to
perfbench/_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_REPEATS = 7
TAIL_BEYOND = 10
BLOCK_S = 0.5
CHILD_TIMEOUT_S = 60
ROOT_SPAN = "cli.main"  # one CLI call; its self time is the CLI's own code

# Per-layer metric -> span name whose self time / call count it reports.
SELF_MS = {
    "cli.parse_ms": "cli.parse",
    "cli.emit_ms": "cli.emit",
    "cli.self_ms": ROOT_SPAN,
    "core.ingest_ms": "core.ingest",
    "core.params_ms": "core.params",
    "core.faces_ms": "core.faces",
    "chordal.is_chordal_ms": "chordal.is_chordal",
    "chordal.clique_complex_ms": "chordal.clique_complex",
    "chordal.fiber_ms": "chordal.fiber",
    "linalg.is_psd_ms": "linalg.is_psd",
    "linalg.cholesky_ms": "linalg.cholesky",
    "cycle.membership_ms": "cycle.membership",
    "cycle.fiber_ms": "cycle.fiber",
    "param.phi_ms": "param.phi",
    "param.combine_ms": "param.combine",
    "quotient.complex_quotient_ms": "quotient.complex_quotient",
    "quotient.schur_witness_ms": "quotient.schur_witness",
    "latent.simulate_ms": "latent.simulate",
    "latent.digraph_ms": "latent.digraph",
    "volume.rng_ms": "volume.rng",
    "volume.masks_ms": "volume.masks",
}
CALLS = {
    "chordal.is_chordal_calls": "chordal.is_chordal",
    "chordal.clique_complex_calls": "chordal.clique_complex",
    "linalg.is_psd_calls": "linalg.is_psd",
    "cycle.membership_calls": "cycle.membership",
    "param.phi_calls": "param.phi",
}

# Calls per op that follow from the code at the baseline, for ops whose
# verdict matches the label.  They record the duplicated work in a decision.
EXPECTED_CALLS = {
    "cycle-member": {"chordal.is_chordal": 1, "cycle.membership": 2, "linalg.is_psd": 3,
                     "cycle.fiber": 1, "param.phi": 1},
    "cycle-nonmember": {"cycle.membership": 1, "linalg.is_psd": 1, "cycle.fiber": 0},
    "cycle-not_psd": {"cycle.membership": 1, "linalg.is_psd": 1, "cycle.fiber": 0},
    "chordal-member": {"chordal.is_chordal": 2, "chordal.clique_complex": 1,
                       "linalg.is_psd": 1, "param.phi": 1},
}
ACCEPTANCE_M7 = (0.0033, 0.0003)

# Criterion 01 reference fractions, checked on the pooled distinct samples
# once at least VOLUME_POOL_MIN of them are in.
VOLUME_REFERENCE = {5: 0.95, 7: 0.99}
VOLUME_TOL = 0.01
VOLUME_POOL_MIN = 20_000

# argv: src dir, JSON list of argv lists.
SETUP_CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import psdcone.cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [psdcone.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"setup_s": time.perf_counter() - t0, "rcs": rcs}))
"""


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def call(main, argv):
    """Run one CLI call; (exit code, stdout text, wall ns)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        rc = main(argv)
        elapsed = time.perf_counter_ns() - start
    return rc, buf.getvalue(), elapsed


class Runner:
    """Runs ops, checks each output once per distinct text, tallies failures
    per distinct op (``attempted``, ``failed``) and per op run."""

    def __init__(self, main, check):
        self.main = main
        self.check = check
        self.seen: dict = {}        # op index -> (results, failure kind)
        self.kinds: dict = {}       # op index -> failure kind of its first run
        self.volume: dict = {}      # (m, samples, seed) -> (members, samples_psd)
        self.nondeterministic = 0
        self.runs = 0
        self.failed_runs = 0

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return sum(kind is not None for kind in self.kinds.values())

    @property
    def failures(self) -> dict:
        """Failure kind -> number of distinct ops that failed that way."""
        out: dict = {}
        for kind in self.kinds.values():
            if kind is not None:
                out[kind] = out.get(kind, 0) + 1
        return out

    def run(self, idx, op, recorder=None):
        """Run op idx; (wall ns or None if it raised, failure kind, results)."""
        results = []
        total = 0
        kind = None
        try:
            for argv in op.argvs:
                if recorder is None:
                    rc, text, ns = call(self.main, argv)
                else:
                    rc, text, ns = recorder.span(ROOT_SPAN, call, self.main, argv)
                results.append((rc, text))
                total += ns
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            kind = f"exception:{type(exc).__name__}"
            total = None
        if kind is None:
            cached = self.seen.get(idx)
            if cached is not None and cached[0] == results:
                kind = cached[1]
            else:
                kind = self.check(op, results)
                self.seen[idx] = (results, kind)
                if kind is None and op.workload == "volume-sample":
                    self._record_volume(op, results)
        self.runs += 1
        self.failed_runs += kind is not None
        if self.kinds.setdefault(idx, kind) != kind:
            self.nondeterministic += 1
        return total, kind, results

    def _record_volume(self, op, results):
        for m, (_, text) in zip(op.label["ms"], results):
            out = json.loads(text)
            key = (m, op.label["samples"], op.label["seed"])
            got = (out["members"], out["samples_psd"])
            if self.volume.setdefault(key, got) != got:
                self.nondeterministic += 1

    def volume_check(self):
        """Pooled fraction per m against criterion 01, when enough samples are in."""
        report = {}
        for m, ref in VOLUME_REFERENCE.items():
            members = sum(v[0] for k, v in self.volume.items() if k[0] == m)
            samples = sum(v[1] for k, v in self.volume.items() if k[0] == m)
            frac = members / samples if samples else float("nan")
            applied = samples >= VOLUME_POOL_MIN
            report[m] = {"fraction": frac, "samples": samples, "reference": ref,
                         "applied": applied,
                         "ok": (not applied) or abs(frac - ref) <= VOLUME_TOL}
        return report


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND values beyond it,
    capped at p99 and, for fewer than 2 * TAIL_BEYOND values, floored at p50."""
    n = len(latencies)
    q = min(0.99, max(0.5, 1.0 - TAIL_BEYOND / n))
    idx = max(0, math.ceil(q * n) - 1)
    return sorted(latencies)[idx], 100.0 * q


def latency_stats(runs):
    """Throughput over all runs; p50 and tail over each op's median run."""
    every = [x for r in runs if r for x in r]
    per_op = [statistics.median(r) for r in runs if r]
    tail_ms, tail_q = tail(per_op)
    return {"ops_per_s": len(every) / (sum(every) / 1e3),
            "latency_p50_ms": statistics.median(per_op), "latency_tail_ms": tail_ms,
            "tail_percentile": tail_q, "runs": len(every), "ops": len(per_op)}


def child(code, *args):
    """Run code in a fresh interpreter; the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(first, rcs):
    """Set-up time of the first op in fresh interpreters, each paired with a
    start-up kernel run next to it; the median calibrated time, the wall
    times, and whether every child exited with rcs."""
    from calibration import STARTUP_KERNEL, STARTUP_NOMINAL_S

    wall, calibrated = [], []
    ok = True
    for _ in range(SETUP_REPEATS):
        out = json.loads(child(SETUP_CHILD, SRC, json.dumps(first.argvs)))
        kernel_s = float(child(STARTUP_KERNEL))
        wall.append(out["setup_s"])
        calibrated.append(out["setup_s"] * STARTUP_NOMINAL_S / kernel_s)
        ok &= out["rcs"] == rcs
    return statistics.median(calibrated), wall, ok


def run_untraced(runner, ops, seconds, cal):
    """Closed loop cycling over ops until seconds pass and every op has run.

    Returns per op the calibrated ms and the wall ms of its runs, and the
    kernel times.
    """
    calibrated = [[] for _ in ops]
    wall = [[] for _ in ops]
    kernels = [cal.kernel_ms()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        block = []
        block_end = time.perf_counter() + BLOCK_S
        start = i
        while i == start or time.perf_counter() < block_end:
            idx = i % len(ops)
            ns, _, _ = runner.run(idx, ops[idx])
            if ns is not None:
                block.append((idx, ns / 1e6))
            i += 1
        kernels.append(cal.kernel_ms())
        factor = cal.factor((kernels[-2] + kernels[-1]) / 2)
        for idx, ms in block:
            calibrated[idx].append(ms * factor)
            wall[idx].append(ms)
    return calibrated, wall, kernels


def run_traced(runner, ops, seconds, recorder, cal):
    """Alternate untraced and traced passes over ops until seconds pass.

    Returns calibrated untraced ms, calibrated traced ms, the calibration
    factor of each traced pass, and per traced op id (op, failure kind, results).
    """
    plain_ms = traced_ms = 0.0
    factors = []
    op_info = {}
    kernel = cal.kernel_ms()
    deadline = time.perf_counter() + seconds
    while not factors or time.perf_counter() < deadline:
        ns = sum(runner.run(idx, op)[0] or 0 for idx, op in enumerate(ops))
        mid = cal.kernel_ms()
        plain_ms += ns / 1e6 * cal.factor((kernel + mid) / 2)
        ns = 0
        with recorder.patched():
            for idx, op in enumerate(ops):
                recorder.op = len(factors) * len(ops) + idx
                op_ns, kind, results = runner.run(idx, op, recorder)
                ns += op_ns or 0
                op_info[recorder.op] = (op, kind, results)
        kernel = cal.kernel_ms()
        factors.append(cal.factor((mid + kernel) / 2))
        traced_ms += ns / 1e6 * factors[-1]
    return plain_ms, traced_ms, factors, op_info


def layer_metrics(recorder, op_info, factors, plain_ms, traced_ms):
    from spans import layer_totals

    n_ops = len(op_info)
    per_pass = n_ops // len(factors)
    totals, per_op = layer_totals(recorder, lambda op: factors[op // per_pass])
    metrics = {}
    for name, span in SELF_MS.items():
        metrics[name] = (totals[span][0] / 1e6 / n_ops if span in totals else 0.0, "ms/op")
    for name, span in CALLS.items():
        metrics[name] = (totals[span][1] / n_ops if span in totals else 0.0, "calls/op")

    draws = {m: n for (kind, m), n in recorder.counts.items() if kind == "draws"}
    psd = {m: n for (kind, m), n in recorder.counts.items() if kind == "psd"}
    total_draws = sum(draws.values())
    normals = sum(2 * m * n for m, n in draws.items())
    taken = sum(json.loads(text)["samples_psd"]
                for op, kind, results in op_info.values()
                if op.workload == "volume-sample" and kind is None
                for _, text in results)
    metrics["volume.draws"] = (total_draws / n_ops, "draws/op")
    metrics["volume.acceptance_rate"] = \
        (sum(psd.values()) / total_draws if total_draws else 0.0, "ratio")
    metrics["volume.normals_per_psd_sample"] = (normals / taken if taken else 0.0, "count")
    metrics["trace.overhead_frac"] = (traced_ms / plain_ms - 1.0, "ratio")

    count_check = call_count_check(per_op, op_info)
    count_check["volume_acceptance"] = {
        f"m{m}": {"draws": draws[m], "psd": psd.get(m, 0), "rate": psd.get(m, 0) / draws[m]}
        for m in sorted(draws)}
    if 7 in draws:
        rate = psd.get(7, 0) / draws[7]
        count_check["volume_acceptance_m7_ok"] = \
            abs(rate - ACCEPTANCE_M7[0]) <= ACCEPTANCE_M7[1]
    return metrics, count_check


def call_count_check(per_op, op_info):
    """Observed calls per op kind, and whether they match EXPECTED_CALLS."""
    observed: dict = {}
    mismatched = 0
    checked: dict = {}
    for op_id, (op, kind, _) in op_info.items():
        counts = per_op.get(op_id, {})
        spans = {name: n for name, n in counts.items() if name != ROOT_SPAN}
        seen = observed.setdefault(op.kind, [])
        if spans not in seen:
            seen.append(spans)
        expect = EXPECTED_CALLS.get(op.kind)
        if expect is not None and kind is None:
            checked[op.kind] = checked.get(op.kind, 0) + 1
            if any(counts.get(name, 0) != n for name, n in expect.items()):
                mismatched += 1
    return {"expected": EXPECTED_CALLS, "observed": observed, "checked": checked,
            "mismatched": mismatched}


def machine_facts():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def kernel_summary(kernels):
    return {"runs": len(kernels), "median_ms": statistics.median(kernels),
            "min_ms": min(kernels), "max_ms": max(kernels)}


def measure(args, ops, runner, report):
    """Run the workload; (metrics, correct) and fill the report."""
    import calibration
    import psdcone.cli
    import workloads
    from check import check

    cal = calibration.for_workload(args.workload)
    first_pass = ops[:workloads.TRACE_OPS[args.workload]]
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        plain_ms, traced_ms, factors, op_info = run_traced(runner, first_pass, args.seconds,
                                                           recorder, cal)
        metrics, count_check = layer_metrics(recorder, op_info, factors, plain_ms, traced_ms)
        report["samples"] = {"traced_ops": len(op_info), "passes": len(factors),
                             "spans": len(recorder.spans)}
        report["calibration_factors"] = factors
        report["count_check"] = count_check
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": recorder.spans}, fh)
        return metrics, True

    warm = Runner(psdcone.cli.main, check)  # warm-up, not counted
    for idx, op in enumerate(first_pass):
        warm.run(idx, op)
    calibrated, wall, kernels = run_untraced(runner, ops, args.seconds, cal)
    # the fresh interpreters must exit as the in-process run of op 0 did
    rcs = [rc for rc, _ in runner.seen[0][0]] if 0 in runner.seen else None
    setup, setup_wall, setup_ok = measure_setup(ops[0], rcs)
    stats = latency_stats(calibrated)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
        "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report["samples"] = {"setup_s": SETUP_REPEATS, "op_runs": stats["runs"],
                         "distinct_ops": stats["ops"],
                         "latency_tail_percentile": stats["tail_percentile"],
                         "calibration_kernel_runs": len(kernels)}
    report["wall"] = dict(latency_stats(wall), setup_s=statistics.median(setup_wall),
                          setup_s_all=setup_wall)
    report["calibration_kernel"] = kernel_summary(kernels)
    if args.workload == "volume-sample":
        per_op = workloads.VOLUME_SAMPLES * len(workloads.VOLUME_MS)
        report["psd_samples_per_s"] = stats["ops_per_s"] * per_op
    return metrics, setup_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="psdcone benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "psdcone", "cli.py")):
        return fail(f"no psdcone source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import psdcone
    import psdcone.cli
    if os.path.dirname(os.path.abspath(psdcone.__file__)) != os.path.join(SRC, "psdcone"):
        return fail(f"psdcone imported from {psdcone.__file__}, not from {SRC}")

    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"in-{args.workload}-", dir=OUT)
    try:
        ops = workloads.generate(args.workload, args.seed, workdir)
        runner = Runner(psdcone.cli.main, check.check)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_facts(), "ops_in_pool": len(ops)}
        metrics, correct = measure(args, ops, runner, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = {k: v for k, v in runner.failures.items() if k not in check.KNOWN_DEFECTS}
    correct &= not unexpected and runner.nondeterministic == 0
    if args.workload == "volume-sample":
        report["volume_check"] = runner.volume_check()
        correct &= all(v["ok"] for v in report["volume_check"].values())
    result = {"correct": bool(correct), "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report.update(result, failed_frac=runner.failed / runner.attempted,
                  failures=runner.failures, nondeterministic=runner.nondeterministic,
                  op_runs=runner.runs, failed_op_runs=runner.failed_runs)
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(report['machine'])}")
    print(f"# samples {json.dumps(report['samples'])}")
    print(f"# failed_frac {report['failed_frac']:.4f} ({runner.failed} of {runner.attempted} "
          f"distinct ops; by kind {json.dumps(runner.failures)}; "
          f"{runner.failed_runs} of {runner.runs} op runs)")
    for key in ("wall", "calibration_kernel", "psd_samples_per_s", "volume_check",
                "count_check"):
        if key in report:
            print(f"# {key} {json.dumps(report[key], default=str)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
