"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from psdcone.cli import main  # noqa: E402
from run import OUT, call, tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)

    with open(os.path.join(OUT, f"report-{workload}-seed3-trace{trace}.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    assert set(report["machine"]) >= {"nproc", "python", "numpy"}
    assert report["seed"] == 3 and report["samples"]
    if trace:
        counts = report["count_check"]
        assert counts["mismatched"] == 0
        expected_kinds = {"cycle-decide": {"cycle-member", "cycle-nonmember", "cycle-not_psd"},
                          "chordal-decide": {"chordal-member"}}.get(workload, set())
        assert expected_kinds <= set(counts["checked"])
        if workload == "volume-sample":
            assert counts["volume_acceptance_m7_ok"] is True


def test_cycle_decide_reports_the_scale_defect():
    proc = bench("--workload", "cycle-decide", "--seed", "4", "--seconds", "1")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] > 0
    assert "scale_nonmember_accepted" in proc.stdout


def test_counts_are_distinct_ops_and_repeat_for_a_seed():
    results = []
    for seconds in ("0.5", "2"):
        proc = bench("--workload", "cycle-decide", "--seed", "4", "--seconds", seconds)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0]["attempted"] == 4 * len(workloads.CYCLE_MS) * workloads.CYCLE_ROUNDS
    assert [(r["attempted"], r["failed"]) for r in results] == \
        [(results[0]["attempted"], results[0]["failed"])] * 2
    assert results[0]["metrics"]["ok_frac"] == results[1]["metrics"]["ok_frac"]


def test_run_outside_a_source_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def _results(op):
    return [call(main, argv)[:2] for argv in op.argvs]


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    out = {}
    for name in ("cycle-decide", "chordal-decide", "complex-build"):
        directory = tmp_path_factory.mktemp(name)
        out[name] = workloads.generate(name, 7, str(directory))
    return out


def _corrupt(text, path):
    """Scale one parameter of the JSON output, found at path, by 1.001."""
    out = json.loads(text)
    node = out
    for key in path:
        node = node[key]
    node[0]["gamma"] *= 1.001
    return json.dumps(out)


@pytest.mark.parametrize("workload,kind,path", [
    ("cycle-decide", "cycle-member", ("certificate", "values")),
    ("chordal-decide", "chordal-member", ("certificate", "values")),
    ("chordal-decide", "fiber-member", ("values",)),
    ("complex-build", "schur-witness", ("params", "values")),
])
def test_checker_rejects_a_corrupted_certificate_entry(ops, workload, kind, path):
    op = _first(ops[workload], kind)
    [(rc, text)] = _results(op)
    assert check.check(op, [(rc, text)]) is None
    assert check.check(op, [(rc, _corrupt(text, path))]) == "mismatch"


def test_checker_rejects_a_corrupted_phi_entry(ops):
    op = _first(ops["complex-build"], "phi")
    [(rc, text)] = _results(op)
    out = json.loads(text)
    out["entries"][0][0] *= 1.001
    assert check.check(op, [(rc, text)]) is None
    assert check.check(op, [(rc, json.dumps(out))]) == "mismatch"


@pytest.mark.parametrize("workload,kind,flipped", [
    ("cycle-decide", "cycle-member", "not_psd"),
    ("cycle-decide", "cycle-not_psd", "member"),
    ("cycle-decide", "cycle-not_psd", "nonmember"),
    ("chordal-decide", "chordal-member", "not_psd"),
    ("chordal-decide", "fiber-not_psd", "member"),
])
def test_checker_rejects_a_flipped_label(ops, workload, kind, flipped):
    op = _first(ops[workload], kind)
    results = _results(op)
    assert check.check(op, results) is None
    flipped_op = dataclasses.replace(op, label=dict(op.label, verdict=flipped))
    assert check.check(flipped_op, results) == "mismatch"


def test_volume_checker_rejects_a_wrong_sample_count():
    op = workloads.volume_sample(np.random.default_rng(0), None)[0]
    results = _results(op)
    assert check.check(op, results) is None
    out = json.loads(results[1][1])
    out["samples_psd"] -= 1
    assert check.check(op, [results[0], (0, json.dumps(out))]) == "mismatch"


def test_tail_is_p99_from_1000_values_and_keeps_10_beyond_below():
    value, q = tail([float(x) for x in range(1, 1001)])
    assert (value, q) == (990.0, 99.0)
    lat = [float(x) for x in range(1, 201)]
    value, q = tail(lat)
    assert sum(x > value for x in lat) == 10
