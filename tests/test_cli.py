"""Command-line interface: dispatch, exit codes, and output determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from psdcone import cli, selftest
from psdcone.cli import main


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def test_phi_round_trip(files):
    cpath = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    ppath = files("params.json", {"values": [
        {"face": [1, 2], "vertex": 1, "gamma": 1.0},
        {"face": [1, 2], "vertex": 2, "gamma": 0.5},
        {"face": [2], "vertex": 2, "gamma": 2.0},
    ]})
    rc, out = run_cli(["phi", "--complex", cpath, "--params", ppath])
    assert rc == 0
    mat = json.loads(out)
    assert mat["m"] == 3
    assert mat["entries"][0][1] == pytest.approx(0.5)
    assert mat["entries"][1][1] == pytest.approx(4.25)


def test_fiber_chordal(files):
    mpath = files("tri.json", {"m": 3, "entries": [[2.0, 0.8, 0.0],
                                                   [0.8, 1.5, -0.4],
                                                   [0.0, -0.4, 1.0]]})
    gpath = files("path.json", {"m": 3, "edges": [[1, 2], [2, 3]]})
    rc, out = run_cli(["fiber", "--chordal", "--matrix", mpath, "--graph", gpath])
    assert rc == 0
    payload = json.loads(out)
    assert any(rec["face"] == [1, 2] for rec in payload["values"])


def test_fiber_requires_chordal_flag(files):
    mpath = files("i2.json", {"m": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]})
    gpath = files("k2.json", {"m": 2, "edges": [[1, 2]]})
    rc, out = run_cli(["fiber", "--matrix", mpath, "--graph", gpath])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"


def _assert_flip_determinant(flip_det, matrix):
    """flip_determinant is the determinant with any one cycle edge negated."""
    arr = np.array(matrix["entries"])
    m = arr.shape[0]
    for k in range(m):
        i, j = k, (k + 1) % m
        flipped = arr.copy()
        flipped[i, j] = flipped[j, i] = -arr[i, j]
        dense = np.linalg.det(flipped)
        assert abs(flip_det - dense) <= 1e-10 * abs(dense), (k, flip_det, dense)


def test_cycle_check_exit_codes(files):
    member = files("i4.json", {"m": 4, "entries": np.eye(4).tolist()})
    rc, out = run_cli(["cycle-check", "--matrix", member])
    assert rc == 0
    assert json.loads(out)["member"] is True

    rc, out = run_cli(["counterexample", "--m", "4", "--rho", "-1.4"])
    assert rc == 0
    cex = json.loads(out)
    assert cex["det_closed_form"] == pytest.approx(0.12)
    bad = files("cex.json", cex)
    rc, out = run_cli(["cycle-check", "--matrix", bad])
    assert rc == 1
    v = json.loads(out)
    assert v["member"] is False and v["slack"] < 0
    _assert_flip_determinant(v["flip_determinant"], cex)


def test_cycle_fiber_and_certificate(files):
    mpath = files("mem.json", {"m": 3, "entries": [[1.25, 0.5, 0.5],
                                                   [0.5, 1.25, 0.5],
                                                   [0.5, 0.5, 1.25]]})
    rc, out = run_cli(["cycle-fiber", "--matrix", mpath])
    assert rc == 0
    payload = json.loads(out)
    assert payload["count_total"] == 16
    assert len(payload["representatives"]) == 2

    rc, out = run_cli(["counterexample", "--m", "3", "--rho", "1.5"])
    bad = files("cex3.json", json.loads(out))
    rc, out = run_cli(["cycle-fiber", "--matrix", bad])
    assert rc == 1
    assert json.loads(out)["error"]["code"] == "not_member"


def test_membership_dispatch(files):
    i5 = files("i5.json", {"m": 5, "entries": np.eye(5).tolist()})
    c5 = files("c5.json", {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
    rc, out = run_cli(["membership", "--matrix", i5, "--graph", c5])
    assert rc == 0
    v = json.loads(out)
    assert v["member"] and v["method"] == "cycle" and v["certificate"]

    # chordal route with a complex file
    tri = files("tri.json", {"m": 3, "entries": [[1.0, 0.2, 0.1],
                                                 [0.2, 1.0, 0.3],
                                                 [0.1, 0.3, 1.0]]})
    k3 = files("k3.json", {"m": 3, "facets": [[1, 2, 3]]})
    rc, out = run_cli(["membership", "--matrix", tri, "--graph", k3])
    assert rc == 0
    assert json.loads(out)["method"] == "chordal"

    # edge complex of the triangle dispatches to the cycle test
    e3 = files("e3.json", {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    hot_matrix = {"m": 3, "entries": [[1.0, 0.9, 0.9],
                                      [0.9, 1.0, 0.9],
                                      [0.9, 0.9, 1.0]]}
    hot = files("hot.json", hot_matrix)
    rc, out = run_cli(["membership", "--matrix", hot, "--graph", e3])
    assert rc == 1
    _assert_flip_determinant(json.loads(out)["violated"]["flip_determinant"], hot_matrix)

    # neither chordal nor a cycle: C_5 plus one chord
    chord = files("chord.json", {"m": 5, "edges": [[1, 2], [2, 3], [3, 4],
                                                   [4, 5], [1, 5], [1, 3]]})
    rc, out = run_cli(["membership", "--matrix", i5, "--graph", chord])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "undecidable"

    # pattern violation
    dense = files("dense.json", {"m": 5, "entries": (np.eye(5) + 0.1).tolist()})
    rc, out = run_cli(["membership", "--matrix", dense, "--graph", c5])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "pattern_violation"

    # non-PSD input is a non-member
    npsd = files("npsd.json", {"m": 5, "entries": np.diag([1.0, 1, 1, 1, -1]).tolist()})
    rc, out = run_cli(["membership", "--matrix", npsd, "--graph", c5])
    assert rc == 1
    assert json.loads(out)["reason"] == "not_psd"


def test_membership_certificate_reproduces_input(files):
    rng = np.random.default_rng(8)
    from psdcone.core import FactorParams, SimplicialComplex
    from psdcone.instances import random_cycle_member
    from psdcone.param import phi

    sig, _ = random_cycle_member(rng, 4)
    mpath = files("m.json", sig.to_symmetric().to_json_dict())
    c4 = files("c4.json", {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", c4])
    assert rc == 0
    v = json.loads(out)
    delta = SimplicialComplex.from_json_dict(v["complex"])
    cert = FactorParams.from_json_dict(delta, v["certificate"])
    image = phi(delta, cert)
    assert np.abs(image.a - sig.to_symmetric().a).max() <= 1e-8 * sig.scale()


def test_quotient_command(files):
    c4 = files("c4complex.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    rc, out = run_cli(["quotient", "--complex", c4, "--remove", "4"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["m"] == 3
    assert payload["facets"] == [[1, 2], [1, 3], [2, 3]]
    assert payload["vertex_map"] == {"1": 1, "2": 2, "3": 3}


def test_schur_witness_command(files):
    cpath = files("e3.json", {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    ppath = files("p.json", {"values": [
        {"face": [1, 2], "vertex": 1, "gamma": 1.0},
        {"face": [1, 2], "vertex": 2, "gamma": -0.5},
        {"face": [1, 3], "vertex": 1, "gamma": 0.7},
        {"face": [1, 3], "vertex": 3, "gamma": 1.1},
        {"face": [2, 3], "vertex": 2, "gamma": 0.3},
        {"face": [2, 3], "vertex": 3, "gamma": 0.9},
        {"face": [3], "vertex": 3, "gamma": 1.2},
    ]})
    rc, out = run_cli(["schur-witness", "--complex", cpath, "--params", ppath,
                       "--vertex", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10
    assert payload["eliminated"] == [3]


def test_volume_command():
    rc, out = run_cli(["volume", "--m", "3", "--samples", "2000", "--seed", "1"])
    assert rc == 0
    est = json.loads(out)
    assert est["samples_psd"] == 2000
    assert 0.7 <= est["fraction"] <= 0.85


def test_volume_rejects_too_many_workers():
    rc, out = run_cli(["volume", "--m", "3", "--samples", "10", "--workers", "100000"])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"


def test_volume_table_text():
    rc, out = run_cli(["volume", "--table", "--samples", "500", "--seed", "1"])
    assert rc == 0
    assert out.splitlines()[0].startswith("m")
    assert len(out.splitlines()) == 6


def test_digraph_command(files):
    cpath = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    rc, out = run_cli(["digraph", "--complex", cpath])
    assert rc == 0
    assert out.startswith("digraph")
    assert '"H_1_2" -> "Y1";' in out


def test_simulate_command(files):
    cpath = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    ppath = files("p.json", {"values": [
        {"face": [1, 2], "vertex": 1, "gamma": 1.0},
        {"face": [1, 2], "vertex": 2, "gamma": 1.0},
    ]})
    rc, out = run_cli(["simulate", "--complex", cpath, "--params", ppath,
                       "--n", "50000", "--seed", "3"])
    assert rc == 0
    mat = json.loads(out)
    assert mat["entries"][0][1] == pytest.approx(1.0, abs=0.05)


def test_selftest_quick(monkeypatch):
    rc, out = run_cli(["selftest", "--n", "3"])
    assert rc == 0
    assert out.count("PASS") == 6

    rc, out = run_cli(["selftest", "--n", "3", "--suite", "cycle"])
    assert rc == 0
    assert out.strip() == "suite cycle: PASS (3 instances)"

    def failing(rng, n):
        raise AssertionError("instance 0: planted failure")

    monkeypatch.setitem(selftest.SUITES, "determinant", failing)
    rc, out = run_cli(["selftest", "--n", "3"])
    assert rc == 1
    assert "suite determinant: FAIL (instance 0: planted failure)" in out
    assert out.count("PASS") == 5


def outcome(argv, fresh=False):
    """(exit code, stdout, stderr) of main(argv), or of a parser built for this
    call alone when fresh; SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if fresh:
                args = cli.build_parser().parse_args(argv)
                rc = args.func(args)
            else:
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_parser_reuse_carries_no_state(files):
    i5 = files("i5.json", {"m": 5, "entries": np.eye(5).tolist()})
    c5 = files("c5.json", {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
    sequence = [
        ["selftest", "--suite", "determinant", "--n", "3"],
        ["selftest", "--n", "3"],
        ["selftest", "--suite", "cycle", "--suite", "determinant", "--n", "3"],
        ["selftest", "--suite", "cycle", "--n", "3"],
        ["volume", "--m", "3", "--samples", "50"],
        ["volume", "--table", "--json", "--samples", "20"],
        ["volume", "--table", "--samples", "20"],
        ["volume", "--m", "3", "--samples", "50", "--seed", "2"],
        ["membership", "--matrix", i5, "--graph", c5, "--tol", "1e-6"],
        ["phi", "--complex", c5],
        ["membership", "--matrix", i5, "--graph", c5],
    ]
    main(["selftest", "--n", "1"])
    shared = cli._parser
    for argv in sequence:
        assert outcome(argv) == outcome(argv, fresh=True), argv
        assert cli._parser is shared
    assert outcome(["phi", "--complex", c5])[0] == 2


def test_main_builds_the_parser_once(monkeypatch):
    built = []

    def counting(original=cli.build_parser):
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["selftest", "--n", "1"], ["counterexample", "--m", "4", "--rho", "0.5"],
                 ["selftest", "--n", "1", "--suite", "cycle"]):
        assert outcome(argv)[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # like `psdcone selftest --n 3 | head -0`: the reader is gone before any output
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "psdcone.cli", "selftest", "--n", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 2


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out = run_cli(["cycle-check", "--matrix", str(bad)])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "parse_error"


def test_byte_identical_stdout(files):
    mpath = files("i4.json", {"m": 4, "entries": np.eye(4).tolist()})
    outs = {run_cli(["cycle-check", "--matrix", mpath])[1] for _ in range(3)}
    assert len(outs) == 1
    a = run_cli(["volume", "--m", "3", "--samples", "1000", "--seed", "9"])[1]
    b = run_cli(["volume", "--m", "3", "--samples", "1000", "--seed", "9"])[1]
    assert a == b


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "psdcone.cli", "counterexample", "--m", "3", "--rho", "1.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == 3
