"""Command-line interface: dispatch, exit codes, and output determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdcone import chordal, cli, decide, param, selftest
from psdcone.core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix, cycle_graph,
                          underlying_graph)
from psdcone.cycle import counterexample_sigma
from psdcone.cli import main
from psdcone.errors import PsdConeError
from psdcone.instances import (random_chordal_graph, random_cycle_member,
                               random_cycle_pattern_matrix, random_params)
from psdcone.param import phi

from test_cycle_congruence import cycle_case


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


def test_fiber_refuses_a_complex_other_than_the_clique_complex(files):
    """The triangle's edge complex has no face [1, 2, 3], on which the
    chordal fiber of the triangle puts parameters."""
    mpath = files("s.json", {"m": 3, "entries": [[2.0, 0.3, 0.2],
                                                 [0.3, 1.5, -0.4],
                                                 [0.2, -0.4, 1.0]]})
    cpath = files("e3.json", {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
    rc, out = run_cli(["fiber", "--chordal", "--matrix", mpath, "--graph", cpath])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"


def test_fiber_on_the_clique_complex_file_matches_the_graph_file(files, monkeypatch):
    """Either file builds chordality and the clique complex once each."""
    sigma = files("s.json", {"m": 4, "entries": [[2.0, 0.8, 0.3, 0.0],
                                                 [0.8, 1.5, -0.4, 0.2],
                                                 [0.3, -0.4, 1.0, 0.0],
                                                 [0.0, 0.2, 0.0, 1.0]]})
    graph = files("g.json", {"m": 4, "edges": [[1, 2], [1, 3], [2, 3], [2, 4]]})
    complex_ = files("c.json", {"m": 4, "facets": [[2, 4], [1, 2, 3]]})
    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    monkeypatch.setattr(chordal, "is_chordal", counting("is_chordal", chordal.is_chordal))
    monkeypatch.setattr(chordal, "ordering_clique_complex",
                        counting("cliques", chordal.ordering_clique_complex))
    outputs = []
    for path in (graph, complex_):
        calls.clear()
        outputs.append(run_cli(["fiber", "--chordal", "--matrix", sigma, "--graph", path]))
        assert sorted(calls) == ["cliques", "is_chordal"], path
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


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


@pytest.mark.parametrize("m, rho, tol", [(10, -1.00000005, []), (6, -1.0005, ["--tol", "1e-3"]),
                                         (10, -1.0005, ["--tol", "1e-3"]),
                                         (20, -1.00002, [])])
def test_cycle_fiber_rechecks_what_it_prints(files, m, rho, tol):
    """Just outside the image.  At the default tol the flipped form fails the
    pivot rule, so all three cycle commands call the input a non-member.
    Under --tol 1e-3 it passes within that tol, and the fiber solved is a
    nearby boundary matrix's, whose representatives miss the input by more
    than the re-check's fixed 1e-8, which does not follow --tol: both fiber
    commands exit 2."""
    matrix = files("s.json", counterexample_sigma(m, rho).to_symmetric().to_json_dict())
    graph = files("g.json", cycle_graph(m).to_json_dict())
    if not tol:
        assert run_cli(["cycle-check", "--matrix", matrix])[0] == 1
        rc, out = run_cli(["cycle-fiber", "--matrix", matrix])
        assert rc == 1 and json.loads(out)["error"]["code"] == "not_member"
        rc, out = run_cli(["membership", "--matrix", matrix, "--graph", graph])
        assert rc == 1 and json.loads(out)["member"] is False
        return
    for argv in (["cycle-fiber", "--matrix", matrix],
                 ["membership", "--matrix", matrix, "--graph", graph]):
        rc, out = run_cli(argv + tol)
        assert rc == 2, argv
        assert json.loads(out)["error"] == {"code": "internal_inconsistency",
                                            "message": "certificate does not reproduce the input"}


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


def test_membership_needs_one_cycle_through_every_vertex(files):
    # two disjoint triangles: 2-regular with m edges but not one cycle, and chordal
    two = files("two3.json", {"m": 6, "edges": [[1, 2], [2, 3], [1, 3],
                                                [4, 5], [5, 6], [4, 6]]})
    i6 = files("i6.json", {"m": 6, "entries": np.eye(6).tolist()})
    rc, out = run_cli(["membership", "--matrix", i6, "--graph", two])
    assert rc == 0 and json.loads(out)["method"] == "chordal"
    # two disjoint squares: neither chordal nor one cycle
    sq = files("two4.json", {"m": 8, "edges": [[1, 2], [2, 3], [3, 4], [1, 4],
                                               [5, 6], [6, 7], [7, 8], [5, 8]]})
    i8 = files("i8.json", {"m": 8, "entries": np.eye(8).tolist()})
    rc, out = run_cli(["membership", "--matrix", i8, "--graph", sq])
    assert rc == 2 and json.loads(out)["error"]["code"] == "undecidable"


@pytest.mark.parametrize("edges", [[[1, 2], [2, 3]], [[1, 2], [2, 3], [3, 4], [1, 4]]])
def test_membership_rechecks_either_certificate(files, monkeypatch, edges):
    m = max(max(e) for e in edges)
    mpath = files("i.json", {"m": m, "entries": np.eye(m).tolist()})
    gpath = files("g.json", {"m": m, "edges": edges})
    monkeypatch.setattr(param, "phi", lambda delta, gamma: SymmetricMatrix(np.zeros((m, m))))
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", gpath])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "internal_inconsistency"


def test_fiber_rechecks_what_it_prints(files, monkeypatch):
    """A chordal member under a diagonal congruence in 10^+-6, whose factor
    once lost its small-diagonal vertices: both commands print a preimage
    within 1e-8 of sqrt(sigma_ii sigma_jj); and a preimage that misses the
    input is refused."""
    rng = np.random.default_rng(1)
    m = int(rng.integers(3, 12))
    g = random_chordal_graph(rng, m)
    delta = chordal.clique_complex(g)
    a = phi(delta, random_params(rng, delta, density=0.7)).a
    d = 10.0 ** rng.uniform(-6, 6, m)
    gpath = files("g.json", g.to_json_dict())
    unscaled = files("a.json", {"m": m, "entries": a.tolist()})
    b = d[:, None] * a * d[None, :]
    scaled = files("s.json", {"m": m, "entries": b.tolist()})
    for command in (["membership"], ["fiber", "--chordal"]):
        assert run_cli(command + ["--matrix", unscaled, "--graph", gpath])[0] == 0
        rc, out = run_cli(command + ["--matrix", scaled, "--graph", gpath])
        assert rc == 0
        printed = json.loads(out)
        params = printed["certificate"] if command == ["membership"] else printed
        image = phi(delta, FactorParams.from_json_dict(delta, params)).a
        assert np.all(np.abs(image - b) <= 1e-8 * np.sqrt(np.outer(np.diag(b), np.diag(b))))
    monkeypatch.setattr(param, "phi", lambda delta, gamma: SymmetricMatrix(np.zeros((m, m))))
    rc, out = run_cli(["fiber", "--chordal", "--matrix", unscaled, "--graph", gpath])
    assert rc == 2 and json.loads(out)["error"]["code"] == "internal_inconsistency"


C5 = {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
P3 = {"m": 3, "edges": [[1, 2], [2, 3]]}
# per case: the matrix entries, the graph or complex file, the exit code, and
# the method (exit codes 0 and 1) or the error code (exit code 2)
MEMBERSHIP_CASES = {
    "chordal member": ([[2.0, 0.8, 0.0], [0.8, 1.5, -0.4], [0.0, -0.4, 1.0]], P3, 0, "chordal"),
    "chordal not psd": (np.diag([1.0, 1.0, -1.0]).tolist(), P3, 1, "chordal"),
    "cycle member": (np.eye(5).tolist(), C5, 0, "cycle"),
    "cycle non-member": ([[1.0, 0.5, 0.0, -0.6], [0.5, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.5],
                          [-0.6, 0.0, 0.5, 1.0]],
                         {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}, 1, "cycle"),
    "cycle not psd": (np.diag([1.0, 1.0, 1.0, 1.0, -1.0]).tolist(), C5, 1, "cycle"),
    # vertex 1 has a zero row, so the member is singular and its fiber is not solved
    "cycle degenerate member": ([[0.0] * 4, [0.0, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.5],
                                 [0.0, 0.0, 0.5, 1.0]],
                                {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}, 0, "cycle"),
    "triangle edge complex": ([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]],
                              {"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}, 0, "cycle"),
    "undecidable": (np.eye(5).tolist(), {"m": 5, "edges": C5["edges"] + [[1, 3]]}, 2,
                    "undecidable"),
    "pattern violation": ((np.eye(5) + 0.1).tolist(), C5, 2, "pattern_violation"),
    "size mismatch": (np.eye(4).tolist(), C5, 2, "invalid_input"),
    # chordal, but its clique complex has the facet {1, 3, 4}; not a cycle
    "complex not of the graph": (np.eye(4).tolist(),
                                 {"m": 4, "facets": [[1, 2, 3], [1, 4], [3, 4]]}, 2,
                                 "undecidable"),
}


@pytest.mark.parametrize("case", list(MEMBERSHIP_CASES))
def test_library_membership_prints_what_the_command_prints(files, case):
    """psdcone.membership's JSON form and member flag are the subcommand's
    stdout and exit code, and its errors are the subcommand's error JSON."""
    entries, graph, rc, what = MEMBERSHIP_CASES[case]
    matrix = {"m": len(entries), "entries": entries}
    expected = run_cli(["membership", "--matrix", files("s.json", matrix),
                        "--graph", files("g.json", graph)])
    out = json.loads(expected[1])
    assert expected[0] == rc and (out["error"]["code"] if rc == 2 else out["method"]) == what

    sigma = SymmetricMatrix.from_json_dict(matrix)
    delta = SimplicialComplex.from_json_dict(graph) if "facets" in graph else None
    g = Graph.from_json_dict(graph) if delta is None else underlying_graph(delta)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            decision = decide.membership(sigma, g, delta)
        except (PsdConeError, ValueError) as exc:
            got = cli._error_json(cli._code_for(exc), str(exc))
        else:
            cli._print_json(decision.to_json_dict())
            got = 0 if decision.member else 1
    assert (got, buf.getvalue()) == expected
    if case == "cycle degenerate member":
        assert decision.certificate is None and out["certificate"] is None


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
    dense = sig.to_symmetric()
    assert np.abs(image.a - dense.a).max() <= 1e-8 * dense.scale()


@pytest.mark.parametrize("kind", ["graph", "complex"])
def test_large_clique_never_enumerates_faces(files, monkeypatch, kind):
    """A 40-vertex clique (2^40 - 1 faces) is decided from its facets alone."""
    m = 42
    edges = [[i + 1, j + 1] for i in range(40) for j in range(i + 1, 40)] + [[40, 41], [41, 42]]
    arr = np.eye(m) * 2.0
    for i, j in edges:
        arr[i - 1, j - 1] = arr[j - 1, i - 1] = 1.0 / 40
    mpath = files("sigma.json", {"m": m, "entries": arr.tolist()})
    if kind == "graph":
        gpath = files("g.json", {"m": m, "edges": edges})
    else:
        gpath = files("c.json", {"m": m, "facets": [list(range(1, 41)), [40, 41], [41, 42]]})
    built = []
    post_init, trusted = SimplicialComplex.__post_init__, SimplicialComplex._trusted
    monkeypatch.setattr(SimplicialComplex, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    # the clique complex is built in canonical form, without __post_init__
    monkeypatch.setattr(SimplicialComplex, "_trusted", classmethod(
        lambda cls, m, facets: built.append(trusted(m, facets)) or built[-1]))
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", gpath])
    assert rc == 0 and json.loads(out)["member"] is True
    rc, out = run_cli(["fiber", "--chordal", "--matrix", mpath, "--graph", gpath])
    assert rc == 0 and json.loads(out)["values"]
    assert any(len(f) == 40 for delta in built for f in delta.facets)
    assert all("faces" not in delta.__dict__ for delta in built)


@pytest.mark.parametrize("command", [["membership"], ["fiber", "--chordal"]])
def test_overflowing_matrix_exits_two(files, command):
    """Entries whose symmetrization overflows are invalid input, also when
    warnings are errors."""
    mpath = files("sigma.json", {"m": 2, "entries": [[1.5e308, 0.0], [0.0, 1.0]]})
    gpath = files("g.json", {"m": 2, "edges": [[1, 2]]})
    argv = command + ["--matrix", mpath, "--graph", gpath]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(argv)
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"


def test_vertex_counts_above_the_limit_exit_two_quickly(files):
    """Graph and complex files name m; one past 64 is refused before the
    readers build a facet or a neighbour set per vertex."""
    cpath = files("huge.json", {"m": 100_000, "facets": [[1]]})
    m = 65
    mpath = files("i65.json", {"m": m, "entries": np.eye(m).tolist()})
    gpath = files("p65.json", {"m": m, "edges": [[k, k + 1] for k in range(1, m)]})
    for argv in (["digraph", "--complex", cpath],
                 ["membership", "--matrix", mpath, "--graph", gpath]):
        start = time.perf_counter()
        rc, out = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        error = json.loads(out)["error"]
        assert rc == 2 and error["code"] == "invalid_input"
        assert "between 1 and 64" in error["message"]


def test_a_64_vertex_graph_still_decides(files):
    m = 64
    mpath = files("i64.json", {"m": m, "entries": (2.0 * np.eye(m)).tolist()})
    gpath = files("p64.json", {"m": m, "edges": [[k, k + 1] for k in range(1, m)]})
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", gpath])
    verdict = json.loads(out)
    assert rc == 0 and verdict["member"] and verdict["method"] == "chordal"


def test_quotient_of_large_facet_never_enumerates_faces(files, monkeypatch):
    """Removing a vertex of a 40-vertex facet (2^40 - 1 faces) works on facets."""
    cpath = files("c.json", {"m": 41, "facets": [list(range(1, 41)), [40, 41]]})
    built = []
    post_init = SimplicialComplex.__post_init__
    monkeypatch.setattr(SimplicialComplex, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    start = time.perf_counter()
    rc, out = run_cli(["quotient", "--complex", cpath, "--remove", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    assert json.loads(out)["facets"] == [[39, 40], list(range(1, 40))]
    assert len(built) == 2
    assert all("faces" not in delta.__dict__ for delta in built)


def test_quotient_command(files):
    c4 = files("c4complex.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    rc, out = run_cli(["quotient", "--complex", c4, "--remove", "4"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["m"] == 3
    assert payload["facets"] == [[1, 2], [1, 3], [2, 3]]
    assert payload["vertex_map"] == {"1": 1, "2": 2, "3": 3}


@pytest.mark.parametrize("remove", ["", ",", " , "])
def test_quotient_by_an_empty_block_is_refused(files, remove):
    c4 = files("c4complex.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    rc, out, err = outcome(["quotient", "--complex", c4, "--remove", remove])
    assert rc == 2
    assert json.loads(out)["error"] == {"code": "invalid_input",
                                        "message": "block must be a nonempty proper subset"}
    assert "Traceback" not in err


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


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_volume_rejects_fewer_than_one_worker(workers):
    rc, out, err = outcome(["volume", "--m", "3", "--samples", "10", "--workers", workers])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--table", "--m", "5"], ["--m", "5", "--table"], []])
def test_volume_needs_exactly_one_of_m_and_table(argv):
    """--table runs m = 3..7, so an --m beside it (or neither) is refused, not dropped."""
    rc, out, err = outcome(["volume", *argv, "--samples", "10"])
    assert rc == 2 and "Traceback" not in err
    assert json.loads(out)["error"] == {"code": "invalid_input",
                                        "message": "volume needs exactly one of --m and --table"}


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


def test_simulate_refuses_more_samples_than_the_cap(files):
    # 10**12 samples of m = 3 would need 24 TB: refused before any allocation
    cpath = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    ppath = files("p.json", {"values": [{"face": [1, 2], "vertex": 1, "gamma": 1.0}]})
    proc = subprocess.run(
        [sys.executable, "-m", "psdcone.cli", "simulate", "--complex", cpath, "--params", ppath,
         "--n", str(10 ** 12)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "invalid_input"
    assert proc.stderr == ""


def test_simulate_caps_samples_times_factors(files):
    """n * max(k, m) is capped, k the faces of two or more vertices: one
    15-vertex facet (k = 32,752) at the default --n is refused before any draw."""
    cpath = files("facet.json", {"m": 15, "facets": [list(range(1, 16))]})
    ppath = files("p.json", {"values": [{"face": [1, 2], "vertex": 1, "gamma": 1.0},
                                         {"face": [3], "vertex": 3, "gamma": 0.5},
                                         {"face": list(range(1, 16)), "vertex": 9, "gamma": 2.0}]})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "psdcone.cli", "simulate", "--complex", cpath,
                           "--params", ppath], capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "code": "invalid_input", "message": "need 2 <= n <= 4098, got 10000"}
    assert elapsed < 1.0


@pytest.mark.parametrize("size", [20, 40])
@pytest.mark.parametrize("command", ["digraph", "simulate"])
def test_one_big_facet_is_too_many_faces(files, command, size):
    """A facet of 20 or 40 vertices spans 2^20 or 2^40 faces: refused before any
    is built, in a child process that would otherwise run out of time or memory."""
    cpath = files("facet.json", {"m": size, "facets": [list(range(1, size + 1))]})
    ppath = files("p.json", {"values": [{"face": [1], "vertex": 1, "gamma": 1.0}]})
    args = ["--complex", cpath] + (["--params", ppath] if command == "simulate" else [])
    proc = subprocess.run([sys.executable, "-m", "psdcone.cli", command, *args],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "too_many_faces"
    assert proc.stderr == ""


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


# rng.integers(0, 2**62) right after SUITES[name](np.random.default_rng(0), 5):
# where each suite leaves its generator, so a change to what or in which
# order a suite draws cannot pass unnoticed
NEXT_DRAW_AFTER_SUITE = {
    "determinant": 4589072640179700698,
    "discriminant": 3982836929138889639,
    "schur": 3305429092254060097,
    "chordal": 640709282115255524,
    "cycle": 3019744192265066172,
    "cone": 1576009801855955953,
}


@pytest.mark.parametrize("name", list(selftest.SUITES))
def test_selftest_draws_are_pinned(name):
    rng = np.random.default_rng(0)
    selftest.SUITES[name](rng, 5)
    assert int(rng.integers(0, 2 ** 62)) == NEXT_DRAW_AFTER_SUITE[name]


def _nan_like_first(x, *args, **kw):
    return types.SimpleNamespace(a=np.full_like(x.a, np.nan))


# per check: one instance, and a library call inside the check that is made
# to return NaN; the comparison against the bound must fail on it
NAN_CASES = {
    "determinant": (lambda rng: random_cycle_pattern_matrix(rng, 5),
                    "cycle_determinant", lambda sig: math.nan),
    "discriminant": (lambda rng: random_cycle_member(rng, 5)[0],
                     "sign_flip", _nan_like_first),
    "schur": (lambda rng: selftest.schur_instance(rng, 5), "schur_complement",
              lambda *a: types.SimpleNamespace(a=np.nan, scale=lambda: 1.0)),
    "chordal": (lambda rng: selftest.chordal_instance(rng, 5, 0.8), "phi",
                lambda *a: types.SimpleNamespace(a=np.nan)),
    "cycle_fiber": (lambda rng: random_cycle_member(rng, 5)[0], "phi",
                    lambda *a: types.SimpleNamespace(a=np.nan)),
    "cone": (lambda rng: selftest.cone_instance(rng, 5, 0.7), "extreme_decomposition",
             lambda *a: [types.SimpleNamespace(matrix=lambda: np.nan, support=(0,))]),
}


@pytest.mark.parametrize("name", list(NAN_CASES))
def test_selftest_check_fails_on_nan(name, monkeypatch):
    draw, target, fake = NAN_CASES[name]
    instance = draw(np.random.default_rng(0))
    check = getattr(selftest, f"check_{name}")
    check([instance])
    monkeypatch.setattr(selftest, target, fake)
    with pytest.raises(AssertionError, match="instance 0"), warnings.catch_warnings():
        # the dense determinant of a NaN matrix warns before it returns NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        check([instance])


# per subcommand: the shared options it reads, and arguments for the rest of its line
SUBCOMMANDS = {
    "phi": ((), ["--complex", "c.json", "--params", "p.json"]),
    "fiber": (("--tol",), ["--chordal", "--matrix", "s.json", "--graph", "g.json"]),
    "cycle-check": (("--tol",), ["--matrix", "s.json"]),
    "cycle-fiber": (("--tol",), ["--matrix", "s.json"]),
    "counterexample": ((), ["--m", "5", "--rho", "1.25"]),
    "quotient": ((), ["--complex", "c.json", "--remove", "1"]),
    "schur-witness": (("--tol",), ["--complex", "c.json", "--params", "p.json",
                                   "--vertex", "1"]),
    "volume": (("--seed", "--json"), ["--m", "3"]),
    "digraph": ((), ["--complex", "c.json"]),
    "simulate": (("--seed",), ["--complex", "c.json", "--params", "p.json"]),
    "membership": (("--tol",), ["--matrix", "s.json", "--graph", "g.json"]),
    "selftest": (("--seed",), []),
}
SHARED = {"--tol": (["--tol", "1e-3"], 1e-3), "--seed": (["--seed", "7"], 7),
          "--json": (["--json"], True)}


def test_every_subcommand_is_listed():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@pytest.mark.parametrize("flag", list(SHARED))
def test_subcommands_accept_only_the_shared_options_they_read(command, flag, capsys):
    reads, rest = SUBCOMMANDS[command]
    tokens, value = SHARED[flag]
    parser = cli.build_parser()
    if flag in reads:
        assert getattr(parser.parse_args([command, *rest, *tokens]), flag[2:]) == value
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *rest, *tokens])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(tokens) in capsys.readouterr().err


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


def test_main_keeps_a_name_patched_before_its_first_call(files):
    """main binds a command's names on every call, only those not bound yet:
    a name set on psdcone.cli before the first call runs each time, and stays."""
    code = ("import contextlib, io, json, sys\n"
            "import psdcone.cli as cli\n"
            "calls = []\n"
            "fake = cli.build_digraph = lambda delta: calls.append(delta.m) or 'patched\\n'\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    rcs = [cli.main(['digraph', '--complex', sys.argv[1]]) for _ in range(2)]\n"
            "print(json.dumps([rcs, calls, out.getvalue(), vars(cli)['build_digraph'] is fake]))\n")
    cpath = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    proc = subprocess.run([sys.executable, "-c", code, cpath], capture_output=True, text=True,
                          timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[0, 0], [3, 3], "patched\npatched\n", True]


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


# valid JSON of the wrong shape, per kind of input file: (shape, content,
# text the message must hold)
NOT_AN_OBJECT = [("list", [1, 2], "expected a JSON object"),
                 ("number", 5, "expected a JSON object")]
NOT_INT = "object cannot be interpreted as an integer"  # a label or m read, not truncated
WRONG_SHAPES = {
    "matrix": [("missing key", {"m": 3}, "missing key 'entries'"),
               ("object entry", {"m": 3, "entries": [[1, 0, 0], [0, {}, 0], [0, 0, 1]]},
                "matrix JSON"),
               ("null m", {"m": None, "entries": []}, "matrix JSON"),
               ("float m", {"m": 3.0, "entries": np.eye(3).tolist()}, "matrix JSON: 'float' "
                + NOT_INT)],
    "graph": [("edge not a pair", {"m": 3, "edges": [1]}, "graph JSON"),
              ("facet not a list", {"m": 3, "facets": [1, 2]}, "complex JSON"),
              ("infinite m", {"m": 1e400, "edges": []}, "graph JSON"),
              ("float labels", {"m": 3, "edges": [[1.7, 2], [2, 3.2]]}, "graph JSON: 'float' "
               + NOT_INT),
              ("string labels", {"m": 3, "edges": [["1", "2"]]}, "graph JSON: 'str' " + NOT_INT),
              ("neither", {"m": 3}, "expected a graph")],
    "complex": [("facet not a list", {"m": 3, "facets": [1, 2]}, "complex JSON"),
                ("infinite vertex", {"m": 3, "facets": [[1, 1e400]]}, "complex JSON"),
                ("float labels", {"m": 3.9, "facets": [[1, 2.5], [2, 3]]}, "complex JSON: "
                 "'float' " + NOT_INT),
                ("integral float label", {"m": 3, "facets": [[1, 2.0], [2, 3]]},
                 "complex JSON: 'float' " + NOT_INT),
                ("missing key", {"m": 3}, "missing key 'facets'")],
    "params": [("null gamma", {"values": [{"face": [1, 2], "vertex": 1, "gamma": None}]},
                "params JSON"),
               ("record not an object", {"values": [1]}, "params JSON"),
               ("record missing key", {"values": [{"face": [1, 2], "vertex": 1}]},
                "missing key 'gamma'"),
               ("float labels", {"values": [{"face": [1, 2.9], "vertex": 1.2, "gamma": 1.0}]},
                "params JSON: 'float' " + NOT_INT),
               ("string vertex", {"values": [{"face": [1, 2], "vertex": "1", "gamma": 1.0}]},
                "params JSON: 'str' " + NOT_INT),
               ("missing key", {}, "missing key 'values'")],
}
VALID = {"matrix": {"m": 3, "entries": np.eye(3).tolist()},
         "graph": {"m": 3, "edges": [[1, 2], [2, 3]]},
         "complex": {"m": 3, "facets": [[1, 2], [2, 3]]},
         "params": {"values": [{"face": [1, 2], "vertex": 1, "gamma": 1.0}]}}
# per subcommand that reads files: its file flags and kinds, and its other arguments
FILE_COMMANDS = {
    "phi": ({"--complex": "complex", "--params": "params"}, []),
    "fiber": ({"--matrix": "matrix", "--graph": "graph"}, ["--chordal"]),
    "cycle-check": ({"--matrix": "matrix"}, []),
    "cycle-fiber": ({"--matrix": "matrix"}, []),
    "quotient": ({"--complex": "complex"}, ["--remove", "1"]),
    "schur-witness": ({"--complex": "complex", "--params": "params"}, ["--vertex", "2"]),
    "digraph": ({"--complex": "complex"}, []),
    "simulate": ({"--complex": "complex", "--params": "params"}, ["--n", "10"]),
    "membership": ({"--matrix": "matrix", "--graph": "graph"}, []),
}
MALFORMED_CASES = [(command, flag, shape, content, message)
                   for command, (flags, _) in FILE_COMMANDS.items()
                   for flag, kind in flags.items()
                   for shape, content, message in NOT_AN_OBJECT + WRONG_SHAPES[kind]]


@pytest.mark.parametrize("command, flag, shape, content, message", MALFORMED_CASES,
                         ids=[f"{c}{f}-{s}" for c, f, s, _, _ in MALFORMED_CASES])
def test_valid_json_of_the_wrong_shape_is_invalid_input(files, command, flag, shape, content,
                                                         message):
    flags, rest = FILE_COMMANDS[command]
    argv = [command, *rest]
    for other, kind in flags.items():
        argv += [other, files(f"{kind}.json", content if other == flag else VALID[kind])]
    rc, out, err = outcome(argv)
    assert rc == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["code"] == "invalid_input"
    assert message in error["message"]


# a graph or complex file naming a vertex outside 1..m, or a loop: the message
# names the vertices as the file does, 1-based
FILE_LABEL_CASES = {
    "facet-outside": ({"m": 3, "facets": [[1, 4]]}, "facet (1, 4) outside ground set 1..3"),
    "edge-outside": ({"m": 3, "edges": [[1, 4]]}, "edge (1, 4) outside vertex range 1..3"),
    "loop": ({"m": 3, "edges": [[1, 1]]}, "bad edge (1, 1)"),
}


@pytest.mark.parametrize("case", FILE_LABEL_CASES)
def test_bad_vertices_are_named_as_the_file_names_them(files, case):
    content, message = FILE_LABEL_CASES[case]
    mpath = files("m.json", VALID["matrix"])
    rc, out, err = outcome(["membership", "--matrix", mpath, "--graph", files("g.json", content)])
    assert rc == 2 and err == ""
    assert json.loads(out)["error"] == {"code": "invalid_input", "message": message}


def test_a_type_error_inside_the_library_is_not_input_error(files, monkeypatch):
    def broken(delta, gamma):
        raise TypeError("a fault in the library")

    monkeypatch.setattr(cli, "phi", broken)
    argv = ["phi", "--complex", files("c.json", VALID["complex"]),
            "--params", files("p.json", VALID["params"])]
    with pytest.raises(TypeError, match="a fault in the library"):
        run_cli(argv)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_selftest_needs_at_least_one_instance(n):
    rc, out, err = outcome(["selftest", "--n", n])
    assert rc == 2 and out == ""
    assert f"argument --n: must be at least 1, got {n}" in err


@pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if "--tol" in SUBCOMMANDS[c][0]])
@pytest.mark.parametrize("tol", ["0", "-1", "1", "2", "nan", "inf", "-inf", "1e-9x"])
def test_tol_outside_the_open_unit_interval_is_refused(command, tol):
    """Before any file is read: 0 has no pivot tol to eliminate a zero pivot
    as, and NaN, inf or a tol of 1 or more decided members as not PSD or
    broke the certificate re-check."""
    rc, out, err = outcome([command, *SUBCOMMANDS[command][1], f"--tol={tol}"])
    assert rc == 2 and out == ""
    assert ("argument --tol: must be between 0 and 1, exclusive" in err
            or "argument --tol: invalid float value" in err)


@pytest.mark.parametrize("tol", ["1e-300", "1e-40"])
def test_cycle_commands_at_a_tol_below_rounding(files, tol):
    """The PD 4-cycle (unit diagonal, 0.3 on its edges) prints what it prints at
    the default tol: the cycle checks' bounds keep a rounding floor."""
    matrix = files("s.json", {"m": 4, "entries": (np.eye(4) + 0.3 * (
        np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1))).tolist()})
    graph = files("g.json", {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    for argv in (["membership", "--matrix", matrix, "--graph", graph],
                 ["cycle-check", "--matrix", matrix], ["cycle-fiber", "--matrix", matrix]):
        rc, out, err = outcome(argv + ["--tol", tol])
        assert (rc, out, err) == outcome(argv)
        assert rc == 0 and out


@pytest.mark.parametrize("argv", [["counterexample", "--m", "100000", "--rho", "0.5"],
                                  ["counterexample", "--m", "2", "--rho", "0.5"],
                                  ["volume", "--m", "17", "--samples", "1"],
                                  ["volume", "--m", "70", "--samples", "10"]])
def test_m_outside_its_bound_is_refused(argv):
    """counterexample prints its m x m matrix dense; volume's acceptance rate
    falls about 2.5-fold per vertex."""
    rc, out = run_cli(argv)
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"


def test_counterexample_at_the_largest_m():
    rc, out = run_cli(["counterexample", "--m", "64", "--rho", "0.5"])
    assert rc == 0 and json.loads(out)["m"] == 64


@pytest.mark.parametrize("m, rho", [("5", "1e308"), ("64", "1e200")])
def test_counterexample_whose_closed_form_overflows_exits_two(m, rho):
    """-Infinity is not strict JSON: the closed form is refused, not printed."""
    rc, out, err = outcome(["counterexample", "--m", m, "--rho", rho])
    assert rc == 2
    assert json.loads(out)["error"]["code"] == "invalid_input"
    assert "Infinity" not in out and "Traceback" not in err


def test_byte_identical_stdout(files):
    mpath = files("i4.json", {"m": 4, "entries": np.eye(4).tolist()})
    outs = {run_cli(["cycle-check", "--matrix", mpath])[1] for _ in range(3)}
    assert len(outs) == 1
    a = run_cli(["volume", "--m", "3", "--samples", "1000", "--seed", "9"])[1]
    b = run_cli(["volume", "--m", "3", "--samples", "1000", "--seed", "9"])[1]
    assert a == b


# floats at the edges of repr's layout (1e16 and 1e-4 switch to exponent
# form), of the float range, and json's non-finite spellings
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e-4,
                float(np.nextafter(1e-4, 0.0)), 1e16, float(np.nextafter(1e16, 0.0)),
                1.7976931348623157e308, math.nan, math.inf, -math.inf]
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
            | st.text() | _floats | _floats.map(np.float64))
# keys that json escapes (non-ASCII, quotes, control characters) and keys
# that sort differently from how a record lists them
_keys = st.text(max_size=3) | st.sampled_from(["%", "%d", "\u00e9", "\u2028", '"', "\n",
                                                "face", "gamma", "vertex"])
# one strategy per record key: every value of that key's column comes from it
_column_values = [_floats, st.integers() | st.booleans(), _floats | _floats.map(np.float64),
                  st.lists(st.integers(-3, 70), min_size=1, max_size=5)]


@st.composite
def _records(draw, inner):
    """A list of dicts over one shared key set, each record listing the keys in
    its own order, each key's values drawn from one strategy."""
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    columns = {k: draw(st.sampled_from(_column_values + [inner])) for k in keys}
    return [{k: draw(columns[k]) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(1, 4)))]


_json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.lists(_floats) | st.lists(st.integers())
                   | _records(inner)
                   | st.lists(st.lists(st.integers(), min_size=1), min_size=1)
                   | st.lists(st.lists(inner, max_size=3), min_size=1)),
    max_leaves=40,
)


@given(_json_values)
@example([{"gamma": 0.5, "%d": [1, 2], "\u00e9": True},
          {"\u00e9": 1, "%d": [3], "gamma": math.nan}])
@settings(max_examples=300, deadline=None)
def test_print_json_matches_indented_json_dumps(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._print_json(obj)
    assert buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, [object()], {1: 2},
                                 [{"a": 1}, {1: 2}], [{1: 2}, {1: 3}], [[1], [object()]]])
def test_print_json_refuses_what_it_cannot_write(obj):
    """Non-JSON values raise TypeError as in json.dumps; so do non-str keys,
    which json.dumps would write and no output of the CLI has."""
    with pytest.raises(TypeError):
        cli._print_json(obj)


def test_every_json_output_is_indented_json(files):
    """Each JSON-emitting subcommand prints exactly what json.dumps(indent=2,
    sort_keys=True) prints for the same value, error JSON included."""
    chain = files("chain.json", {"m": 3, "facets": [[1, 2], [2, 3]]})
    params = files("p.json", {"values": [
        {"face": [1, 2], "vertex": 1, "gamma": 1.0},
        {"face": [1, 2], "vertex": 2, "gamma": -0.5},
        {"face": [2, 3], "vertex": 3, "gamma": 0.3},
    ]})
    tri = files("tri.json", {"m": 3, "entries": [[2.0, 0.8, 0.0],
                                                 [0.8, 1.5, -0.4],
                                                 [0.0, -0.4, 1.0]]})
    path = files("path.json", {"m": 3, "edges": [[1, 2], [2, 3]]})
    i4 = files("i4.json", {"m": 4, "entries": np.eye(4).tolist()})
    c4 = files("c4.json", {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    cex = files("cex.json", json.loads(run_cli(["counterexample", "--m", "4",
                                                "--rho", "-1.4"])[1]))
    npsd = files("npsd.json", {"m": 4, "entries": np.diag([1.0, 1, 1, -1]).tolist()})
    argvs = [
        ["phi", "--complex", chain, "--params", params],
        ["fiber", "--chordal", "--matrix", tri, "--graph", path],
        ["fiber", "--matrix", tri, "--graph", path],
        ["cycle-check", "--matrix", i4],
        ["cycle-check", "--matrix", cex],
        ["cycle-check", "--matrix", npsd],
        ["cycle-fiber", "--matrix", i4],
        ["cycle-fiber", "--matrix", cex],
        ["counterexample", "--m", "5", "--rho", "0.3"],
        ["quotient", "--complex", chain, "--remove", "2"],
        ["schur-witness", "--complex", chain, "--params", params, "--vertex", "2"],
        ["volume", "--m", "3", "--samples", "200"],
        ["volume", "--table", "--json", "--samples", "20"],
        ["simulate", "--complex", chain, "--params", params, "--n", "100"],
        ["membership", "--matrix", tri, "--graph", path],
        ["membership", "--matrix", i4, "--graph", c4],
        ["membership", "--matrix", cex, "--graph", c4],
        ["membership", "--matrix", npsd, "--graph", c4],
        ["membership", "--matrix", tri, "--graph", c4],
        ["phi", "--complex", chain, "--params", chain],
    ]
    codes = set()
    for argv in argvs:
        rc, out = run_cli(argv)
        codes.add(rc)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    assert codes == {0, 1, 2}


def test_membership_builds_the_clique_complex_once(files, monkeypatch):
    """With a complex file, the clique complex compared against it is the one
    the fiber is built on; stdout is the same as with the graph file."""
    sigma = files("tri.json", {"m": 4, "entries": [[2.0, 0.8, 0.3, 0.0],
                                                   [0.8, 1.5, -0.4, 0.2],
                                                   [0.3, -0.4, 1.0, 0.0],
                                                   [0.0, 0.2, 0.0, 1.0]]})
    graph = files("g.json", {"m": 4, "edges": [[1, 2], [1, 3], [2, 3], [2, 4]]})
    complex_ = files("c.json", {"m": 4, "facets": [[1, 2, 3], [2, 4]]})
    builds = []

    def counting(g, ordering, original=chordal.ordering_clique_complex):
        builds.append(g)
        return original(g, ordering)

    expected = {path: run_cli(["membership", "--matrix", sigma, "--graph", path])
                for path in (graph, complex_)}
    monkeypatch.setattr(chordal, "ordering_clique_complex", counting)
    for path in (graph, complex_):
        builds.clear()
        rc, out = run_cli(["membership", "--matrix", sigma, "--graph", path])
        assert (rc, out) == expected[path]
        assert rc == 0 and json.loads(out)["method"] == "chordal"
        assert len(builds) == 1
    assert expected[graph] == expected[complex_]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "psdcone.cli", "counterexample", "--m", "3", "--rho", "1.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == 3


def _membership_run(directory, a, edges):
    """Exit code and JSON of `membership` on matrix a and the 0-based edge list."""
    m = a.shape[0]
    mpath, gpath = os.path.join(directory, "a.json"), os.path.join(directory, "g.json")
    with open(mpath, "w") as fh:
        json.dump({"m": m, "entries": a.tolist()}, fh)
    with open(gpath, "w") as fh:
        json.dump({"m": m, "edges": [[int(i) + 1, int(j) + 1] for i, j in edges]}, fh)
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", gpath])
    return rc, json.loads(out)


@given(st.integers(4, 32), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["member", "zero_edge", "psd", "nonmember", "not_psd"]))
@settings(max_examples=40, deadline=None)
def test_membership_invariant_under_congruence_and_relabelling(m, seed, kind):
    """D S P sigma P^T S D, with D in 10^+-6, signs S and a relabelling P of the
    graph file, gets the same exit code unless both verdicts are boundary ones,
    and a certificate that reproduces it."""
    if kind == "nonmember" and m > 24:
        kind = "psd"  # the counterexample's slack halves with m: -1.3e-7 at m = 24
    a = cycle_case(m, seed, kind).to_array()
    rng = np.random.default_rng(seed + 3)
    d = 10.0 ** rng.uniform(-6, 6, m) * rng.choice([-1.0, 1.0], m)
    perm = rng.permutation(m)
    b = np.empty_like(a)
    b[np.ix_(perm, perm)] = d[:, None] * a * d[None, :]
    cycle = [(k, (k + 1) % m) for k in range(m)]
    with tempfile.TemporaryDirectory() as directory:
        rc1, out1 = _membership_run(directory, a, cycle)
        rc2, out2 = _membership_run(directory, b, [(perm[i], perm[j]) for i, j in cycle])
    assert rc1 in (0, 1) and rc2 in (0, 1)
    if not (out1.get("boundary") and out2.get("boundary")):
        assert rc1 == rc2 and out1.get("reason") == out2.get("reason")
    for rc, out, matrix in ((rc1, out1, a), (rc2, out2, b)):
        assert out["method"] == "cycle"
        if rc == 0 and out["certificate"] is not None:
            delta = SimplicialComplex.from_json_dict(out["complex"])
            image = phi(delta, FactorParams.from_json_dict(delta, out["certificate"])).a
            ref = np.sqrt(np.outer(np.diag(matrix), np.diag(matrix)))
            assert np.all(np.abs(image - matrix) <= 1e-8 * ref)


def test_scaled_non_member_exits_one(files):
    """diag(30, 1/30, 1, 1) congruence of a clear non-member (slack -0.1075)."""
    d = np.array([30.0, 1 / 30, 1.0, 1.0])
    a = np.eye(4)
    for k, c in enumerate([0.5, 0.5, 0.5, -0.6]):
        a[k, (k + 1) % 4] = a[(k + 1) % 4, k] = c
    mpath = files("scaled.json", {"m": 4, "entries": (d[:, None] * a * d[None, :]).tolist()})
    c4 = files("c4.json", {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    rc, out = run_cli(["membership", "--matrix", mpath, "--graph", c4])
    v = json.loads(out)
    assert rc == 1 and v["member"] is False and v["boundary"] is False
    assert v["slack"] == pytest.approx(-0.1075, rel=1e-12)
    rc, out = run_cli(["cycle-check", "--matrix", mpath])
    assert rc == 1 and json.loads(out)["member"] is False


def test_long_cycles_skip_the_chordality_test(files, monkeypatch):
    """A chordless cycle of length >= 4 is never chordal; a triangle is."""
    def refuse(g):
        raise AssertionError("is_chordal called on a long cycle")

    i5 = files("i5.json", {"m": 5, "entries": np.eye(5).tolist()})
    c5 = files("c5.json", {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
    with monkeypatch.context() as patch:
        patch.setattr(chordal, "is_chordal", refuse)
        rc, out = run_cli(["membership", "--matrix", i5, "--graph", c5])
    assert rc == 0 and json.loads(out)["method"] == "cycle"
    i3 = files("i3.json", {"m": 3, "entries": np.eye(3).tolist()})
    c3 = files("c3.json", {"m": 3, "edges": [[1, 2], [2, 3], [1, 3]]})
    rc, out = run_cli(["membership", "--matrix", i3, "--graph", c3])
    assert rc == 0 and json.loads(out)["method"] == "chordal"


@pytest.mark.parametrize("d, c", [(1e7, 1e6), (1e-7, -4e-8)])
def test_unrepresentable_determinants_exit_two(files, d, c):
    """An m = 64 cycle whose determinant overflows or underflows gets a strict
    JSON error and exit code 2, not Infinity or a spurious zero."""
    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")

    m = 64
    a = np.diag([d] * m)
    for k in range(m):
        a[k, (k + 1) % m] = a[(k + 1) % m, k] = c
    mpath = files("long.json", {"m": m, "entries": a.tolist()})
    gpath = files("c64.json", {"m": m, "edges": [[k + 1, (k + 1) % m + 1] for k in range(m)]})
    for argv in (["membership", "--matrix", mpath, "--graph", gpath],
                 ["cycle-check", "--matrix", mpath]):
        rc, out = run_cli(argv)
        err = json.loads(out, parse_constant=strict)["error"]
        assert rc == 2 and "outside the normal float range" in err["message"]
