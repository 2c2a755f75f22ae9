"""`membership` and `fiber --chordal` decide the same under the transformations
that preserve the image cone: a diagonal congruence D Sigma D, a global
scale and a relabelling of the vertices.  Every printed preimage reproduces
its input within 1e-8 of sqrt(sigma_ii sigma_jj) at every entry."""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone.cli import main
from psdcone.core import SymmetricMatrix
from psdcone.linalg import is_psd

_SPEC = importlib.util.spec_from_file_location(
    "scale_contract", Path(__file__).resolve().parents[1] / "scripts" / "scale_contract.py")
contract = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(contract)

COMMANDS = (["membership"], ["fiber", "--chordal"])


def run(directory, command, a, edges):
    """Exit code and JSON output of command on matrix a and the 0-based edges."""
    m = a.shape[0]
    mpath, gpath = os.path.join(directory, "a.json"), os.path.join(directory, "g.json")
    with open(mpath, "w") as fh:
        json.dump({"m": m, "entries": a.tolist()}, fh)
    with open(gpath, "w") as fh:
        json.dump({"m": m, "edges": [[int(i) + 1, int(j) + 1] for i, j in edges]}, fh)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(command + ["--matrix", mpath, "--graph", gpath])
    return rc, json.loads(buf.getvalue())


@given(st.sampled_from(["chordal 0.7", "chordal 1.0", "cycle"]), st.integers(3, 16),
       st.booleans(), st.sampled_from(["congruence", "scale", "relabel"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_verdicts_and_exit_codes_are_invariant(family, m, not_psd, name, seed):
    """Cases, transforms and the preimage check of ``scripts/scale_contract.py``."""
    rng = np.random.default_rng(seed)
    a, edges = contract.member(rng, family, m)
    if not_psd:
        a = contract.shift_not_psd(a)
    b, moved = contract.transformed(rng, name, a, edges, False)
    with tempfile.TemporaryDirectory() as directory:
        for command in COMMANDS:
            rc1, out1 = run(directory, command, a, edges)
            rc2, out2 = run(directory, command, b, moved)
            assert rc1 == rc2
            assert out1.get("member") == out2.get("member")
            assert out1.get("reason") == out2.get("reason")
            assert out1.get("error", {}).get("code") == out2.get("error", {}).get("code")
            if not_psd:
                assert rc1 == (1 if command == ["membership"] else 2)
            elif family != "cycle" or command == ["membership"]:
                assert rc1 == 0
            for rc, out, matrix in ((rc1, out1, a), (rc2, out2, b)):
                if rc == 0:
                    assert all(contract.reproduces(records, matrix)
                               for records in contract.preimages(command[0], out))


PATH = [(0, 1), (1, 2)]


def assert_not_psd(a, edges):
    """membership exits 1 not_psd, fiber --chordal exits 2 not_psd, and
    is_psd says False."""
    assert is_psd(SymmetricMatrix(a)) is False
    with tempfile.TemporaryDirectory() as directory:
        rc, out = run(directory, ["membership"], a, edges)
        assert rc == 1 and out["member"] is False and out["reason"] == "not_psd"
        rc, out = run(directory, ["fiber", "--chordal"], a, edges)
        assert rc == 2 and out["error"]["code"] == "not_psd"


@pytest.mark.parametrize("scale", [10.0 ** -k for k in range(13)])
def test_indefinite_path_is_not_psd_at_every_scale(scale):
    """Off-diagonals 0.9 on the path 1-2-3: the last correlation pivot is
    1 - 0.81 / 0.19 < 0 at any scale."""
    assert_not_psd(scale * np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]]), PATH)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_zero_pivot_hides_no_indefinite_block(order):
    """B on the triangle has least eigenvalue -1.05e-5.  Unrelabelled, the
    perfect elimination ordering leaves an exactly zero pivot beside a rest of
    row w = 3.2e-5; a zero column there would hide -w, far below -tol."""
    w = 0.999 * np.sqrt(1e-9)
    b = np.array([[1.0, 1.0 - w, 1.0], [1.0 - w, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert_not_psd(b[np.ix_(order, order)], [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_entries_far_apart_in_scale_are_not_psd(order):
    """Entry 1e10 beside the diagonals 1e-300 and 1 is 1e160 in correlation
    units, whose square overflows a float: not PSD, and no traceback."""
    a = np.array([[1e-300, 1e10, 0.0], [1e10, 1.0, 1.0], [0.0, 1.0, 1.0]])
    edges = [(order.index(i), order.index(j)) for i, j in PATH]
    assert_not_psd(a[np.ix_(order, order)], edges)


@pytest.mark.parametrize("m, edges, scale", [
    (3, PATH, 1e-12), (3, PATH, 1e-14),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 1e-13),
])
def test_small_dense_matrix_off_the_graph_is_a_pattern_violation(m, edges, scale):
    """Diagonal s and every off-diagonal s / 2: each non-edge holds half its
    unit sqrt(s * s), however small s is.  (fiber --chordal refuses the
    4-cycle as not chordal first.)"""
    a = np.full((m, m), scale / 2)
    np.fill_diagonal(a, scale)
    with tempfile.TemporaryDirectory() as directory:
        for command in COMMANDS[:1] if m == 4 else COMMANDS:
            rc, out = run(directory, command, a, edges)
            assert rc == 2 and out["error"]["code"] == "pattern_violation"
