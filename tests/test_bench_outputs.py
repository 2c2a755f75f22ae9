"""The benchmark's complex-build inputs print the same bytes through the
library and through the per-record and per-face oracles.

The ops of ``perfbench/workloads.py`` at seed 1 (the ``phi`` and
``schur-witness`` calls of its first ROUNDS rounds, which read a params file
and re-factor columns) run through ``psdcone.cli.main`` twice in this
process: as they are, and with ``FactorParams.from_json_dict`` and
``_combine_columns`` replaced by ``tests/oracles.py``'s per-record reader and
column-by-column re-factoring.  Both runs use this numpy, so no reference
output is stored.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from psdcone import cli, quotient
from psdcone.core import FactorParams

from oracles import combine_blocks_by_column, params_from_json_by_record

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")
KINDS = ("phi", "schur-witness")
ROUNDS = 20  # of 40: every op runs twice, and the whole test takes about 2 s


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _outputs(ops) -> list[tuple[int, str]]:
    out = []
    for op in ops:
        for argv in op.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            out.append((rc, buf.getvalue()))
    return out


def test_complex_build_outputs_equal_the_oracles(tmp_path, monkeypatch):
    if not os.path.exists(WORKLOADS):
        pytest.skip("no perfbench/workloads.py")
    workloads = _workloads()
    ops = [op for op in workloads.generate("complex-build", 1, str(tmp_path))
           if op.kind in KINDS][:ROUNDS * len(KINDS) * len(workloads.COMPLEX_FACETS)]
    fast = _outputs(ops)
    monkeypatch.setattr(FactorParams, "from_json_dict",
                        classmethod(lambda cls, delta, d: params_from_json_by_record(delta, d)))
    monkeypatch.setattr(quotient, "_combine_columns", combine_blocks_by_column)
    assert _outputs(ops) == fast
    assert {rc for rc, _ in fast} == {0}
