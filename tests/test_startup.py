"""Start-up: what each CLI process imports, checked in fresh interpreters.

A process loads only the psdcone modules its subcommand runs, and the
process pool only under ``volume --workers`` above 1.  These tests start a
new interpreter per case, because in one process the imports of one test
hide those of the next.
"""

import json
import os
import subprocess
import sys

import pytest

import psdcone

from test_bench_bindings import bindings

SRC = os.path.dirname(os.path.dirname(os.path.abspath(psdcone.__file__)))
BASE = {"psdcone", "psdcone.cli", "psdcone.core", "psdcone.errors", "psdcone.linalg"}
POOL = ("concurrent.futures", "multiprocessing")

# Runs main(argv) in this fresh interpreter after an optional setup
# statement, with the command's stdout captured; prints one JSON line.
# argv: JSON list of CLI arguments, setup statement.
CHILD = """
import contextlib, io, json, sys
import psdcone.cli as cli
exec(sys.argv[2])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        rc = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "out": out.getvalue(),
                  "modules": sorted(m for m in sys.modules if m.startswith("psdcone")),
                  "pool": [m for m in %r if m in sys.modules]}))
""" % (POOL,)


def fresh(code, *args):
    """The last stdout line of code run with args in a new interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_fresh(argv, setup=""):
    return fresh(CHILD, json.dumps(argv), setup)


@pytest.fixture
def files(tmp_path):
    fixtures = {
        "s.json": {"m": 3, "entries": [[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]]},
        "g.json": {"m": 3, "edges": [[1, 2], [2, 3]]},
        "c.json": {"m": 3, "facets": [[1, 2], [2, 3]]},
        "p.json": {"values": [{"face": [1, 2], "vertex": 1, "gamma": 1.0},
                              {"face": [1, 2], "vertex": 2, "gamma": 0.5},
                              {"face": [2, 3], "vertex": 3, "gamma": 1.0}]},
    }
    for name, obj in fixtures.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return lambda name: str(tmp_path / name)


def psdcone_modules(*names):
    return BASE | {f"psdcone.{name}" for name in names}


# per case: argv with file names for files(), the exit code, and the psdcone
# modules beyond BASE that the process loads
CASES = {
    "phi": (["phi", "--complex", "c.json", "--params", "p.json"], 0, ["param"]),
    "fiber": (["fiber", "--chordal", "--matrix", "s.json", "--graph", "g.json"], 0,
              ["chordal", "cycle", "decide", "param"]),
    "cycle-check": (["cycle-check", "--matrix", "s.json"], 0, ["cycle"]),
    "cycle-fiber": (["cycle-fiber", "--matrix", "s.json"], 0, ["cycle", "param"]),
    "counterexample": (["counterexample", "--m", "5", "--rho", "1.25"], 0, ["cycle"]),
    "quotient": (["quotient", "--complex", "c.json", "--remove", "2"], 0,
                 ["param", "quotient"]),
    "schur-witness": (["schur-witness", "--complex", "c.json", "--params", "p.json",
                       "--vertex", "2"], 0, ["param", "quotient"]),
    "volume": (["volume", "--m", "3", "--samples", "50"], 0, ["volume"]),
    "digraph": (["digraph", "--complex", "c.json"], 0, ["latent", "param"]),
    "simulate": (["simulate", "--complex", "c.json", "--params", "p.json", "--n", "20"], 0,
                 ["latent", "param"]),
    "membership": (["membership", "--matrix", "s.json", "--graph", "g.json"], 0,
                   ["chordal", "cycle", "decide", "param"]),
    "selftest": (["selftest", "--n", "1", "--suite", "cycle"], 0,
                 ["chordal", "cycle", "instances", "param", "quotient", "selftest"]),
    "selftest --help": (["selftest", "--help"], 0, []),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_subcommand_loads_only_what_it_runs(case, files):
    argv, rc, extra = CASES[case]
    argv = [files(a) if a.endswith(".json") else a for a in argv]
    got = run_fresh(argv)
    assert got["rc"] == rc, got["out"]
    assert set(got["modules"]) == psdcone_modules(*extra)
    assert got["pool"] == []


def test_every_subcommand_has_a_case():
    from psdcone.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {argv[0] for argv, _, _ in CASES.values()}


def test_only_several_workers_load_the_process_pool():
    argv = ["volume", "--m", "3", "--samples", "40", "--seed", "3"]
    one, two = run_fresh(argv), run_fresh(argv + ["--workers", "2"])
    assert one["rc"] == two["rc"] == 0
    assert one["pool"] == [] and set(two["pool"]) == set(POOL)
    assert set(two["modules"]) == psdcone_modules("volume")
    assert json.loads(two["out"])["samples_psd"] == 40


def test_importing_the_cli_loads_its_core_only():
    got = fresh("import sys, json, psdcone.cli\n"
                "print(json.dumps({'modules': sorted(m for m in sys.modules"
                " if m.startswith('psdcone')), 'pool': [m for m in %r if m in sys.modules]}))"
                % (POOL,))
    assert set(got["modules"]) == BASE and got["pool"] == []


PACKAGE_CHECK = """
import json, os, sys
import psdcone
loaded_at_import = sorted(m for m in sys.modules if m.startswith("psdcone."))
home = os.path.dirname(psdcone.__file__)
submodules = sorted(f[:-3] for f in os.listdir(home) if f.endswith(".py") and f != "__init__.py")
# each name is the object its defining module holds under that name
bad = [name for name in psdcone.__all__
       if getattr(psdcone, name) is not getattr(sys.modules[getattr(psdcone, name).__module__],
                                               name, None)]
mods = {name: getattr(psdcone, name).__name__ for name in submodules}
print(json.dumps({"loaded_at_import": loaded_at_import, "submodules": mods,
                  "all_in_dir": set(psdcone.__all__) <= set(dir(psdcone)),
                  "unresolved": bad, "all": psdcone.__all__}))
"""


PUBLIC = {
    "CycleFiber", "CycleMatrix", "Decision", "EliminationOrdering", "FactorMatrix",
    "FactorParams", "Graph", "LatentSystem", "MembershipVerdict", "QuotientWitness",
    "RankOneTerm", "SimplicialComplex", "SymmetricMatrix", "VolumeEstimate",
    "build_digraph", "build_factor_matrix", "chordal_fiber", "clique_complex",
    "complex_quotient", "conditional_precision", "cone_add", "counterexample_det",
    "counterexample_sigma", "covariance_identity", "cycle_edge_complex", "cycle_fiber",
    "cycle_graph", "cycle_membership", "edge_complex", "estimate_volume",
    "extreme_decomposition", "graph_quotient", "induced_subcomplex", "is_chordal", "is_psd",
    "is_surjective", "matching_sum", "membership", "phi", "quartic_coefficients",
    "schur_complement", "schur_witness", "sign_flip", "simulate_y", "submatrix_witness",
    "underlying_graph", "volume_table",
}


def test_package_names_and_submodules_resolve():
    got = fresh(PACKAGE_CHECK)
    assert got["loaded_at_import"] == []
    assert got["submodules"] == {name: f"psdcone.{name}" for name in got["submodules"]}
    assert {"cli", "core", "volume"} <= set(got["submodules"])
    assert got["unresolved"] == [] and got["all_in_dir"]
    assert got["all"] == sorted(PUBLIC)


def test_star_import_binds_all():
    got = fresh("import json, psdcone\n"
                "scope = {}\n"
                "exec('from psdcone import *', scope)\n"
                "print(json.dumps({'bound': sorted(n for n in scope if n != '__builtins__'),"
                " 'all': sorted(psdcone.__all__),"
                " 'same': all(scope[n] is getattr(psdcone, n) for n in psdcone.__all__)}))")
    assert got["bound"] == got["all"] and got["same"]


def test_unknown_names_raise_attribute_error():
    import psdcone.cli

    for module in (psdcone, psdcone.cli):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            getattr(module, "nonexistent")


def test_every_deferred_cli_name_resolves_before_any_command():
    """Every name a subcommand's ``uses`` lists, and every ``psdcone.cli``
    name the benchmark harness wraps, resolves on the module to the package's
    object (or to the module's own), with no command run."""
    from psdcone.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    names = {name for p in sub.choices.values() for name in p.get_default("uses")}
    names |= {attr for module, attr, _ in bindings() or () if module == "psdcone.cli"}
    got = fresh("import json, sys, psdcone, psdcone.cli as cli\n"
                "own = dict(vars(cli))\n"
                "wrong = [n for n in json.loads(sys.argv[1])\n"
                "         if getattr(cli, n) is not own.get(n, getattr(psdcone, n, None))]\n"
                "print(json.dumps({'wrong': wrong, 'ran': cli._parser is not None}))",
                json.dumps(sorted(names)))
    assert got == {"wrong": [], "ran": False}


@pytest.mark.parametrize("name", ["__path__", "__version__", "_HOME"])
def test_the_cli_does_not_resolve_the_package_own_attributes(name):
    """Only the package's public names and submodules resolve on the CLI."""
    import psdcone.cli

    assert hasattr(psdcone, name)
    with pytest.raises(AttributeError, match=f"^module 'psdcone.cli' has no attribute '{name}'$"):
        getattr(psdcone.cli, name)


def test_a_patch_made_before_the_first_call_is_what_the_command_calls(files):
    """Plain assignment, before any lookup loads the module, as a harness
    that swaps ``psdcone.cli.simulate_y`` would do."""
    setup = ("import psdcone.core as core\n"
             "def fake(delta, gamma, n, seed):\n"
             "    return core.SymmetricMatrix(__import__('numpy').full((delta.m, delta.m), 7.0))\n"
             "cli.simulate_y = fake\n")
    got = run_fresh(["simulate", "--complex", files("c.json"), "--params", files("p.json")], setup)
    assert got["rc"] == 0
    assert json.loads(got["out"])["entries"] == [[7.0] * 3] * 3


def test_a_patch_after_a_lookup_is_what_the_command_calls(files):
    """Look the name up first (which loads it), then replace it, as
    ``monkeypatch.setattr`` does."""
    setup = ("cli.phi\n"
             "def fake(delta, gamma):\n"
             "    raise ValueError('patched phi ran')\n"
             "cli.phi = fake\n")
    argv = ["phi", "--complex", files("c.json"), "--params", files("p.json")]
    got = run_fresh(argv, setup)
    assert got["rc"] == 2
    assert json.loads(got["out"])["error"]["message"] == "patched phi ran"
