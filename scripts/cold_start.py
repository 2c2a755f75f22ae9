#!/usr/bin/env python3
"""Wall time and imports of each CLI subcommand, one fresh process per call.

Fixed fixtures are written to a temporary directory; each subcommand then
runs as its own interpreter, ``--repeat`` times, through
``psdcone.cli.main`` as the ``psdcone`` console script calls it.  For each
subcommand this prints the exit code, the median wall time of the whole
process in ms (interpreter start-up included) and the psdcone modules the
process loaded:

    python scripts/cold_start.py --repeat 12

With ``--src DIR`` the calls alternate between this checkout's source tree
and DIR (for example a copy of the parent commit), one call of each per
subcommand and repetition, so both trees see the same machine load:

    python scripts/cold_start.py --repeat 12 --src ../parent/src

``python -X importtime -m psdcone.cli <subcommand> ...`` breaks one
process's import time down by module.  Bytecode caches change the figures:
under ``PYTHONDONTWRITEBYTECODE=1`` every process compiles what it imports.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: src dir, CLI arguments.  Prints one JSON line after the command.
CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import psdcone.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = psdcone.cli.main(sys.argv[2:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "home": os.path.dirname(os.path.abspath(psdcone.cli.__file__)),
                  "modules": sorted(m[8:] for m in sys.modules if m.startswith("psdcone.")),
                  "pool": "concurrent.futures" in sys.modules}))
"""

FIXTURES = {
    "cycle.json": {"m": 5, "entries": [[2.0 if i == j else 0.5 if (i - j) % 5 in (1, 4) else 0.0
                                        for j in range(5)] for i in range(5)]},
    "c5.json": {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]},
    "tri.json": {"m": 5, "entries": [[2.0 if i == j else 0.5 if abs(i - j) == 1 else 0.0
                                      for j in range(5)] for i in range(5)]},
    "p5.json": {"m": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]},
    "complex.json": {"m": 5, "facets": [[1, 2, 3], [3, 4], [4, 5]]},
    "params.json": {"values": [{"face": [1, 2, 3], "vertex": v, "gamma": 1.0 / v}
                               for v in (1, 2, 3)]
                    + [{"face": [3, 4], "vertex": 4, "gamma": 0.5},
                       {"face": [4, 5], "vertex": 5, "gamma": 2.0}]},
}

# name -> CLI arguments; *.json names are FIXTURES files
CALLS = {
    "phi": ["phi", "--complex", "complex.json", "--params", "params.json"],
    "fiber": ["fiber", "--chordal", "--matrix", "tri.json", "--graph", "p5.json"],
    "cycle-check": ["cycle-check", "--matrix", "cycle.json"],
    "cycle-fiber": ["cycle-fiber", "--matrix", "cycle.json"],
    "counterexample": ["counterexample", "--m", "5", "--rho", "1.25"],
    "quotient": ["quotient", "--complex", "complex.json", "--remove", "3"],
    "schur-witness": ["schur-witness", "--complex", "complex.json", "--params", "params.json",
                      "--vertex", "3"],
    "volume": ["volume", "--m", "5", "--samples", "1000"],
    "volume --workers 2": ["volume", "--m", "5", "--samples", "1000", "--workers", "2"],
    "digraph": ["digraph", "--complex", "complex.json"],
    "simulate": ["simulate", "--complex", "complex.json", "--params", "params.json",
                 "--n", "1000"],
    "membership": ["membership", "--matrix", "cycle.json", "--graph", "c5.json"],
    "selftest": ["selftest", "--n", "1"],
}


def run_once(src, argv):
    """(wall s, child report) of one fresh process running argv on src."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv], capture_output=True,
                          text=True, timeout=600, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} on {src} failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["home"] != os.path.join(src, "psdcone"):
        raise RuntimeError(f"psdcone imported from {report['home']}, not from {src}")
    return wall, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=5, help="processes per subcommand and tree")
    ap.add_argument("--src", help="a second source tree to alternate with this checkout's")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    trees = {"this": os.path.join(ROOT, "src")}
    if args.src:
        trees["other"] = os.path.abspath(args.src)
    walls = {(name, tree): [] for name in CALLS for tree in trees}
    reports = {}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        for file, obj in FIXTURES.items():
            with open(os.path.join(tmp, file), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        for rep in range(args.repeat):
            for name in CALLS:
                argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in CALLS[name]]
                order = list(trees) if rep % 2 == 0 else list(reversed(trees))
                for tree in order:
                    wall, reports[name, tree] = run_once(trees[tree], argv)
                    walls[name, tree].append(wall)

    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE') or '(unset)'}, "
          f"median of {args.repeat}")
    print(f"{'subcommand':<20} {'tree':<6} {'rc':>3} {'ms':>8}  psdcone modules")
    for name, tree in walls:
        report = reports[name, tree]
        print(f"{name:<20} {tree:<6} {report['rc']:>3} "
              f"{statistics.median(walls[name, tree]) * 1e3:>8.1f}  "
              f"{' '.join(report['modules'])}{'  +process pool' if report['pool'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
