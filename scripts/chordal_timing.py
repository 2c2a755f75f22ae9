#!/usr/bin/env python3
"""Per-call time of the chordal path on inputs the benchmark does not draw.

The benchmark's chordal-decide workload draws sparse ``random_chordal_graph``
graphs only.  This script also times dense chordal inputs, in one fresh
process per repetition and source tree:

* ``sparse``: ``random_chordal_graph`` (seed 0 of ``default_rng``);
* ``complete``: the complete graph;
* ``two-cliques``: two cliques of 3m/4 vertices sharing m/2 (at m = 64,
  two cliques of 48 sharing 32);

each at m = 16, 32 and 64, with a positive definite matrix on the graph's
pattern (a random Gram block on every maximal clique, plus the identity).
On each input it times ``is_chordal``, ``ordering_clique_complex`` (given the
ordering), ``chordal_fiber`` (from the graph alone), and on the decision that
``decide.membership`` returns the certificate's re-check
(``decide._check_certificate``, which runs ``phi``; the complete graph at
m = 64 is the one input whose faces take ``phi``'s dense path) and
``Decision.to_json_dict``; and, through
``psdcone.cli.main`` in-process with stdout captured, ``membership`` and
``fiber --chordal`` on the graph file, and ``emit``: ``psdcone.cli._print_json``
of the JSON value that ``membership`` prints (on the complete graph at m = 64,
a certificate of 2,080 records), stdout captured.  A process times each call
by the best of 5 runs of a loop of at least 20 ms and prints µs per call; the
table holds the median over repetitions:

    python scripts/chordal_timing.py --repeat 5

With ``--src DIR`` the processes alternate between this checkout's source
tree and DIR (for example a copy of the parent commit), so both trees see the
same machine load, and the table gives the ratio this/other:

    python scripts/chordal_timing.py --repeat 5 --src ../parent/src

Like ``cold_start.py``, it warns on stderr when only one of the two trees
holds compiled bytecode in ``psdcone/__pycache__``: under
``PYTHONDONTWRITEBYTECODE=1`` the other compiles every module in every process.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from cold_start import warn_unlike_bytecode

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# argv: src dir.  Prints one JSON object: {"home": ..., "us": [[input, m, call, us], ...]}.
CHILD = r"""
import contextlib, io, itertools, json, os, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import psdcone.cli
from psdcone import decide
from psdcone.chordal import chordal_fiber, clique_complex, is_chordal, ordering_clique_complex
from psdcone.core import Graph, SymmetricMatrix
from psdcone.instances import random_chordal_graph


def graph(kind, m):
    if kind == "sparse":
        return random_chordal_graph(np.random.default_rng(0), m)
    if kind == "complete":
        return Graph.from_edges(m, itertools.combinations(range(m), 2))
    size = 3 * m // 4
    return Graph.from_edges(m, {e for first in (0, m - size)
                                for e in itertools.combinations(range(first, first + size), 2)})


def matrix(g):
    rng = np.random.default_rng(1)
    arr = np.eye(g.m)
    for facet in clique_complex(g).facets:
        block = rng.standard_normal((len(facet), len(facet)))
        arr[np.ix_(facet, facet)] += block @ block.T / len(facet)
    return SymmetricMatrix(arr)


def best_us(fn):
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - start >= 0.02:
            break
        loops *= 2
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        runs.append((time.perf_counter() - start) / loops)
    return min(runs) * 1e6


def cli(argv):  # the exit code and the captured stdout
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return psdcone.cli.main(argv), buf.getvalue()


def emit(obj):
    with contextlib.redirect_stdout(io.StringIO()):
        psdcone.cli._print_json(obj)


out = []
with tempfile.TemporaryDirectory(prefix="chordal-timing-") as tmp:
    for kind in ("sparse", "complete", "two-cliques"):
        for m in (16, 32, 64):
            g = graph(kind, m)
            sigma = matrix(g)
            files = {"sigma.json": sigma.to_json_dict(), "g.json": g.to_json_dict()}
            for name, obj in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            mpath, gpath = os.path.join(tmp, "sigma.json"), os.path.join(tmp, "g.json")
            ordering = is_chordal(g)[1]
            rc, stdout = cli(["membership", "--matrix", mpath, "--graph", gpath])
            if rc != 0:
                raise SystemExit(f"membership on {kind} m={m} did not exit 0")
            printed = json.loads(stdout)
            decision = decide.membership(sigma, g)
            calls = {
                "is_chordal": lambda: is_chordal(g),
                "ordering_clique_complex": lambda: ordering_clique_complex(g, ordering),
                "chordal_fiber": lambda: chordal_fiber(g, sigma),
                "check_certificate": lambda: decide._check_certificate(decision.certificate,
                                                                       sigma),
                "Decision.to_json_dict": decision.to_json_dict,
                "membership": lambda: cli(["membership", "--matrix", mpath, "--graph", gpath]),
                "fiber --chordal": lambda: cli(["fiber", "--chordal", "--matrix", mpath,
                                                "--graph", gpath]),
                "emit": lambda: emit(printed),
            }
            out.extend([kind, m, call, best_us(fn)] for call, fn in calls.items())
print(json.dumps({"home": os.path.dirname(os.path.abspath(psdcone.cli.__file__)), "us": out}))
"""


def run_once(src):
    """{(input, m, call): µs} from one fresh process on src."""
    proc = subprocess.run([sys.executable, "-c", CHILD, src], capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"timing on {src} failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["home"] != os.path.join(src, "psdcone"):
        raise RuntimeError(f"psdcone imported from {report['home']}, not from {src}")
    return {(kind, m, call): us for kind, m, call, us in report["us"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=5, help="processes per tree")
    ap.add_argument("--src", help="a second source tree to alternate with this checkout's")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    trees = {"this": os.path.join(ROOT, "src")}
    if args.src:
        trees["other"] = os.path.abspath(args.src)
        warn_unlike_bytecode(trees)
    times = {tree: [] for tree in trees}
    for rep in range(args.repeat):
        for tree in (list(trees) if rep % 2 == 0 else list(reversed(trees))):
            times[tree].append(run_once(trees[tree]))

    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"µs per call, median of {args.repeat} processes per tree")
    header = f"{'input':<12} {'m':>3} {'call':<24}" + "".join(f" {t:>10}" for t in trees)
    print(header + ("  this/other" if args.src else ""))
    for key in times["this"][0]:
        medians = {t: statistics.median(run[key] for run in times[t]) for t in trees}
        line = f"{key[0]:<12} {key[1]:>3} {key[2]:<24}" + "".join(
            f" {medians[t]:>10.1f}" for t in trees)
        if args.src:
            line += f"  {medians['this'] / medians['other']:>10.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
