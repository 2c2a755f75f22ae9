#!/usr/bin/env python3
"""Print a digest of every CLI output of benchmark workloads, one line per call.

For each workload and seed, the ops of ``perfbench/workloads.py`` are
generated into a temporary directory and each call is run through
``psdcone.cli.main`` in-process, in order.  A line holds the seed, the op
kind, m, the exit code and the sha256 of stdout, with the temporary
directory replaced by a placeholder.  Two source trees print the same
lines exactly when their outputs and exit codes are the same, so one copy
of this script checks that a change leaves every output byte-identical:

    python scripts/output_digest.py --workload complex-build --seeds 1 2 3 \\
        --against ../parent

digests this checkout's ``src`` here and ``../parent/src`` in a child
process, prints each differing line pair (each line names its op kind and
m), then "N of M lines differ", and exits 1 when N > 0.  Without
``--against`` the lines themselves are printed; ``--src`` picks the tree
they come from:

    python scripts/output_digest.py --workload complex-build --seeds 1 2 3 > new.txt
    python scripts/output_digest.py --workload complex-build --seeds 1 2 3 \\
        --src ../parent/src > old.txt
    diff old.txt new.txt

The ops come from this checkout's ``perfbench/workloads.py``, which imports
``psdcone`` from ``--src`` like the CLI calls do.  The workload ``cli`` is
this script's fixed corpus (``CLI_CORPUS``): every subcommand at least once,
those that no benchmark workload runs among them, and the error paths that
leave through ``main``'s JSON error; the seed is only the ``--seed`` of its
volume, simulate and selftest calls.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLACEHOLDER = "<tmp>"


def _counterexample(m, rho):
    """counterexample_sigma(m, rho) as a matrix file (unit diagonal, 1/2 on the
    cycle edges, rho/2 at the wrap edge), built here so that both trees read
    the same input."""
    a = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    for i, j, v in [(k, k + 1, 0.5) for k in range(m - 1)] + [(m - 1, 0, rho / 2.0)]:
        a[i][j] = a[j][i] = v
    return {"m": m, "entries": a}


def _cycle(m):
    return {"m": m, "edges": [[k, k % m + 1] for k in range(1, m + 1)]}


# The "cli" workload: input files, then (op kind, m, argv) per call, at least
# one per subcommand, with "{seed}" replaced by the seed and a .json name by
# its file.  The cycle-fiber "boundary" inputs are just outside the image:
# non-members at the default tol, passing the pivot rule under --tol 1e-3.
CLI_FILES = {
    "chain.json": {"m": 3, "facets": [[1, 2], [2, 3]]},
    "chain-params.json": {"values": [{"face": [1, 2], "vertex": 1, "gamma": 1.0},
                                     {"face": [1, 2], "vertex": 2, "gamma": 0.5},
                                     {"face": [2], "vertex": 2, "gamma": 2.0},
                                     {"face": [2, 3], "vertex": 3, "gamma": -0.7}]},
    "path.json": {"m": 3, "edges": [[1, 2], [2, 3]]},
    "path-matrix.json": {"m": 3, "entries": [[2.0, 0.8, 0.0], [0.8, 1.5, -0.4],
                                             [0.0, -0.4, 1.0]]},
    "off-path.json": {"m": 3, "entries": [[2.0, 0.8, 0.3], [0.8, 1.5, -0.4],
                                          [0.3, -0.4, 1.0]]},
    "c3-member.json": {"m": 3, "entries": [[1.25, 0.5, 0.5], [0.5, 1.25, 0.5],
                                           [0.5, 0.5, 1.25]]},
    "c5.json": _cycle(5),
    "c5-member.json": _counterexample(5, 0.4),
    "c5-outside.json": _counterexample(5, 1.25),
    "c5-not-psd.json": _counterexample(5, -3.0),
    "c6-boundary.json": _counterexample(6, -1.0005),
    "c10-boundary.json": _counterexample(10, -1.0005),
    "c10-edge.json": _counterexample(10, -1.00000005),
    "c20-boundary.json": _counterexample(20, -1.00002),
    "malformed.json": "{\"m\": 3, \"entries\": [[1.0,",
}
CLI_CORPUS = [
    ("phi", 3, ["phi", "--complex", "chain.json", "--params", "chain-params.json"]),
    ("fiber", 3, ["fiber", "--chordal", "--matrix", "path-matrix.json", "--graph", "path.json"]),
    ("fiber-no-chordal", 3, ["fiber", "--matrix", "path-matrix.json", "--graph", "path.json"]),
    ("cycle-check", 5, ["cycle-check", "--matrix", "c5-member.json"]),
    ("cycle-check-outside", 5, ["cycle-check", "--matrix", "c5-outside.json"]),
    ("cycle-check-not-psd", 5, ["cycle-check", "--matrix", "c5-not-psd.json"]),
    ("cycle-fiber", 3, ["cycle-fiber", "--matrix", "c3-member.json"]),
    ("cycle-fiber", 5, ["cycle-fiber", "--matrix", "c5-member.json"]),
    ("cycle-fiber-outside", 5, ["cycle-fiber", "--matrix", "c5-outside.json"]),
    ("cycle-fiber-boundary", 10, ["cycle-fiber", "--matrix", "c10-edge.json"]),
    ("cycle-fiber-boundary", 6, ["cycle-fiber", "--matrix", "c6-boundary.json",
                                 "--tol", "1e-3"]),
    ("cycle-fiber-boundary", 10, ["cycle-fiber", "--matrix", "c10-boundary.json",
                                  "--tol", "1e-3"]),
    ("cycle-fiber-boundary", 20, ["cycle-fiber", "--matrix", "c20-boundary.json"]),
    ("counterexample", 5, ["counterexample", "--m", "5", "--rho", "1.25"]),
    ("counterexample", 10, ["counterexample", "--m", "10", "--rho", "-1.00000005"]),
    ("quotient", 3, ["quotient", "--complex", "chain.json", "--remove", "2"]),
    ("schur-witness", 3, ["schur-witness", "--complex", "chain.json", "--params",
                          "chain-params.json", "--vertex", "2"]),
    ("volume", 3, ["volume", "--m", "3", "--samples", "200", "--seed", "{seed}"]),
    ("volume-table-json", 7, ["volume", "--table", "--json", "--samples", "20",
                              "--seed", "{seed}"]),
    ("digraph", 3, ["digraph", "--complex", "chain.json"]),
    ("simulate", 3, ["simulate", "--complex", "chain.json", "--params", "chain-params.json",
                     "--n", "50", "--seed", "{seed}"]),
    ("membership", 3, ["membership", "--matrix", "path-matrix.json", "--graph", "path.json"]),
    ("membership", 5, ["membership", "--matrix", "c5-member.json", "--graph", "c5.json"]),
    ("membership-outside", 5, ["membership", "--matrix", "c5-outside.json",
                               "--graph", "c5.json"]),
    ("membership-malformed", 3, ["membership", "--matrix", "malformed.json",
                                 "--graph", "path.json"]),
    ("membership-missing-file", 3, ["membership", "--matrix", "absent.json",
                                    "--graph", "path.json"]),
    ("membership-pattern", 3, ["membership", "--matrix", "off-path.json",
                               "--graph", "path.json"]),
    ("selftest", 0, ["selftest", "--n", "1", "--seed", "{seed}"]),
]


def _cli_calls(seed, tmp):
    """The "cli" workload's (kind, m, argv) per call, its files written to tmp."""
    for name, obj in CLI_FILES.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    for kind, m, argv in CLI_CORPUS:
        yield kind, m, [os.path.join(tmp, a) if a.endswith(".json") else a.format(seed=seed)
                        for a in argv]


def digest_lines(names, seeds):
    """One line per CLI call of the named workloads, from the imported psdcone."""
    import psdcone.cli
    import workloads

    for workload in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
                calls = (_cli_calls(seed, tmp) if workload == "cli" else
                         ((op.kind, op.m, argv) for op in workloads.generate(workload, seed, tmp)
                          for argv in op.argvs))
                for kind, m, argv in calls:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = psdcone.cli.main(argv)
                    text = buf.getvalue().replace(tmp, PLACEHOLDER)
                    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    yield f"{seed} {kind} {m} {rc} {digest}"


def compare(theirs: list[str], ours: list[str], label: str) -> int:
    """Print each differing line pair, theirs "-" and ours "+", then the count;
    1 if any line differs."""
    differ = 0
    for old, new in itertools.zip_longest(theirs, ours, fillvalue="(no line)"):
        if old != new:
            differ += 1
            print(f"- {old}\n+ {new}")
    print(f"{differ} of {max(len(theirs), len(ours))} lines differ "
          f"(- {label}, + this tree)")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", required=True,
                    help="one or more of cycle-decide, chordal-decide, volume-sample, "
                         "complex-build, and cli (a fixed corpus of every subcommand)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the psdcone package to run (default: this checkout's)")
    ap.add_argument("--against", metavar="DIR",
                    help="a checkout whose src is digested in a child process and compared "
                         "line by line; exits 1 on any difference")
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import psdcone.cli
    import workloads

    if os.path.dirname(os.path.abspath(psdcone.cli.__file__)) != os.path.join(src, "psdcone"):
        print(f"output_digest: psdcone imported from {psdcone.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    unknown = [w for w in args.workload if w != "cli" and w not in workloads.WORKLOADS]
    if unknown:
        print(f"output_digest: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}, cli", file=sys.stderr)
        return 2

    if args.against is None:
        for line in digest_lines(args.workload, args.seeds):
            print(line)
        return 0
    other = os.path.join(os.path.abspath(args.against), "src")
    if not os.path.isdir(os.path.join(other, "psdcone")):
        print(f"output_digest: no psdcone package under {other}", file=sys.stderr)
        return 2
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", *args.workload,
         "--seeds", *map(str, args.seeds), "--src", other],
        capture_output=True, text=True)
    if child.returncode != 0:
        print(f"output_digest: the digest of {other} exited {child.returncode}:\n"
              f"{child.stderr}", file=sys.stderr)
        return 2
    return compare(child.stdout.splitlines(), list(digest_lines(args.workload, args.seeds)),
                   args.against)


if __name__ == "__main__":
    sys.exit(main())
