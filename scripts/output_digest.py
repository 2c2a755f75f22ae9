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
``psdcone`` from ``--src`` like the CLI calls do.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLACEHOLDER = "<tmp>"


def digest_lines(names, seeds):
    """One line per CLI call of the named workloads, from the imported psdcone."""
    import psdcone.cli
    import workloads

    for workload in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
                for op in workloads.generate(workload, seed, tmp):
                    for argv in op.argvs:
                        buf = io.StringIO()
                        with contextlib.redirect_stdout(buf):
                            rc = psdcone.cli.main(argv)
                        text = buf.getvalue().replace(tmp, PLACEHOLDER)
                        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                        yield f"{seed} {op.kind} {op.m} {rc} {digest}"


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
                         "complex-build")
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
    unknown = [w for w in args.workload if w not in workloads.WORKLOADS]
    if unknown:
        print(f"output_digest: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
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
