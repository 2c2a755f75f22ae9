#!/usr/bin/env python3
"""Check that decisions and preimages do not depend on scale or labels.

Seeded chordal members (m 3..16, parameter densities 0.7 and 1.0), cycle
members (m 3..16) and their not-PSD shifts are written to JSON files and run
through ``psdcone.cli.main`` in-process: ``membership`` and ``fiber
--chordal`` on every instance, ``cycle-check`` and ``cycle-fiber`` on the
cycles.  Each call is repeated under three transforms that preserve the
image cone and PSD-ness:

- ``congruence``: D Sigma D, D diagonal with entries +-10^U(-6, 6);
- ``scale``: c Sigma with c = 10^U(-12, 12);
- ``relabel``: P Sigma P^T with a random permutation of the graph file's
  vertices (a rotation or reflection of the cycle for the commands that
  read the cycle from the matrix alone).

Five contracts are checked on every call:

- ``exit``: the exit code is the untransformed call's;
- ``code``: an exit 2 carries an error code of ``cli.ERROR_CODES`` (or
  ``invalid_input``, the code of every other input error);
- ``traceback``: no traceback is printed, and no exception leaves ``main``;
- ``preimage``: every printed preimage reproduces its input within 1e-8 of
  sqrt(|sigma_ii sigma_jj|) at every entry (i, j), recomputed here with numpy;
- ``psd``: a ``membership`` verdict (exit 0 or 1) is ``not_psd`` exactly
  when ``linalg.is_psd`` at the default tolerance says the input is not PSD.

A cycle determinant pushed out of the normal float range exits 2 with
``invalid_input`` by design (README); such calls are counted apart as
``unrepresentable`` and not compared.  Each violation is described on
stderr; stdout gets one line of counts per subcommand, and the exit status
is 1 if any contract is violated:

    python scripts/scale_contract.py
    python scripts/scale_contract.py --src ../parent/src   # another tree

``tests/test_scale_invariance.py`` draws its cases with the same helpers.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACTS = ("exit", "code", "traceback", "preimage", "psd")
TRANSFORMS = ("congruence", "scale", "relabel")
PREIMAGE_RTOL = 1e-8
NOT_PSD_SHIFT = 0.05
CASES = 20  # instances per family and kind
SEED = 0


def gram(m: int, records) -> np.ndarray:
    """Gamma Gamma^T from JSON parameter records (1-based faces and vertices)."""
    cols: dict = {}
    for rec in records:
        cols.setdefault(tuple(rec["face"]), np.zeros(m))[rec["vertex"] - 1] = rec["gamma"]
    if not cols:
        return np.zeros((m, m))
    g = np.column_stack(list(cols.values()))
    return g @ g.T


def reproduces(records, a: np.ndarray) -> bool:
    """|image - a| <= 1e-8 sqrt(|a_ii a_jj|) entrywise: equality beside a zero diagonal."""
    s = np.sqrt(np.abs(np.diag(a)))
    return bool(np.all(np.abs(gram(a.shape[0], records) - a) <= PREIMAGE_RTOL * np.outer(s, s)))


def preimages(command: str, out: dict) -> list:
    """The parameter record lists that a successful call printed."""
    if command == "membership":
        cert = out.get("certificate")
        return [] if cert is None else [cert["values"]]
    if command == "fiber":
        return [out["values"]]
    if command == "cycle-fiber":
        return [rep["values"] for rep in out["representatives"]]
    return []


def shift_not_psd(a: np.ndarray) -> np.ndarray:
    """a moved to the smallest eigenvalue -0.05 * max|entry|."""
    lo = float(np.linalg.eigvalsh(a)[0])
    return a - (lo + NOT_PSD_SHIFT * float(np.abs(a).max())) * np.eye(a.shape[0])


def member(rng, family: str, m: int):
    """A random member and its 0-based edges: family "cycle", or "chordal 0.7"
    or "chordal 1.0" for a chordal graph at that parameter density."""
    from psdcone.chordal import clique_complex
    from psdcone.instances import random_chordal_graph, random_cycle_member, random_params
    from psdcone.param import phi

    if family == "cycle":
        return random_cycle_member(rng, m)[0].to_array(), [(k, (k + 1) % m) for k in range(m)]
    g = random_chordal_graph(rng, m)
    delta = clique_complex(g)
    a = phi(delta, random_params(rng, delta, density=float(family.split()[1]))).a
    return a, sorted(g.edges)


def instances(rng):
    """(family, matrix, 0-based edges) triples: chordal then cycle instances."""
    for family in ("chordal", "cycle"):
        for i in range(CASES):
            kind = f"chordal {(0.7, 1.0)[i % 2]}" if family == "chordal" else family
            a, edges = member(rng, kind, 3 + i % 14)
            yield family, a, edges
            yield family + "-not-psd", shift_not_psd(a), edges


def transformed(rng, name: str, a: np.ndarray, edges, cycle_labels: bool):
    """(matrix, edges) under one transform; cycle_labels keeps the cycle 0-1-...-(m-1)."""
    m = a.shape[0]
    if name == "congruence":
        d = 10.0 ** rng.uniform(-6.0, 6.0, m) * rng.choice([-1.0, 1.0], m)
        return d[:, None] * a * d[None, :], edges
    if name == "scale":
        return a * 10.0 ** rng.uniform(-12.0, 12.0), edges
    if cycle_labels:
        perm = (np.arange(m) + rng.integers(m)) % m
        if rng.random() < 0.5:
            perm = perm[::-1].copy()
    else:
        perm = rng.permutation(m)
    b = np.empty_like(a)
    b[np.ix_(perm, perm)] = a
    return b, sorted(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in edges)


class Runner:
    def __init__(self, main, codes, directory, psd):
        self.main = main
        self.codes = codes
        self.directory = directory
        self.psd = psd
        self.count = 0
        self.calls: dict = {}
        self.violations: dict = {}
        self.unrepresentable: dict = {}

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def call(self, label: str, argv: list, a: np.ndarray):
        """Run argv; (exit code or None when unrepresentable) after the
        code, traceback, preimage and psd contracts."""
        self.calls[label] = self.calls.get(label, 0) + 1
        out_buf, err_buf = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                rc = self.main(argv)
        except Exception:  # an exception out of main is a traceback
            self.violate(label, "traceback", argv, traceback.format_exc())
            return None
        if "Traceback" in out_buf.getvalue() + err_buf.getvalue():
            self.violate(label, "traceback", argv, err_buf.getvalue())
        try:
            out = json.loads(out_buf.getvalue())
        except ValueError:
            self.violate(label, "code", argv, out_buf.getvalue()[:200])
            return rc
        if rc == 2:
            err = out.get("error", {})
            if err.get("code") not in self.codes:
                self.violate(label, "code", argv, err)
            if err.get("code") == "invalid_input" and "normal float range" in err.get("message", ""):
                self.unrepresentable[label] = self.unrepresentable.get(label, 0) + 1
                return None
        if rc == 0:
            for records in preimages(argv[0], out):
                if not reproduces(records, a):
                    self.violate(label, "preimage", argv, "")
        if argv[0] == "membership" and rc in (0, 1):
            psd = self.psd(a)
            if psd == (out.get("reason") == "not_psd"):
                self.violate(label, "psd", argv, f"is_psd {psd}, exit {rc}")
        return rc

    def violate(self, label: str, contract: str, argv, detail):
        """Count a violation, and describe it on stderr."""
        print(f"{contract}: {' '.join(map(str, argv))} {detail}".rstrip(), file=sys.stderr)
        key = (label, contract)
        self.violations[key] = self.violations.get(key, 0) + 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the psdcone package to run (default: this checkout's)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import psdcone.cli
    from psdcone.core import SymmetricMatrix
    from psdcone.linalg import is_psd

    def psd(a) -> bool:
        got = is_psd(SymmetricMatrix(a))
        return getattr(got, "is_psd", got)  # trees where is_psd returned a PsdReport

    codes = set(psdcone.cli.ERROR_CODES.values()) | {"invalid_input"}
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory(prefix="scale-contract-") as tmp:
        runner = Runner(psdcone.cli.main, codes, tmp, psd)
        for family, a, edges in instances(rng):
            commands = [["membership"], ["fiber", "--chordal"]]
            if family.startswith("cycle"):
                commands += [["cycle-check"], ["cycle-fiber"]]
            for command in commands:
                label = " ".join(command)
                on_cycle = command[0].startswith("cycle-")

                def run(matrix, edge_list):
                    argv = command + ["--matrix", runner.write(
                        {"m": matrix.shape[0], "entries": matrix.tolist()})]
                    if not on_cycle:
                        argv += ["--graph", runner.write({"m": matrix.shape[0], "edges": [
                            [i + 1, j + 1] for i, j in edge_list]})]
                    return runner.call(label, argv, matrix)

                base = run(a, edges)
                for name in TRANSFORMS:
                    rc = run(*transformed(rng, name, a, edges, on_cycle))
                    if None not in (base, rc) and rc != base:
                        runner.violate(label, "exit", command, f"{family} {name}: {base} -> {rc}")

    total = 0
    print(f"{'subcommand':<18}{'calls':>7}" + "".join(f"{c:>11}" for c in CONTRACTS)
          + f"{'unrepresentable':>17}")
    for label, calls in runner.calls.items():
        counts = [runner.violations.get((label, c), 0) for c in CONTRACTS]
        total += sum(counts)
        print(f"{label:<18}{calls:>7}" + "".join(f"{n:>11}" for n in counts)
              + f"{runner.unrepresentable.get(label, 0):>17}")
    print(f"violations: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
