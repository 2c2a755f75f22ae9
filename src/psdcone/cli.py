"""Command-line interface: JSON in, JSON out, deterministic for fixed inputs.

Exit codes for the decision commands (membership, cycle-check, cycle-fiber):
0 member / success, 1 non-member, 2 undecidable or input error.  All other
commands use 0 for success and 2 for any error.  Vertices are 1-based in
every file and argument.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .core import (MAX_VERTICES, FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                   load_json, underlying_graph)
from .errors import (AsymmetricInput, Degenerate, InternalInconsistency,
                     NotChordal, NotMember, NotPsd, PatternViolation,
                     PsdConeError, TooManyCliques, Undecidable, ZeroDiagonal,
                     ZeroDiagonalParam)
from .linalg import DEFAULT_TOL, schur_complement

# The names the commands take from modules that not every command runs, by
# module.  main loads a command's modules (its ``uses`` in build_parser)
# before the command first runs; from then on each name is a plain global.
# Looking a name up on the module loads it too, so patching
# ``psdcone.cli.<name>`` before any command has run patches what the command
# calls.  The chordal names are not called here (membership and fiber reach
# them through decide); they are listed because perfbench/spans.py wraps them
# by these names.  "decide" and "selftest" are the modules themselves.
_DEFERRED = {
    "chordal": ("chordal_fiber", "clique_complex", "is_chordal"),
    "cycle": ("CycleMatrix", "counterexample_det", "counterexample_sigma",
              "cycle_fiber", "cycle_membership"),
    "decide": ("decide",),
    "latent": ("build_digraph", "simulate_y"),
    "param": ("phi",),
    "quotient": ("complex_quotient", "schur_witness"),
    "volume": ("estimate_volume", "format_table", "volume_table"),
    "selftest": ("selftest",),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}
_loaded: set[str] = set()


def _load(module: str):
    """Bind module's deferred names that are not globals here yet."""
    mod = importlib.import_module(f".{module}", __package__)
    scope = globals()
    for name in _DEFERRED[module]:
        if name not in scope:
            scope[name] = mod if name == module else getattr(mod, name)
    _loaded.add(module)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_MODULE_OF[name])
    return globals()[name]


ERROR_CODES = {
    NotPsd: "not_psd",
    PatternViolation: "pattern_violation",
    NotChordal: "not_chordal",
    NotMember: "not_member",
    Degenerate: "degenerate",
    ZeroDiagonal: "zero_diagonal",
    ZeroDiagonalParam: "zero_diagonal_param",
    TooManyCliques: "too_many_cliques",
    Undecidable: "undecidable",
    InternalInconsistency: "internal_inconsistency",
    AsymmetricInput: "asymmetric_input",
    json.JSONDecodeError: "parse_error",
    OSError: "io_error",
}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj, indent: str) -> str:
    """``json.dumps``'s bytes for obj at a two-space indent with sorted str keys.

    ``indent`` is the newline and spaces that precede obj's closing bracket.
    json's encoder runs in C only without ``indent``; here a list's elements
    are written a column at a time by ``_column``, and any other value goes
    through json's own ``isinstance`` order.  A non-str key raises TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + sep.join(_column(obj, inner)) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([encode_basestring_ascii(k) + ": " + _dumps(obj[k], inner)
                                       for k in sorted(obj)]) + indent + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _column(values, indent: str) -> list[str]:
    """``[_dumps(v, indent) for v in values]``, a column at a time.

    Finite floats, or ints, are one map; non-empty lists are the column of
    all their elements, cut back into lists; dicts over one key set are one
    column per key, keys sorted once, filled into one record template (a
    non-str key raises TypeError).  Anything else (NaN or inf, mixed types,
    differing keys) goes value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    inner = indent + "  "
    sep = "," + inner
    if kinds == {list} and all(values):
        texts = iter(_column(list(chain.from_iterable(values)), inner))
        return ["[" + inner + sep.join(islice(texts, n)) + indent + "]" for n in map(len, values)]
    if kinds == {dict}:
        keys = values[0].keys()
        if keys and all(map(keys.__eq__, map(dict.keys, values))):
            names = sorted(keys)
            record = "{" + inner + sep.join([encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                                             for k in names]) + indent + "}"
            columns = [_column(list(map(itemgetter(k), values)), inner) for k in names]
            return list(map(record.__mod__, zip(*columns)))
    return [_dumps(v, indent) for v in values]


def _print_json(obj):
    print(_dumps(obj, "\n"))


def _error_json(code: str, message: str) -> int:
    _print_json({"error": {"code": code, "message": message}})
    return 2


def _code_for(exc: Exception) -> str:
    for cls, code in ERROR_CODES.items():
        if isinstance(exc, cls):
            return code
    return "invalid_input"


def _load_graph_or_complex(path):
    """Accept either a graph JSON ({"edges": ...}) or a complex JSON ({"facets": ...})."""
    data = load_json(path)
    if "facets" in data:
        delta = SimplicialComplex.from_json_dict(data)
        return underlying_graph(delta), delta
    if "edges" in data:
        return Graph.from_json_dict(data), None
    raise ValueError(f"{path}: expected a graph ('edges') or complex ('facets') JSON")


def cmd_phi(args) -> int:
    delta = SimplicialComplex.from_json_dict(load_json(args.complex))
    gamma = FactorParams.from_json_dict(delta, load_json(args.params))
    _print_json(phi(delta, gamma).to_json_dict())
    return 0


def cmd_fiber(args) -> int:
    if not args.chordal:
        raise ValueError("only --chordal fibers are implemented; pass --chordal")
    sigma = SymmetricMatrix.from_json_dict(load_json(args.matrix))
    g, delta = _load_graph_or_complex(args.graph)
    _print_json(decide.chordal_certificate(sigma, g, delta, args.tol).to_json_dict())
    return 0


def cmd_cycle_check(args) -> int:
    sigma = CycleMatrix.from_symmetric(SymmetricMatrix.from_json_dict(load_json(args.matrix)))
    try:
        verdict = cycle_membership(sigma, tol=args.tol)
    except NotPsd as exc:
        _print_json({"member": False, "reason": "not_psd", "message": str(exc)})
        return 1
    _print_json(verdict.to_json_dict())
    return 0 if verdict.member else 1


def cmd_cycle_fiber(args) -> int:
    sigma = CycleMatrix.from_symmetric(SymmetricMatrix.from_json_dict(load_json(args.matrix)))
    try:
        fib = cycle_fiber(sigma, tol=args.tol)
    except (NotMember, NotPsd) as exc:
        _print_json({"error": {"code": _code_for(exc), "message": str(exc)}})
        return 1
    _print_json({
        "m": fib.m,
        "count_total": fib.count_total,
        "complex": fib.complex.to_json_dict(),
        "representatives": [rep.to_json_dict() for rep in fib.representatives],
    })
    return 0


def cmd_counterexample(args) -> int:
    if not 3 <= args.m <= MAX_VERTICES:  # the matrix is printed dense
        raise ValueError(f"--m must be between 3 and {MAX_VERTICES}, got {args.m}")
    sigma = counterexample_sigma(args.m, args.rho)
    out = sigma.to_symmetric().to_json_dict()
    out["det_closed_form"] = counterexample_det(args.m, args.rho)
    _print_json(out)
    return 0


def cmd_quotient(args) -> int:
    delta = SimplicialComplex.from_json_dict(load_json(args.complex))
    block = [int(v) - 1 for v in args.remove.split(",") if v.strip()]
    quot = complex_quotient(delta, block)
    keep = [v for v in range(delta.m) if v not in set(block)]
    out = quot.to_json_dict()
    out["vertex_map"] = {str(v + 1): k + 1 for k, v in enumerate(keep)}
    _print_json(out)
    return 0


def cmd_schur_witness(args) -> int:
    delta = SimplicialComplex.from_json_dict(load_json(args.complex))
    gamma = FactorParams.from_json_dict(delta, load_json(args.params))
    witness = schur_witness(delta, gamma, args.vertex - 1, tol=args.tol)
    target = schur_complement(phi(delta, gamma), {args.vertex - 1})
    resid = float(np.abs(witness.image().a - target.a).max())
    _print_json({
        "quotient_complex": witness.quotient_complex.to_json_dict(),
        "params": witness.params.to_json_dict(),
        "vertex_map": {str(k + 1): v + 1 for k, v in witness.vertex_map.items()},
        "eliminated": [u + 1 for u in witness.eliminated],
        "residual": resid,
    })
    return 0


def cmd_volume(args) -> int:
    if args.table:
        estimates = volume_table(args.samples, args.seed, workers=args.workers,
                                 progress=args.progress)
        if args.json:
            _print_json([e.to_json_dict() for e in estimates])
        else:
            print(format_table(estimates))
        return 0
    if args.m is None:
        raise ValueError("volume needs --m or --table")
    est = estimate_volume(args.m, args.samples, args.seed, workers=args.workers,
                          progress=args.progress)
    _print_json(est.to_json_dict())
    return 0


def cmd_digraph(args) -> int:
    delta = SimplicialComplex.from_json_dict(load_json(args.complex))
    sys.stdout.write(build_digraph(delta))
    return 0


def cmd_simulate(args) -> int:
    delta = SimplicialComplex.from_json_dict(load_json(args.complex))
    gamma = FactorParams.from_json_dict(delta, load_json(args.params))
    _print_json(simulate_y(delta, gamma, args.n, args.seed).to_json_dict())
    return 0


def cmd_membership(args) -> int:
    sigma = SymmetricMatrix.from_json_dict(load_json(args.matrix))
    g, delta = _load_graph_or_complex(args.graph)
    decision = decide.membership(sigma, g, delta, args.tol)
    _print_json(decision.to_json_dict())
    return 0 if decision.member else 1


def cmd_selftest(args) -> int:
    names = args.suite if args.suite else None
    ok, lines = selftest.run_suites(names, n=args.n, seed=args.seed)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _at_least_one(text: str) -> int:
    """argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be between 0 and 1, exclusive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdcone",
        description="PSD cones with prescribed zeros: parametrization, membership, fibers",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                     help="relative tolerance for PSD and membership decisions, in (0, 1)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="evaluate the parametrization")
    p.add_argument("--complex", required=True)
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_phi, uses=("param",))

    p = sub.add_parser("fiber", parents=[tol], help="solve for a preimage on a chordal graph")
    p.add_argument("--chordal", action="store_true",
                   help="use the chordal Cholesky construction (required)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_fiber, uses=("decide",))

    p = sub.add_parser("cycle-check", parents=[tol],
                      help="membership test for a cycle-patterned matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_cycle_check, uses=("cycle",))

    p = sub.add_parser("cycle-fiber", parents=[tol],
                      help="solve the fiber over a cycle-patterned member")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_cycle_fiber, uses=("cycle",))

    p = sub.add_parser("counterexample", help="the PSD-but-not-member family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_counterexample, uses=("cycle",))

    p = sub.add_parser("quotient", help="complex quotient by a vertex block")
    p.add_argument("--complex", required=True)
    p.add_argument("--remove", required=True, help="comma-separated 1-based vertices")
    p.set_defaults(func=cmd_quotient, uses=("quotient",))

    p = sub.add_parser("schur-witness", parents=[tol],
                      help="witness parameters for a Schur complement")
    p.add_argument("--complex", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--vertex", type=int, required=True, help="1-based vertex to eliminate")
    p.set_defaults(func=cmd_schur_witness, uses=("quotient", "param"))

    p = sub.add_parser("volume", parents=[seed], help="Monte Carlo spherical volume fraction")
    p.add_argument("--json", action="store_true",
                   help="force JSON output where a text form is the default")
    p.add_argument("--m", type=int)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--table", action="store_true", help="run m = 3..7")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_volume, uses=("volume",))

    p = sub.add_parser("digraph", help="bipartite factor digraph in DOT form")
    p.add_argument("--complex", required=True)
    p.set_defaults(func=cmd_digraph, uses=("latent",))

    p = sub.add_parser("simulate", parents=[seed], help="empirical covariance of the latent model")
    p.add_argument("--complex", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.set_defaults(func=cmd_simulate, uses=("latent",))

    p = sub.add_parser("membership", parents=[tol],
                      help="decide membership for chordal or cycle graphs")
    p.add_argument("--matrix", required=True)
    p.add_argument("--graph", required=True, help="graph or complex JSON file")
    p.set_defaults(func=cmd_membership, uses=("decide",))

    p = sub.add_parser("selftest", parents=[seed], help="run reduced property suites")
    p.add_argument("--n", type=_at_least_one, default=100, help="instances per suite")
    p.add_argument("--suite", action="append",
                   help="restrict to a suite (repeatable); an unknown name prints the list")
    p.set_defaults(func=cmd_selftest, uses=("selftest",))

    return parser


# Filled by the first main() call and reused by every later one: building the
# parser costs far more than parsing, and parse_args keeps no state between calls.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    for module in args.uses:
        if module not in _loaded:
            _load(module)
    try:
        try:
            rc = args.func(args)
        except BrokenPipeError:
            raise
        except (PsdConeError, ValueError, KeyError, OSError) as exc:
            # json.JSONDecodeError is a ValueError
            rc = _error_json(_code_for(exc), str(exc))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`psdcone ... | head`), so no error JSON can
        # reach it.  Point the descriptor at devnull so that the interpreter's
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
