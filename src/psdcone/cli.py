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
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import (FactorParams, Graph, SimplicialComplex, SymmetricMatrix,
                   edge_complex, load_json, underlying_graph)
from .errors import (AsymmetricInput, Degenerate, InternalInconsistency,
                     NotChordal, NotMember, NotPsd, PatternViolation,
                     PsdConeError, TooManyCliques, ZeroDiagonal,
                     ZeroDiagonalParam)
from .linalg import DEFAULT_TOL, schur_complement

# The names the commands take from modules that not every command runs, by
# module.  main loads a command's modules (its ``uses`` in build_parser)
# before the command first runs; from then on each name is a plain global.
# Looking a name up on the module loads it too, so patching
# ``psdcone.cli.<name>`` before any command has run patches what the command
# calls.  clique_complex is not called here; it is listed because
# perfbench/spans.py wraps it by this name.  "selftest" is the module itself.
_DEFERRED = {
    "chordal": ("chordal_fiber", "clique_complex", "is_chordal", "ordering_clique_complex"),
    "cycle": ("CycleMatrix", "counterexample_det", "counterexample_sigma",
              "cycle_certificate", "cycle_fiber", "cycle_membership"),
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
    InternalInconsistency: "internal_inconsistency",
    AsymmetricInput: "asymmetric_input",
    json.JSONDecodeError: "parse_error",
    OSError: "io_error",
}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj, indent: str) -> str:
    """``json.dumps``'s bytes for obj at a two-space indent with sorted str keys.

    ``indent`` is the newline and spaces that precede obj's closing bracket.
    json's encoder runs in C only without ``indent``; here a list whose
    elements are all ``float`` (or all ``int``) is one C-level join, and any
    other value goes element by element through json's own ``isinstance``
    order.  A non-str key raises TypeError.
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
        kinds = set(map(type, obj))
        text = ""
        if kinds == {float}:
            text = sep.join(map(float.__repr__, obj))
            if "n" in text:  # nan or inf: json spells them NaN, Infinity
                text = ""
        elif kinds == {int}:
            text = sep.join(map(int.__repr__, obj))
        return "[" + inner + (text or sep.join([_dumps(v, inner) for v in obj])) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([encode_basestring_ascii(k) + ": " + _dumps(obj[k], inner)
                                       for k in sorted(obj)]) + indent + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


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


def _cycle_order(g: Graph) -> list[int] | None:
    """g's vertices in walk order from 0, or None unless g is one cycle on all m >= 3."""
    if g.m < 3 or len(g.edges) != g.m or any(g.degree(v) != 2 for v in range(g.m)):
        return None
    # 2-regular, so the walk from 0 goes round 0's cycle: one cycle iff it repeats nothing
    order, prev = [0], None
    while len(order) < g.m:
        nxt = min(w for w in g.neighbors(order[-1]) if w != prev)
        prev = order[-1]
        order.append(nxt)
    return order if len(set(order)) == g.m else None


def _check_certificate(gamma: FactorParams, sigma: SymmetricMatrix):
    """Raise InternalInconsistency unless phi(gamma) reproduces sigma."""
    if np.abs(phi(gamma.complex, gamma).a - sigma.a).max() > 1e-8 * sigma.scale():
        raise InternalInconsistency("certificate does not reproduce the input")


def _decide_cycle(sigma: SymmetricMatrix, g: Graph, order: list[int], delta,
                  tol: float) -> int:
    """The membership verdict on the chordless cycle g walked in order."""
    idx = np.array(order)
    cyc = CycleMatrix(tuple(sigma.a[idx, idx].tolist()),
                      tuple(sigma.a[idx, np.roll(idx, -1)].tolist()))
    try:
        verdict = cycle_membership(cyc, tol=tol)
    except NotPsd as exc:
        _print_json({"member": False, "method": "cycle",
                     "reason": "not_psd", "message": str(exc)})
        return 1
    out = verdict.to_json_dict()
    out["vertex_order"] = [v + 1 for v in order]
    if not verdict.member:
        out["violated"] = {"flip_determinant": verdict.flip_determinant,
                           "det": verdict.det}
        _print_json(out)
        return 1
    if delta is None:
        delta = edge_complex(g)
    try:
        cert = cycle_certificate(cyc, delta, order, tol=tol, verdict=verdict)
    except (Degenerate, NotMember):
        out["certificate"] = None
    else:
        _check_certificate(cert, sigma)
        out["certificate"] = cert.to_json_dict()
        out["complex"] = delta.to_json_dict()
    _print_json(out)
    return 0


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
    chordality = cliques = None
    if delta is not None:
        chordality = is_chordal(g)
        if chordality[0]:
            cliques = ordering_clique_complex(g, chordality[1])
            if delta != cliques:
                return _error_json("invalid_input", "the complex is not the clique complex "
                                   "of its graph, on which chordal fibers live")
    gamma = chordal_fiber(g, sigma, tol=args.tol, chordality=chordality, cliques=cliques)
    _print_json(gamma.to_json_dict())
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
    if sigma.m != g.m:
        return _error_json("invalid_input", "matrix and graph sizes differ")
    if not sigma.respects_pattern(g):
        return _error_json("pattern_violation",
                           "matrix has a nonzero entry at a non-edge of the graph")

    order = _cycle_order(g)
    # a chordless cycle of length >= 4 is never chordal
    if order is None or g.m == 3:
        chordality = is_chordal(g)
        chordal_ok, ordering = chordality
        if chordal_ok and (delta is None or delta == ordering_clique_complex(g, ordering)):
            try:
                gamma = chordal_fiber(g, sigma, tol=args.tol, chordality=chordality,
                                      cliques=delta)
            except NotPsd as exc:
                _print_json({"member": False, "method": "chordal",
                             "reason": "not_psd", "message": str(exc)})
                return 1
            _check_certificate(gamma, sigma)
            _print_json({"member": True, "boundary": False, "method": "chordal",
                         "certificate": gamma.to_json_dict(),
                         "complex": gamma.complex.to_json_dict()})
            return 0

    if order is not None and (delta is None or delta == edge_complex(g)):
        return _decide_cycle(sigma, g, order, delta, args.tol)

    return _error_json(
        "undecidable",
        "graph is neither chordal nor a chordless cycle; no exact test applies",
    )


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdcone",
        description="PSD cones with prescribed zeros: parametrization, membership, fibers",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="relative tolerance for PSD and membership decisions")
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
    p.set_defaults(func=cmd_fiber, uses=("chordal",))

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
    p.set_defaults(func=cmd_membership, uses=("chordal", "cycle", "param"))

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
