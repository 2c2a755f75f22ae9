"""Independent checks of CLI outputs against the generator's labels.

Nothing here calls psdcone: certificates are re-multiplied with plain numpy,
Schur complements and quotient complexes are recomputed from their
definitions, and exit codes are compared with the labels.

``check(op, results)`` returns None for a correct op, else a failure kind.
Two kinds are the known scale defect (ROADMAP item 2: decisions are not
invariant under diagonal congruence).  They count as failed ops but do not
make a run incorrect; any other kind does.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

CERT_RTOL = 1e-8        # certificate reproduction, as the CLI's own re-check
PHI_RTOL = 1e-10        # phi against a numpy recomputation
SCHUR_RTOL = 1e-10      # acceptance criterion 08
SIMULATE_SE = 8.0       # empirical covariance within 8 standard errors

SCALE_NONMEMBER_ACCEPTED = "scale_nonmember_accepted"
MEMBER_WITHOUT_CERTIFICATE = "member_without_certificate"
KNOWN_DEFECTS = (SCALE_NONMEMBER_ACCEPTED, MEMBER_WITHOUT_CERTIFICATE)


def _scale(a: np.ndarray) -> float:
    return max(1.0, float(np.abs(a).max()))


def gram(m: int, records) -> np.ndarray:
    """Gamma Gamma^T from JSON parameter records (1-based faces and vertices)."""
    cols: dict = {}
    for rec in records:
        face = tuple(rec["face"])
        if rec["vertex"] not in face:
            raise ValueError(f"vertex {rec['vertex']} outside face {face}")
        cols.setdefault(face, np.zeros(m))[rec["vertex"] - 1] = rec["gamma"]
    if not cols:
        return np.zeros((m, m))
    g = np.column_stack(list(cols.values()))
    return g @ g.T


def certificate_ok(records, matrix: np.ndarray, edges) -> bool:
    """Every face is a clique of the graph and Gamma Gamma^T reproduces the matrix."""
    edge_set = {tuple(e) for e in edges}
    for rec in records:
        face = sorted(rec["face"])
        if any((a, b) not in edge_set for a, b in itertools.combinations(face, 2)):
            return False
    try:
        image = gram(matrix.shape[0], records)
    except (ValueError, IndexError):
        return False
    return float(np.abs(image - matrix).max()) <= CERT_RTOL * _scale(matrix)


def _check_decision(op, rc, out):
    verdict = op.label["verdict"]
    command = op.argvs[0][0]
    if verdict == "not_psd":
        if command == "fiber":
            ok = rc == 2 and out.get("error", {}).get("code") == "not_psd"
        else:
            ok = rc == 1 and out.get("member") is False and out.get("reason") == "not_psd"
        return None if ok else "mismatch"
    if verdict == "nonmember":
        # a PSD input: "not_psd" is as wrong as "member"
        if rc == 1 and out.get("member") is False and "reason" not in out \
                and "certificate" not in out:
            return None
        if rc == 0 and out.get("member") is True and out.get("certificate") is None:
            return SCALE_NONMEMBER_ACCEPTED
        return "mismatch"
    # members
    if rc != 0:
        return "mismatch"
    if command == "fiber":
        records = out.get("values")
    else:
        if out.get("member") is not True:
            return "mismatch"
        records = out.get("certificate")
        if records is None:
            return MEMBER_WITHOUT_CERTIFICATE if op.workload == "cycle-decide" else "mismatch"
        records = records.get("values")
    if records is None or not certificate_ok(records, op.label["matrix"], op.label["edges"]):
        return "mismatch"
    return None


def schur_complement(a: np.ndarray, u: int) -> np.ndarray:
    keep = [v for v in range(a.shape[0]) if v != u]
    col = a[keep, u]
    return a[np.ix_(keep, keep)] - np.outer(col, col) / a[u, u]


def quotient_facets(m: int, facets, block) -> set:
    """Facets of the quotient complex (0-based, original labels).

    Eliminating u keeps the faces avoiding u and adds (F1 | F2) - u for
    faces F1, F2 through u; among facets that is every facet avoiding u and
    every (A | B) - u for facets A, B through u (A = B allowed).
    """
    current = [frozenset(f) for f in facets]
    for u in block:
        through = [f for f in current if u in f]
        cands = {f for f in current if u not in f}
        cands |= {(a | b) - {u} for a in through for b in through}
        cands.discard(frozenset())
        current = [f for f in cands if not any(f < g for g in cands)]
    kept = [v for v in range(m) if v not in set(block)]
    covered = set().union(*current) if current else set()
    current += [frozenset([v]) for v in kept if v not in covered]
    return {tuple(sorted(f)) for f in current}


def digraph_lines(m: int, facets) -> list:
    faces = sorted({f for facet in facets for k in range(2, len(facet) + 1)
                    for f in itertools.combinations(sorted(facet), k)})
    lines = [f'  "Y{i + 1}";' for i in range(m)]
    for f in faces:
        name = "H_" + "_".join(str(v + 1) for v in f)
        lines.append(f'  "{name}" [shape=box];')
        lines += [f'  "{name}" -> "Y{i + 1}";' for i in f]
    return sorted(lines)


def _check_complex(op, rc, text):
    if rc != 0:
        return "mismatch"
    m = op.m
    sigma = op.label["sigma"]
    if op.kind == "digraph":
        body = text.splitlines()
        ok = (body[:1] == ["digraph latent_factors {"] and body[-1:] == ["}"]
              and sorted(body[1:-1]) == digraph_lines(m, op.label["facets"]))
        return None if ok else "mismatch"
    out = json.loads(text)
    if op.kind == "phi":
        got = np.asarray(out["entries"], dtype=float)
        ok = got.shape == sigma.shape and \
            float(np.abs(got - sigma).max()) <= PHI_RTOL * _scale(sigma)
    elif op.kind == "schur-witness":
        u = op.label["vertex"] - 1
        target = schur_complement(sigma, u)
        vmap = {int(k): v for k, v in out["vertex_map"].items()}
        ok = (vmap == {v + 1: k + 1 for k, v in enumerate(x for x in range(m) if x != u)}
              and out["eliminated"] == [u + 1]
              and out["residual"] <= SCHUR_RTOL * _scale(target))
        if ok:
            image = gram(m - 1, out["params"]["values"])
            ok = float(np.abs(image - target).max()) <= SCHUR_RTOL * _scale(target)
    elif op.kind == "quotient":
        block = [v - 1 for v in op.label["block"]]
        kept = [v for v in range(m) if v not in set(block)]
        expect = {tuple(kept.index(v) + 1 for v in f)
                  for f in quotient_facets(m, op.label["facets"], block)}
        ok = ({tuple(f) for f in out["facets"]} == expect and out["m"] == len(kept)
              and out["vertex_map"] == {str(v + 1): k + 1 for k, v in enumerate(kept)})
    elif op.kind == "simulate":
        got = np.asarray(out["entries"], dtype=float)
        n = 10_000  # the simulate subcommand's default --n
        d = np.diag(sigma)
        se = np.sqrt((np.outer(d, d) + sigma ** 2) / n)
        ok = got.shape == sigma.shape and bool(np.all(np.abs(got - sigma) <= SIMULATE_SE * se))
    else:
        raise ValueError(f"unknown op kind {op.kind}")
    return None if ok else "mismatch"


def _check_volume(op, results):
    for m, (rc, text) in zip(op.label["ms"], results):
        if rc != 0:
            return "mismatch"
        out = json.loads(text)
        n = op.label["samples"]
        if not (out["m"] == m and out["samples_psd"] == n and out["seed"] == op.label["seed"]
                and 0 <= out["members"] <= n and out["fraction"] == out["members"] / n):
            return "mismatch"
    return None


def check(op, results):
    """None if every call of the op produced the labelled outcome, else a failure kind.

    results: one (exit code, stdout text) per argv of the op.
    """
    try:
        if op.workload == "volume-sample":
            return _check_volume(op, results)
        (rc, text), = results
        if op.workload == "complex-build":
            return _check_complex(op, rc, text)
        return _check_decision(op, rc, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError):
        return "mismatch"
