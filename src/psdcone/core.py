"""Shared domain types: graphs, simplicial complexes, symmetric matrices, factor parameters.

Vertex convention: the Python API is 0-based throughout; JSON files (the CLI
boundary) label vertices 1..m.  Faces are kept as sorted tuples of vertex
indices, and the canonical total order on faces is by (size, lexicographic),
which fixes every tie-break in the library.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import AsymmetricInput, TooManyFaces

Face = tuple[int, ...]

ASYMMETRY_RTOL = 1e-12

# Off-pattern entries up to this fraction of sqrt(|d_i d_j|) count as zeros.
PATTERN_TOL = 1e-12

# Entries must be below 2**1023 in magnitude: below it no sum or difference
# of two entries overflows, so (arr + arr.T) / 2 stays finite; a diagonal
# entry at or above it doubles past the largest float.
SYMMETRIZE_LIMIT = 2.0 ** 1023

# Largest m the graph and complex JSON readers accept (m alone sets the work), and largest
# sum over facets of 2^|F| whose faces are listed (40 facets of 9 vertices fit).
MAX_VERTICES = 64
MAX_FACE_SUM = 2 ** 15


def tolerance_scale(values) -> float:
    """max(1, largest absolute entry), 1 for no entries: the absolute checks' unit."""
    arr = np.asarray(values, dtype=float)
    return max(1.0, float(np.abs(arr).max())) if arr.size else 1.0


def within_units(diff: np.ndarray, diag, tol: float) -> bool:
    """Whether every |diff_ij| <= tol * sqrt(|d_i d_j|), the unit of Cholesky's
    error bounds (Demmel 1989); beside a zero d_i, diff must vanish exactly."""
    s = np.sqrt(np.abs(diag))
    return bool((np.abs(diff) <= tol * (s[:, None] * s)).all())


def face_key(face: Iterable[int]) -> tuple[int, Face]:
    """Sort key realizing the canonical face order: size first, then lexicographic."""
    f = tuple(sorted(face))
    return (len(f), f)


def as_face(vertices: Iterable[int]) -> Face:
    f = tuple(sorted(set(vertices)))
    if not f:
        raise ValueError("empty face")
    return f


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..m-1."""

    m: int
    edges: frozenset[Face]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError(f"bad edge {e}")
            if not (0 <= e[0] < e[1] < self.m):
                raise ValueError(f"edge {e} outside vertex range 0..{self.m - 1}")

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[Iterable[int]]) -> "Graph":
        """The graph on edges in any order; numpy integer vertices are stored as ints."""
        norm = frozenset(tuple(sorted(map(operator.index, e))) for e in edges)
        return cls(m, norm)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Per vertex v, an int whose bit w is set when {v, w} is an edge: the
        graph's one adjacency, which every walk over it reads."""
        bits = [0] * self.m
        for i, j in self.edges:
            bits[i] |= 1 << j
            bits[j] |= 1 << i
        return tuple(bits)

    @cached_property
    def pattern_mask(self) -> np.ndarray:
        """Read-only boolean (m, m) array: True on the diagonal and at every edge."""
        # row v is adjacency_bits[v] unpacked, lowest bit first
        width = (self.m + 7) // 8
        rows = b"".join(bits.to_bytes(width, "little") for bits in self.adjacency_bits)
        mask = np.unpackbits(np.frombuffer(rows, dtype=np.uint8).reshape(self.m, width),
                             axis=1, count=self.m, bitorder="little").view(bool)
        np.fill_diagonal(mask, True)
        mask.setflags(write=False)
        return mask

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bit_positions(self.adjacency_bits[v]))

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def to_json_dict(self) -> dict:
        return {"m": self.m, "edges": [[i + 1, j + 1] for i, j in sorted(self.edges)]}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Graph":
        try:
            m = _vertex_count("graph", d)
            index = operator.index  # refuses a label that is not an integer, 2.0 included
            edges = [(index(i), index(j)) for i, j in d["edges"]]
        except (KeyError, TypeError) as exc:
            raise _malformed("graph", exc) from None
        for i, j in edges:  # in the file's labels, 1..m
            if i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"edge ({i}, {j}) outside vertex range 1..{m}")
        return cls(m, frozenset((i - 1, j - 1) if i < j else (j - 1, i - 1) for i, j in edges))


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed set system on ground set 0..m-1, stored by its facets.

    The face set is implicitly all nonempty subsets of the facets.  Every
    vertex must occur in some facet (so all singletons are faces), and no
    facet may contain another.
    """

    m: int
    facets: tuple[Face, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ground set must be nonempty")
        seen = set()
        covered = set()
        for f in self.facets:
            if not f or tuple(sorted(f)) != f or len(set(f)) != len(f):
                raise ValueError(f"facet {f} must be a sorted duplicate-free tuple")
            if not all(0 <= v < self.m for v in f):
                raise ValueError(f"facet {f} outside ground set")
            if f in seen:
                raise ValueError(f"duplicate facet {f}")
            seen.add(f)
            covered.update(f)
        if _dominated(self.facets, self.facets_of):
            raise ValueError("facets must be inclusion-maximal")
        if covered != set(range(self.m)):
            missing = sorted(set(range(self.m)) - covered)
            raise ValueError(f"vertices {missing} not covered by any facet")
        if list(self.facets) != sorted(self.facets, key=face_key):
            raise ValueError("facets must be in canonical order; build via from_facets")

    @classmethod
    def from_facets(cls, m: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Normalize, drop dominated sets, and add singleton facets for uncovered vertices."""
        tuples = [tuple(f) for f in facets]
        fsets = {frozenset(t) for t in tuples if t}
        covered = set().union(*fsets) if fsets else set()
        fsets |= {frozenset([v]) for v in range(m) if v not in covered}
        sets = list(fsets)
        dominated = set(_dominated(sets, _vertex_bitsets(sets)))
        maximal = [f for k, f in enumerate(sets) if k not in dominated]
        canon = tuple(sorted((as_face(f) for f in maximal), key=face_key))
        return cls(m, canon)

    @classmethod
    def _trusted(cls, m: int, facets: tuple[Face, ...]) -> "SimplicialComplex":
        """The complex on facets the library built in canonical form, not checked again."""
        obj = object.__new__(cls)  # frozen: fields go straight into __dict__
        obj.__dict__.update(m=m, facets=facets)
        return obj

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """All faces in canonical order (size, then lexicographic), up to MAX_FACE_SUM."""
        if (total := sum(1 << len(f) for f in self.facets)) > MAX_FACE_SUM:
            raise TooManyFaces(f"the facets span up to {total} faces, more than {MAX_FACE_SUM}")
        out = set()
        for facet in self.facets:
            for k in range(1, len(facet) + 1):
                out.update(itertools.combinations(facet, k))
        return tuple(sorted(out, key=face_key))

    @cached_property
    def face_index(self) -> dict[Face, int]:
        return {f: k for k, f in enumerate(self.faces)}

    @cached_property
    def facets_of(self) -> tuple[int, ...]:
        """Per vertex v, an int whose bit k is set when facets[k] contains v."""
        bits = _vertex_bitsets(self.facets)
        return tuple(bits[v] for v in range(self.m))

    def facets_containing(self, face: Iterable[int]) -> int:
        """Bitset of the facets containing every vertex of face, in O(|face|).

        0 when face is empty or has a vertex outside 0..m-1.
        """
        bits = self.facets_of
        common = -1
        for v in face:
            if not 0 <= v < self.m:
                return 0
            common &= bits[v]
        return max(common, 0)

    def has_face(self, face: Iterable[int]) -> bool:
        return self.facets_containing(face) != 0

    def incidences(self):
        """Iterate (face, vertex) pairs: every face with each of its vertices."""
        for f in self.faces:
            for i in f:
                yield f, i

    def to_json_dict(self) -> dict:
        return {"m": self.m, "facets": [[v + 1 for v in f] for f in self.facets]}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SimplicialComplex":
        try:
            m = _vertex_count("complex", d)
            facets = [list(map(operator.index, f)) for f in d["facets"]]
        except (KeyError, TypeError) as exc:
            raise _malformed("complex", exc) from None
        for f in facets:  # in the file's labels, 1..m
            if not all(1 <= v <= m for v in f):
                raise ValueError(f"facet {tuple(f)} outside ground set 1..{m}")
        return cls.from_facets(m, ([v - 1 for v in f] for f in facets))


def _bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertex_bitsets(sets) -> defaultdict:
    """vertex -> int whose bit k is set when sets[k] contains the vertex."""
    bits = defaultdict(int)
    for k, s in enumerate(sets):
        bit = 1 << k
        for v in s:
            bits[v] |= bit
    return bits


def _dominated(sets, bits) -> list[int]:
    """Positions k where sets[k] lies inside another set, in O(sum of sizes).

    The sets must be distinct and nonempty; ``bits`` is their vertex bitsets.
    The AND of the bitsets over the vertices of a set marks every set
    containing it, the set itself included.
    """
    out = []
    for k, s in enumerate(sets):
        common = ~(1 << k)
        for v in s:
            common &= bits[v]
        if common:
            out.append(k)
    return out


def edge_complex(g: Graph) -> SimplicialComplex:
    """The complex whose facets are the edges of g (plus isolated singletons).

    Isolated singletons, then the sorted edges: the canonical order already.
    """
    singletons = tuple((v,) for v, bits in enumerate(g.adjacency_bits) if not bits)
    return SimplicialComplex._trusted(g.m, singletons + tuple(sorted(g.edges)))


def underlying_graph(delta: SimplicialComplex) -> Graph:
    """Graph on the ground set whose edges are exactly the 2-element faces."""
    return Graph.from_edges(
        delta.m, (e for f in delta.facets for e in itertools.combinations(f, 2)))


def induced_vertex_map(subset: Iterable[int]) -> dict[int, int]:
    """Old-vertex -> new-vertex map used when restricting to a subset (sorted order)."""
    return {v: k for k, v in enumerate(sorted(set(subset)))}


def induced_subcomplex(delta: SimplicialComplex, subset: Iterable[int]) -> SimplicialComplex:
    """Faces of delta contained in the subset, relabeled via induced_vertex_map."""
    a = sorted(set(subset))
    if not a:
        raise ValueError("subset must be nonempty")
    if not all(0 <= v < delta.m for v in a):
        raise ValueError("subset outside ground set")
    relabel = induced_vertex_map(a)
    aset = frozenset(a)
    restricted = [tuple(sorted(relabel[v] for v in set(f) & aset))
                  for f in delta.facets if set(f) & aset]
    return SimplicialComplex.from_facets(len(a), restricted)


def _entry_bound(arr: np.ndarray) -> float:
    """The largest |entry| of arr, refused unless finite and below SYMMETRIZE_LIMIT."""
    # the largest magnitude is inf or NaN exactly when some entry is
    amax = float(np.abs(arr).max()) if arr.size else 0.0
    if not math.isfinite(amax):
        raise ValueError("matrix entries must be finite")
    if amax >= SYMMETRIZE_LIMIT:
        raise ValueError(f"matrix entry of magnitude {amax:.6e} overflows when "
                         "symmetrized; entries must be below 2**1023")
    return amax


class SymmetricMatrix:
    """Dense real symmetric matrix; ingest symmetrizes and rejects asymmetric input."""

    __slots__ = ("a",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        amax = _entry_bound(arr)
        skew = float(np.abs(arr - arr.T).max())
        if skew > ASYMMETRY_RTOL * max(amax, 1e-300):
            raise AsymmetricInput(
                f"asymmetry {skew:.3e} exceeds {ASYMMETRY_RTOL:.0e} relative to max entry {amax:.3e}"
            )
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        self.a = sym

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "SymmetricMatrix":
        """A square array the library built exactly symmetric, entry-checked but not
        symmetrized again: below SYMMETRIZE_LIMIT, (x + x) / 2 == x bitwise."""
        _entry_bound(arr)
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.a = arr
        return out

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def scale(self) -> float:
        """tolerance_scale of the entries."""
        return tolerance_scale(self.a)

    def submatrix(self, subset: Iterable[int]) -> "SymmetricMatrix":
        idx = sorted(set(subset))
        return SymmetricMatrix(self.a[np.ix_(idx, idx)])

    def respects_pattern(self, g: Graph, tol: float = PATTERN_TOL) -> bool:
        """No off-pattern entry (i, j) exceeds tol * sqrt(|a_ii a_jj|) in magnitude."""
        if g.m != self.m:
            raise ValueError("matrix and graph sizes differ")
        return within_units(np.where(g.pattern_mask, 0.0, self.a), self.a.diagonal(), tol)

    def allclose(self, other: "SymmetricMatrix", rtol: float = 1e-9) -> bool:
        ref = max(self.scale(), other.scale())
        return bool(np.abs(self.a - other.a).max() <= rtol * ref)

    def __repr__(self):
        return f"SymmetricMatrix(m={self.m})"

    def to_json_dict(self) -> dict:
        return {"m": self.m, "entries": self.a.tolist()}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SymmetricMatrix":
        try:
            m = operator.index(d["m"])
            arr = np.asarray(d["entries"], dtype=float)
        except (KeyError, TypeError, OverflowError) as exc:
            raise _malformed("matrix", exc) from None
        if arr.shape != (m, m):
            raise ValueError(f"entries shape {arr.shape} does not match m={m}")
        return cls(arr)


@dataclass(frozen=True)
class FactorParams:
    """Parameter vector gamma indexed by (face, vertex-in-face) incidences.

    Storage is sparse: missing valid incidences read as 0.  Invalid keys
    (a face that is not a sorted duplicate-free tuple, a face not in the
    complex, or a vertex outside the face) are rejected.  ``values`` is
    read-only once built, as is ``columns``, its cached view in canonical face
    order; chordal fibers hand its faces over at construction.
    """

    complex: SimplicialComplex
    values: dict[tuple[Face, int], float] = field(default_factory=dict)

    def __post_init__(self):
        valid = set()
        for (face, i), v in self.values.items():
            if face not in valid:
                # canonical: the sorted duplicate-free tuple as_face returns
                if not (isinstance(face, tuple) and face == tuple(sorted(set(face)))
                        and self.complex.has_face(face)):
                    raise ValueError(f"invalid incidence ({face}, {i})")
                valid.add(face)
            if i not in face:
                raise ValueError(f"invalid incidence ({face}, {i})")
            if not math.isfinite(v):
                raise ValueError(f"non-finite parameter at ({face}, {i})")

    @classmethod
    def _trusted(cls, delta: SimplicialComplex, values: dict[tuple[Face, int], float],
                 columns: list | None = None) -> "FactorParams":
        """Values the library keyed by canonical faces of delta: only finiteness is
        checked.  ``columns``, when given, is their grouping by face for ``_face_columns``."""
        if not all(map(math.isfinite, values.values())):
            face, i = next(k for k, v in values.items() if not math.isfinite(v))
            raise ValueError(f"non-finite parameter at ({face}, {i})")
        obj = object.__new__(cls)
        obj.__dict__.update(complex=delta, values=values)
        if columns is not None:
            obj.__dict__["columns"] = _face_columns(values, columns)
        return obj

    @classmethod
    def zeros(cls, delta: SimplicialComplex) -> "FactorParams":
        return cls(delta, {})

    def get(self, face: Iterable[int], vertex: int) -> float:
        f = as_face(face)
        if vertex not in f or not self.complex.has_face(f):
            raise KeyError(f"invalid incidence ({f}, {vertex})")
        return self.values.get((f, vertex), 0.0)

    def gamma_singleton(self, i: int) -> float:
        return self.get((i,), i)

    @cached_property
    def columns(self) -> tuple[tuple[Face, list[tuple[int, float]]], ...]:
        """The faces carrying a nonzero parameter in canonical order (the order in which
        ``to_json_dict`` writes and ``phi`` sums), each with its (vertex, parameter)
        pairs by ascending vertex."""
        return _face_columns(self.values)

    def items(self):
        """Nonzero incidences in canonical order."""
        return (((face, i), v) for face, entries in self.columns for i, v in entries)

    def to_json_dict(self) -> dict:
        """1-based records in canonical order; a face's records share one label list."""
        out = []
        for face, entries in self.columns:
            labels = [v + 1 for v in face]
            out.extend([{"face": labels, "vertex": i + 1, "gamma": v} for i, v in entries])
        return {"values": out}

    @classmethod
    def from_json_dict(cls, delta: SimplicialComplex, d: Mapping) -> "FactorParams":
        """The 1-based records of d["values"], each distinct file face made canonical once."""
        faces: dict[tuple, Face] = {}  # file face as ints -> canonical 0-based face
        vals = {}
        # every label is read, so a float spelling (2.0) of a cached face is refused too
        index = operator.index
        try:
            for rec in d["values"]:
                raw = tuple(map(index, rec["face"]))
                face = faces.get(raw)
                if face is None:
                    face = faces[raw] = as_face(v - 1 for v in raw)
                vals[(face, index(rec["vertex"]) - 1)] = float(rec["gamma"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise _malformed("params", exc) from None
        return cls(delta, vals)


def _face_columns(values: Mapping[tuple[Face, int], float], columns=None) -> tuple:
    """``FactorParams.columns`` from ``columns``, the nonzero values as (face, pairs by
    vertex) in any face order, or one grouping pass; then faces by (size, face)."""
    if columns is None:
        by_face: dict[Face, list[tuple[int, float]]] = {}
        for (face, i), v in values.items():
            if v != 0.0:
                by_face.setdefault(face, []).append((i, v))
        columns = [(f, sorted(e)) for f, e in by_face.items()]
    return tuple(sorted(columns, key=lambda c: (len(c[0]), c[0])))


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """Dense view of Gamma(gamma): rows are vertices, columns are faces in canonical order."""

    faces: tuple[Face, ...]
    array: np.ndarray

    def __post_init__(self):
        if self.array.shape[1] != len(self.faces):
            raise ValueError("column count must match face count")
        for k, f in enumerate(self.faces):
            outside = np.delete(self.array[:, k], list(f))
            if outside.size and np.abs(outside).max() != 0.0:
                raise ValueError(f"column for face {f} has support outside the face")

    @property
    def m(self) -> int:
        return self.array.shape[0]

    def column(self, face: Face) -> np.ndarray:
        return self.array[:, self.faces.index(face)]


# --- JSON file helpers (the CLI boundary; vertices are 1-based on disk) ---

def load_json(path) -> dict:
    """The JSON object in the file at path; any other top-level value is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _vertex_count(kind: str, d: Mapping) -> int:
    """kind's ``m``, refused outside 1..MAX_VERTICES before anything is built."""
    if not 1 <= (m := operator.index(d["m"])) <= MAX_VERTICES:
        raise ValueError(f"{kind} JSON: m must be between 1 and {MAX_VERTICES}, got {m}")
    return m


def _malformed(kind: str, exc: KeyError | TypeError | OverflowError) -> ValueError:
    """The error for a missing key, or a value of the wrong shape or type (a
    label or ``m`` that is not an integer) or out of float range, in kind's JSON.

    The from_json_dict readers catch these only where they read their JSON,
    so a TypeError raised by library code is never reported as bad input.
    """
    if isinstance(exc, KeyError):
        return ValueError(f"{kind} JSON: missing key {exc.args[0]!r}")
    return ValueError(f"{kind} JSON: {exc}")
