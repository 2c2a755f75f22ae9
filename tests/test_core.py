"""Domain-type construction, validation, and the basic complex/graph operations."""

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdcone import core
from psdcone.cli import _print_json
from psdcone.core import (MAX_FACE_SUM, MAX_VERTICES, PATTERN_TOL, FactorParams, Graph,
                          SimplicialComplex, SymmetricMatrix, _face_columns, as_face, cycle_graph,
                          edge_complex, face_key, induced_subcomplex, induced_vertex_map,
                          tolerance_scale, underlying_graph)
from psdcone.chordal import chordal_fiber, clique_complex, is_chordal
from psdcone.cycle import _edge_params, cycle_edge_complex
from psdcone.decide import membership
from psdcone.errors import AsymmetricInput, NotChordal, TooManyFaces
from psdcone.instances import (random_chordal_graph, random_complex, random_cycle_member,
                               random_params)
from psdcone.param import cone_add, phi, submatrix_witness
from psdcone.quotient import schur_witness

from oracles import (clique_complex_bk, complete_graph, dominated_scan, gamma_edge,
                     has_face_scan, items_by_sort, neighbor_sets, params_from_json_by_record,
                     params_json_by_items, path_graph, pattern_graph, pattern_mask_from_edges,
                     phi_by_face_entries, random_psd_matrix)


def graphs(max_m=7):
    """Hypothesis strategy: a simple graph on 1..max_m vertices."""

    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_m))
        pairs = list(itertools.combinations(range(m), 2))
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs
                     else st.just(set()))
        return Graph.from_edges(m, edges)

    return build()


@st.composite
def vertex_sets(draw, max_m=64):
    """(m, list of vertex sets), sizes skewed small so that some sets nest."""
    m = draw(st.integers(1, max_m))
    sets = draw(st.lists(st.sets(st.integers(0, m - 1), max_size=min(m, 8)), max_size=24))
    return m, sets


def respects_pattern_loop(sigma, g, tol=PATTERN_TOL):
    """Oracle: the entrywise scan over the upper triangle, each entry against
    tol * (sqrt(|a_ii|) * sqrt(|a_jj|)), which is 0 beside a zero diagonal."""
    a = sigma.a
    for i in range(sigma.m):
        for j in range(i + 1, sigma.m):
            unit = math.sqrt(abs(a[i, i])) * math.sqrt(abs(a[j, j]))
            if abs(a[i, j]) > tol * unit and not g.has_edge(i, j):
                return False
    return True


class TestGraph:
    @given(graphs(12))
    @settings(max_examples=60, deadline=None)
    def test_pattern_mask(self, g):
        mask = g.pattern_mask
        assert not mask.flags.writeable
        for i, j in itertools.product(range(g.m), repeat=2):
            assert mask[i, j] == (i == j or g.has_edge(i, j))

    @given(st.integers(1, 64), st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pattern_mask_is_bitwise_the_edge_array_mask(self, m, density, seed):
        """Density 0 gives no edges and 1 the complete graph; numpy vertices too."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((m, m)) < density, 1)
        for g in (Graph.from_edges(m, zip(*np.nonzero(upper))),
                  Graph.from_json_dict({"m": m, "edges": [[int(j) + 1, int(i) + 1]
                                                          for i, j in zip(*np.nonzero(upper))]})):
            mask, ref = g.pattern_mask, pattern_mask_from_edges(g)
            assert (mask.dtype, mask.shape, mask.flags.writeable) == (ref.dtype, ref.shape, False)
            assert mask.flags.c_contiguous and mask.tobytes() == ref.tobytes()

    def test_numpy_vertices_are_stored_as_ints(self):
        """np.int64 vertices would make np.int64 bitsets, which wrap at bit 63."""
        g = Graph.from_edges(64, zip(*np.nonzero(np.triu(np.ones((64, 64), dtype=bool), 1))))
        assert all(type(v) is int for e in g.edges for v in e)
        assert g.adjacency_bits[0] == (1 << 64) - 2 and is_chordal(g)[0]

    @given(graphs(64), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_json_reader_builds_the_checked_graph(self, g, seed):
        """Edges in any order, either orientation and repeated read as from_edges
        builds them, and the graph passes the full check."""
        rng = np.random.default_rng(seed)
        pairs = [[i + 1, j + 1] if rng.random() < 0.5 else [j + 1, i + 1] for i, j in g.edges]
        pairs += [pairs[k] for k in rng.integers(0, len(pairs), len(pairs) // 3)] if pairs else []
        rng.shuffle(pairs)
        read = Graph.from_json_dict({"m": g.m, "edges": pairs})
        assert read == g and all(type(v) is int for e in read.edges for v in e)
        read.__post_init__()

    def test_json_reader_builds_through_the_validating_constructor(self, monkeypatch):
        """from_json_dict checks the file's labels, 1-based, then builds as
        from_edges does, through __post_init__."""
        checked = []
        post_init = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__",
                            lambda self: checked.append(self.m) or post_init(self))
        read = Graph.from_json_dict({"m": 4, "edges": [[3, 1], [2, 3], [1, 3]]})
        assert read == Graph.from_edges(4, [(2, 0), (1, 2)]) and checked == [4, 4]
        for edges, message in (([[1, 5]], r"^edge \(1, 5\) outside vertex range 1\.\.4$"),
                               ([[2, 2]], r"^bad edge \(2, 2\)$")):
            with pytest.raises(ValueError, match=message):
                Graph.from_json_dict({"m": 4, "edges": edges})
        assert checked == [4, 4]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_api_messages_name_vertices_from_zero(self):
        """Only the JSON readers speak in the files' 1-based labels."""
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) outside vertex range 0\.\.2$"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"^bad edge \(0, 0\)$"):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError, match=r"^facet \(0, 3\) outside ground set$"):
            SimplicialComplex.from_facets(3, [[0, 3]])

    def test_neighbors(self):
        g = path_graph(4)
        assert g.neighbors(1) == {0, 2}
        assert g.degree(0) == 1

    @given(graphs(max_m=16))
    @settings(max_examples=80, deadline=None)
    def test_neighbors_and_degree_read_the_edges(self, g):
        """Both read adjacency_bits, the graph's one adjacency, and keep its
        edges' neighbour sets."""
        nbrs = neighbor_sets(g)
        assert [g.neighbors(v) for v in range(g.m)] == nbrs
        assert all(type(g.neighbors(v)) is frozenset for v in range(g.m))
        assert [g.degree(v) for v in range(g.m)] == [len(s) for s in nbrs]
        assert "adjacency" not in vars(g)

    def test_json_round_trip(self):
        g = cycle_graph(5)
        assert Graph.from_json_dict(g.to_json_dict()) == g

    @pytest.mark.parametrize("cls, key", [(Graph, "edges"), (SimplicialComplex, "facets")])
    def test_json_readers_bound_m(self, cls, key):
        """m outside 1..MAX_VERTICES is refused before any vertex set is built."""
        for m in (0, -1, MAX_VERTICES + 1, 100_000):
            with pytest.raises(ValueError, match=f"between 1 and {MAX_VERTICES}, got {m}"):
                cls.from_json_dict({"m": m, key: []})
        assert cls.from_json_dict({"m": MAX_VERTICES, key: []}).m == MAX_VERTICES


class TestSimplicialComplex:
    def test_three_chain_underlying_graph(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        assert underlying_graph(delta) == path_graph(3)

    def test_singletons_only_empty_graph(self):
        delta = SimplicialComplex.from_facets(4, [])
        assert delta.facets == ((0,), (1,), (2,), (3,))
        assert underlying_graph(delta).edges == frozenset()

    def test_triangle_edge_complex(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [0, 2], [1, 2]])
        assert underlying_graph(delta) == complete_graph(3)

    def test_rejects_dominated_facet_in_strict_constructor(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, ((0,), (0, 1)))

    def test_faces_refuse_a_sum_of_2_to_the_facet_sizes_past_the_guard(self, monkeypatch):
        """The guard reads the facet sizes, so a 40-vertex facet is refused at
        once; at the guard the faces are listed."""
        message = f"up to {2 ** 40} faces, more than {MAX_FACE_SUM}$"
        with pytest.raises(TooManyFaces, match=message):
            SimplicialComplex.from_facets(40, [range(40)]).faces
        monkeypatch.setattr(core, "MAX_FACE_SUM", 12)
        assert len(SimplicialComplex.from_facets(4, [[0, 1, 2], [2, 3]]).faces) == 9  # 8 + 4
        with pytest.raises(TooManyFaces, match="up to 16 faces"):
            SimplicialComplex.from_facets(5, [[0, 1, 2], [2, 3], [3, 4]]).faces  # 8 + 4 + 4

    def test_faces_canonical_order(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        assert delta.faces == ((0,), (1,), (2,), (0, 1), (1, 2))
        assert sorted(delta.faces, key=face_key) == list(delta.faces)

    def test_json_round_trip(self):
        delta = SimplicialComplex.from_facets(4, [[0, 1, 2], [2, 3]])
        again = SimplicialComplex.from_json_dict(delta.to_json_dict())
        assert again == delta

    @given(vertex_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_has_face_matches_scan(self, ms, data):
        """Faces of facets, random sets, and empty, repeated, out-of-range,
        negative and numpy-int vertices all get the frozenset scan's answer."""
        m, sets = ms
        delta = SimplicialComplex.from_facets(m, sets)
        vertex = st.one_of(st.integers(-3, m + 3), st.integers(0, m - 1).map(np.int64))
        queries = data.draw(st.lists(st.lists(vertex, max_size=6), max_size=20))
        for facet in delta.facets:
            k = data.draw(st.integers(0, len(facet)))
            queries.append(list(facet[:k]) + list(facet[:1]))
        for q in queries + [[], [0, 0], [m], [-1]]:
            assert delta.has_face(q) == has_face_scan(delta, q), q
            assert delta.has_face(iter(q)) == has_face_scan(delta, q), q

    def test_facets_of(self):
        delta = SimplicialComplex.from_facets(4, [[0, 1, 2], [2, 3]])
        assert delta.facets == ((2, 3), (0, 1, 2))
        assert delta.facets_of == (0b10, 0b10, 0b11, 0b01)
        assert delta.facets_containing((2,)) == 0b11
        assert delta.facets_containing((1, 2)) == 0b10
        assert delta.facets_containing((1, 3)) == 0
        assert delta.facets_containing(()) == 0

    @given(vertex_sets())
    @settings(max_examples=150, deadline=None)
    def test_dominated_sets_match_scan(self, ms):
        """from_facets keeps the sets no other set contains; the strict
        constructor rejects a facet list exactly when one set lies in another."""
        m, sets = ms
        nonempty = {frozenset(s) for s in sets if s}
        covered = set().union(*nonempty)
        candidates = nonempty | {frozenset([v]) for v in range(m) if v not in covered}
        dominated = dominated_scan(candidates)
        expected = sorted((as_face(s) for s in candidates - dominated), key=face_key)
        assert SimplicialComplex.from_facets(m, sets).facets == tuple(expected)
        facets = tuple(sorted((as_face(s) for s in candidates), key=face_key))
        if dominated:
            with pytest.raises(ValueError, match="inclusion-maximal"):
                SimplicialComplex(m, facets)
        else:
            assert SimplicialComplex(m, facets).facets == facets

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_downward_closure(self, g):
        delta = clique_complex_bk(g)
        for face in delta.faces:
            for k in range(1, len(face) + 1):
                for sub in itertools.combinations(face, k):
                    assert delta.has_face(sub)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_clique_complex_graph_round_trip(self, g):
        """Every graph's clique complex has it as its graph; the library builds
        that complex for the chordal ones and refuses the others."""
        delta = clique_complex_bk(g)
        assert underlying_graph(delta) == g
        if is_chordal(g)[0]:
            assert clique_complex(g) == delta
        else:
            with pytest.raises(NotChordal):
                clique_complex(g)


class TestInducedSubcomplex:
    def test_cycle_minus_vertex_is_path(self):
        delta = edge_complex(cycle_graph(4))
        sub = induced_subcomplex(delta, [0, 1, 2])
        assert sub == edge_complex(path_graph(3))

    def test_full_subset_is_identity(self):
        delta = SimplicialComplex.from_facets(4, [[0, 1, 2], [2, 3]])
        assert induced_subcomplex(delta, range(4)) == delta

    def test_clique_complex_restriction(self):
        delta = clique_complex(complete_graph(3))
        sub = induced_subcomplex(delta, [0, 1])
        # brute-force oracle: faces of the restriction are subsets of {0,1}
        expected = sorted(
            {f for f in delta.faces if set(f) <= {0, 1}}, key=face_key
        )
        assert list(sub.faces) == expected
        assert sub.facets == ((0, 1),)

    def test_idempotent(self):
        delta = edge_complex(cycle_graph(5))
        sub = induced_subcomplex(delta, [0, 1, 3])
        again = induced_subcomplex(sub, range(3))
        assert again == sub

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            induced_subcomplex(edge_complex(cycle_graph(4)), [])

    def test_vertex_map(self):
        assert induced_vertex_map([4, 1, 3]) == {1: 0, 3: 1, 4: 2}


class TestSymmetricMatrix:
    def test_symmetrizes_small_noise(self):
        arr = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
        sig = SymmetricMatrix(arr)
        assert sig.a[0, 1] == sig.a[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricInput):
            SymmetricMatrix(np.array([[1.0, 0.5], [0.1, 2.0]]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for arr in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
                with pytest.raises(ValueError, match="finite"):
                    SymmetricMatrix(np.array(arr))

    def test_rejects_overflowing_symmetrization(self):
        """Entries from 2**1023 up double past the largest float; they are
        refused with a ValueError, not stored as inf with a warning."""
        big = 2.0 ** 1023
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arr in ([[1.5e308, 0.0], [0.0, 1.0]], [[1.0, big], [big, 1.0]],
                        [[1.0, -1.7e308], [-1.7e308, 1.0]]):
                with pytest.raises(ValueError, match="overflows when symmetrized"):
                    SymmetricMatrix(np.array(arr))
            below = np.nextafter(big, 0.0)
            sig = SymmetricMatrix(np.array([[below, below], [below, below]]))
            assert np.all(sig.a == below)

    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetrization_is_bitwise_the_mean(self, m, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-300, 300)
        arr = arr + arr.T
        arr *= 1.0 + 1e-13 * rng.standard_normal((m, m))  # asymmetry below the bound
        assert SymmetricMatrix(arr).a.tobytes() == ((arr + arr.T) / 2.0).tobytes()

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_is_that_of_the_symmetrized_entries(self, m, seed):
        """D A D rounds to a slightly asymmetric array; the scale is that of the
        mean that is stored, whichever constructor built the matrix."""
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((m, m))
        d = np.diag(10.0 ** rng.uniform(-3, 3, m))
        for sig in (SymmetricMatrix(d @ (b @ b.T) @ d), SymmetricMatrix._trusted(b + b.T)):
            assert sig.scale() == tolerance_scale(sig.a) == max(1.0, np.abs(sig.a).max())

    def test_pattern(self):
        sig = SymmetricMatrix(np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert sig.respects_pattern(path_graph(3))
        assert pattern_graph(sig) == Graph.from_edges(3, [(0, 1)])

    def test_pattern_threshold_is_strict(self):
        """The entry (0, 2) is measured in sqrt(a_00 a_22) = 2."""
        thr = PATTERN_TOL * 2.0
        for off, ok in ((thr, True), (-thr, True), (thr * (1 - 1e-15), True),
                        (thr * (1 + 1e-15), False), (-thr * (1 + 1e-15), False)):
            arr = np.diag([4.0, 1.0, 1.0])
            arr[0, 2] = arr[2, 0] = off
            assert SymmetricMatrix(arr).respects_pattern(path_graph(3)) is ok

    def test_pattern_size_mismatch(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.eye(3)).respects_pattern(path_graph(4))

    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.002, 0.05, 0.5]), st.sampled_from([0.5, 1.0, 37.0, 1e4]))
    @settings(max_examples=80, deadline=None)
    def test_respects_pattern_matches_loop(self, m, seed, p_off, top):
        """Off-pattern entries sit at +-thr and +-thr*(1 +- 1e-15), either side of the cut."""
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((m, m)) < rng.random(), 1)
        g = Graph.from_edges(m, zip(*np.nonzero(upper)))
        thr = PATTERN_TOL * top  # the unit sqrt(a_ii a_jj) of every entry
        arr = np.where(upper | upper.T, rng.uniform(-top, top, (m, m)), 0.0)
        near = thr * rng.choice([1.0, 1 - 1e-15, 1 + 1e-15], (m, m)) * rng.choice([-1, 1], (m, m))
        arr = np.where(~(upper | upper.T) & (rng.random((m, m)) < p_off), near, arr)
        arr = np.triu(arr, 1) + np.triu(arr, 1).T
        np.fill_diagonal(arr, top)
        sig = SymmetricMatrix(arr)
        assert sig.respects_pattern(g) == respects_pattern_loop(sig, g)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_tolerance_scale(self, xs):
        """One helper gives the scalar loops' values bitwise, and 1 for no entries."""
        assert tolerance_scale(xs) == max(1.0, max(abs(x) for x in xs))
        arr = np.diag(xs)
        assert SymmetricMatrix(arr).scale() == max(1.0, float(np.abs(arr).max()))
        assert tolerance_scale([]) == tolerance_scale(np.zeros((0, 0))) == 1.0

    def test_json_round_trip(self):
        sig = SymmetricMatrix(np.array([[2.0, -1.0], [-1.0, 3.0]]))
        blob = json.dumps(sig.to_json_dict())
        again = SymmetricMatrix.from_json_dict(json.loads(blob))
        assert np.array_equal(again.a, sig.a)


def _with(records, k, **fields):
    """records with fields of record k replaced (the others shared)."""
    return records[:k] + [dict(records[k], **fields)] + records[k + 1:]


# One edit of a params file's records at record k, given m; each makes the
# reader take another path: the cache, a repeated incidence, or a fault.
RECORD_EDITS = {
    "rotate": lambda recs, k, m: recs[k:] + recs[:k],
    "repeat": lambda recs, k, m: recs + [dict(recs[k], gamma=0.75)],
    "reversed face": lambda recs, k, m: _with(recs, k, face=recs[k]["face"][::-1]),
    "repeated vertex": lambda recs, k, m: _with(recs, k, face=recs[k]["face"] * 2),
    "string labels": lambda recs, k, m: _with(recs, k, face=[str(v) for v in recs[k]["face"]],
                                              vertex=str(recs[k]["vertex"])),
    "float labels": lambda recs, k, m: _with(recs, k, face=[v + 0.5 for v in recs[k]["face"]],
                                             vertex=float(recs[k]["vertex"])),
    "integral float labels": lambda recs, k, m: _with(recs, k, face=[float(v) for v in
                                                                     recs[k]["face"]]),
    "bad string label": lambda recs, k, m: _with(recs, k, face=["x"]),
    "outside ground set": lambda recs, k, m: _with(recs, k, face=recs[k]["face"] + [m + 1]),
    "not a face": lambda recs, k, m: _with(recs, k, face=list(range(1, m + 1))),
    "empty face": lambda recs, k, m: _with(recs, k, face=[]),
    "vertex not in face": lambda recs, k, m: _with(recs, k, vertex=m + 1),
    "nan gamma": lambda recs, k, m: _with(recs, k, gamma=float("nan")),
    "inf gamma": lambda recs, k, m: _with(recs, k, gamma="-inf"),
    "null gamma": lambda recs, k, m: _with(recs, k, gamma=None),
    "unhashable label": lambda recs, k, m: _with(recs, k, face=recs[k]["face"] + [[1]]),
    "unhashable integer labels": lambda recs, k, m: _with(
        recs, k, face=[np.array(v) for v in recs[k]["face"]]),
    "face not a list": lambda recs, k, m: _with(recs, k, face=None),
}


@st.composite
def params_files(draw):
    """(complex, params JSON): a random complex's parameters with up to four
    RECORD_EDITS at drawn records."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = random_complex(rng, draw(st.integers(1, 6)), max_size=4)
    records = random_params(rng, delta, density=draw(st.sampled_from([0.3, 1.0]))
                            ).to_json_dict()["values"]
    for edit in draw(st.lists(st.sampled_from(sorted(RECORD_EDITS)), max_size=4)):
        if records:
            k = draw(st.integers(0, len(records) - 1))
            face = records[k]["face"]
            if isinstance(face, list) and all(type(v) is int for v in face):  # as edits expect
                records = RECORD_EDITS[edit](records, k, delta.m)
    return delta, {"values": records}


def _assert_same_reading(delta, d):
    """FactorParams.from_json_dict and the per-record reader return equal
    parameters, in equal order, or raise one exception with one message."""
    def read(fn):
        try:
            return fn(delta, d)
        except (ValueError, TypeError, KeyError) as exc:
            return exc
    got, want = read(FactorParams.from_json_dict), read(params_from_json_by_record)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want and list(got.values) == list(want.values)


class TestFactorParams:
    def test_rejects_bad_incidence(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            FactorParams(delta, {((0, 2), 0): 1.0})
        with pytest.raises(ValueError):
            FactorParams(delta, {((0, 1), 2): 1.0})

    def test_rejects_non_canonical_faces(self):
        """Keys must be the sorted duplicate-free tuples as_face returns."""
        delta = edge_complex(path_graph(2))
        for values in ({((1, 0), 0): 1.0, ((1, 0), 1): 2.0}, {((0, 0, 1), 0): 1.0},
                       {(frozenset({0, 1}), 0): 1.0}, {((0, 1), 0): 1.0, ((1, 0), 1): 2.0}):
            with pytest.raises(ValueError, match="invalid incidence"):
                FactorParams(delta, values)

    def test_rejects_non_finite_values(self):
        """Every construction checks its values, the cycle certificates too."""
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                FactorParams(delta, {((0, 1), 0): 1.0, ((1, 2), 2): bad})
            with pytest.raises(ValueError, match="non-finite"):
                _edge_params(cycle_edge_complex(4), [1.0, bad, 1.0, 1.0], [1.0] * 4)

    def test_checks_each_face_once(self, monkeypatch):
        delta = SimplicialComplex.from_facets(3, [[0, 1, 2]])
        queried = []
        has_face = SimplicialComplex.has_face
        monkeypatch.setattr(SimplicialComplex, "has_face",
                            lambda self, f: queried.append(f) or has_face(self, f))
        FactorParams(delta, {((0, 1, 2), i): 1.0 for i in range(3)} | {((0,), 0): 2.0})
        assert sorted(queried) == [(0,), (0, 1, 2)]

    def test_shorthand_accessors(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        g = FactorParams(delta, {((0,), 0): 2.0, ((0, 1), 1): -3.0})
        assert g.gamma_singleton(0) == 2.0
        assert gamma_edge(g, 1, 0) == -3.0
        assert gamma_edge(g, 0, 1) == 0.0  # unset incidences read as zero

    def test_get_reads_stored_keys_and_checks_the_rest(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        g = FactorParams(delta, {((0, 1), 1): -3.0, ((1, 2), 2): 0.5})
        assert g.get((0, 1), 1) == -3.0 and gamma_edge(g, 2, 1) == 0.5
        assert g.get([1, 0], 1) == -3.0 and g.get((1, 0), 1) == -3.0
        assert g.get((0, 1), 0) == 0.0 and gamma_edge(g, 0, 1) == 0.0
        for face, vertex in (((0, 2), 0), ((0, 1), 2), ((0, 1, 2), 1), ((3,), 3)):
            with pytest.raises(KeyError):
                g.get(face, vertex)

    @given(st.integers(1, 64), st.floats(0.2, 1.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_items_follow_face_key(self, m, density, seed):
        """items() sorts stored (canonical) faces by (size, face) without
        re-sorting them, which is the face_key order."""
        rng = np.random.default_rng(seed)
        delta = random_complex(rng, m, max_size=6)
        gamma = random_params(rng, delta, density=density)
        vals = dict(gamma.values)
        for key in list(vals)[::3]:
            vals[key] = 0.0  # stored zeros are skipped
        gamma = FactorParams(delta, dict(reversed(vals.items())))
        expected = sorted((k for k, v in vals.items() if v != 0.0),
                          key=lambda k: (face_key(k[0]), k[1]))
        assert [k for k, _ in gamma.items()] == expected

    def test_json_round_trip(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1], [1, 2]])
        g = FactorParams(delta, {((0, 1), 0): 1.5, ((1,), 1): -0.25})
        again = FactorParams.from_json_dict(delta, g.to_json_dict())
        assert again == g

    @pytest.mark.parametrize("edit", sorted(RECORD_EDITS))
    def test_reader_matches_per_record_oracle_per_edit(self, edit):
        rng = np.random.default_rng(7)
        delta = random_complex(rng, 5, max_size=3)
        records = random_params(rng, delta).to_json_dict()["values"]
        for k in range(len(records)):
            _assert_same_reading(delta, {"values": RECORD_EDITS[edit](records, k, delta.m)})

    @given(params_files())
    @settings(max_examples=200, deadline=None)
    def test_reader_matches_per_record_oracle(self, case):
        _assert_same_reading(*case)

    def test_reader_checks_each_distinct_face_once(self, monkeypatch):
        delta = SimplicialComplex.from_facets(3, [[0, 1, 2]])
        queried = []
        has_face = SimplicialComplex.has_face
        monkeypatch.setattr(SimplicialComplex, "has_face",
                            lambda self, f: queried.append(f) or has_face(self, f))
        records = [{"face": face, "vertex": v, "gamma": 1.0}
                   for face in ([1, 2, 3], [3, 2, 1], [1, 2, 3]) for v in (1, 2, 3)]
        FactorParams.from_json_dict(delta, {"values": records})
        assert queried == [(0, 1, 2)]  # two spellings, one canonical face

    @pytest.mark.parametrize("edit", ["string labels", "float labels", "integral float labels"])
    def test_labels_that_are_not_integers_are_refused(self, edit):
        """A label is read as an integer, never converted: "2", 2.5 and 2.0 are refused."""
        rng = np.random.default_rng(7)
        delta = random_complex(rng, 5, max_size=3)
        records = random_params(rng, delta).to_json_dict()["values"]
        for k in range(len(records)):
            with pytest.raises(ValueError, match=r"^params JSON: '(str|float)' object cannot "
                                                 r"be interpreted as an integer$"):
                FactorParams.from_json_dict(delta, {"values": RECORD_EDITS[edit](
                    records, k, delta.m)})

    def test_integer_arrays_read_as_their_integers(self):
        rng = np.random.default_rng(7)
        delta = random_complex(rng, 5, max_size=3)
        gamma = random_params(rng, delta)
        records = gamma.to_json_dict()["values"]
        for k in range(len(records)):
            edited = RECORD_EDITS["unhashable integer labels"](records, k, delta.m)
            assert FactorParams.from_json_dict(delta, {"values": edited}) == gamma

    def test_unhashable_face_label_keeps_its_message(self):
        delta = SimplicialComplex.from_facets(2, [[0, 1]])
        with pytest.raises(ValueError) as exc:
            FactorParams.from_json_dict(delta, {"values": [
                {"face": [1, [2]], "vertex": 1, "gamma": 1.0}]})
        assert str(exc.value) == "params JSON: 'list' object cannot be interpreted as an integer"


# Each builder draws its inputs from an rng and returns the one call that
# constructs the parameters, so that a test can watch that call alone.

def _shuffled_with_zeros(rng):
    """The validating constructor on random parameters inserted in shuffled
    order, every third one an explicit zero."""
    delta = random_complex(rng, int(rng.integers(1, 9)), max_size=4)
    items = list(random_params(rng, delta, density=0.6).values.items())
    order = rng.permutation(len(items))
    values = {items[k][0]: 0.0 if n % 3 == 0 else items[k][1] for n, k in enumerate(order)}
    return lambda: FactorParams(delta, values)


def _random_params(rng):
    delta = random_complex(rng, int(rng.integers(1, 9)), max_size=4)
    return lambda: random_params(rng, delta, density=0.5)


def _read(edit):
    def build(rng):
        delta = random_complex(rng, int(rng.integers(1, 9)), max_size=4)
        records = random_params(rng, delta).to_json_dict()["values"]
        d = {"values": RECORD_EDITS[edit](records, int(rng.integers(len(records))), delta.m)}
        return lambda: FactorParams.from_json_dict(delta, d)
    return build


def _chordal_certificate(rng):
    """A member of a random chordal graph's image, or of a complete graph's
    (whose faces past PHI_DENSE_FACE take phi's dense path)."""
    if rng.random() < 0.25:
        g = complete_graph(int(rng.integers(7, 13)))
        sigma = random_psd_matrix(rng, g.m, rank=int(rng.integers(1, g.m + 1)))
    else:
        g = random_chordal_graph(rng, int(rng.integers(1, 17)))
        delta = clique_complex(g)
        sigma = phi(delta, random_params(rng, delta, density=0.7))
    return lambda: membership(sigma, g).certificate


def _cycle_certificate(rng):
    """A member of a relabelled cycle's image, an edge's entry zero at times."""
    m = int(rng.integers(3, 13))
    cyc, _ = random_cycle_member(rng, m, zero_edges=(0,) if rng.random() < 0.3 else ())
    perm = rng.permutation(m)
    arr = np.zeros((m, m))
    arr[np.ix_(perm, perm)] = cyc.to_array()
    g = Graph.from_edges(m, [(perm[k], perm[(k + 1) % m]) for k in range(m)])
    return lambda: membership(SymmetricMatrix(arr), g).certificate


def _witness(kind):
    def build(rng):
        delta = random_complex(rng, int(rng.integers(2, 9)), max_size=4)
        gamma = random_params(rng, delta)
        if kind == "cone_add":
            other = random_params(rng, delta, density=0.5)
            return lambda: cone_add(delta, gamma, other)
        if kind == "submatrix_witness":
            subset = rng.choice(delta.m, int(rng.integers(1, delta.m)), replace=False)
            return lambda: submatrix_witness(delta, gamma, subset)
        u = int(rng.integers(delta.m))
        return lambda: schur_witness(delta, gamma, u).params
    return build


PARAMS_BUILDERS = {
    "validating constructor": _shuffled_with_zeros,
    "random_params": _random_params,
    "reader, repeat": _read("repeat"),
    "reader, rotate": _read("rotate"),
    "chordal membership": _chordal_certificate,
    "cycle membership": _cycle_certificate,
    "cone_add": _witness("cone_add"),
    "submatrix_witness": _witness("submatrix_witness"),
    "schur_witness": _witness("schur_witness"),
}


def _printed(obj) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _print_json(obj)
    return out.getvalue()


class TestFaceView:
    @pytest.mark.parametrize("kind", sorted(PARAMS_BUILDERS))
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_view_matches_the_oracles(self, kind, seed):
        """The view, handed over or cached, is the view recomputed from values,
        and items, the printed JSON and phi's bits are the sorting oracles'."""
        gamma = PARAMS_BUILDERS[kind](np.random.default_rng(seed))()
        assert gamma.columns == _face_columns(gamma.values)
        assert list(gamma.items()) == items_by_sort(gamma)
        assert _printed(gamma.to_json_dict()) == _printed(params_json_by_items(gamma))
        got = phi(gamma.complex, gamma).a.ravel().tolist()
        want = phi_by_face_entries(gamma.complex, gamma).ravel().tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        fresh = FactorParams(gamma.complex, dict(gamma.values))
        assert "columns" not in vars(fresh)
        assert gamma == fresh and repr(gamma) == repr(fresh)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_chordal_fiber_hands_its_view_over(self, seed):
        rng = np.random.default_rng(seed)
        g = random_chordal_graph(rng, int(rng.integers(1, 17)))
        delta = clique_complex(g)
        gamma = chordal_fiber(g, phi(delta, random_params(rng, delta, density=0.7)))
        assert "columns" in vars(gamma)
        assert gamma.columns == _face_columns(gamma.values)

    def test_view_skips_zeros_and_orders_faces_and_vertices(self):
        delta = SimplicialComplex.from_facets(3, [[0, 1, 2]])
        gamma = FactorParams(delta, {((0, 1, 2), 2): 1.0, ((1,), 1): 0.0, ((0, 2), 2): -2.0,
                                     ((0, 1, 2), 0): 3.0, ((0, 2), 0): 0.5, ((2,), 2): 4.0})
        assert gamma.columns == (((2,), [(2, 4.0)]), ((0, 2), [(0, 0.5), (2, -2.0)]),
                                 ((0, 1, 2), [(0, 3.0), (2, 1.0)]))
        # a cycle edge whose two parameters are zero is no face of the view
        gamma = _edge_params(cycle_edge_complex(4), [0.0, 1.0, 0.0, 2.0], [0.0, -1.0, 3.0, 0.5])
        assert gamma.columns == (
            ((0, 3), [(0, 0.5), (3, 2.0)]), ((1, 2), [(1, 1.0), (2, -1.0)]), ((2, 3), [(3, 3.0)]))
