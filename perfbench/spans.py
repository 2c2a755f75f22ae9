"""In-memory span recorder that wraps psdcone's layers at their module bindings.

Each span is (name, start_ns, end_ns, parent index, op id).  Spans are kept
in a list while the run goes on and written out once at the end.  A layer's
self time is its span's duration minus the durations of its direct children;
spans never overlap except by nesting, because the benchmark runs one op at
a time on one thread.

Wrapping happens only inside ``Recorder.patched()``: the untraced runs that
give the end-to-end numbers execute the library exactly as shipped.  No file
of the library is changed; the wrappers replace the names that callers look
up at call time, for example ``psdcone.cli.cycle_membership`` (used by the
CLI) and ``psdcone.cycle.cycle_membership`` (used by ``cycle_fiber``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name).  An attribute "Class.name" patches a class
# member.  Each layer is wrapped at every binding through which the CLI
# reaches it, so nested calls (cycle_fiber -> cycle_membership -> is_psd)
# are all seen.  The benchmark itself opens the root span of each CLI call.
BINDINGS = [
    ("psdcone.cli", "build_parser", "cli.parse"),
    ("psdcone.cli", "_print_json", "cli.emit"),
    ("psdcone.cli", "load_json", "core.ingest"),
    ("psdcone.core", "SymmetricMatrix.from_json_dict", "core.ingest"),
    ("psdcone.core", "SymmetricMatrix.respects_pattern", "core.ingest"),
    ("psdcone.core", "Graph.from_json_dict", "core.ingest"),
    ("psdcone.core", "SimplicialComplex.from_json_dict", "core.ingest"),
    ("psdcone.core", "FactorParams.from_json_dict", "core.ingest"),
    ("psdcone.core", "FactorParams.__post_init__", "core.params"),
    ("psdcone.core", "SimplicialComplex.faces", "core.faces"),
    ("psdcone.cli", "is_chordal", "chordal.is_chordal"),
    ("psdcone.chordal", "is_chordal", "chordal.is_chordal"),
    ("psdcone.cli", "clique_complex", "chordal.clique_complex"),
    ("psdcone.chordal", "clique_complex", "chordal.clique_complex"),
    ("psdcone.cli", "chordal_fiber", "chordal.fiber"),
    ("psdcone.linalg", "is_psd", "linalg.is_psd"),
    ("psdcone.cycle", "is_psd", "linalg.is_psd"),
    ("psdcone.chordal", "is_psd", "linalg.is_psd"),
    ("psdcone.chordal", "_semidef_cholesky", "linalg.cholesky"),
    ("psdcone.cli", "cycle_membership", "cycle.membership"),
    ("psdcone.cycle", "cycle_membership", "cycle.membership"),
    ("psdcone.cli", "cycle_fiber", "cycle.fiber"),
    ("psdcone.cli", "phi", "param.phi"),
    ("psdcone.quotient", "phi", "param.phi"),
    ("psdcone.latent", "phi", "param.phi"),
    ("psdcone.param", "_combine_columns", "param.combine"),
    ("psdcone.quotient", "_combine_columns", "param.combine"),
    ("psdcone.cli", "complex_quotient", "quotient.complex_quotient"),
    ("psdcone.quotient", "complex_quotient", "quotient.complex_quotient"),
    ("psdcone.cli", "schur_witness", "quotient.schur_witness"),
    ("psdcone.cli", "simulate_y", "latent.simulate"),
    ("psdcone.cli", "build_digraph", "latent.digraph"),
    # _count_stream's self time is RNG draws plus bookkeeping: its only
    # traced child is _batch_masks.
    ("psdcone.volume", "_count_stream", "volume.rng"),
    ("psdcone.volume", "_batch_masks", "volume.masks"),
]

class Recorder:
    """Collects spans and per-op counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        # ("draws" | "psd", m) -> rows drawn / accepted by _batch_masks
        self.counts: dict = defaultdict(int)

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _wrap_masks(self, fn):
        """_batch_masks also counts rows drawn and rows accepted, per m."""
        @functools.wraps(fn)
        def traced(diag, cyc):
            pd, member = self.span("volume.masks", fn, diag, cyc)
            n, m = diag.shape
            self.counts[("draws", m)] += n
            self.counts[("psd", m)] += int(pd.sum())
            return pd, member
        return traced

    def _wrap_parser(self, fn):
        """build_parser, and parse_args on the parser it returns, count as cli.parse."""
        @functools.wraps(fn)
        def traced():
            parser = self.span("cli.parse", fn)
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser
        return traced

    def _traced_binding(self, owner, attr, name):
        """The replacement for owner.attr and the raw value to restore later."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if name == "cli.parse":
            return self._wrap_parser(raw), raw
        if name == "volume.masks":
            return self._wrap_masks(raw), raw
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(name, raw.__func__)), raw
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self.wrap(name, raw.func))
            prop.__set_name__(owner, attr)
            return prop, raw
        return self.wrap(name, raw), raw

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper in BINDINGS; restore the originals on exit."""
        undo = []
        try:
            for module, attr, name in BINDINGS:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                new, raw = self._traced_binding(owner, attr, name)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def self_times(self):
        """Per span: (name, op id, self time in ns, duration in ns)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, op, end - start - child[k], end - start)
                for k, (name, start, end, parent, op) in enumerate(self.spans)]


def layer_totals(recorder: Recorder, weight):
    """{span name: [weighted self ns, calls]} over all spans, and per op the call counts.

    weight(op id) scales the self time of that op's spans.
    """
    totals = defaultdict(lambda: [0.0, 0])
    per_op = defaultdict(lambda: defaultdict(int))
    for name, op, self_ns, _ in recorder.self_times():
        totals[name][0] += self_ns * weight(op)
        totals[name][1] += 1
        per_op[op][name] += 1
    return totals, per_op
