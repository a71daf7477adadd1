"""Spans around the benchmark's calls into shellcert, and the per-layer
metrics read off them.

A span is (id, name, start, end, parent, attrs).  Spans are kept in memory
and written out when the run ends.  Names are ``<module>.<public function>``
for calls into the program, plus the benchmark's own grouping spans
(``round``, ``op``, ``check``, ``facts.replay``).  Spans inside the program
are a later step; until then a layer is seen only where the benchmark calls
it directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

FIELD_KEYS = {"GF(2)": "gf2", "GF(3)": "gf3", "Q": "q"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id_, name, parent, attrs):
        self.id, self.name, self.parent, self.attrs = id_, name, parent, attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    """Records one span per call made through it."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def _begin(self, name, attrs) -> Span:
        span = Span(len(self.spans), name, self._open[-1] if self._open else None, attrs)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = perf_counter()
        return span

    def call(self, name, fn, *args, note=None, **attrs):
        """``fn(*args)`` inside a span; ``note(result)`` adds attributes after the clock stops."""
        span = self._begin(name, attrs)
        try:
            result = fn(*args)
        except BaseException as e:
            span.end = perf_counter()
            span.attrs["raised"] = type(e).__name__
            raise
        finally:
            self._open.pop()
        span.end = perf_counter()
        if note is not None:
            span.attrs.update(note(result))
        return result

    @contextmanager
    def span(self, name, **attrs):
        span = self._begin(name, attrs)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, note=None, **attrs):
        return fn(*args)

    @contextmanager
    def span(self, name, **attrs):
        yield None


def _outcome(span) -> str:
    raised = span.attrs.get("raised")
    if raised == "Undecided":
        return "undecided"
    if raised is not None:
        return "crashed"
    return "found" if span.attrs.get("found") else "none"


def layer_metrics(spans, stages) -> dict:
    """Per-layer totals over the spans of one traced round."""
    m = {
        "complexes.dual_s": 0.0, "complexes.dual_calls": 0, "complexes.nonfaces_out": 0,
        "orders.find_shelling_s": 0.0, "orders.find_weak_s": 0.0, "orders.find_sgcd_s": 0.0,
        "orders.found": 0, "orders.none": 0, "orders.undecided": 0, "orders.crashed": 0,
        "orders.facets_searched": 0, "orders.check_s": 0.0,
        "homology.rank_gf2_s": 0.0, "homology.rank_gf3_s": 0.0, "homology.rank_q_s": 0.0,
        "homology.cm_gf2_s": 0.0, "homology.cm_q_s": 0.0,
        "homology.scm_gf2_s": 0.0, "homology.scm_q_s": 0.0,
        "homology.boundary_cells": 0, "homology.sweep_faces": 0, "homology.witnesses": 0,
        "facts.table_s": 0.0, "facts.self_s": 0.0, "verify.claims_s": 0.0,
        "hunt.hunt_s": 0.0, "hunt.sampled": 0, "hunt.screened": 0,
    }
    stage_counts = {s: 0 for s in stages}
    find_keys = {"orders.find_shelling_order": "orders.find_shelling_s",
                 "orders.find_weak_shelling_order": "orders.find_weak_s",
                 "orders.find_strong_gcd_order": "orders.find_sgcd_s"}
    by_id = {s.id: s for s in spans}
    replayed = 0.0
    for s in spans:
        name, d, a = s.name, s.duration, s.attrs
        if s.parent is not None and by_id[s.parent].name == "facts.replay":
            replayed += d
        if name == "complexes.alexander_dual":
            m["complexes.dual_s"] += d
            m["complexes.dual_calls"] += 1
            m["complexes.nonfaces_out"] += a.get("nonfaces", 0)
        elif name in find_keys:
            m[find_keys[name]] += d
            m["orders." + _outcome(s)] += 1
            m["orders.facets_searched"] += a["facets"]
        elif name.startswith("orders.check_"):
            m["orders.check_s"] += d
        elif name == "homology.reduced_homology":
            m["homology.rank_%s_s" % FIELD_KEYS[a["field"]]] += d
            m["homology.boundary_cells"] += a["cells"]
        elif name in ("homology.is_cohen_macaulay", "homology.is_sequentially_cm"):
            kind = "cm" if name.endswith("cohen_macaulay") else "scm"
            m["homology.%s_%s_s" % (kind, FIELD_KEYS[a["field"]])] += d
            m["homology.sweep_faces"] += a["faces"]
            m["homology.witnesses"] += int(a.get("witness", False))
        elif name == "facts.build_fact_table":
            m["facts.table_s"] += d
        elif name == "verify.run_claims":
            m["verify.claims_s"] += d
        elif name == "hunt.hunt_counterexample":
            m["hunt.hunt_s"] += d
            counts = a.get("counts", {})
            for stage, n in counts.items():
                stage_counts[stage] = stage_counts.get(stage, 0) + n
            sampled = sum(counts.values())
            m["hunt.sampled"] += sampled
            m["hunt.screened"] += sampled - counts.get("degenerate", 0) - counts.get("oversized-facet", 0)
    m["facts.self_s"] = m["facts.table_s"] - replayed
    m["hunt.screened_per_sampled"] = m["hunt.screened"] / m["hunt.sampled"] if m["hunt.sampled"] else 0.0
    for stage, n in stage_counts.items():
        m["hunt.stage." + stage] = n
    return m
