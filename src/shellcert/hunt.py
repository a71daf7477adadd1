"""Search for a sequentially Cohen-Macaulay complex with no weak shelling order.

No such complex is currently known; any complex with at least 2*dim + 3
vertices is weakly shellable for trivial reasons, so candidates must be
dense.  The hunter samples random complexes, discards the trivially weakly
shellable ones, searches the rest for a weak shelling order, and tests the
survivors for sequential Cohen-Macaulayness over GF(2) and the rationals.
An empty hit list is the expected outcome at desk scale; the per-stage
counters show where the candidates died.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .complexes import Complex, InputError, Undecided, alexander_dual, restrict_to_support
from .formats import to_json_document
from .generators import random_complex
from .homology import DEFAULT_FIELDS, cm_reports, is_sequentially_cm
from .orders import find_weak_shelling_order, is_trivially_weakly_shellable

__all__ = ["STAGES", "HuntReport", "screen_candidate", "hunt_counterexample"]

# Pipeline stages a candidate can end in.
STAGES = (
    "degenerate",             # void, or everything below handled trivially
    "oversized-facet",        # some facet misses at most one vertex
    "trivially-weakly-shellable",
    "weak-order-found",
    "undecided",              # weak-shellability search ran out of NODE_BUDGET
    "not-sequentially-cm",
    "hit",
)

# Universe sizes of the sampled complexes, taken in turn.
_N_VERTICES = (5, 6, 7, 8)


@dataclass
class HuntReport:
    """How many candidates of one hunt ended in each stage, and the hits.

    Every candidate ends in exactly one stage, so ``sampled``, the sum of the
    counts, is the hunt's budget; the seed is its caller's argument.
    """

    counts: dict = dc_field(default_factory=lambda: {s: 0 for s in STAGES})
    hits: list = dc_field(default_factory=list)

    @property
    def sampled(self) -> int:
        return sum(self.counts.values())

    def as_text(self) -> str:
        lines = ["sampled: %d" % self.sampled]
        for s in STAGES:
            lines.append("  %-28s %d" % (s + ":", self.counts[s]))
        if self.hits:
            lines.append("counterexample candidates:")
            for c in self.hits:
                lines.append("  " + to_json_document(c))
        else:
            lines.append("no counterexample found")
        return "\n".join(lines)


def screen_candidate(c: Complex) -> str:
    """Run one complex through the pipeline and name the stage it ends in.

    Candidates with a facet missing at most one vertex are discarded first:
    such a complex is never the dual of a ghost-free complex, and a pair of
    facets unioning to the universe then defeats the weak condition for free
    (two edges of a path already do it), which is noise rather than an answer.
    The weak-shellability filters run before the (expensive, field-sensitive)
    sequential-CM test; a hit must be sequentially Cohen-Macaulay over every
    field of ``DEFAULT_FIELDS`` yet admit no weak shelling order; the fields
    are swept by ``homology.cm_reports``, which skips Q once GF(2) has passed.
    """
    c = restrict_to_support(c)
    if c.is_void or c.dim == -1:
        return "degenerate"
    if any(f.bit_count() >= c.universe.n - 1 for f in c.facets):
        return "oversized-facet"
    if is_trivially_weakly_shellable(c):
        return "trivially-weakly-shellable"
    try:
        cert = find_weak_shelling_order(c)
    except Undecided:
        return "undecided"
    if cert is not None:
        return "weak-order-found"
    if not all(rep.ok for _, rep in cm_reports(is_sequentially_cm, c, DEFAULT_FIELDS)):
        return "not-sequentially-cm"
    return "hit"


def hunt_counterexample(seed: int, budget: int) -> HuntReport:
    """Screen ``budget`` seeded candidates; deterministic for a fixed seed.

    Each candidate is the Alexander dual of a random complex restricted to
    its support; the random complexes take 5, 6, 7 and 8 vertices in turn.
    Every complex in the search space arises this way.  Many samples are
    discarded before screening.  ``random_complex`` can return
    the full simplex, whose dual is void (``degenerate``).  Every
    ``oversized-facet`` sample comes from a random complex r (restricted to
    its support, on V) with a facet missing one vertex.  Proof: a dual facet
    is the complement of a minimal non-face of r, which has at least two
    vertices, since every vertex of r and the empty set are faces.  So the
    dual restricted to its support S has a facet missing at most one vertex
    of S only when S is not V, that is when some v lies in no dual face;
    then V - v is a face of r, and a facet since r is not the simplex.  The
    converse fails: the restricted dual of <123, 14, 24, 34> is three
    points, trivially weakly shellable, and at seed 1 with budget 500, 42 of
    the 201 samples with such a facet end in ``weak-order-found`` and 2 in
    ``trivially-weakly-shellable``.  At that seed 174 samples end in
    ``degenerate`` and 157 in ``oversized-facet``.  Hits are reported
    sorted by their canonical JSON encoding so the output does not depend on
    sampling order.  A negative budget is an ``InputError``.
    """
    if budget < 0:
        raise InputError("hunt budget must be non-negative, got %d" % budget)
    report = HuntReport()
    for i in range(budget):
        sub = seed * 1_000_003 + i
        n = _N_VERTICES[i % len(_N_VERTICES)]
        density = 0.35 + 0.5 * ((sub % 97) / 97.0)
        c = alexander_dual(restrict_to_support(random_complex(sub, n, density)))
        stage = screen_candidate(c)
        report.counts[stage] += 1
        if stage == "hit":
            report.hits.append(restrict_to_support(c))
    report.hits.sort(key=to_json_document)
    return report
