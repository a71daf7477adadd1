"""Per-complex truth table for the four linked conditions, with provenance.

The four slots are: is the Alexander dual shellable, does the complex satisfy
the strong gcd-condition, is the dual sequentially Cohen-Macaulay, and is the
Stanley-Reisner ring Golod.  The table is built certificate-first: the one
search that runs on every complex that is not flag is for a shelling of the
dual, and when it finds one the certificate settles the next two slots.  Reversed and complemented, it is
a strong gcd-order, which is validated before the slot is set; and a
shellable complex is sequentially Cohen-Macaulay over every field
(Bjorner-Wachs, "Shellable nonpure complexes and posets I", Trans. AMS 348
(1996)), so no link sweep runs.  Only without a shelling does the strong gcd
search run and the dual's links get swept.  Golodness is never verified
algebraically here.  Instead the known one-way implications act as inference
rules,

    dual shellable  =>  strong gcd      dual shellable  =>  dual seq. CM
    strong gcd      =>  Golod           dual seq. CM    =>  Golod

and for flag complexes all four conditions are equivalent, so any decided
slot settles the rest.  For a flag complex each of them holds exactly when
its 1-skeleton G is chordal (Froberg's theorem, in the form of Herzog, Hibi
and Zheng, "Dirac's theorem on chordal graphs and Alexander duality",
European J. Combin. 25 (2004)), and G decides the table without a search: a
perfect elimination order of G gives a shelling of the dual, and a chordless
cycle of G gives a link of the dual that is not Cohen-Macaulay.  Each is
validated before a slot is set.  Inferred values never overwrite computed
ones; a contradiction between the two raises, it is a correctness failure.

All rules except "dual shellable => dual seq. CM" assume the complex has no
ghost vertices (a ghost vertex is a singleton minimal non-face, which gives
the dual a facet missing a single vertex and breaks the shelling-to-gcd
argument; a path of two edges has a shellable dual picture but no strong
gcd-order).  For a ghosted complex only the unconditional rule fires, and the
strong gcd slot is searched even when the dual is shellable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .complexes import (
    Complex,
    alexander_dual,
    chordal_certificate,
    is_flag,
    link,
    restrict_to_support,
)
from .homology import DEFAULT_FIELDS, Field, cm_reports, is_sequentially_cm, reduced_homology
from .orders import (
    Undecided,
    check_shelling_order,
    check_strong_gcd_order,
    dual_shelling_from_elimination_order,
    find_shelling_order,
    find_strong_gcd_order,
    gcd_order_from_dual,
)

__all__ = [
    "TRUE",
    "FALSE",
    "UNKNOWN",
    "OUT_OF_SCOPE",
    "SLOTS",
    "Slot",
    "FactTable",
    "FactConflict",
    "build_fact_table",
    "close_under_rules",
]

TRUE = "T"
FALSE = "F"
UNKNOWN = "unknown"
OUT_OF_SCOPE = "out-of-scope"

SLOTS = ("dual_shellable", "strong_gcd", "dual_seq_cm", "golod")

# (premise slot, conclusion slot, rule name, needs ghost-free complex);
# premise T forces conclusion T, conclusion F forces premise F.
RULES = (
    ("dual_shellable", "strong_gcd", "dual-shelling-implies-gcd", True),
    ("dual_shellable", "dual_seq_cm", "shelling-implies-seq-cm", False),
    ("strong_gcd", "golod", "gcd-implies-golod", True),
    ("dual_seq_cm", "golod", "seq-cm-implies-golod", True),
)


class FactConflict(Exception):
    """An inference contradicts a previously established slot value."""


@dataclass
class Slot:
    value: str = UNKNOWN
    provenance: str = ""
    note: str = ""

    @property
    def decided(self) -> bool:
        return self.value in (TRUE, FALSE)


@dataclass
class FactTable:
    complex: Complex
    flag: bool
    ghost_free: bool = True
    slots: dict = dc_field(default_factory=lambda: {name: Slot() for name in SLOTS})
    scm_by_field: dict = dc_field(default_factory=dict)  # str(field) -> bool

    def value(self, name: str) -> str:
        return self.slots[name].value

    def values(self) -> tuple:
        return tuple(self.slots[name].value for name in SLOTS)

    def _set(self, name: str, value: str, provenance: str, note: str = ""):
        slot = self.slots[name]
        if slot.decided:
            if slot.value != value:
                raise FactConflict(
                    "slot %s is %s (%s) but %s would set %s"
                    % (name, slot.value, slot.provenance, provenance, value)
                )
            return False
        slot.value = value
        slot.provenance = provenance
        slot.note = note
        return True

    def as_text(self) -> str:
        labels = {
            "dual_shellable": "dual shellable",
            "strong_gcd": "strong gcd",
            "dual_seq_cm": "dual seq. CM",
            "golod": "Golod",
        }
        lines = []
        for name in SLOTS:
            s = self.slots[name]
            extra = " [%s]" % s.note if s.note else ""
            prov = " (%s)" % s.provenance if s.provenance else ""
            lines.append("%-15s %-12s%s%s" % (labels[name] + ":", s.value, prov, extra))
        return "\n".join(lines)


def close_under_rules(table: FactTable):
    """Apply the implication rules (and their contrapositives) to a fixed point.

    Idempotent.  Only undecided slots are ever written; writing a decided
    slot with a different value raises FactConflict.
    """
    changed = True
    while changed:
        changed = False
        for premise, conclusion, rule, needs_ghost_free in RULES:
            if needs_ghost_free and not table.ghost_free:
                continue
            if table.slots[premise].value == TRUE:
                changed |= table._set(conclusion, TRUE, "inferred:" + rule)
            if table.slots[conclusion].value == FALSE:
                changed |= table._set(premise, FALSE, "inferred:" + rule)
        if table.flag:
            decided = {table.slots[n].value for n in SLOTS if table.slots[n].decided}
            if len(decided) > 1:
                raise FactConflict(
                    "flag complex with unequal decided slots: %s"
                    % {n: table.slots[n].value for n in SLOTS}
                )
            if decided:
                v = decided.pop()
                for n in SLOTS:
                    changed |= table._set(n, v, "inferred:flag-equivalence")
    return table


def build_fact_table(c: Complex, fields: Sequence[Field] = DEFAULT_FIELDS) -> FactTable:
    """Search the dual for a shelling, settle what its certificate settles,
    compute the rest, then take the inference closure.

    A shelling of the dual of a ghost-free complex, reversed and complemented
    (``orders.gcd_order_from_dual``), is a strong gcd-order; it must pass
    ``check_strong_gcd_order`` before the strong gcd slot is set to computed
    T.  Without such a validated order (no shelling, an undecided search, a
    ghosted complex, or a failed check) ``find_strong_gcd_order`` decides.
    When the dual has a shelling and is not void, every requested field
    records True in ``scm_by_field`` (each once, first-seen order) and the
    sequential CM slot is left to the closure's shelling rule: no link is
    swept.  Otherwise the dual is swept on its support: ghost vertices of the
    dual correspond to generators already present in the Stanley-Reisner
    ideal and do not change the quotient ring.  The fields are swept as
    ``homology.cm_reports`` says: each once, and Q not after a prime field
    has passed.  When the per-field verdicts disagree the slot stays
    undecided and the note records the split.  A search that runs out of
    ``orders.NODE_BUDGET`` leaves its slot unknown, with an "undecided" note,
    rather than guessing.  The flag bit, the dual and the strong gcd search
    all read the minimal non-faces of c, which the complex computes once (see
    ``minimal_nonfaces``).

    A flag complex with a non-void dual is decided from its 1-skeleton G
    (``complexes.chordal_certificate``), with no search and no sweep.

    * G chordal: its non-edges, sorted by a perfect elimination order and
      complemented, are a shelling of the dual
      (``orders.dual_shelling_from_elimination_order`` has the proof).  The
      order must pass ``check_shelling_order``; it then stands in for the
      search's shelling above.
    * G with a chordless cycle C of k >= 4 vertices: let tau be the other
      vertices.  The link of tau in the dual is the dual of the restriction
      of c to C, which is the k-cycle, a circle; it has dimension k - 3, and
      by Alexander duality its H~_{k-4} is Z.  The dual is pure (each facet
      is the complement of a non-edge), so that link makes it neither
      Cohen-Macaulay nor sequentially Cohen-Macaulay, over every field.  A
      ghost vertex of the dual would lie in every non-edge, and a hole has
      two disjoint ones, so the dual is the complex the sweep would test.
      The homology is computed over each requested field before the
      sequential CM slot is set to computed F and every field records
      False; the closure infers the other slots.

    When either certificate fails its check, the table is built as for any
    other complex.
    """
    table = FactTable(c, flag=is_flag(c), ghost_free=not c.has_ghost_vertices)
    dual = alexander_dual(c)

    shelling = None
    if table.flag and not dual.is_void:
        skeleton = chordal_certificate(c)
        if skeleton.chordal:
            order = dual_shelling_from_elimination_order(c, skeleton.vertices)
            shelling = order if check_shelling_order(dual, order) else None
        else:
            degree = _hole_witness(dual, skeleton.vertices, fields)
            if degree is not None:
                table.scm_by_field = dict.fromkeys((str(f) for f in fields), False)
                table._set("dual_seq_cm", FALSE, "computed",
                           "chordless cycle %s: the link of its complement has H~_%d != 0"
                           % ("-".join(map(str, skeleton.vertices)), degree))
                return close_under_rules(table)
    if shelling:
        table._set("dual_shellable", TRUE, "computed")
    else:
        try:
            shelling = find_shelling_order(dual)
            table._set("dual_shellable", TRUE if shelling else FALSE, "computed")
        except Undecided as e:
            table.slots["dual_shellable"].note = "undecided: %s" % e

    derived = shelling and table.ghost_free and gcd_order_from_dual(c, shelling)
    if derived and check_strong_gcd_order(c, derived):
        table._set("strong_gcd", TRUE, "computed")
    else:
        try:
            cert = find_strong_gcd_order(c)
            table._set("strong_gcd", TRUE if cert else FALSE, "computed")
        except Undecided as e:
            table.slots["strong_gcd"].note = "undecided: %s" % e

    if dual.is_void:
        table.slots["dual_seq_cm"].note = "dual is void; settled by inference if at all"
    elif shelling:
        # the closure's shelling-implies-seq-cm rule sets the slot
        table.scm_by_field = dict.fromkeys((str(f) for f in fields), True)
    else:
        support_dual = restrict_to_support(dual)
        reports = cm_reports(is_sequentially_cm, support_dual, fields)
        table.scm_by_field = verdicts = {str(f): rep.ok for f, rep in reports}
        vals = set(verdicts.values())
        if len(vals) == 1:
            table._set("dual_seq_cm", TRUE if vals.pop() else FALSE, "computed")
        else:
            table.slots["dual_seq_cm"].note = "field-dependent: %s" % verdicts

    if not table.flag:
        # placeholder; the closure may still upgrade it via an implication rule
        table.slots["golod"].value = OUT_OF_SCOPE
        table.slots["golod"].note = "no algebraic verification performed"

    return close_under_rules(table)


def _hole_witness(dual: Complex, cycle: tuple, fields: Sequence[Field]) -> Optional[int]:
    """d = dim L - 1 for the link L, in the dual, of the complement of a
    chordless cycle C, when H~_d(L) is nonzero over every requested field
    (and some field is requested); otherwise None.

    L is a link of a face, so a nonzero H~_d(L) with d < dim L shows the dual
    is not Cohen-Macaulay, whatever C is.  When C is a chordless k-cycle of a
    flag complex's 1-skeleton, L is the dual of a k-cycle, of dimension
    k - 3, and by Alexander duality its H~_{k-4} is Z.
    """
    tau = dual.universe.full_mask ^ dual.universe.mask(cycle)
    if not fields or not dual.contains(tau):
        return None
    around = link(dual, tau)
    degree = around.dim - 1
    if all(reduced_homology(around, f).rank(degree) > 0 for f in dict.fromkeys(fields)):
        return degree
    return None
