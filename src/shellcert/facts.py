"""Per-complex truth table for the four linked conditions, with provenance.

The four slots are: is the Alexander dual shellable, does the complex satisfy
the strong gcd-condition, is the dual sequentially Cohen-Macaulay, and is the
Stanley-Reisner ring Golod.  The table is built certificate-first: the one
search that runs on every complex is for a shelling of the dual, and when it
finds one the certificate settles the next two slots.  Reversed and
complemented, it is a strong gcd-order, which is validated before the slot is
set; and a shellable complex is sequentially Cohen-Macaulay over every field
(Bjorner-Wachs, "Shellable nonpure complexes and posets I", Trans. AMS 348
(1996)), so no link sweep runs.  Golodness is never verified algebraically
here.  Instead the known one-way implications act as inference rules,

    dual shellable  =>  strong gcd      dual shellable  =>  dual seq. CM
    strong gcd      =>  Golod           dual seq. CM    =>  Golod

and, on flag complexes only, the paper's theorem that all four conditions
are equivalent closes the cycle back to the first slot,

    strong gcd  =>  dual shellable      dual seq. CM  =>  dual shellable
    Golod       =>  dual shellable      (each named flag-equivalence)

so any decided slot of a flag complex settles the rest.  Each rule also
fires as its contrapositive.  The rules are closed before each computed
slot, so the strong gcd search and the dual's link sweep run only for a slot
the closure leaves undecided.  The dual of a flag complex is never searched:
``orders.find_shelling_order`` answers it from its graph, a chordless cycle
refuting a shelling and a perfect elimination order giving one.  Inferred
values never overwrite computed ones; a contradiction between the two
raises, it is a correctness failure.

The other three rules of the first diagram assume the complex has no ghost
vertices (a ghost vertex is a singleton minimal non-face, which gives the
dual a facet missing a single vertex and breaks the shelling-to-gcd
argument; a path of two edges has a shellable dual picture but no strong
gcd-order).  A flag complex has none.  For a ghosted complex only "dual
shellable => dual seq. CM" fires, and the strong gcd slot is searched even
when the dual is shellable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .complexes import Complex, InputError, alexander_dual, is_flag
from .homology import DEFAULT_FIELDS, Field, cm_reports, is_sequentially_cm
from .orders import (
    Undecided,
    check_strong_gcd_order,
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

# (premise slot, conclusion slot, rule name, the FactTable field it needs or None);
# premise T forces conclusion T, conclusion F forces premise F.
RULES = (
    ("dual_shellable", "strong_gcd", "dual-shelling-implies-gcd", "ghost_free"),
    ("dual_shellable", "dual_seq_cm", "shelling-implies-seq-cm", None),
    ("strong_gcd", "golod", "gcd-implies-golod", "ghost_free"),
    ("dual_seq_cm", "golod", "seq-cm-implies-golod", "ghost_free"),
    ("strong_gcd", "dual_shellable", "flag-equivalence", "flag"),
    ("dual_seq_cm", "dual_shellable", "flag-equivalence", "flag"),
    ("golod", "dual_shellable", "flag-equivalence", "flag"),
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
        for premise, conclusion, rule, needs in RULES:
            if needs and not getattr(table, needs):
                continue
            if table.slots[premise].value == TRUE:
                changed |= table._set(conclusion, TRUE, "inferred:" + rule)
            if table.slots[conclusion].value == FALSE:
                changed |= table._set(premise, FALSE, "inferred:" + rule)
    return table


def build_fact_table(c: Complex, fields: Sequence[Field] = DEFAULT_FIELDS) -> FactTable:
    """Search the dual for a shelling, settle what its certificate settles,
    and compute each remaining slot that the inference closure leaves open.

    A shelling of the dual of a ghost-free complex, reversed and complemented
    (``orders.gcd_order_from_dual``), is a strong gcd-order; it must pass
    ``check_strong_gcd_order`` before the strong gcd slot is set to computed
    T, and a rejection raises FactConflict, since it contradicts the theorem
    the order rests on.  Without such an order (no shelling, an undecided
    search or a ghosted complex) ``find_strong_gcd_order`` decides, unless
    the closure already has.  When the closure has decided the sequential
    CM slot, every requested field records that value in ``scm_by_field``
    (each once, first-seen order); nothing is recorded for the full simplex,
    whose void dual has the empty shelling.  Otherwise the dual is swept as
    it is: a ghost vertex of the dual lies in no face, so the sweep gives
    the report of its support, and its generator, already in the
    Stanley-Reisner ideal, does not change the quotient ring.  The fields
    are swept as ``homology.cm_reports`` says: each once, and Q not after a
    prime field has passed.  When the per-field verdicts disagree the slot
    stays undecided and the note records the split.  An empty list of
    fields raises InputError.  A search that runs out of
    ``orders.NODE_BUDGET`` leaves its slot unknown, with an "undecided"
    note, rather than guessing.  The flag bit, the dual and the strong gcd
    search all read the minimal non-faces of c, which the complex computes
    once (see ``minimal_nonfaces``).
    """
    if not fields:
        raise InputError("the fact table needs at least one field")
    table = FactTable(c, flag=is_flag(c), ghost_free=not c.has_ghost_vertices)
    # placeholder; the closure may still upgrade it via an implication rule
    table.slots["golod"].value = OUT_OF_SCOPE
    table.slots["golod"].note = "no algebraic verification performed"
    dual = alexander_dual(c)
    slots = table.slots

    shelling = None
    try:
        shelling = find_shelling_order(dual)
        table._set("dual_shellable", TRUE if shelling else FALSE, "computed")
    except Undecided as e:
        slots["dual_shellable"].note = "undecided: %s" % e
    if shelling and table.ghost_free:
        if not check_strong_gcd_order(c, gcd_order_from_dual(c, shelling)):
            raise FactConflict("the dual's shelling, reversed and complemented, "
                               "is not a strong gcd-order")
        table._set("strong_gcd", TRUE, "computed")
    close_under_rules(table)

    if not slots["strong_gcd"].decided:
        try:
            table._set("strong_gcd", TRUE if find_strong_gcd_order(c) else FALSE, "computed")
        except Undecided as e:
            slots["strong_gcd"].note = "undecided: %s" % e
        close_under_rules(table)

    seq_cm = slots["dual_seq_cm"]
    if seq_cm.decided:
        if not dual.is_void:
            table.scm_by_field = dict.fromkeys((str(f) for f in fields), seq_cm.value == TRUE)
        return table
    reports = cm_reports(is_sequentially_cm, dual, fields)
    table.scm_by_field = verdicts = {str(f): rep.ok for f, rep in reports}
    vals = set(verdicts.values())
    if len(vals) == 1:
        table._set("dual_seq_cm", TRUE if vals.pop() else FALSE, "computed")
        close_under_rules(table)
    else:
        seq_cm.note = "field-dependent: %s" % verdicts
    return table
