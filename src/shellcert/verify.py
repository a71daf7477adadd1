"""Machine-checkable verification of the bundled catalog claims.

Each claim re-derives one documented property of a catalog complex with the
engine and compares against the recorded expectation.  The result is a list
of named pass/fail records; the CLI turns any failure into a nonzero exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations

from . import catalog
from .complexes import alexander_dual, is_flag, link, minimal_nonfaces, pure_skeleton
from .facts import OUT_OF_SCOPE, build_fact_table
from .homology import GF2, QQ, is_cohen_macaulay, is_sequentially_cm, reduced_homology
from .orders import (
    check_shelling_order,
    check_strong_gcd_order,
    find_shelling_order,
    find_strong_gcd_order,
    find_weak_shelling_order,
    is_trivially_weakly_shellable,
)

__all__ = ["ClaimResult", "run_claims"]


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str = ""


def _claims():
    w = catalog.strong_gcd_witness()
    wd = alexander_dual(w)
    u6 = w.universe

    yield ("gcd-witness: bundled non-face order is a strong gcd-order",
           lambda: (bool(check_strong_gcd_order(w, [u6.mask(m) for m in catalog.strong_gcd_witness_nonface_order()])), ""))

    yield ("gcd-witness: dual facets are {1,2,3}, {3,4,5}, {4,5,6}",
           lambda: (wd.facet_members() == [(1, 2, 3), (3, 4, 5), (4, 5, 6)], repr(wd.facet_members())))

    def no_shelling_both_ways():
        dp = find_shelling_order(wd) is None
        brute = not any(bool(check_shelling_order(wd, p)) for p in permutations(wd.facets))
        return dp and brute, "dp=%s brute=%s" % (dp, brute)

    yield ("gcd-witness: dual has no shelling order (all 6 orders and subset search agree)",
           no_shelling_both_ways)

    def dual_cm_witness():
        for f in (GF2, QQ):
            rep = is_cohen_macaulay(wd, f)
            if rep.ok or rep.witness is None:
                return False, "unexpectedly Cohen-Macaulay over %s" % f
            if rep.witness.face != (3,) or rep.witness.degree != 0 or rep.witness.rank != 1:
                return False, repr(rep.witness)
        lk = link(wd, {3})
        return lk.facet_members() == [(1, 2), (4, 5)], repr(lk.facet_members())

    yield ("gcd-witness: dual fails the link test at vertex 3 with a disconnected link", dual_cm_witness)

    d = catalog.dunce_hat()

    yield ("dunce hat: Cohen-Macaulay over GF(2) and Q",
           lambda: (bool(is_cohen_macaulay(d, GF2)) and bool(is_cohen_macaulay(d, QQ)), ""))

    yield ("dunce hat: no shelling order (pure, every ridge in two facets, no top GF(2) cycle)",
           lambda: (find_shelling_order(d) is None, ""))

    yield ("dunce hat: trivially weakly shellable (8 vertices >= 2*2 + 3)",
           lambda: (is_trivially_weakly_shellable(d) and d.universe.n >= 2 * d.dim + 3, ""))

    g = catalog.gcd_violator()
    gd = alexander_dual(g)

    def no_gcd_exhaustive():
        nf = minimal_nonfaces(g)
        brute = not any(bool(check_strong_gcd_order(g, p)) for p in permutations(nf))
        reduced = find_strong_gcd_order(g) is None
        return brute and reduced, "brute=%s dual-reduction=%s" % (brute, reduced)

    yield ("gcd-violator: no strong gcd-order (all 720 orders and the dual reduction agree)",
           no_gcd_exhaustive)

    def top_skeleton_not_cm():
        gamma = pure_skeleton(gd, 5)
        return (not is_cohen_macaulay(gamma, GF2) and not is_cohen_macaulay(gamma, QQ)), ""

    yield ("gcd-violator: pure top skeleton of the dual is not Cohen-Macaulay over either field",
           top_skeleton_not_cm)

    yield ("gcd-violator: dual is not sequentially Cohen-Macaulay",
           lambda: (not is_sequentially_cm(gd, GF2) and not is_sequentially_cm(gd, QQ), ""))

    k = catalog.pentagon_circle()

    def pentagon_homology():
        for f in (GF2, QQ):
            prof = reduced_homology(k, f)
            if prof.rank(0) != 0 or prof.rank(1) != 1:
                return False, str(prof)
        return True, ""

    yield ("pentagon: reduced homology ranks are (0, 1) in degrees (0, 1) over both fields",
           pentagon_homology)

    yield ("pentagon: flag; gcd-witness: not flag",
           lambda: (is_flag(k) and not is_flag(w), ""))

    p = catalog.projective_plane()

    yield ("projective plane: weakly shellable (a weak shelling order exists)",
           lambda: (find_weak_shelling_order(p) is not None, ""))

    def pp_field_split():
        over_q = bool(is_cohen_macaulay(p, QQ))
        over_2 = bool(is_cohen_macaulay(p, GF2))
        return over_q and not over_2, "Q=%s GF(2)=%s" % (over_q, over_2)

    yield ("projective plane: Cohen-Macaulay over Q but not over GF(2)", pp_field_split)

    def violator_dual_not_weak():
        # weak shellability of the dual is equivalent to the gcd-condition of g
        return find_weak_shelling_order(gd) is None, ""

    yield ("gcd-violator: dual admits no weak shelling order", violator_dual_not_weak)

    for name, claimed in catalog.CLAIMS.items():
        # a "claim:" value is recorded, not computed: the engine must leave it out of scope
        expected = tuple(OUT_OF_SCOPE if v.startswith("claim:") else v for v in claimed)
        yield ("%s: fact table is (%s)" % (name, ", ".join(expected)),
               partial(_fact_row_matches, name, expected))


def _fact_row_matches(name: str, expected: tuple):
    got = build_fact_table(catalog.FIXTURES[name]()).values()
    return got == expected, repr(got)


def run_claims() -> list:
    """Evaluate every catalog claim; returns ClaimResult records in order."""
    results = []
    for name, thunk in _claims():
        try:
            ok, detail = thunk()
        except Exception as e:  # a crash is a failing claim, not a crash of the suite
            ok, detail = False, "error: %r" % e
        results.append(ClaimResult(name, bool(ok), detail))
    return results
