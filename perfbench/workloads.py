"""The three workloads as lists of operations, each with its correctness check.

An operation is one call into shellcert's public API.  Its check compares
the output with facts the benchmark establishes without the code under test:
the brute-force and face-count computations of ``oracle``, facts known
from the literature or from how an input was built, and theorems that tie
two outputs together (a shelling order implies sequential Cohen-Macaulayness,
universal coefficients, Euler-Poincare).  Certificates are re-validated with
the program's ``check_*`` validators, which are independent of its searches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import inputs
import oracle

FIELD_NAMES = ("GF(2)", "GF(3)", "Q")


class Wrong(Exception):
    """A program output contradicts an independent check."""


def require(cond, message, *args):
    if not cond:
        raise Wrong(message % args if args else message)


@dataclass
class Op:
    """One program call, timed; ``check`` runs after the clock stops.

    ``weight`` is how many operations of the workload's throughput unit the
    call stands for (screened candidates for a hunt call, else 1).
    ``replay``, when set, re-issues the call as the layer calls it is made of;
    only the traced run uses it.
    """

    name: str
    call: Callable
    check: Callable
    weight: Callable = lambda out: 1
    replay: Optional[Callable] = None


@dataclass
class Context:
    """Program handles plus state that checks share across operations.

    ``memo`` caches oracle answers for the whole run; ``outputs`` holds the
    current round's outputs for cross-operation checks; ``first`` holds the
    first round's answer of each operation for determinism checks.
    """

    sc: object
    memo: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)

    def oracle(self, key, fn, *args):
        if key not in self.memo:
            self.memo[key] = fn(*args)
        return self.memo[key]


def build(sc, spec: inputs.Spec):
    """Hand one input to the program as a document, facet list or non-face list."""
    faces = spec.facets if spec.nonfaces is None else spec.nonfaces
    rows = [sorted(f) for f in faces]
    if spec.via == "json":
        key = "facets" if spec.nonfaces is None else "nonfaces"
        return sc.parse_complex(json.dumps({"vertices": list(spec.vertices), key: rows}))
    u = sc.VertexSet.of(spec.vertices)
    if spec.via == "nonfaces":
        return sc.from_minimal_nonfaces(u, rows)
    return sc.from_facets(u, rows)


def program_fields(sc) -> dict:
    return {"GF(2)": sc.GF2, "GF(3)": sc.Field.gf(3), "Q": sc.QQ}


# ---------------------------------------------------------------- oracle facts

def spec_facts(ctx: Context, spec: inputs.Spec) -> dict:
    """Face-level facts of an input, computed once per run."""
    def compute():
        facets = spec.facet_sets()
        nonfaces = oracle.minimal_nonfaces(spec.vertices, facets)
        return {
            "facets": facets,
            "faces": oracle.faces(facets),
            "f_vector": oracle.f_vector(facets),
            "euler": oracle.reduced_euler(facets),
            "cells": oracle.boundary_cells(facets),
            "dim": max(len(f) for f in facets) - 1,
            "nonfaces": nonfaces,
            "dual": oracle.complements(spec.vertices, nonfaces),
            "flag": all(len(n) == 2 for n in nonfaces),
            "ghost_free": frozenset().union(*facets) == frozenset(spec.vertices),
        }
    return ctx.oracle(("facts", spec.name), compute)


def brute(ctx: Context, kind: str, spec: inputs.Spec) -> Optional[bool]:
    """Existence of an order by brute force, or None when the input is too large."""
    f = spec_facts(ctx, spec)
    items = {"shelling": f["facets"], "weak": f["facets"],
             "dual-shelling": f["dual"], "gcd": f["nonfaces"]}[kind]
    if len(items) > oracle.BRUTE_FORCE_MAX:
        return None
    fn = {"shelling": oracle.shelling_order_exists,
          "weak": lambda fs: oracle.weak_order_exists(spec.vertices, fs),
          "dual-shelling": oracle.shelling_order_exists,
          "gcd": oracle.gcd_order_exists}[kind]
    return ctx.oracle(("brute", kind, spec.name), fn, items)


def as_sets(c) -> tuple:
    return tuple(frozenset(m) for m in c.facet_members())


# --------------------------------------------------------------------- decide

def _validate(ctx, tr, checker_name, c, cert):
    sc = ctx.sc
    try:
        report = tr.call("orders." + checker_name, getattr(sc, checker_name), c, cert)
    except sc.InputError as e:
        raise Wrong("certificate is not a permutation: %s" % e)
    require(report.ok, "%s rejects the certificate: %r", checker_name, report.witness)


def _scm_both(ctx, tr, spec, c) -> bool:
    sc = ctx.sc
    def compute():
        return all(tr.call("homology.is_sequentially_cm", sc.is_sequentially_cm, c, f).ok
                   for f in (sc.GF2, sc.QQ))
    return ctx.oracle(("scm-both", spec.name), compute)


def table_op(ctx: Context, spec: inputs.Spec, c) -> Op:
    sc = ctx.sc

    def call(tr):
        return tr.call("facts.build_fact_table", sc.build_fact_table, c)

    def check(table, tr):
        f = spec_facts(ctx, spec)
        require(table.flag == f["flag"], "flag is %s, expected %s", table.flag, f["flag"])
        require(table.ghost_free == f["ghost_free"], "ghost_free is %s", table.ghost_free)
        computed = {n: s.value for n, s in table.slots.items() if s.provenance == "computed"}
        if f["flag"]:
            require(len(set(computed.values())) <= 1,
                    "flag complex with unequal computed slots %r", computed)
        scm = table.scm_by_field
        if computed.get("dual_shellable") == "T":
            require(scm and all(scm.values()), "shellable dual but not sequentially CM: %r", scm)
            if f["ghost_free"]:
                require(table.value("strong_gcd") == "T", "shellable dual but no strong gcd-order")
        if scm.get("GF(2)"):
            require(scm.get("Q"), "sequentially CM over GF(2) but not over Q")
        for slot, kind in (("dual_shellable", "dual-shelling"), ("strong_gcd", "gcd")):
            if slot in computed:
                exists = brute(ctx, kind, spec)
                if exists is not None:
                    require(computed[slot] == ("T" if exists else "F"),
                            "%s is %s, brute force says %s", slot, computed[slot], exists)
        for slot, value in spec.known.get("table", {}).items():
            require(table.value(slot) == value, "%s is %s, known %s",
                    slot, table.value(slot), value)
        for name, value in spec.known.get("scm_by_field", {}).items():
            require(scm.get(name) == value, "dual seq. CM over %s is %s, known %s",
                    name, scm.get(name), value)

    def replay(tr):
        """The public calls build_fact_table is made of, one by one."""
        dual = tr.call("complexes.alexander_dual", sc.alexander_dual, c,
                       note=lambda d: {"nonfaces": len(d.facets)})
        _find(tr, sc, "find_shelling_order", dual, len(dual.facets))
        _find(tr, sc, "find_strong_gcd_order", c, len(dual.facets))
        if not dual.is_void:
            support = tr.call("complexes.restrict_to_support", sc.restrict_to_support, dual)
            nfaces = len(oracle.faces(as_sets(support)))
            for fld in (sc.GF2, sc.QQ):
                tr.call("homology.is_sequentially_cm", sc.is_sequentially_cm, support, fld,
                        field=str(fld), faces=nfaces, note=lambda r: {"witness": not r.ok})

    return Op("table:" + spec.name, call, check, replay=replay)


def _find(tr, sc, fn_name, c, nitems):
    try:
        return tr.call("orders." + fn_name, getattr(sc, fn_name), c, facets=nitems,
                       note=lambda r: {"found": r is not None})
    except sc.Undecided:
        return None


def find_op(ctx: Context, kind: str, spec: inputs.Spec, c) -> Op:
    """find_shelling_order / find_weak_shelling_order / find_strong_gcd_order on one input."""
    sc = ctx.sc
    fn_name, checker, brute_kind = {
        "shelling": ("find_shelling_order", "check_shelling_order", "shelling"),
        "weak": ("find_weak_shelling_order", "check_weak_shelling_order", "weak"),
        "sgcd": ("find_strong_gcd_order", "check_strong_gcd_order", "gcd"),
    }[kind]

    def call(tr):
        nitems = 0
        if tr.enabled:
            nitems = len(spec_facts(ctx, spec)["nonfaces"] if kind == "sgcd" else c.facets)
        return tr.call("orders." + fn_name, getattr(sc, fn_name), c, facets=nitems,
                       note=lambda r: {"found": r is not None})

    def check(cert, tr):
        known = spec.known.get("shellable") if kind == "shelling" else None
        if cert is None:
            require(known is not True, "no shelling order reported for a shellable complex")
            exists = brute(ctx, brute_kind, spec)
            require(not exists, "no %s order reported, brute force finds one", kind)
            if kind == "weak":
                f = spec_facts(ctx, spec)
                full = frozenset(spec.vertices)
                require(any(a | b == full for a in f["facets"] for b in f["facets"] if a != b),
                        "no weak order reported, yet no two facets cover the vertices")
            return
        _validate(ctx, tr, checker, c, cert)
        if kind == "shelling":
            require(_scm_both(ctx, tr, spec, c),
                    "validated shelling order but not sequentially CM over GF(2) and Q")

    return Op("find_%s:%s" % (kind, spec.name), call, check)


def claims_op(ctx: Context) -> Op:
    sc = ctx.sc

    def call(tr):
        return tr.call("verify.run_claims", sc.run_claims)

    def check(results, tr):
        require(results, "no claims evaluated")
        failed = [r.name for r in results if not r.passed]
        require(not failed, "catalog claims failed: %r", failed)

    return Op("run_claims", call, check)


def decide_ops(ctx: Context, specs: dict, built: dict) -> list:
    ops = [table_op(ctx, s, built[s.name]) for s in specs["catalog"] + specs["random"] + specs["flag"]]
    for s in specs["random"]:
        ops += [find_op(ctx, kind, s, built[s.name]) for kind in ("shelling", "weak", "sgcd")]
    ops.append(claims_op(ctx))
    k48 = specs["k48"]
    ops.append(find_op(ctx, "shelling", k48, built[k48.name]))
    return ops


# ------------------------------------------------------------------- homology

def homology_ops(ctx: Context, specs: list, built: dict) -> list:
    """Per input: ranks over GF(2), GF(3), Q; CM and sequential CM over GF(2) and Q."""
    ops = []
    for spec in specs:
        c = built[spec.name]
        for name in FIELD_NAMES:
            ops.append(rank_op(ctx, spec, c, name))
        for kind in ("cm", "scm"):
            for name in ("GF(2)", "Q"):
                ops.append(cm_op(ctx, spec, c, kind, name))
    return ops


def rank_op(ctx, spec, c, fname) -> Op:
    sc = ctx.sc
    fld = program_fields(sc)[fname]

    def call(tr):
        return tr.call("homology.reduced_homology", sc.reduced_homology, c, fld, field=fname,
                       cells=spec_facts(ctx, spec)["cells"] if tr.enabled else 0)

    def check(prof, tr):
        f = spec_facts(ctx, spec)
        ranks = dict(prof.ranks)
        require(sorted(ranks) == list(range(-1, f["dim"] + 1)), "degrees %r", sorted(ranks))
        for d, r in ranks.items():
            require(0 <= r <= f["f_vector"].get(d, 0), "rank %d in degree %d", r, d)
        alt = sum(r if d % 2 == 0 else -r for d, r in ranks.items())
        require(alt == f["euler"], "Euler-Poincare: ranks give %d, face counts %d", alt, f["euler"])
        known = spec.known.get("homology", {}).get(fname)
        if known is not None:
            require(all(ranks[d] == known.get(d, 0) for d in ranks),
                    "ranks %r over %s, known %r", ranks, fname, known)
        ctx.outputs[(spec.name, "rank", fname)] = ranks
        if fname == "Q":
            for p in ("GF(2)", "GF(3)"):
                other = ctx.outputs.get((spec.name, "rank", p))
                if other is not None:
                    require(all(other[d] >= ranks[d] for d in ranks),
                            "rank over %s %r below rank over Q %r", p, other, ranks)

    return Op("rank:%s:%s" % (spec.name, fname), call, check)


def cm_op(ctx, spec, c, kind, fname) -> Op:
    sc = ctx.sc
    fld = program_fields(sc)[fname]
    fn_name = "is_cohen_macaulay" if kind == "cm" else "is_sequentially_cm"

    def call(tr):
        return tr.call("homology." + fn_name, getattr(sc, fn_name), c, fld, field=fname,
                       faces=len(spec_facts(ctx, spec)["faces"]) if tr.enabled else 0,
                       note=lambda r: {"witness": not r.ok})

    def check(report, tr):
        f = spec_facts(ctx, spec)
        require(report.degenerate is None, "degenerate report %r", report.degenerate)
        if not report.ok:
            w = report.witness
            require(w is not None, "negative verdict without a witness")
            face = frozenset(w.face)
            require(face in f["faces"], "witness %r is not a face", w.face)
            require(w.rank > 0 and -1 <= w.degree < oracle.link_dim(f["facets"], face),
                    "witness %r is not below the link dimension", w)
        known = spec.known.get(kind, {}).get(fname)
        if known is not None:
            require(report.ok == known, "%s over %s is %s, known %s", kind, fname, report.ok, known)
        ranks = ctx.outputs.get((spec.name, "rank", fname))
        if kind == "cm" and ranks is not None and any(ranks[d] for d in ranks if d < f["dim"]):
            require(not report.ok, "CM over %s despite homology below the top degree", fname)
        if kind == "scm" and ctx.outputs.get((spec.name, "cm", fname)):
            require(report.ok, "CM over %s but not sequentially CM", fname)
        if fname == "Q" and ctx.outputs.get((spec.name, kind, "GF(2)")):
            require(report.ok, "%s over GF(2) but not over Q", kind)
        ctx.outputs[(spec.name, kind, fname)] = report.ok

    return Op("%s:%s:%s" % (kind, spec.name, fname), call, check)


# ----------------------------------------------------------------------- hunt

def _screened(report) -> int:
    c = report.counts
    return sum(c.values()) - c.get("degenerate", 0) - c.get("oversized-facet", 0)


def hunt_op(ctx: Context, seed: int, budget: int) -> Op:
    sc = ctx.sc
    name = "hunt:%d:%d" % (seed, budget)

    def call(tr):
        return tr.call("hunt.hunt_counterexample", sc.hunt_counterexample, seed, budget,
                       note=lambda r: {"counts": dict(r.counts)})

    def check(report, tr):
        counts = dict(report.counts)
        require(all(n >= 0 for n in counts.values()), "negative stage count %r", counts)
        require(sum(counts.values()) == budget, "stage counts %r do not sum to %d", counts, budget)
        require(counts.get("hit", 0) == len(report.hits), "hit count %r, %d hits listed",
                counts.get("hit"), len(report.hits))
        answer = (counts, [as_sets(h) for h in report.hits])
        first = ctx.first.setdefault(name, answer)
        require(answer == first, "seed %d gave a different report than before", seed)
        for hit in report.hits:
            _recheck_hit(ctx, tr, hit)

    return Op(name, call, check, weight=_screened)


def _recheck_hit(ctx, tr, hit):
    sc = ctx.sc
    facets = as_sets(hit)
    full = frozenset(hit.universe.labels)
    require(all(len(f) <= len(full) - 2 for f in facets), "hit has an oversized facet")
    require(any(a | b == full for a in facets for b in facets), "hit is trivially weakly shellable")
    if len(facets) <= oracle.BRUTE_FORCE_MAX:
        require(not oracle.weak_order_exists(tuple(full), facets), "hit has a weak shelling order")
    for fld in (sc.GF2, sc.QQ):
        require(tr.call("homology.is_sequentially_cm", sc.is_sequentially_cm, hit, fld).ok,
                "hit is not sequentially CM over %s", fld)


def hunt_ops(ctx: Context, runs) -> list:
    return [hunt_op(ctx, seed, budget) for seed, budget in runs]
