"""Benchmark inputs: literature complexes and seeded random families.

Everything here is plain data (vertex labels and label sets) made with the
benchmark's own ``random.Random`` code, so no change to ``shellcert`` can
change what the ``decide`` and ``homology`` workloads are asked.  The program
receives the inputs in ``run.py`` as JSON documents, facet lists or minimal
non-face lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Optional

import oracle


@dataclass
class Spec:
    """One input complex, as data the program never produced.

    ``via`` names how the program receives it: ``"json"`` through
    ``parse_complex``, ``"facets"`` through ``from_facets`` and
    ``"nonfaces"`` through ``from_minimal_nonfaces``.  ``known`` holds facts
    established outside this program (literature or construction), keyed by
    the check that uses them.
    """

    name: str
    vertices: tuple
    facets: Optional[tuple] = None
    nonfaces: Optional[tuple] = None
    via: str = "facets"
    known: dict = field(default_factory=dict)

    def facet_sets(self) -> tuple:
        """Facets as label frozensets, derived here when given by non-faces."""
        if self.facets is None:
            self.facets = oracle.facets_from_nonfaces(self.vertices, self.nonfaces)
        return self.facets


def _sets(rows) -> tuple:
    return tuple(frozenset(r) for r in rows)


# The classical 8-vertex, 17-triangle dunce hat: contractible, Cohen-Macaulay
# over every field, not shellable.
DUNCE_HAT = _sets([
    (1, 2, 4), (1, 2, 7), (1, 2, 8), (1, 3, 4), (1, 3, 5), (1, 3, 6),
    (1, 5, 6), (1, 7, 8), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 4, 5),
    (3, 4, 8), (3, 6, 7), (4, 5, 6), (4, 6, 8), (6, 7, 8),
])
# The 6-vertex, 10-triangle real projective plane.  Its ten missing triangles
# form a second copy of it, so it is also (up to relabelling) its own dual.
PROJECTIVE_PLANE = _sets([
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
])
# The paper's example: strong gcd-condition holds, dual neither shellable nor CM.
GCD_WITNESS_NONFACES = _sets([(1, 2, 3), (1, 2, 6), (4, 5, 6)])
# The paper's 10-vertex complex with no strong gcd-order and a dual that is
# not sequentially Cohen-Macaulay.
GCD_VIOLATOR_NONFACES = _sets([
    (0, 1, 5, 6), (1, 2, 6, 7), (2, 3, 7, 8), (3, 4, 8, 9), (0, 4, 5, 9), (5, 6, 7, 8, 9),
])
PENTAGON_NONFACES = _sets([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

# Reduced homology ranks by degree (absent degrees are 0) and CM verdicts by
# field name ("GF(2)", "GF(3)", "Q").
_ACYCLIC = {"GF(2)": {}, "GF(3)": {}, "Q": {}}
_CM_BOTH = {"GF(2)": True, "Q": True}
_SPACE_FACTS = {
    "projective-plane": {
        "homology": {"GF(2)": {1: 1, 2: 1}, "GF(3)": {}, "Q": {}},
        "cm": {"GF(2)": False, "Q": True},
        "scm": {"GF(2)": False, "Q": True},
    },
    "dunce-hat": {"homology": _ACYCLIC, "cm": _CM_BOTH, "scm": _CM_BOTH},
    "pentagon": {
        "homology": {f: {1: 1} for f in ("GF(2)", "GF(3)", "Q")},
        "cm": _CM_BOTH, "scm": _CM_BOTH,
    },
}


def catalog_specs() -> list:
    """The eight catalog fixtures, duals built from this module's own data."""
    wit_v, vio_v = tuple(range(1, 7)), tuple(range(10))
    dunce_v = tuple(range(1, 9))
    dunce_dual = oracle.dual_facets(dunce_v, DUNCE_HAT)
    return [
        Spec("strong-gcd-witness", wit_v, nonfaces=GCD_WITNESS_NONFACES, via="json",
             known={"table": {"dual_shellable": "F", "strong_gcd": "T", "dual_seq_cm": "F"}}),
        Spec("strong-gcd-witness-dual", wit_v,
             facets=oracle.complements(wit_v, GCD_WITNESS_NONFACES), via="json"),
        Spec("dunce-hat", dunce_v, facets=DUNCE_HAT, via="json"),
        # its dual's dual is the dunce hat: not shellable, sequentially CM
        Spec("dunce-hat-dual", dunce_v, facets=dunce_dual, via="json",
             known={"table": {"dual_shellable": "F", "dual_seq_cm": "T"}}),
        Spec("gcd-violator", vio_v, nonfaces=GCD_VIOLATOR_NONFACES, via="json",
             known={"table": {"strong_gcd": "F", "dual_seq_cm": "F"}}),
        Spec("gcd-violator-dual", vio_v,
             facets=oracle.complements(vio_v, GCD_VIOLATOR_NONFACES), via="json"),
        # the 5-gon's Stanley-Reisner ring is Gorenstein of codimension 3,
        # hence not Golod; the complex is flag, so every slot is F
        Spec("pentagon", tuple(range(5)), nonfaces=PENTAGON_NONFACES, via="json",
             known={"table": {"dual_shellable": "F", "strong_gcd": "F", "dual_seq_cm": "F"}}),
        Spec("projective-plane", tuple(range(6)), facets=PROJECTIVE_PLANE, via="json",
             known={"table": {"dual_shellable": "F"},
                    "scm_by_field": {"GF(2)": False, "Q": True}}),
    ]


def space_specs() -> list:
    """Catalog spaces with known homology and Cohen-Macaulay verdicts."""
    return [
        Spec("projective-plane", tuple(range(6)), facets=PROJECTIVE_PLANE, via="json",
             known=_SPACE_FACTS["projective-plane"]),
        Spec("dunce-hat", tuple(range(1, 9)), facets=DUNCE_HAT, via="json",
             known=_SPACE_FACTS["dunce-hat"]),
        Spec("pentagon", tuple(range(5)), nonfaces=PENTAGON_NONFACES, via="json",
             known=_SPACE_FACTS["pentagon"]),
    ]


def complete_graph(n: int) -> Spec:
    """The 1-skeleton of the simplex on n vertices: connected, hence shellable."""
    v = tuple(range(n))
    return Spec("K%d-edges" % n, v, facets=_sets(combinations(v, 2)),
                known={"shellable": True})


def _maximal(sets) -> tuple:
    uniq = set(sets)
    return tuple(sorted((s for s in uniq if not any(s < t for t in uniq)),
                        key=lambda s: (len(s), sorted(s))))


#: Random decide inputs have at most this many facets and minimal non-faces, so
#: every search on them (at most 2^12 prefix sets) stays a small share of a round.
DECIDE_MAX_ITEMS = 12


def random_complex(rng: random.Random, name: str, n: int, density: float) -> Spec:
    """Facets kept from random candidate faces; ghost-free, 3 to 12 facets and
    at most 12 minimal non-faces."""
    v = tuple(range(1, n + 1))
    while True:
        cands = [frozenset(x for x in v if rng.random() < density)
                 for _ in range(rng.randint(n // 2 + 1, 2 * n))]
        facets = _maximal(c for c in cands if c)
        if (3 <= len(facets) <= DECIDE_MAX_ITEMS
                and frozenset().union(*facets) == frozenset(v)
                and len(oracle.minimal_nonfaces(v, facets)) <= DECIDE_MAX_ITEMS):
            return Spec(name, v, facets=facets)


def random_flag(rng: random.Random, name: str, n: int, nonedges: int) -> Spec:
    """Clique complex of a random graph with exactly ``nonedges`` non-edges,
    handed over by its non-edges (so its dual has that many facets)."""
    v = tuple(range(1, n + 1))
    missing = _sets(rng.sample(list(combinations(v, 2)), nonedges))
    return Spec(name, v, nonfaces=missing, via="nonfaces")


def random_pure(rng: random.Random, name: str, n: int, k: int, faces: int) -> Spec:
    """Random k-subsets added until the complex has at least ``faces`` faces."""
    if faces > sum(comb(n, i) for i in range(k + 1)):
        raise ValueError("no %d-vertex complex of dimension %d has %d faces" % (n, k - 1, faces))
    v = tuple(range(n))
    facets: list = []
    seen: set = set()
    while True:
        facets.append(frozenset(rng.sample(v, k)))
        seen.update(oracle.subsets(facets[-1]))
        if len(seen) >= faces and frozenset().union(*facets) == frozenset(v):
            return Spec(name, v, facets=_maximal(facets))


def random_shellable(rng: random.Random, name: str, n: int, k: int, m: int,
                     nonpure: bool) -> Spec:
    """A complex grown along a shelling order, so it is shellable by construction.

    Each step proposes a facet near an earlier one and keeps it when its
    intersection with the earlier facets is pure of codimension one.  By
    Bjorner-Wachs the result is sequentially Cohen-Macaulay over every field
    (Cohen-Macaulay when pure), and its reduced homology has one generator
    in degree dim F for each facet F whose restriction is all of F.
    """
    v = tuple(range(n))
    order: list = []
    while len(order) < m:  # start over if the growth gets stuck
        order = [frozenset(rng.sample(v, k))]
        for _ in range(100 * m):
            if len(order) == m:
                break
            size = rng.choice((k, k - 1, k - 2)) if nonpure else k
            base = rng.choice(order)
            keep = frozenset(rng.sample(sorted(base), min(size - 1, len(base))))
            new = keep | {rng.choice([x for x in v if x not in keep])}
            if len(new) != size or any(new <= g or g <= new for g in order):
                continue
            if oracle.shelling_step_ok(order, new):
                order.append(new)
    homology: dict = {}
    for j, facet in enumerate(order):
        if j and oracle.restriction(order[:j], facet) == facet:
            homology[len(facet) - 1] = homology.get(len(facet) - 1, 0) + 1
    known = {"homology": {f: homology for f in ("GF(2)", "GF(3)", "Q")},
             "scm": {"GF(2)": True, "Q": True}}
    if not nonpure:
        known["cm"] = {"GF(2)": True, "Q": True}
    return Spec(name, v, facets=tuple(order), known=known)


def decide_specs(seed: int) -> dict:
    """Inputs of the ``decide`` workload for one workload seed."""
    rng = random.Random("decide:%d" % seed)
    randoms = [random_complex(rng, "random-%d" % i, n, rng.uniform(0.45, 0.65))
               for i, n in enumerate((6, 6, 7, 7, 7, 8, 8, 8))]
    flags = [random_flag(rng, "flag-%d" % i, n, m)
             for i, (n, m) in enumerate(((7, 10), (7, 10), (7, 10), (8, 12), (8, 12), (8, 12)))]
    return {"catalog": catalog_specs(), "random": randoms, "flag": flags,
            "k48": complete_graph(48)}


def simplex_skeleton(n: int, k: int) -> Spec:
    """All k-subsets of n vertices: shellable, with H~_{k-1} of rank C(n-1, k)."""
    v = tuple(range(n))
    ranks = {k - 1: comb(n - 1, k)}
    return Spec("skeleton-%d-%d" % (n, k), v, facets=_sets(combinations(v, k)),
                known={"homology": {f: ranks for f in ("GF(2)", "GF(3)", "Q")},
                       "cm": {"GF(2)": True, "Q": True}, "scm": {"GF(2)": True, "Q": True}})


def homology_specs(seed: int) -> list:
    """Inputs of the ``homology`` workload for one workload seed."""
    rng = random.Random("homology:%d" % seed)
    dense = [random_pure(rng, "pure-%d" % i, n, k, faces)
             for i, (n, k, faces) in enumerate(((10, 5, 450), (10, 5, 450), (11, 5, 600),
                                                (11, 5, 600), (12, 5, 700), (12, 5, 700),
                                                (11, 6, 800), (11, 6, 800)))]
    shellable = [random_shellable(rng, "shellable-%d" % i, n, k, m, nonpure)
                 for i, (n, k, m, nonpure) in enumerate(((10, 5, 30, False), (11, 5, 40, False),
                                                          (12, 5, 40, False), (11, 6, 30, True),
                                                          (12, 5, 50, True), (12, 6, 40, True)))]
    return dense + shellable + space_specs() + [simplex_skeleton(11, 4)]


# Fixed (hunt seed, budget) pairs; the workload seed only shuffles their order.
HUNT_RUNS = ((1, 500), (3, 200), (4, 200), (6, 200), (7, 200))


def hunt_runs(seed: int) -> list:
    runs = list(HUNT_RUNS)
    random.Random("hunt:%d" % seed).shuffle(runs)
    return runs
