"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from functools import reduce
from itertools import permutations
from operator import or_

import shellcert as sc
from shellcert import catalog
from shellcert.facts import close_under_rules
from shellcert.orders import _shelling_moves

from conftest import facet_sets, seeded_complexes
from oracles import brute_minimal_nonfaces, euler_from_faces


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %s: %s (%.2fs, budget %ds)"
              % (self.name, status, elapsed, self.seconds))
        if exc_type is None:
            assert elapsed < self.seconds, (
                "%s exceeded its %ds budget: %.2fs" % (self.name, self.seconds, elapsed))
        return False


def _subset_bfs_has_order(facets, admissible_factory):
    """Independent bottom-up reachability over the subset lattice."""
    r = len(facets)
    adm = admissible_factory(facets)
    goal = (1 << r) - 1
    reachable = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for f in range(r):
                bit = 1 << f
                if state & bit:
                    continue
                t = state | bit
                if t not in reachable and adm(state, f):
                    reachable.add(t)
                    nxt.append(t)
        frontier = nxt
    return goal in reachable, len(reachable)


def _shelling_admissibility(facets):
    """(state, f) -> may facet f follow prefix-set state, from the engine's condition.

    Pure inputs only: moves() branches on the unplaced facets of the largest
    size left, so on a non-pure input this would explore a smaller graph.
    """
    assert len({F.bit_count() for F in facets}) == 1, "needs a pure complex"
    moves = _shelling_moves(facets, reduce(or_, facets))
    # added == state makes moves() recheck every unplaced facet of the largest size
    return lambda state, f: moves(state, state, 0) >> f & 1


def test_criterion_1_first_example_suite():
    with _Budget("1 (strong-gcd witness suite)", 1):
        c = catalog.strong_gcd_witness()
        u = c.universe
        order = [u.mask(m) for m in catalog.strong_gcd_witness_nonface_order()]
        assert sc.check_strong_gcd_order(c, order).ok

        dual = sc.alexander_dual(c)
        assert dual.facet_members() == [(1, 2, 3), (3, 4, 5), (4, 5, 6)]
        brute = any(sc.check_shelling_order(dual, p).ok
                    for p in permutations(dual.facets))
        assert not brute
        assert sc.find_shelling_order(dual) is None

        for f in (sc.GF2, sc.QQ):
            rep = sc.is_cohen_macaulay(dual, f)
            assert not rep.ok
            assert rep.witness.face == (3,)
            assert rep.witness.degree == 0 and rep.witness.rank == 1

        table = sc.build_fact_table(c)
        assert table.values() == ("F", "T", "F", "T")
        assert table.slots["golod"].provenance.startswith("inferred")


def test_criterion_2_dunce_hat_suite():
    with _Budget("2 (dunce hat suite)", 30):
        d = catalog.dunce_hat()
        assert len(d.facets) == 17

        for f in (sc.GF2, sc.QQ):
            assert sc.is_cohen_macaulay(d, f).ok

        assert sc.find_shelling_order(d) is None
        found, states = _subset_bfs_has_order(d.facets, _shelling_admissibility)
        assert not found
        assert states <= 1 << 17

        assert d.universe.n >= 2 * d.dim + 3
        assert sc.is_trivially_weakly_shellable(d)

        table = sc.build_fact_table(sc.alexander_dual(d))
        assert table.values() == ("F", "T", "T", "T")
        assert table.slots["golod"].provenance.startswith("inferred")


def test_criterion_3_ten_vertex_suite():
    with _Budget("3 (gcd violator suite)", 10):
        g = catalog.gcd_violator()
        nf = sc.minimal_nonfaces(g)
        assert len(nf) == 6
        assert not any(sc.check_strong_gcd_order(g, p).ok for p in permutations(nf))
        assert sc.find_strong_gcd_order(g) is None  # the duality reduction agrees

        gd = sc.alexander_dual(g)
        gamma = sc.restrict_to_support(sc.pure_skeleton(gd, 5))
        for f in (sc.GF2, sc.QQ):
            assert not sc.is_cohen_macaulay(gamma, f).ok

        k = catalog.pentagon_circle()
        for f in (sc.GF2, sc.QQ):
            prof = sc.reduced_homology(k, f)
            assert prof.rank(0) == 0 and prof.rank(1) == 1

        table = sc.build_fact_table(g)
        assert table.values() == ("F", "F", "F", "out-of-scope")
        assert catalog.CLAIMS["gcd-violator"][3] == "claim:T"  # recorded, not computed


def test_criterion_4_proposition_property_suites():
    with _Budget("4 (proposition properties)", 300):
        # ws-sgcd duality: 200 complexes, every permutation of <= 6 non-faces
        samples = seeded_complexes(
            200, seed=1001, n_range=(3, 6),
            accept=lambda c: 1 <= len(sc.minimal_nonfaces(c)) <= 6)
        for c in samples:
            nf = sc.minimal_nonfaces(c)
            dual = sc.alexander_dual(c)
            full = c.universe.full_mask
            for p in permutations(nf):
                direct = sc.check_strong_gcd_order(c, p).ok
                via_dual = sc.check_weak_shelling_order(
                    dual, [full ^ m for m in reversed(p)]).ok
                assert direct == via_dual

        # justification: facets of size <= |V|-2, shelling orders are weak
        def small_facets(c):
            return not c.is_void and all(
                f.bit_count() <= c.universe.n - 2 for f in c.facets)

        certs = 0
        for c in seeded_complexes(200, seed=1002, n_range=(4, 7), accept=small_facets):
            cert = sc.find_shelling_order(c)
            if cert is None:
                continue
            certs += 1
            assert sc.check_weak_shelling_order(c, cert).ok
            if len(c.facets) <= 4:
                for p in permutations(c.facets):
                    if sc.check_shelling_order(c, p).ok:
                        assert sc.check_weak_shelling_order(c, p).ok
        assert certs >= 50

        # the wide-universe shortcut: every order is weak once it fires
        rng = random.Random(1003)
        for c in seeded_complexes(200, seed=1003, n_range=(4, 8),
                                  accept=sc.is_trivially_weakly_shellable):
            r = len(c.facets)
            if r <= 5:
                perms = list(permutations(c.facets))
            else:
                perms = []
                for _ in range(10):
                    p = list(c.facets)
                    rng.shuffle(p)
                    perms.append(tuple(p))
            for p in perms:
                assert sc.check_weak_shelling_order(c, p).ok

        # flag sharpening: weak orders of flag duals are shelling orders
        rng = random.Random(1004)
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            c = sc.random_flag_complex(seed, rng.randint(4, 8), rng.uniform(0.3, 0.8))
            dual = sc.alexander_dual(c)
            if dual.is_void:
                continue
            checked += 1
            r = len(dual.facets)
            if r <= 5:
                perms = list(permutations(dual.facets))
            else:
                perms = [tuple(rng.sample(dual.facets, r)) for _ in range(12)]
                cert = sc.find_weak_shelling_order(dual)
                if cert is not None:
                    perms.append(cert.sequence)
            for p in perms:
                if sc.check_weak_shelling_order(dual, p).ok:
                    assert sc.check_shelling_order(dual, p).ok

        # flag equivalence: four legs computed independently must agree
        checked = 0
        seed = 5000
        while checked < 100:
            seed += 1
            c = sc.random_flag_complex(seed, 4 + seed % 5, 0.35 + (seed % 7) * 0.08)
            dual = sc.alexander_dual(c)
            if dual.is_void:
                continue
            checked += 1
            legs = (
                sc.find_shelling_order(dual) is not None,
                sc.find_strong_gcd_order(c) is not None,
                sc.is_cohen_macaulay(sc.restrict_to_support(dual), sc.GF2).ok,
                sc.is_cohen_macaulay(sc.restrict_to_support(dual), sc.QQ).ok,
            )
            assert len(set(legs)) == 1, (seed, legs)


def test_criterion_5_oracle_equivalences():
    with _Budget("5 (oracle equivalences)", 120):
        # minimal non-faces vs the brute-force subset oracle
        for c in seeded_complexes(200, seed=2001, n_range=(2, 7)):
            expected = {tuple(sorted(s)) for s in
                        brute_minimal_nonfaces(c.universe.labels, facet_sets(c))}
            got = {c.universe.members(m) for m in sc.minimal_nonfaces(c)}
            assert got == expected

        # DP existence vs full permutation enumeration on <= 5 facets
        compared = 0
        for c in seeded_complexes(200, seed=2002, n_range=(3, 7)):
            if len(c.facets) > 5:
                continue
            compared += 1
            brute_shell = any(sc.check_shelling_order(c, p).ok
                              for p in permutations(c.facets))
            assert (sc.find_shelling_order(c) is not None) == brute_shell
            brute_weak = any(sc.check_weak_shelling_order(c, p).ok
                             for p in permutations(c.facets))
            assert (sc.find_weak_shelling_order(c) is not None) == brute_weak
        assert compared >= 150

        # Euler characteristic identity over both fields
        count = 0
        rng = random.Random(2003)
        while count < 500:
            c = sc.random_complex(rng.randint(0, 2**31), rng.randint(2, 7),
                                  rng.uniform(0.2, 0.95))
            if c.is_void:
                continue
            count += 1
            chi = sc.reduced_euler_characteristic(c)
            assert chi == euler_from_faces(facet_sets(c))
            for f in (sc.GF2, sc.QQ):
                assert sc.reduced_homology(c, f).alternating_sum() == chi


def test_criterion_6_inference_provenance():
    with _Budget("6 (inference provenance)", 60):
        # fixtures: inferred values never contradict computed ones, and the
        # Golod facts the engine cannot check stay out of computed territory
        for name, maker in catalog.FIXTURES.items():
            table = sc.build_fact_table(maker())
            close_under_rules(table)  # idempotent, raises on contradiction

        violator = sc.build_fact_table(catalog.gcd_violator())
        assert violator.slots["golod"].value == "out-of-scope"
        assert violator.slots["golod"].provenance != "computed"
        assert catalog.CLAIMS["gcd-violator"][3].startswith("claim:")

        # random samples: the closure never overwrites or contradicts
        for c in seeded_complexes(100, seed=3001, n_range=(3, 6)):
            table = sc.build_fact_table(c)
            before = {n: (s.value, s.provenance) for n, s in table.slots.items()}
            close_under_rules(table)
            after = {n: (s.value, s.provenance) for n, s in table.slots.items()}
            assert before == after
            golod = table.slots["golod"]
            if golod.value in ("T", "F"):
                assert golod.provenance.startswith("inferred")
