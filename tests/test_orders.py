import random
from itertools import combinations, permutations

import pytest

import shellcert as sc
from shellcert.catalog import FIXTURES
from shellcert.complexes import VertexSet
from shellcert.orders import _weak_moves

from conftest import seeded_complexes, seeded_flag_complexes
from oracles import (
    brute_chordless_cycle,
    brute_shelling_failure,
    brute_strong_gcd_failure,
    brute_weak_failure,
    skeleton_edges,
)


def cx(n, facets):
    return sc.from_facets(VertexSet.of(range(1, n + 1)), facets)


def canonical_masks(c, sets):
    return tuple(sorted((c.universe.mask(s) for s in sets), key=lambda m: (m.bit_count(), m)))


def oracle_report(c, order):
    """The CheckReport the shelling validator owes an order, from the oracle."""
    sets = [c.universe.members(F) for F in order]
    failure = brute_shelling_failure(sets)
    if failure is None:
        return sc.CheckReport(True)
    j, tops = failure
    return sc.CheckReport(False, sc.StepWitness(j, canonical_masks(c, tops), len(sets[j]) - 2))


def pair_report(failure):
    """The CheckReport a pair validator owes an order whose oracle gave ``failure``."""
    return sc.CheckReport(True) if failure is None else sc.CheckReport(False, sc.PairWitness(*failure))


def weak_oracle_report(c, order):
    return pair_report(brute_weak_failure(c.universe.labels, [c.universe.members(F) for F in order]))


def gcd_oracle_report(c, order):
    return pair_report(brute_strong_gcd_failure([c.universe.members(N) for N in order]))


def found_swapped_shuffled(cases, find, items, rng):
    """(complex, order) pairs: the found order (or the canonical list when
    none is found), the same with two items swapped, and a shuffle."""
    for c in cases:
        cert = find(c)
        found = list(cert.sequence if cert is not None else items(c))
        swapped = list(found)
        i, j = rng.sample(range(len(found)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for order in (found, swapped, rng.sample(found, len(found))):
            yield c, order


class TestCheckShelling:
    def test_two_triangles_valid(self):
        c = cx(4, [{1, 2, 3}, {2, 3, 4}])
        assert sc.check_shelling_order(c, [c.universe.mask({1, 2, 3}), c.universe.mask({2, 3, 4})])

    def test_disjoint_edges_invalid_either_way(self):
        c = cx(4, [{1, 2}, {3, 4}])
        for p in permutations(c.facets):
            rep = sc.check_shelling_order(c, p)
            assert not rep.ok
            assert rep.witness.step == 1
            assert rep.witness.intersection == (0,)
            assert rep.witness.required_dim == 0

    def test_nonpure_valid_shelling(self):
        c = cx(4, [{1, 2, 3}, {3, 4}])
        order = [c.universe.mask({1, 2, 3}), c.universe.mask({3, 4})]
        assert sc.check_shelling_order(c, order)

    def test_not_a_permutation_rejected(self):
        c = cx(4, [{1, 2, 3}, {2, 3, 4}])
        with pytest.raises(sc.InputError):
            sc.check_shelling_order(c, [c.facets[0], c.facets[0]])

    def test_witness_replays(self):
        c = cx(4, [{1, 2}, {3, 4}, {1, 3}])
        for p in permutations(c.facets):
            rep = sc.check_shelling_order(c, p)
            if rep.ok:
                continue
            j = rep.witness.step
            _, tops = brute_shelling_failure([c.universe.members(F) for F in p[:j + 1]])
            assert rep.witness.intersection == canonical_masks(c, tops)
            need = p[j].bit_count() - 2
            assert rep.witness.required_dim == need
            assert any(m.bit_count() - 1 != need for m in rep.witness.intersection)

    def test_reports_match_oracle_on_seeded_orders(self):
        rng = random.Random(5150)
        cases = seeded_complexes(500, seed=5150, n_range=(4, 8), density=(0.2, 0.7),
                                 accept=lambda c: len(c.facets) >= 2)
        assert any(not c.is_pure for c in cases)
        for c in cases:
            for _ in range(4):
                order = list(c.facets)
                rng.shuffle(order)
                assert sc.check_shelling_order(c, order) == oracle_report(c, order)

    def test_reports_match_oracle_on_found_and_swapped_orders(self):
        # certificates, the same with two facets swapped, and shuffles, on
        # complexes of 3-7 vertices, the fixtures, and the duals of both
        rng = random.Random(1996)
        cases = seeded_complexes(300, seed=1996, n_range=(3, 7), accept=lambda c: len(c.facets) >= 2)
        cases += [make() for make in FIXTURES.values()]
        cases += [d for d in map(sc.alexander_dual, cases) if len(d.facets) >= 2]
        orders = failed = 0
        for c in cases:
            cert = sc.find_shelling_order(c)
            found = list(cert.sequence if cert is not None else c.facets)
            swapped = list(found)
            i, j = rng.sample(range(len(found)), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            shuffled = rng.sample(found, len(found))
            for order in (found, swapped, shuffled):
                rep = sc.check_shelling_order(c, order)
                assert rep == oracle_report(c, order)
                orders += 1
                failed += not rep.ok
            if cert is not None:
                assert sc.check_shelling_order(c, cert)
        assert orders >= 1500 and 500 <= failed <= orders - 500

    def test_reports_match_oracle_on_every_permutation(self, small_complexes):
        fixtures = [make() for make in FIXTURES.values()]
        six = seeded_complexes(12, seed=720, n_range=(4, 7), accept=lambda c: len(c.facets) == 6)
        cases = [c for c in small_complexes + fixtures + six if len(c.facets) <= 6]
        assert len(cases) > 50 and any(not c.is_pure for c in cases)
        assert sum(len(c.facets) == 6 for c in cases) >= 12 and any(not c.is_pure for c in six)
        for c in cases:
            for p in permutations(c.facets):
                assert sc.check_shelling_order(c, p) == oracle_report(c, p)

    def test_k48_two_block_order_fails_where_the_second_block_starts(self):
        c = sc.from_facets(VertexSet.of(range(48)), combinations(range(48), 2))
        low, high = (1 << 24) - 1, ((1 << 24) - 1) << 24
        first = [F for F in c.facets if F & low == F]
        order = first + [F for F in c.facets if F & high == F]
        order += [F for F in c.facets if F not in order]
        rep = sc.check_shelling_order(c, order)
        assert rep == sc.CheckReport(False, sc.StepWitness(len(first), (0,), 0))

    def test_builds_no_complex(self, monkeypatch):
        c = cx(5, [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1, 5}])
        built = []
        init = sc.Complex.__init__
        from_facets = sc.complexes.from_facets
        monkeypatch.setattr(sc.Complex, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        monkeypatch.setattr(sc.complexes, "from_facets",
                            lambda *a, **k: built.append(a) or from_facets(*a, **k))
        for p in permutations(c.facets):
            sc.check_shelling_order(c, p)
        assert built == []


class TestCheckWeakShelling:
    def test_single_facet_vacuous(self):
        c = cx(3, [{1, 2}])
        assert sc.check_weak_shelling_order(c, list(c.facets))

    def test_triangle_boundary_always_fails(self):
        c = cx(3, [{1, 2}, {2, 3}, {1, 3}])
        for p in permutations(c.facets):
            rep = sc.check_weak_shelling_order(c, p)
            assert not rep.ok
            assert rep.witness.j == 1  # fails at the second facet already

    def test_witness_replays(self):
        c = cx(3, [{1, 2}, {2, 3}, {1, 3}])
        rep = sc.check_weak_shelling_order(c, list(c.facets))
        i, j = rep.witness.i, rep.witness.j
        seq = list(c.facets)
        assert seq[i] | seq[j] == c.universe.full_mask
        both = seq[i] & seq[j]
        assert not any(k != i and both & ~seq[k] == 0 for k in range(j))

    def test_dunce_hat_any_order_works(self):
        from shellcert.catalog import dunce_hat
        d = dunce_hat()
        assert sc.check_weak_shelling_order(d, list(d.facets))
        assert sc.check_weak_shelling_order(d, list(reversed(d.facets)))

    def test_reports_match_the_definition_on_found_and_swapped_orders(self):
        # complexes of 3-7 vertices, the fixtures, and the duals of both
        rng = random.Random(1993)
        cases = seeded_complexes(400, seed=1993, n_range=(3, 7))
        cases += [make() for make in FIXTURES.values()]
        cases = [c for c in cases + list(map(sc.alexander_dual, cases)) if len(c.facets) >= 2]
        orders = failed = 0
        for c, order in found_swapped_shuffled(cases, sc.find_weak_shelling_order, lambda c: c.facets, rng):
            rep = sc.check_weak_shelling_order(c, order)
            assert rep == weak_oracle_report(c, order)
            orders += 1
            failed += not rep.ok
        assert orders >= 1000 and 100 <= failed <= orders - 100

    def test_reports_match_the_definition_on_every_order_of_the_violator_dual(self):
        from shellcert.catalog import gcd_violator
        d = sc.alexander_dual(gcd_violator())
        witnesses = set()
        for p in permutations(d.facets):
            rep = sc.check_weak_shelling_order(d, p)
            assert rep == weak_oracle_report(d, p) and not rep.ok
            witnesses.add((rep.witness.i, rep.witness.j))
        assert len(witnesses) > 1


class TestCheckStrongGcd:
    def test_bundled_order(self):
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 7)),
                                     [{1, 2, 3}, {1, 2, 6}, {4, 5, 6}])
        u = c.universe
        order = [u.mask({1, 2, 3}), u.mask({1, 2, 6}), u.mask({4, 5, 6})]
        assert sc.check_strong_gcd_order(c, order)

    def test_two_disjoint_nonfaces_fail(self):
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 5)), [{1, 2}, {3, 4}])
        nf = sc.minimal_nonfaces(c)
        for p in permutations(nf):
            rep = sc.check_strong_gcd_order(c, p)
            assert not rep.ok
            assert (rep.witness.i, rep.witness.j) == (0, 1)

    def test_single_nonface_vacuous(self):
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 4)), [{1, 2, 3}])
        assert sc.check_strong_gcd_order(c, sc.minimal_nonfaces(c))

    def test_filler_after_j_counts(self):
        # disjoint pair at positions (0, 1); the filler sits at position 2 > j
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 7)),
                                     [{1, 2, 3}, {4, 5, 6}, {1, 2, 6}])
        u = c.universe
        order = [u.mask({1, 2, 3}), u.mask({4, 5, 6}), u.mask({1, 2, 6})]
        assert sc.check_strong_gcd_order(c, order)


class TestFindShelling:
    def test_two_triangles(self):
        c = cx(4, [{1, 2, 3}, {2, 3, 4}])
        cert = sc.find_shelling_order(c)
        assert cert is not None
        assert sc.check_shelling_order(c, cert)

    def test_glued_triangles_have_none(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        assert sc.find_shelling_order(c) is None
        assert not any(sc.check_shelling_order(c, p).ok for p in permutations(c.facets))

    def test_dunce_hat_has_none(self):
        from shellcert.catalog import dunce_hat
        assert sc.find_shelling_order(dunce_hat()) is None

    def test_certificates_list_facets_by_non_increasing_size(self):
        def nonpure(c):
            return len({F.bit_count() for F in c.facets}) > 1

        found = 0
        for c in seeded_complexes(100, seed=1996, n_range=(4, 9), accept=nonpure):
            cert = sc.find_shelling_order(c)
            if cert is not None:
                sizes = [F.bit_count() for F in cert.sequence]
                assert sizes == sorted(sizes, reverse=True)
                found += 1
        assert found >= 20

    def test_first_certificate_is_deterministic(self):
        c = cx(5, [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])
        a = sc.find_shelling_order(c)
        b = sc.find_shelling_order(c)
        assert a.sequence == b.sequence


class TestFindWeak:
    def test_trivially_weak_returns_identity(self):
        from shellcert.catalog import dunce_hat
        d = dunce_hat()
        cert = sc.find_weak_shelling_order(d)
        assert cert.sequence == d.facets

    def test_single_facet(self):
        c = cx(3, [{1, 2}])
        cert = sc.find_weak_shelling_order(c)
        assert cert.sequence == c.facets

    def test_a_facet_is_not_its_own_full_union_partner(self):
        full_simplex = cx(3, [{1, 2, 3}])
        empty_complex = sc.from_facets(VertexSet.of(()), [()])
        assert empty_complex.facets == (0,) and empty_complex.universe.full_mask == 0
        for c in (full_simplex, empty_complex):
            assert _weak_moves(c.facets, c.universe.full_mask) is not None
            assert sc.find_weak_shelling_order(c).sequence == c.facets

    def test_identity_order_from_the_free_facet_rule(self):
        cases = seeded_complexes(1000, seed=2718, n_range=(4, 9), density=(0.1, 0.6),
                                 accept=sc.is_trivially_weakly_shellable)
        assert max(len(c.facets) for c in cases) >= 10
        for c in cases:
            assert sc.find_weak_shelling_order(c).sequence == c.facets

    def test_triangle_boundary_none(self):
        c = cx(3, [{1, 2}, {2, 3}, {1, 3}])
        assert sc.find_weak_shelling_order(c) is None

    def test_ten_vertex_dual_has_none(self):
        from shellcert.catalog import gcd_violator
        d = sc.alexander_dual(gcd_violator())
        assert sc.find_weak_shelling_order(d) is None


class TestFindStrongGcd:
    def test_bundled_fixture_has_order(self):
        from shellcert.catalog import strong_gcd_witness
        c = strong_gcd_witness()
        cert = sc.find_strong_gcd_order(c)
        assert cert is not None
        assert sc.check_strong_gcd_order(c, cert)

    def test_violator_has_none_and_brute_force_agrees(self):
        from shellcert.catalog import gcd_violator
        c = gcd_violator()
        assert sc.find_strong_gcd_order(c) is None
        nf = sc.minimal_nonfaces(c)
        assert len(nf) == 6
        assert not any(sc.check_strong_gcd_order(c, p).ok for p in permutations(nf))

    def test_checking_every_order_computes_the_nonfaces_once(self, monkeypatch):
        from shellcert import complexes
        from shellcert.catalog import gcd_violator

        original = complexes._minimal_transversals
        calls = []

        def counting(family):
            calls.append(family)
            return original(family)

        c = gcd_violator()
        monkeypatch.setattr(complexes, "_minimal_transversals", counting)
        orders = list(permutations(sc.minimal_nonfaces(c)))
        assert len(orders) == 720
        assert not any(sc.check_strong_gcd_order(c, p).ok for p in orders)
        assert len(calls) <= 1

    def test_at_most_one_nonface_trivial(self):
        c = cx(3, [{1, 2, 3}])  # full simplex: zero non-faces
        cert = sc.find_strong_gcd_order(c)
        assert cert is not None and cert.sequence == ()
        c2 = sc.from_minimal_nonfaces(VertexSet.of(range(1, 4)), [{1, 2}])
        cert2 = sc.find_strong_gcd_order(c2)
        assert cert2 is not None and len(cert2.sequence) == 1


class TestStrongGcdCheck:
    def test_every_violator_order_matches_the_triple_loop(self):
        from shellcert.catalog import gcd_violator
        c = gcd_violator()
        witnesses = set()
        for p in permutations(sc.minimal_nonfaces(c)):
            rep = sc.check_strong_gcd_order(c, p)
            assert rep == gcd_oracle_report(c, p)
            witnesses.add((rep.witness.i, rep.witness.j))
        assert len(witnesses) > 1

    def test_reports_match_the_definition_on_found_and_swapped_orders(self):
        # complexes of 3-7 vertices, the fixtures, and the duals of both
        rng = random.Random(2008)
        cases = seeded_complexes(400, seed=2008, n_range=(3, 7))
        cases += [make() for make in FIXTURES.values()]
        cases = [c for c in cases + list(map(sc.alexander_dual, cases))
                 if len(sc.minimal_nonfaces(c)) >= 2]
        orders = failed = 0
        for c, order in found_swapped_shuffled(cases, sc.find_strong_gcd_order, sc.minimal_nonfaces, rng):
            rep = sc.check_strong_gcd_order(c, order)
            assert rep == gcd_oracle_report(c, order)
            orders += 1
            failed += not rep.ok
        assert orders >= 1000 and 100 <= failed <= orders - 100

    def test_seeded_orders_match_the_triple_loop(self):
        rng = random.Random(8128)
        oks = set()
        for c in seeded_complexes(150, seed=4096, n_range=(4, 8)):
            nf = list(sc.minimal_nonfaces(c))
            orders = [tuple(nf), tuple(reversed(nf))]
            for _ in range(5):
                rng.shuffle(nf)
                orders.append(tuple(nf))
            cert = sc.find_strong_gcd_order(c)
            if cert is not None:
                orders.append(cert.sequence)
            for seq in orders:
                rep = sc.check_strong_gcd_order(c, seq)
                assert rep == gcd_oracle_report(c, seq)
                oks.add(rep.ok)
        assert oks == {True, False}


class TestTrivialWeak:
    def test_dunce_hat(self):
        from shellcert.catalog import dunce_hat
        d = dunce_hat()
        assert d.universe.n >= 2 * d.dim + 3
        assert sc.is_trivially_weakly_shellable(d)

    def test_triangle_boundary_inconclusive(self):
        assert not sc.is_trivially_weakly_shellable(cx(3, [{1, 2}, {2, 3}, {1, 3}]))

    def test_single_facet(self):
        assert sc.is_trivially_weakly_shellable(cx(3, [{1, 2, 3}]))


def no_weak_order_but_every_pair_has_a_saver():
    from shellcert.catalog import gcd_violator
    return sc.alexander_dual(gcd_violator())  # 6 facets; the refutation does not apply


@pytest.fixture
def tiny_budget(monkeypatch):
    """Let every order search visit one prefix-set only."""
    monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 1)


class TestThreshold:
    """``orders.NODE_BUDGET``, the number of prefix-sets any search may visit."""

    def test_over_threshold_raises_undecided_when_nothing_found(self, tiny_budget):
        c = no_weak_order_but_every_pair_has_a_saver()
        with pytest.raises(sc.Undecided):
            sc.find_weak_shelling_order(c)

    def test_over_threshold_may_still_find_a_certificate(self, monkeypatch):
        monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 10)
        c = cx(5, [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])
        cert = sc.find_shelling_order(c)
        assert cert is not None and sc.check_shelling_order(c, cert)

    def test_budget_is_read_at_call_time(self, monkeypatch):
        c = no_weak_order_but_every_pair_has_a_saver()
        monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 1)
        with pytest.raises(sc.Undecided):
            sc.find_weak_shelling_order(c)
        monkeypatch.undo()
        assert sc.find_weak_shelling_order(c) is None


def order_exists_by_reachability(c, check):
    """Breadth-first reachability over prefix-sets, using only the checker.

    A prefix-set S is reachable with a witness order o(S); appending f is
    allowed when ``check`` accepts o(S) + [f] on the subcomplex that S and f
    generate on the same universe (so weak full-union pairs are the same).
    Both order conditions judge f by the set S alone, so one witness suffices.
    """
    key = lambda m: (m.bit_count(), m)
    reach = {frozenset(): ()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for S in frontier:
            for f in c.facets:
                T = S | {f}
                if f in S or T in reach:
                    continue
                order = reach[S] + (f,)
                sub = sc.Complex(c.universe, tuple(sorted(T, key=key)))
                if check(sub, order).ok:
                    reach[T] = order
                    nxt.append(T)
        frontier = nxt
    return frozenset(c.facets) in reach


def cone_over_star_plus_triangle(m):
    """Cone (apex "a") over the star K_{1,m} (centre "c"), plus a disjoint triangle.

    m + 1 facets and not shellable; the m cone facets are interchangeable, so
    an exhaustive search visits about 2^m prefix-sets.
    """
    leaves = ["l%d" % i for i in range(m)]
    u = VertexSet.of(["a", "c"] + leaves + ["x", "y", "z"])
    return sc.from_facets(u, [("a", "c", l) for l in leaves] + [("x", "y", "z")])


# Minimal non-face families whose duals have no weak shelling order although
# every full-union pair has a possible saver, so the search must run to the end.
EXHAUSTIVE_NONE = (
    (7, [[0, 1, 3], [0, 2], [1, 2, 4, 5], [1, 3, 4], [2, 6], [4, 6]]),
    (9, [[0, 1, 4], [0, 1, 7, 8], [1, 6, 7, 8], [2, 3], [2, 7, 8], [3, 4], [3, 6]]),
    (8, [[0, 2, 4], [0, 2, 7], [1, 4], [1, 5], [2, 3, 4, 5], [3, 4, 7], [5, 7]]),
    (8, [[0, 1, 3], [0, 4, 7], [0, 6], [1, 2, 3], [2, 5, 6], [2, 7], [6, 7]]),
    (7, [[0, 4, 5], [1, 2], [1, 3, 4], [2, 5], [3, 4, 6], [5, 6]]),
)


class TestEngine:
    def test_k48_one_skeleton_has_a_valid_shelling(self):
        c = sc.from_facets(VertexSet.of(range(48)), combinations(range(48), 2))
        assert len(c.facets) == 1128
        cert = sc.find_shelling_order(c)
        assert cert is not None and sc.check_shelling_order(c, cert)

    def test_long_path_has_a_valid_shelling(self):
        c = sc.from_facets(VertexSet.of(range(1501)), [(i, i + 1) for i in range(1500)])
        assert len(c.facets) == 1500
        cert = sc.find_shelling_order(c)
        assert cert is not None and sc.check_shelling_order(c, cert)

    def test_unbounded_reproducer_is_undecided_within_the_budget(self, tmp_path, capsys):
        from shellcert.cli import EX_UNDECIDED, main
        from shellcert.formats import to_json_document

        c = cone_over_star_plus_triangle(21)
        assert len(c.facets) == 22
        with pytest.raises(sc.Undecided):
            sc.find_shelling_order(c)
        path = tmp_path / "cone.json"
        path.write_text(to_json_document(c), encoding="utf-8")
        assert main(["find", "shelling", str(path)]) == EX_UNDECIDED == 3
        assert "undecided" in capsys.readouterr().out

    def test_refutation_is_a_proof_over_the_threshold(self, tiny_budget):
        c = cx(3, [{1, 2}, {2, 3}, {1, 3}])  # {12, 23} unions to all; 13 misses 2
        assert sc.find_weak_shelling_order(c) is None

    def test_refutation_settles_the_dunce_hat_dual(self, tiny_budget):
        from shellcert.catalog import dunce_hat
        d = sc.alexander_dual(dunce_hat())
        assert _weak_moves(d.facets, d.universe.full_mask) is None
        assert sc.find_weak_shelling_order(d) is None

    def test_weak_search_agrees_with_checker_reachability(self):
        def searchable(c):
            return 6 <= len(c.facets) <= 9 and not sc.is_trivially_weakly_shellable(c)

        cases = seeded_complexes(100, seed=1, n_range=(5, 8), accept=searchable)
        duals = (sc.alexander_dual(c) for c in seeded_complexes(200, seed=3141, n_range=(5, 8)))
        cases += [sc.restrict_to_support(d) for d in duals if searchable(d)]
        for n, nonfaces in EXHAUSTIVE_NONE:
            cases.append(sc.alexander_dual(sc.from_minimal_nonfaces(VertexSet.of(range(n)), nonfaces)))
        outcomes = set()
        for c in cases:
            refuted = _weak_moves(c.facets, c.universe.full_mask) is None
            cert = sc.find_weak_shelling_order(c)
            assert (cert is not None) == order_exists_by_reachability(
                c, sc.check_weak_shelling_order)
            if cert is not None:
                assert sc.check_weak_shelling_order(c, cert)
            outcomes.add((refuted, cert is not None))
        assert outcomes == {(True, False), (False, True), (False, False)}

    def test_shelling_search_agrees_with_checker_reachability(self):
        # several facet sizes, so the search crosses size layers
        def layered(c):
            return 6 <= len(c.facets) <= 10 and len({F.bit_count() for F in c.facets}) > 1

        cases = seeded_complexes(60, seed=2718, n_range=(5, 8), accept=layered)
        cases += map(sc.alexander_dual, seeded_complexes(
            60, seed=1618, n_range=(5, 8), accept=lambda c: layered(sc.alexander_dual(c))))
        found = set()
        for c in cases:
            cert = sc.find_shelling_order(c)
            assert (cert is not None) == order_exists_by_reachability(c, sc.check_shelling_order)
            if cert is not None:
                assert sc.check_shelling_order(c, cert)
            found.add(cert is not None)
        assert found == {True, False}

    def test_nonpure_duals_are_decided_within_a_hundred_states(self, monkeypatch):
        from shellcert.catalog import dunce_hat
        monkeypatch.setattr("shellcert.orders.NODE_BUDGET", 100)
        d = sc.alexander_dual(sc.random_complex(302003101, 9, 0.39556687794512724))
        cert = sc.find_shelling_order(d)
        assert cert is not None and sc.check_shelling_order(d, cert)
        for d in (sc.alexander_dual(sc.random_complex(181242849, 9, 0.3184216913238152)),
                  sc.alexander_dual(dunce_hat())):
            assert sc.find_shelling_order(d) is None
            # a shellable complex is sequentially Cohen-Macaulay
            assert not sc.is_sequentially_cm(d, sc.GF2).ok

    def test_first_certificate_is_deterministic(self):
        for c in seeded_complexes(40, seed=4242, n_range=(4, 8)):
            for find in (sc.find_shelling_order, sc.find_weak_shelling_order,
                         sc.find_strong_gcd_order):
                a, b = find(c), find(c)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.sequence == b.sequence


def suspension(c):
    """The join of c with two new points, on vertices 0..n+1: each facet F of
    c, as vertex indices, gives F + n and F + n + 1."""
    n = c.universe.n
    facets = [[i for i in range(n) if F >> i & 1] + [v] for F in c.facets for v in (n, n + 1)]
    return sc.from_facets(VertexSet.of(range(n + 2)), facets)


def misses_two(c):
    """True when every facet of c misses exactly two vertices: c is the dual
    of a flag complex, which ``find_shelling_order`` answers from its graph."""
    full = c.universe.full_mask
    return bool(c.facets) and all((full ^ F).bit_count() == 2 for F in c.facets)


def assert_same_existence(c, searched):
    """``find_shelling_order`` finds a shelling of c exactly when the search
    result ``searched`` is one, and its certificate validates."""
    cert = sc.find_shelling_order(c)
    assert (cert is None) == (searched is None), c.facet_members()
    if cert is not None:
        assert sc.check_shelling_order(c, cert)


class TestTopCycleRefutation:
    """A pure complex with no free ridge and no top GF(2) cycle has no
    shelling; ``find_shelling_order`` says so before any search."""

    def test_dunce_hat_and_its_suspensions_need_no_search(self, monkeypatch):
        from shellcert import orders
        from shellcert.catalog import dunce_hat

        d = dunce_hat()
        assert not order_exists_by_reachability(d, sc.check_shelling_order)

        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(orders, "_search", no_search)
        cases = [d, suspension(d), suspension(suspension(d))]
        assert [len(c.facets) for c in cases] == [17, 34, 68]
        for c in cases:
            assert c.is_pure
            assert sc.reduced_homology(c, sc.GF2).rank(c.dim) == 0
            assert sc.find_shelling_order(c) is None

    def test_never_fires_where_a_top_cycle_or_a_shelling_exists(self):
        from shellcert import orders

        def cx0(n, facets):
            return sc.from_facets(VertexSet.of(range(n)), facets)

        boundaries = [cx0(n, combinations(range(n), n - 1)) for n in range(2, 9)]
        graphs = [cx0(n, combinations(range(n), 2)) for n in range(2, 13)]
        duals = [sc.alexander_dual(g) for g in graphs if g.universe.n <= 10]
        points = [cx0(n, [(v,) for v in range(n)]) for n in range(1, 6)]
        empty = [cx0(0, [()]), cx0(3, [()])]
        fixed = boundaries + graphs + duals + points + empty
        for c in fixed:
            assert not orders._closed_and_acyclic(c)
        sample = seeded_complexes(400, seed=1996, n_range=(4, 9),
                                  accept=lambda c: c.is_pure and len(c.facets) >= 2)
        for c in fixed + sample:
            searched = orders._search(c, orders.SHELLING, orders._shelling_moves)
            if misses_two(c):  # a flag dual: its shelling comes from the graph, not the search
                assert_same_existence(c, searched)
            else:
                assert sc.find_shelling_order(c) == searched


class TestShellingMasks:
    """The masks of ``_shelling_moves``, which recheck only the facets whose
    answer can change, against a full recheck of the current layer."""

    def test_every_mask_equals_a_full_recheck(self, monkeypatch):
        from shellcert import orders
        from shellcert.catalog import dunce_hat

        real = orders._shelling_moves
        carried = []  # masks computed from a parent mask in the same layer

        def checked(facets, full):
            moves = real(facets, full)

            def wrapped(state, added, parent):
                out = moves(state, added, parent)
                # added == state makes moves() recheck every unplaced facet of the layer
                assert out == moves(state, state, 0)
                if state != added and parent:
                    carried.append(out)
                return out

            return wrapped

        monkeypatch.setattr(orders, "_shelling_moves", checked)
        graphs = [sc.from_facets(VertexSet.of(range(n)), combinations(range(n), 2))
                  for n in range(3, 13)]
        sample = seeded_complexes(50, seed=5150, n_range=(5, 9),
                                  accept=lambda c: c.is_pure and len(c.facets) >= 4)
        sample += seeded_complexes(50, seed=6174, n_range=(5, 9),
                                   accept=lambda c: not c.is_pure and len(c.facets) >= 4)
        cases = graphs + sample
        for c in cases + [sc.alexander_dual(c) for c in cases + [dunce_hat()]]:
            cert = sc.find_shelling_order(c)
            if cert is not None:
                assert sc.check_shelling_order(c, cert)
        # find_shelling_order refutes the dunce hat before searching, so drive the engine
        before = len(carried)
        assert orders._search(dunce_hat(), orders.SHELLING, orders._shelling_moves) is None
        assert len(carried) > before
        monkeypatch.setattr(orders, "NODE_BUDGET", 2000)
        with pytest.raises(sc.Undecided):
            sc.find_shelling_order(cone_over_star_plus_triangle(21))
        assert len(carried) > 5000


class TestAgainstEnumeration:
    def test_dp_matches_permutation_search(self):
        for c in seeded_complexes(120, seed=31337, n_range=(3, 7),
                                  accept=lambda c: len(c.facets) <= 5):
            brute_shell = any(sc.check_shelling_order(c, p).ok
                              for p in permutations(c.facets))
            assert (sc.find_shelling_order(c) is not None) == brute_shell
            brute_weak = any(sc.check_weak_shelling_order(c, p).ok
                             for p in permutations(c.facets))
            assert (sc.find_weak_shelling_order(c) is not None) == brute_weak

    def test_certificates_always_validate(self):
        for c in seeded_complexes(80, seed=90210, n_range=(3, 8)):
            cert = sc.find_shelling_order(c)
            if cert is not None:
                assert sc.check_shelling_order(c, cert)
            certw = sc.find_weak_shelling_order(c)
            if certw is not None:
                assert sc.check_weak_shelling_order(c, certw)
            certg = sc.find_strong_gcd_order(c)
            if certg is not None:
                assert sc.check_strong_gcd_order(c, certg)


class TestDualityBridge:
    def test_gcd_equals_weak_of_dual_reversed_complements(self):
        for c in seeded_complexes(60, seed=777, n_range=(3, 6),
                                  accept=lambda c: 1 <= len(sc.minimal_nonfaces(c)) <= 5):
            nf = sc.minimal_nonfaces(c)
            dual = sc.alexander_dual(c)
            full = c.universe.full_mask
            for p in permutations(nf):
                direct = sc.check_strong_gcd_order(c, p).ok
                translated = sc.check_weak_shelling_order(
                    dual, [full ^ m for m in reversed(p)]).ok
                assert direct == translated


class TestJustification:
    def test_shelling_orders_are_weak_when_facets_small(self):
        def small_facets(c):
            return not c.is_void and all(
                f.bit_count() <= c.universe.n - 2 for f in c.facets)

        for c in seeded_complexes(60, seed=1234, n_range=(4, 7), accept=small_facets):
            if len(c.facets) <= 5:
                orders = [p for p in permutations(c.facets)
                          if sc.check_shelling_order(c, p).ok]
            else:
                cert = sc.find_shelling_order(c)
                orders = [cert.sequence] if cert else []
            for p in orders:
                assert sc.check_weak_shelling_order(c, p).ok


class TestRemark:
    def test_every_order_weak_when_trivially_weak(self):
        import random
        rng = random.Random(5)
        for c in seeded_complexes(40, seed=808, n_range=(4, 8),
                                  accept=sc.is_trivially_weakly_shellable):
            r = len(c.facets)
            if r <= 5:
                perms = list(permutations(c.facets))
            else:
                perms = []
                for _ in range(12):
                    p = list(c.facets)
                    rng.shuffle(p)
                    perms.append(tuple(p))
            for p in perms:
                assert sc.check_weak_shelling_order(c, p).ok


class TestWeakFlagSharpening:
    def test_weak_orders_of_flag_duals_are_shelling_orders(self):
        import random
        rng = random.Random(6)
        checked = 0
        seed = 0
        while checked < 40:
            seed += 1
            c = sc.random_flag_complex(seed, rng.randint(4, 8), rng.uniform(0.3, 0.8))
            dual = sc.alexander_dual(c)
            if dual.is_void or len(dual.facets) < 2:
                continue
            checked += 1
            if len(dual.facets) <= 5:
                perms = list(permutations(dual.facets))
            else:
                perms = [tuple(rng.sample(dual.facets, len(dual.facets)))
                         for _ in range(15)]
                cert = sc.find_weak_shelling_order(dual)
                if cert is not None:
                    perms.append(cert.sequence)
            for p in perms:
                if sc.check_weak_shelling_order(dual, p).ok:
                    assert sc.check_shelling_order(dual, p).ok


class TestFlagDualRefutation:
    """The dual of a flag complex has a shelling exactly when the complex's
    1-skeleton has no chordless cycle of four or more vertices."""

    @staticmethod
    def flag_duals():
        """(dual, has a hole) for the non-void duals of seeded flag complexes."""
        for c in seeded_flag_complexes(300, seed=2108, n_range=(4, 9)):
            dual = sc.alexander_dual(c)
            if not dual.is_void:
                hole = brute_chordless_cycle(c.universe.labels, skeleton_edges(c.facet_members()))
                yield dual, hole is not None

    def test_none_exactly_when_the_skeleton_has_a_hole(self):
        holes = 0
        for dual, holed in self.flag_duals():
            assert (sc.find_shelling_order(dual) is None) == holed, dual.facet_members()
            holes += holed
        assert holes >= 100

    def test_a_hole_is_refuted_without_a_search(self, monkeypatch):
        from shellcert import orders

        def no_search(*args):
            raise AssertionError("searched")

        holed = [dual for dual, holed in self.flag_duals() if holed]
        monkeypatch.setattr(orders, "_search", no_search)
        assert len(holed) >= 100
        assert all(sc.find_shelling_order(dual) is None for dual in holed)

    @staticmethod
    def chordal_duals(count, seed, n_range=(8, 36)):
        """The non-void duals of the flag complexes of random chordal graphs.

        Each new vertex is joined to part of one of the cliques made so far,
        a clique being a vertex with its earlier neighbours, so each vertex's
        earlier neighbours are pairwise adjacent and the graph is chordal.
        Labels are shuffled, and the dual is read off the non-edges: its
        facets are their complements."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            n = rng.randint(*n_range)
            label = rng.sample(range(n), n)
            cliques = [()]
            edges = set()
            for v in range(n):
                near = [u for u in rng.choice(cliques) if rng.random() < 0.8]
                edges.update(frozenset((label[u], label[v])) for u in near)
                cliques.append(tuple(near) + (v,))
            facets = [set(range(n)) - e for e in map(frozenset, combinations(range(n), 2))
                      if e not in edges]
            if facets:
                out.append(sc.from_facets(VertexSet.of(range(n)), facets))
        return out

    def test_every_flag_dual_is_answered_without_a_search(self, monkeypatch):
        from shellcert import orders

        def no_search(*args):
            raise AssertionError("searched")

        flag = list(self.flag_duals())
        chordal = self.chordal_duals(100, seed=1979)
        monkeypatch.setattr(orders, "_search", no_search)
        shelled = 0
        for dual, holed in flag + [(d, False) for d in chordal]:
            cert = sc.find_shelling_order(dual)
            assert (cert is None) == holed, dual.facet_members()
            if cert is not None:
                assert sc.check_shelling_order(dual, cert)
                shelled += 1
        assert len(flag) >= 250 and shelled >= 200
        assert max(d.universe.n for d in chordal) >= 30
        assert max(len(d.facets) for d in chordal) >= 500

    def test_same_answer_as_the_search_wherever_it_decides(self, monkeypatch):
        from shellcert import orders

        monkeypatch.setattr(orders, "NODE_BUDGET", 2_000)  # keeps the undecided searches short
        decided = 0
        for dual, _ in self.flag_duals():
            try:
                searched = orders._search(dual, sc.SHELLING, orders._shelling_moves)
            except sc.Undecided:
                continue
            assert_same_existence(dual, searched)
            decided += 1
        assert decided >= 200
