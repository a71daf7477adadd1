import contextlib
from itertools import combinations

import pytest

import shellcert as sc
from shellcert import catalog, facts
from shellcert.catalog import dunce_hat, gcd_violator, strong_gcd_witness
from shellcert.facts import (
    FALSE,
    OUT_OF_SCOPE,
    SLOTS,
    TRUE,
    UNKNOWN,
    FactConflict,
    FactTable,
    Slot,
    build_fact_table,
    close_under_rules,
)
from shellcert.homology import cm_reports

from conftest import seeded_complexes, seeded_flag_complexes
from oracles import brute_chordless_cycle


def table_with(flag=False, **values):
    t = FactTable(flag=flag)
    for name, (value, prov) in values.items():
        t.slots[name] = Slot(value, prov)
    return t


class TestClosure:
    def test_gcd_true_infers_golod(self):
        t = table_with(strong_gcd=(TRUE, "computed"))
        close_under_rules(t)
        assert t.slots["golod"].value == TRUE
        assert t.slots["golod"].provenance == "inferred:gcd-implies-golod"

    def test_shellable_true_infers_everything(self):
        t = table_with(dual_shellable=(TRUE, "computed"))
        close_under_rules(t)
        assert t.values() == (TRUE, TRUE, TRUE, TRUE)
        assert t.slots["dual_shellable"].provenance == "computed"
        assert t.slots["strong_gcd"].provenance.startswith("inferred")

    def test_golod_false_propagates_backwards(self):
        t = table_with(golod=(FALSE, "computed"))
        close_under_rules(t)
        assert t.values() == (FALSE, FALSE, FALSE, FALSE)

    def test_idempotent(self):
        t = table_with(dual_shellable=(TRUE, "computed"))
        close_under_rules(t)
        snapshot = [(s.value, s.provenance) for s in t.slots.values()]
        close_under_rules(t)
        assert snapshot == [(s.value, s.provenance) for s in t.slots.values()]

    def test_inferred_never_overwrites_computed(self):
        t = table_with(strong_gcd=(TRUE, "computed"), golod=(TRUE, "computed"))
        close_under_rules(t)
        assert t.slots["golod"].provenance == "computed"

    def test_conflict_raises(self):
        t = table_with(strong_gcd=(TRUE, "computed"), golod=(FALSE, "computed"))
        with pytest.raises(FactConflict):
            close_under_rules(t)

    def test_flag_equalizes(self):
        t = table_with(flag=True, dual_seq_cm=(FALSE, "computed"))
        close_under_rules(t)
        assert t.values() == (FALSE, FALSE, FALSE, FALSE)

    def test_flag_disagreement_raises(self):
        t = table_with(flag=True, dual_shellable=(TRUE, "computed"),
                       golod=(FALSE, "computed"))
        with pytest.raises(FactConflict):
            close_under_rules(t)


class TestBuildFactTable:
    def test_gcd_witness_row(self):
        t = build_fact_table(strong_gcd_witness())
        assert t.values() == (FALSE, TRUE, FALSE, TRUE)
        assert t.slots["dual_shellable"].provenance == "computed"
        assert t.slots["strong_gcd"].provenance == "computed"
        assert t.slots["dual_seq_cm"].provenance == "computed"
        assert t.slots["golod"].provenance == "inferred:gcd-implies-golod"

    def test_dunce_dual_row(self):
        t = build_fact_table(sc.alexander_dual(dunce_hat()))
        assert t.values() == (FALSE, TRUE, TRUE, TRUE)
        assert t.slots["golod"].provenance.startswith("inferred")

    def test_violator_row(self):
        t = build_fact_table(gcd_violator())
        assert t.values() == (FALSE, FALSE, FALSE, OUT_OF_SCOPE)
        assert t.slots["golod"].note  # records that nothing was verified

    def test_scm_by_field_recorded(self):
        t = build_fact_table(strong_gcd_witness())
        assert t.scm_by_field == {"GF(2)": False, "Q": False}

    def test_full_simplex(self):
        c = sc.from_facets(sc.VertexSet.of(range(1, 4)), [{1, 2, 3}])
        t = build_fact_table(c)
        assert t.values() == (TRUE, TRUE, TRUE, TRUE)

    def test_tiny_threshold_never_fabricates(self, monkeypatch):
        # a budgeted search may still prove FALSE by exhausting its region,
        # or find a certificate; it must never claim the wrong thing
        exact = build_fact_table(dunce_hat())
        for budget in (1, 10, 100, 1000):
            monkeypatch.setattr("shellcert.orders.NODE_BUDGET", budget)
            t = build_fact_table(dunce_hat())
            for name in ("dual_shellable", "strong_gcd"):
                assert t.slots[name].value in (exact.slots[name].value, UNKNOWN)

    def test_nonfaces_computed_once_per_table(self, monkeypatch):
        from shellcert import complexes

        original = complexes._minimal_transversals
        calls = []

        def counting(family):
            calls.append(sorted(family))
            return original(family)

        monkeypatch.setattr(complexes, "_minimal_transversals", counting)
        for maker in catalog.FIXTURES.values():
            c = maker()
            calls.clear()
            build_fact_table(c)
            full = c.universe.full_mask
            assert calls == [sorted(full ^ f for f in c.facets)]

    def test_sequential_cm_sweeps_per_table(self, monkeypatch):
        original = facts.is_sequentially_cm
        calls = []

        def counting(c, field):
            calls.append(str(field))
            return original(c, field)

        monkeypatch.setattr(facts, "is_sequentially_cm", counting)
        # GF(2) says sequentially CM, so Q follows without its own sweep
        t = build_fact_table(catalog.FIXTURES["dunce-hat-dual"]())
        assert calls == ["GF(2)"]
        assert t.scm_by_field == {"GF(2)": True, "Q": True}
        # GF(2) fails, so Q is computed and the split is kept
        calls.clear()
        t = build_fact_table(catalog.FIXTURES["projective-plane"]())
        assert calls == ["GF(2)", "Q"]
        assert t.scm_by_field == {"GF(2)": False, "Q": True}
        # Q listed first has no prime verdict to lean on
        calls.clear()
        t = build_fact_table(catalog.FIXTURES["dunce-hat-dual"](), fields=(sc.QQ, sc.GF2))
        assert calls == ["Q", "GF(2)"]
        assert t.scm_by_field == {"Q": True, "GF(2)": True}
        # a shellable dual is sequentially CM over every field: nothing is swept
        calls.clear()
        t = build_fact_table(catalog.FIXTURES["gcd-violator-dual"]())
        assert calls == []
        assert t.scm_by_field == {"GF(2)": True, "Q": True}
        t = build_fact_table(catalog.FIXTURES["gcd-violator-dual"](), fields=(sc.QQ, sc.GF2, sc.QQ))
        assert calls == []
        assert list(t.scm_by_field.items()) == [("Q", True), ("GF(2)", True)]
        # a field listed twice is swept once, in first-seen order
        for fields, expected in (((sc.GF2, sc.GF2), ["GF(2)"]),
                                 ((sc.QQ, sc.GF2, sc.QQ, sc.GF2), ["Q", "GF(2)"])):
            calls.clear()
            t = build_fact_table(catalog.FIXTURES["projective-plane"](), fields=fields)
            assert calls == expected
            assert list(t.scm_by_field) == expected

    def test_empty_field_list_rejected(self):
        # with no field nothing could be swept or recorded, whichever slot decides
        for c in (gcd_violator(), sc.alexander_dual(gcd_violator()), strong_gcd_witness()):
            with pytest.raises(sc.InputError):
                build_fact_table(c, fields=())

    def test_ghosted_complex_skips_ghost_sensitive_rules(self, monkeypatch):
        # two edges of a path: dual facets miss a single vertex each, the
        # shelling-to-gcd implication does not apply
        derived = counting(monkeypatch, "gcd_order_from_dual")
        searched = counting(monkeypatch, "find_strong_gcd_order")
        c = sc.from_facets(sc.VertexSet.of(range(1, 4)), [{1, 2}, {2, 3}])
        d = sc.alexander_dual(c)
        t = build_fact_table(d)  # d has a ghost vertex
        assert not t.ghost_free
        assert t.slots["dual_shellable"].value == TRUE
        assert t.slots["strong_gcd"].value == FALSE  # no conflict raised
        # the dual's shelling is no strong gcd-order here, so the search decides
        assert derived == [] and len(searched) == 1

    def test_no_conflicts_on_random_samples(self):
        for c in seeded_complexes(50, seed=135, n_range=(3, 6)):
            t = build_fact_table(c)
            for name in ("dual_shellable", "strong_gcd"):
                assert t.slots[name].value in (TRUE, FALSE, UNKNOWN)
            close_under_rules(t)  # idempotence holds and raises nothing

    def test_flag_complexes_get_equal_rows(self):
        checked = 0
        seed = 0
        while checked < 30:
            seed += 1
            c = sc.random_flag_complex(seed, 5 + seed % 3, 0.55)
            d = sc.alexander_dual(c)
            if d.is_void:
                continue
            checked += 1
            t = build_fact_table(c)
            assert t.flag
            vals = set(t.values())
            assert len(vals) == 1, t.as_text()


def counting(monkeypatch, name):
    """Record the arguments of every call facts makes to one of its imports."""
    calls = []
    fn = getattr(facts, name)

    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(facts, name, wrapped)
    return calls


def searched_table(c):
    """A fact table with every slot decided on its own: the shelling search,
    the strong gcd search and the dual's sweep, then the closure."""
    t = FactTable(flag=sc.is_flag(c), ghost_free=not c.has_ghost_vertices)
    dual = sc.alexander_dual(c)
    for name, find, arg in (("dual_shellable", sc.find_shelling_order, dual),
                            ("strong_gcd", sc.find_strong_gcd_order, c)):
        with contextlib.suppress(sc.Undecided):
            t._set(name, FALSE if find(arg) is None else TRUE, "computed")
    if not dual.is_void:
        reports = cm_reports(sc.is_sequentially_cm, sc.restrict_to_support(dual), sc.DEFAULT_FIELDS)
        t.scm_by_field = {str(f): rep.ok for f, rep in reports}
        verdicts = set(t.scm_by_field.values())
        if len(verdicts) == 1:
            t._set("dual_seq_cm", TRUE if verdicts.pop() else FALSE, "computed")
    if not t.flag:
        t.slots["golod"].value = OUT_OF_SCOPE
    return close_under_rules(t)


class TestShellingCertificate:
    """A shelling of the dual of a ghost-free complex settles the strong gcd slot."""

    def test_validated_order_replaces_the_gcd_search(self, monkeypatch):
        checked = counting(monkeypatch, "check_strong_gcd_order")
        searched = counting(monkeypatch, "find_strong_gcd_order")
        c = catalog.FIXTURES["gcd-violator-dual"]()
        t = build_fact_table(c)
        assert t.ghost_free
        assert (t.slots["strong_gcd"].value, t.slots["strong_gcd"].provenance) == (TRUE, "computed")
        assert searched == []
        [(on, order)] = checked
        assert on is c
        shelling = sc.find_shelling_order(sc.alexander_dual(c))
        assert order.sequence == sc.gcd_order_from_dual(c, shelling).sequence

    def test_rejected_order_is_a_conflict(self, monkeypatch):
        # the theorem makes every such order a strong gcd-order, so a rejection is a bug
        rejected = sc.CheckReport(sc.PairWitness(0, 1))
        monkeypatch.setattr(facts, "check_strong_gcd_order", lambda c, order: rejected)
        searched = counting(monkeypatch, "find_strong_gcd_order")
        with pytest.raises(FactConflict):
            build_fact_table(catalog.FIXTURES["gcd-violator-dual"]())
        assert searched == []

    def test_same_table_as_searching_every_slot(self, small_complexes):
        shelled = 0
        for c in small_complexes:
            t, expected = build_fact_table(c), searched_table(c)
            assert t.values() == expected.values(), c.facet_members()
            assert t.scm_by_field == expected.scm_by_field
            shelled += bool(t.scm_by_field) and t.value("dual_shellable") == TRUE
        assert shelled >= 80  # the certificate path is really taken


class TestIndependentFlagLegs:
    def test_four_legs_agree(self):
        checked = 0
        seed = 100
        while checked < 25:
            seed += 1
            c = sc.random_flag_complex(seed, 4 + seed % 4, 0.5)
            dual = sc.alexander_dual(c)
            if dual.is_void:
                continue
            checked += 1
            shellable = sc.find_shelling_order(dual) is not None
            gcd = sc.find_strong_gcd_order(c) is not None
            support = sc.restrict_to_support(dual)
            cm2 = sc.is_cohen_macaulay(support, sc.GF2).ok
            cmq = sc.is_cohen_macaulay(support, sc.QQ).ok
            assert shellable == gcd == cm2 == cmq


class TestFlagTablesFromTheSkeleton:
    """A flag table is all T exactly when the 1-skeleton is chordal; the dual
    of a flag complex with a chordless cycle is refuted with no search."""

    def test_reproducer_runs_no_search_and_no_sweep(self, monkeypatch):
        # its dual has 27 facets, and the shelling search gives up on them
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr("shellcert.orders._search", no_search)
        calls = [counting(monkeypatch, name) for name in ("find_strong_gcd_order", "cm_reports")]
        t = build_fact_table(sc.random_flag_complex(3, 9, 0.35))
        assert t.values() == (FALSE, FALSE, FALSE, FALSE)
        assert t.scm_by_field == {"GF(2)": False, "Q": False}
        assert t.slots["dual_shellable"].provenance == "computed"
        assert calls == [[], []]

    def test_every_graph_on_five_vertices(self):
        # the clique complex's table is all T exactly when the graph has no hole
        for n in range(1, 6):
            u = sc.VertexSet.of(range(n))
            pairs = [frozenset(e) for e in combinations(range(n), 2)]
            for bits in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
                nonedges = [e for i, e in enumerate(pairs) if not bits >> i & 1]
                c = (sc.from_minimal_nonfaces(u, nonedges) if nonedges
                     else sc.from_facets(u, [range(n)]))
                expected = FALSE if brute_chordless_cycle(range(n), edges) else TRUE
                assert build_fact_table(c).values() == (expected,) * 4, edges

    def test_same_table_as_searching_every_slot(self):
        for c in seeded_flag_complexes(300, seed=2004, n_range=(4, 7)):
            t, expected = build_fact_table(c), searched_table(c)
            for name in SLOTS:
                if expected.slots[name].decided:
                    assert t.value(name) == expected.value(name), (name, c.facet_members())
            assert t.scm_by_field == expected.scm_by_field
