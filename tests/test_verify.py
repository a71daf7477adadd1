from collections import Counter
from itertools import permutations

import pytest

import shellcert as sc
from shellcert import catalog, verify
from shellcert.cli import EX_FAIL, main
from shellcert.verify import ClaimResult, run_claims

from conftest import seeded_complexes


def test_all_claims_pass():
    results = run_claims()
    failures = [r for r in results if not r.passed]
    assert failures == []
    assert len(results) >= 15
    # one fact-table claim per catalog.CLAIMS row, in its order
    fact_rows = [r.name.split(":")[0] for r in results if ": fact table is" in r.name]
    assert fact_rows == list(catalog.CLAIMS)


def test_a_crashing_claim_fails_and_the_next_still_runs(monkeypatch, capsys):
    def crashes():
        raise ValueError("boom")

    monkeypatch.setattr(verify, "_claims", lambda: iter([("crashes", crashes),
                                                         ("passes", lambda: (True, ""))]))
    assert run_claims() == [ClaimResult("crashes", False, "error: ValueError('boom')"),
                            ClaimResult("passes", True, "")]
    assert main(["verify-paper"]) == EX_FAIL
    assert capsys.readouterr().out == (
        "[FAIL] crashes (error: ValueError('boom'))\n[PASS] passes\n1/2 claims passed\n")


def test_the_prefix_walk_agrees_with_checking_every_order():
    verdicts = Counter()
    for c in seeded_complexes(400, seed=36, n_range=(4, 8),
                              accept=lambda c: 2 <= len(sc.minimal_nonfaces(c)) <= 6):
        nf = sc.minimal_nonfaces(c)
        naive = not any(sc.check_strong_gcd_order(c, p) for p in permutations(nf))
        assert verify._no_strong_gcd_order(c) == naive
        verdicts[naive, len(nf)] += 1
    # both verdicts at every count from 2 to 6 non-faces
    assert set(verdicts) == {(v, r) for v in (True, False) for r in range(2, 7)}
    assert verify._no_strong_gcd_order(catalog.gcd_violator())
    assert not verify._no_strong_gcd_order(catalog.strong_gcd_witness())


def test_the_prefix_walk_covers_all_720_orders_with_fewer_checks(monkeypatch):
    checked = []

    def recording(c, order):
        rep = sc.check_strong_gcd_order(c, order)
        checked.append((tuple(order), rep.witness))
        return rep

    monkeypatch.setattr(verify, "check_strong_gcd_order", recording)
    c = catalog.gcd_violator()
    assert verify._no_strong_gcd_order(c)
    # 30 distinct orders, as the verify and catalog docstrings and the README say
    assert len({order for order, _ in checked}) == len(checked) == 30
    # every order shares its first i entries with a checked order rejected at (i, j)
    covered = {p for p in permutations(sc.minimal_nonfaces(c))
               if any(p[:w.i] == order[:w.i] for order, w in checked)}
    assert len(covered) == 720


def test_a_witness_that_is_not_a_failing_pair_fails_the_claim(monkeypatch):
    # negative control: the first two canonical non-faces of gcd-violator meet, so
    # (0, 1) is no failing pair there, and trusting it would prune every order
    bogus = sc.CheckReport(sc.PairWitness(0, 1))
    monkeypatch.setattr(verify, "check_strong_gcd_order", lambda c, order: bogus)
    claim, = [r for r in run_claims() if r.name.startswith("gcd-violator: no strong gcd-order")]
    assert not claim.passed and claim.detail.startswith("error: ValueError(")


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 0), (-1, 2), (0, 3)])
def test_a_wrong_witness_raises_rather_than_hiding_an_order(monkeypatch, i, j):
    # the canonical non-faces of the gcd witness are {1,2,3}, {1,2,6}, {4,5,6}: (0, 1) meet,
    # {1,2,6} fills (0, 2), and the rest name no two of the three positions with i < j
    c = catalog.strong_gcd_witness()
    monkeypatch.setattr(verify, "check_strong_gcd_order",
                        lambda c, order: sc.CheckReport(sc.PairWitness(i, j)))
    with pytest.raises(ValueError, match="not a failing pair"):
        verify._no_strong_gcd_order(c)


def test_reversed_nonface_order_reports_witness():
    # negative control: the bundled gcd order reversed is checked honestly
    c = catalog.strong_gcd_witness()
    u = c.universe
    reversed_order = [u.mask(m) for m in reversed(catalog.strong_gcd_witness_nonface_order())]
    rep = sc.check_strong_gcd_order(c, reversed_order)
    if not rep.ok:
        i, j = rep.witness.i, rep.witness.j
        seq = reversed_order
        assert seq[i] & seq[j] == 0
        r = len(seq)
        union = seq[i] | seq[j]
        assert not any(k != j and seq[k] & ~union == 0 for k in range(i + 1, r))
    else:
        # the reversed order happens to be valid; the checker must agree with
        # the duality translation either way
        dual = sc.alexander_dual(c)
        full = u.full_mask
        assert sc.check_weak_shelling_order(
            dual, [full ^ m for m in reversed(reversed_order)]).ok


def test_tampered_dunce_hat_fails_cm_with_witness():
    # negative control: removing one facet punches a hole the link test sees
    facets = list(catalog.DUNCE_HAT_FACETS)[:-1]
    u = sc.VertexSet.of(range(1, 9))
    tampered = sc.from_facets(u, facets)
    failed = False
    for f in (sc.GF2, sc.QQ):
        rep = sc.is_cohen_macaulay(sc.restrict_to_support(tampered), f)
        if rep.ok:
            continue
        failed = True
        assert rep.witness is not None
        lk = sc.link(sc.restrict_to_support(tampered), rep.witness.face)
        prof = sc.reduced_homology(lk, f)
        assert prof.rank(rep.witness.degree) == rep.witness.rank
    assert failed


def test_claims_corpus_matches_engine():
    for name, expected in catalog.CLAIMS.items():
        c = catalog.FIXTURES[name]()
        table = sc.build_fact_table(c)
        got = table.values()
        for slot_value, claim in zip(got, expected):
            if claim.startswith("claim:"):
                # the corpus asserts a value this engine does not compute
                assert slot_value == "out-of-scope"
            else:
                assert slot_value == claim, (name, got, expected)
