import shellcert as sc
from shellcert import catalog, verify
from shellcert.cli import EX_FAIL, main
from shellcert.verify import ClaimResult, run_claims


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
