import itertools
import random
import time

import pytest

import shellcert as sc
from shellcert import homology
from shellcert.catalog import FIXTURES, dunce_hat, gcd_violator, pentagon_circle, projective_plane
from shellcert.complexes import VertexSet, _faces_by_size
from shellcert.homology import rank_gf2, rank_sparse

from conftest import facet_sets, seeded_complexes
from oracles import (
    brute_reduced_homology,
    brute_shelling_failure,
    euler_from_faces,
    homology_facet_counts,
    rref_rank,
)


def cx(n, facets):
    return sc.from_facets(VertexSet.of(range(1, n + 1)), facets)


class TestFieldSpec:
    def test_parse(self):
        assert sc.Field.parse("gf2") == sc.GF2
        assert sc.Field.parse("GF5").p == 5
        assert sc.Field.parse("q") == sc.QQ

    def test_parse_reads_what_str_prints(self):
        for f in (sc.GF2, sc.Field.gf(3), sc.Field.gf(2**31 - 1), sc.QQ):
            assert sc.Field.parse(str(f)) == f
        assert sc.Field.parse("gf(3)") == sc.Field.parse("gf3")
        for text in ("gf(4)", "gf()", "gf(3", "gfx"):
            with pytest.raises(sc.InputError):
                sc.Field.parse(text)

    def test_nonprime_rejected(self):
        with pytest.raises(sc.InputError):
            sc.Field.gf(6)
        with pytest.raises(sc.InputError):
            sc.Field.parse("gf9")

    def test_huge_characteristic_rejected_quickly(self):
        # trial division of a 26-digit number would not finish; the bound answers at once
        start = time.perf_counter()
        with pytest.raises(sc.InputError, match="below 2"):
            sc.Field.gf(10**25 + 13)
        assert time.perf_counter() - start < 1.0
        assert sc.Field.gf(2**31 - 1).p == 2**31 - 1

    def test_str(self):
        assert str(sc.GF2) == "GF(2)"
        assert str(sc.QQ) == "Q"


def sparse(rows):
    """Dense rows as ``{column: entry}`` dicts, zeros kept for the kernel to drop."""
    return [dict(enumerate(r)) for r in rows]


class TestRanks:
    def test_known_small_matrix(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert rank_sparse(sparse(rows), None) == 2
        assert rank_sparse(sparse(rows), 5) == 2
        assert rref_rank(rows) == 2

    def test_rank_differs_by_characteristic(self):
        rows = [[2, 0], [0, 1]]
        assert rank_sparse(sparse(rows), None) == 2
        assert rank_sparse(sparse(rows), 2) == 1
        assert rank_sparse(sparse([[3]]), None) == 1
        assert rank_sparse(sparse([[3]]), 3) == 0
        for p in (None, 2, 3):
            assert rank_sparse([], p) == 0
            assert rank_sparse([{}, {0: 0, 1: 0}], p) == 0

    def test_against_oracle_on_random_matrices(self):
        rng = random.Random(99)
        for _ in range(120):
            m = rng.randint(1, 12)
            n = rng.randint(1, 12)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            assert rank_sparse(sparse(rows), None) == rref_rank(rows)
            for p in (2, 3, 7):
                assert rank_sparse(sparse(rows), p) == rref_rank(rows, p)
            cols_gf2 = []
            for j in range(n):
                v = 0
                for i in range(m):
                    if rows[i][j] % 2:
                        v |= 1 << i
                cols_gf2.append(v)
            assert rank_gf2(cols_gf2) == rref_rank(rows, 2)

    def test_bigger_matrices_match_oracle(self):
        rng = random.Random(4)
        for _ in range(3):
            rows = [[rng.randint(-2, 2) for _ in range(60)] for _ in range(50)]
            assert rank_sparse(sparse(rows), None) == rref_rank(rows)
            assert rank_sparse(sparse(rows), 2) == rref_rank(rows, 2)


class TestReducedHomology:
    def test_pentagon_circle(self):
        k = pentagon_circle()
        for f in (sc.GF2, sc.QQ):
            prof = sc.reduced_homology(k, f)
            assert prof.rank(0) == 0 and prof.rank(1) == 1

    def test_unlisted_degree_has_rank_zero(self):
        prof = sc.reduced_homology(pentagon_circle(), sc.GF2)
        assert [d for d, _ in prof.ranks] == [-1, 0, 1]
        assert prof.rank(-2) == prof.rank(2) == 0

    def test_full_simplex_acyclic(self):
        c = cx(4, [{1, 2, 3, 4}])
        for f in (sc.GF2, sc.QQ, sc.Field.gf(3)):
            assert sc.reduced_homology(c, f).total == 0

    def test_dunce_hat_acyclic(self):
        d = dunce_hat()
        for f in (sc.GF2, sc.QQ):
            assert sc.reduced_homology(d, f).total == 0

    def test_empty_complex(self):
        c = cx(2, [()])
        prof = sc.reduced_homology(c, sc.QQ)
        assert prof.rank(-1) == 1

    def test_two_points(self):
        c = cx(2, [{1}, {2}])
        prof = sc.reduced_homology(c, sc.QQ)
        assert prof.rank(-1) == 0 and prof.rank(0) == 1

    def test_void_rejected(self):
        with pytest.raises(sc.InputError):
            sc.reduced_homology(cx(2, []), sc.QQ)

    def test_projective_plane_detects_characteristic(self):
        p = projective_plane()
        prof2 = sc.reduced_homology(p, sc.GF2)
        profq = sc.reduced_homology(p, sc.QQ)
        prof3 = sc.reduced_homology(p, sc.Field.gf(3))
        assert (prof2.rank(1), prof2.rank(2)) == (1, 1)
        assert (profq.rank(1), profq.rank(2)) == (0, 0)
        assert prof3.ranks == profq.ranks

    def test_matches_brute_force_oracle(self):
        # RP^2 and its cone have ranks that depend on the characteristic; the
        # 7-9-vertex complexes clear rows in every layer (see TestClearing)
        known = [projective_plane(), cone_over_projective_plane(), dunce_hat()]
        for c in known + seeded_complexes(40, seed=616, n_range=(2, 6)) + clearing_inputs():
            if c.is_void:
                continue
            for f, p in ((sc.GF2, 2), (sc.Field.gf(3), 3), (sc.QQ, None)):
                prof = sc.reduced_homology(c, f)
                expected = brute_reduced_homology(c.universe.labels, facet_sets(c), p)
                assert dict(prof.ranks) == expected

    def test_shellings_count_the_betti_numbers(self):
        # homology facets of a validated shelling against elimination; the
        # facet count shares no code with the search or the elimination
        duals = [sc.alexander_dual(make()) for make in FIXTURES.values()]
        shellable = [c for c in duals if not c.is_void and sc.find_shelling_order(c)]
        assert len(shellable) == 2  # the duals of strong-gcd-witness-dual and gcd-violator-dual
        shellable += seeded_complexes(60, seed=4141, n_range=(3, 7), density=(0.2, 0.6),
                                      accept=lambda c: not c.is_void and sc.find_shelling_order(c))
        wedges = 0
        for c in shellable:
            order = sc.find_shelling_order(c).members()
            assert brute_shelling_failure(order) is None
            counts = homology_facet_counts(order)
            wedges += bool(counts)
            for f in (sc.GF2, sc.QQ):
                ranks = {d: r for d, r in sc.reduced_homology(c, f).ranks if r}
                assert ranks == counts
        assert wedges >= 20  # the sample is not all contractible

    def test_euler_identity_on_samples(self, small_complexes):
        for c in small_complexes[:100]:
            if c.is_void:
                continue
            chi = sc.reduced_euler_characteristic(c)
            assert chi == euler_from_faces(facet_sets(c))
            for f in (sc.GF2, sc.QQ):
                assert sc.reduced_homology(c, f).alternating_sum() == chi


class TestCohenMacaulay:
    def test_glued_triangles_witness(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        for f in (sc.GF2, sc.QQ):
            rep = sc.is_cohen_macaulay(c, f)
            assert not rep.ok
            assert rep.witness.face == (3,)
            assert rep.witness.degree == 0
            assert rep.witness.rank == 1

    def test_witness_replays(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        for f in (sc.GF2, sc.QQ):
            rep = sc.is_cohen_macaulay(c, f)
            lk = sc.link(c, rep.witness.face)
            prof = sc.reduced_homology(lk, f)
            assert rep.witness.degree < lk.dim
            assert prof.rank(rep.witness.degree) == rep.witness.rank

    def test_dunce_hat_is_cm(self):
        d = dunce_hat()
        assert sc.is_cohen_macaulay(d, sc.GF2).ok
        assert sc.is_cohen_macaulay(d, sc.QQ).ok

    def test_projective_plane_field_split(self):
        p = projective_plane()
        assert sc.is_cohen_macaulay(p, sc.QQ).ok
        assert not sc.is_cohen_macaulay(p, sc.GF2).ok

    def test_ghost_vertices_play_no_part(self):
        # a ghost lies in no face, so each report, witness included, is the support's
        ghosted = lambda c: not c.is_void and c.has_ghost_vertices  # noqa: E731
        seeded = seeded_complexes(150, seed=2433, n_range=(3, 8), accept=ghosted)
        cases = [cx(3, [{1, 2}]), cx(4, [{1}, {3}]), cx(3, [()]), sc.alexander_dual(sc.random_complex(6, 6, 0.6))]
        cases += filter(ghosted, seeded + [sc.alexander_dual(c) for c in seeded])
        assert len(cases) >= 100
        verdicts = set()
        for c in cases:
            support = sc.restrict_to_support(c)
            assert support.universe.n < c.universe.n
            for f in (sc.GF2, sc.Field.gf(3), sc.QQ):
                for test in (sc.is_cohen_macaulay, sc.is_sequentially_cm):
                    rep = test(c, f)
                    assert rep == test(support, f)
                    assert rep.degenerate is None
                    verdicts.add(rep.ok)
        assert verdicts == {True, False}

    def test_void_rejected(self):
        for test in (sc.is_cohen_macaulay, sc.is_sequentially_cm):
            with pytest.raises(sc.InputError):
                test(cx(2, []), sc.QQ)


def cone_over(c, apex="a"):
    """c coned off at a new last vertex ``apex``; the apex link is c itself."""
    u = VertexSet.of(c.universe.labels + (apex,))
    return sc.from_facets(u, [set(F) | {apex} for F in c.facet_members()])


def cone_over_projective_plane():
    return cone_over(projective_plane())


def edge_join_two_edges():
    """The join of the edge ab with two disjoint edges: pure, and the first
    failing link, the two edges at ab, lies under the cone links of the
    empty face and of b."""
    return sc.from_facets(VertexSet.of((1, 2, 3, 4, "a", "b")),
                          [{1, 2, "a", "b"}, {3, 4, "a", "b"}])


def oracle_cm_witness(c, p):
    """First face whose link has homology below its dimension over GF(p)
    (over Q when p is None), by brute force.

    Shares only ``link`` and the face order with the library; the ranks come
    from ``oracles.brute_reduced_homology`` with no GF(2) screen.
    Returns (face labels, degree, rank) or None.
    """
    for sigma in sc.all_faces(c):
        lk = sc.link(c, sigma)
        if lk.is_void or lk.dim < 1:
            continue
        ranks = brute_reduced_homology(lk.universe.labels, facet_sets(lk), p)
        for i in range(-1, lk.dim):
            if ranks.get(i, 0):
                return c.universe.members(sigma), i, ranks[i]
    return None


def oracle_scm_witness(c, p):
    """Pure-skeleton reduction over the brute-force sweep, top skeleton first."""
    for i in [c.dim] + list(range(c.dim)):
        w = oracle_cm_witness(sc.restrict_to_support(sc.pure_skeleton(c, i)), p)
        if w is not None:
            return w + (i,)
    return None


ORACLE_FIELDS = ((sc.GF2, 2), (sc.Field.gf(3), 3), (sc.QQ, None))


def triangle_and_edge():
    """A Cohen-Macaulay top skeleton whose 1-faces are not all in it: the pure
    1-skeleton is disconnected."""
    return sc.from_facets(VertexSet.of(range(5)), [{0, 1, 2}, {3, 4}])


def q_sweep_inputs():
    # in the triangle chain both vertex 3 and vertex 5 have disconnected links;
    # the witness must be the first in canonical order
    extra = [projective_plane(), cone_over_projective_plane(),
             cx(7, [{1, 2, 3}, {3, 4, 5}, {5, 6, 7}]), triangle_and_edge()]
    # pure inputs with cone links: cone links pass without elimination
    cones = [edge_join_two_edges()] + [cone_over(c) for c in seeded_complexes(
        8, seed=1729, n_range=(3, 5),
        accept=lambda c: c.is_pure and c.dim >= 1 and not c.has_ghost_vertices)]
    return extra + cones + seeded_complexes(40, seed=8675309, n_range=(3, 6),
                                            accept=lambda c: not c.is_void and not c.has_ghost_vertices)


class TestQSweepAgainstOracle:
    """Link sweeps over GF(2), GF(3) and Q (with its GF(2) screen) against brute force."""

    def test_cone_over_projective_plane_passes_q_only(self):
        # GF(2) finds RP^2 homology in the apex link; Q must look and clear it
        cone = cone_over_projective_plane()
        rep2 = sc.is_cohen_macaulay(cone, sc.GF2)
        assert not rep2.ok and rep2.witness.face == ("a",)
        assert sc.is_cohen_macaulay(cone, sc.QQ).ok
        assert sc.is_sequentially_cm(cone, sc.QQ).ok

    def test_cohen_macaulay_matches_oracle(self):
        for c in q_sweep_inputs():
            for f, p in ORACLE_FIELDS:
                rep = sc.is_cohen_macaulay(c, f)
                expected = oracle_cm_witness(c, p)
                assert rep.ok == (expected is None)
                if expected is not None:
                    w = rep.witness
                    assert (w.face, w.degree, w.rank, w.skeleton_dim) == expected + (None,)

    def test_sequentially_cm_matches_oracle(self):
        for c in q_sweep_inputs():
            for f, p in ORACLE_FIELDS:
                rep = sc.is_sequentially_cm(c, f)
                expected = oracle_scm_witness(c, p)
                assert rep.ok == (expected is None)
                if expected is not None:
                    w = rep.witness
                    assert (w.face, w.degree, w.rank, w.skeleton_dim) == expected


class TestCMReports:
    """``cm_reports``: each field swept once, Q skipped after a passing prime."""

    def test_skipped_q_report_is_the_sweep_report(self):
        gf3 = sc.Field.gf(3)
        for c in q_sweep_inputs():
            for test in (sc.is_cohen_macaulay, sc.is_sequentially_cm):
                for fields in ((gf3, sc.GF2, sc.QQ, sc.GF2), (sc.GF2, sc.QQ), (sc.QQ, gf3)):
                    swept = []

                    def counting(c, field):
                        swept.append(field)
                        return test(c, field)

                    pairs = list(homology.cm_reports(counting, c, fields))
                    distinct = list(dict.fromkeys(fields))
                    assert pairs == [(f, test(c, f)) for f in distinct]
                    before_q = distinct[:distinct.index(sc.QQ)]
                    q_skipped = any(rep.ok for f, rep in pairs if f in before_q)
                    assert swept == [f for f in distinct if not (f == sc.QQ and q_skipped)]

    def test_skips_q_after_gf3_passes_and_sweeps_lazily(self):
        swept = []

        def counting(c, field):
            swept.append(str(field))
            return sc.is_cohen_macaulay(c, field)

        # RP^2 is Cohen-Macaulay over GF(3) and Q, not over GF(2)
        fields = (sc.GF2, sc.Field.gf(3), sc.QQ)
        pairs = homology.cm_reports(counting, projective_plane(), fields)
        assert not next(pairs)[1].ok and swept == ["GF(2)"]
        assert [rep.ok for _, rep in pairs] == [True, True]
        assert swept == ["GF(2)", "GF(3)"]


class TestSequentiallyCM:
    def test_violator_dual_fails_inside_top_skeleton(self):
        gd = sc.restrict_to_support(sc.alexander_dual(gcd_violator()))
        for f in (sc.GF2, sc.QQ):
            rep = sc.is_sequentially_cm(gd, f)
            assert not rep.ok
            assert rep.witness.skeleton_dim == 5

    def test_top_skeleton_of_violator_dual_not_cm(self):
        gd = sc.alexander_dual(gcd_violator())
        gamma = sc.restrict_to_support(sc.pure_skeleton(gd, 5))
        for f in (sc.GF2, sc.QQ):
            assert not sc.is_cohen_macaulay(gamma, f).ok

    def test_pure_case_reduces_to_cm(self):
        for c in seeded_complexes(40, seed=27182, n_range=(3, 6),
                                  accept=lambda c: (not c.is_void and c.is_pure
                                                    and not c.has_ghost_vertices)):
            for f in (sc.GF2, sc.QQ):
                assert sc.is_sequentially_cm(c, f).ok == sc.is_cohen_macaulay(c, f).ok

    def test_dunce_hat_sequentially_cm(self):
        d = dunce_hat()
        assert sc.is_sequentially_cm(d, sc.GF2).ok
        assert sc.is_sequentially_cm(d, sc.QQ).ok

    def test_shellable_implies_sequentially_cm(self):
        count = 0
        for c in seeded_complexes(120, seed=31415, n_range=(3, 6),
                                  accept=lambda c: not c.is_void and not c.has_ghost_vertices):
            cert = sc.find_shelling_order(c)
            if cert is None:
                continue
            count += 1
            for f in (sc.GF2, sc.QQ):
                assert sc.is_sequentially_cm(c, f).ok
        assert count >= 40  # the sample really exercises the property

    def test_simplex_with_isolated_vertex(self):
        # facets of different dimensions; the pure 1-skeleton drops the spur
        c = cx(4, [{1, 2, 3}, {4}])
        for f in (sc.GF2, sc.QQ):
            assert sc.is_sequentially_cm(c, f).ok == (
                sc.is_cohen_macaulay(sc.restrict_to_support(cx(4, [{1, 2, 3}])), f).ok)


def skipped_skeleta(c):
    """Skeleta i < dim whose i-faces all lie in top facets, from the facet sets."""
    facets = facet_sets(c)
    top = [F for F in facets if len(F) == c.dim + 1]
    return [i for i in range(c.dim)
            if all(any(set(f) <= T for T in top)
                   for F in facets for f in itertools.combinations(F, i + 1))]


def oracle_top_is_cm(c, p):
    return oracle_cm_witness(sc.restrict_to_support(sc.pure_skeleton(c, c.dim)), p) is None


class TestCostarSweep:
    """One face list per link sweep, and no sweep of a skeleton of a Cohen-Macaulay top."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        fn = getattr(homology, name)

        def wrapped(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(homology, name, wrapped)
        return calls

    def test_cohen_macaulay_lists_faces_once(self, monkeypatch):
        [c] = seeded_complexes(1, seed=88, n_range=(8, 8), density=(0.5, 0.8),
                               accept=lambda c: (not c.has_ghost_vertices and c.dim >= 2
                                                 and len(c.facets) >= 4
                                                 and sc.is_cohen_macaulay(c, sc.GF2).ok))
        calls = self.counting(monkeypatch, "_faces_by_size")
        for f, _ in ORACLE_FIELDS:
            calls.clear()
            assert sc.is_cohen_macaulay(c, f).ok
            assert len(calls) == 1

    def test_pure_cohen_macaulay_input_is_swept_once(self, monkeypatch):
        [shellable] = seeded_complexes(1, seed=4242, n_range=(5, 7),
                                       accept=lambda c: (not c.is_void and c.is_pure and c.dim >= 2
                                                         and not c.has_ghost_vertices
                                                         and len(c.facets) >= 3
                                                         and sc.find_shelling_order(c) is not None))
        skeleton = sc.pure_skeleton(cx(6, [set(range(1, 7))]), 2)
        # a disk plus an edge outside it: skeleton 0 lies in the top, skeleton 1 does not
        disk_and_edge = cx(4, [{1, 2, 3}, {2, 3, 4}, {1, 4}])
        calls = self.counting(monkeypatch, "_cm_witness")
        for c, sweeps in ((dunce_hat(), 1), (skeleton, 1), (shellable, 1), (disk_and_edge, 2)):
            for f, _ in ORACLE_FIELDS:
                calls.clear()
                assert sc.is_sequentially_cm(c, f).ok
                assert len(calls) == sweeps

    def test_skeleton_outside_the_top_is_still_swept(self):
        c = triangle_and_edge()
        for f, _ in ORACLE_FIELDS:
            assert sc.is_cohen_macaulay(sc.restrict_to_support(sc.pure_skeleton(c, 2)), f).ok
            rep = sc.is_sequentially_cm(c, f)
            assert not rep.ok
            assert rep.witness == sc.CMWitness((), 0, 1, skeleton_dim=1)

    def test_skipped_skeleta_are_cohen_macaulay(self):
        # the skeleton lemma on data, with the brute-force oracle only
        sample = seeded_complexes(40, seed=16180, n_range=(4, 6), density=(0.3, 0.7),
                                  accept=lambda c: (not c.is_void and c.dim >= 1
                                                    and not c.has_ghost_vertices
                                                    and oracle_top_is_cm(c, 2)
                                                    and skipped_skeleta(c)))
        assert sum(not c.is_pure for c in sample) >= 5
        checked = 0
        for c in sample:
            for _, p in ORACLE_FIELDS:
                if not oracle_top_is_cm(c, p):
                    continue
                for i in skipped_skeleta(c):
                    assert oracle_cm_witness(sc.restrict_to_support(sc.pure_skeleton(c, i)), p) is None
                    checked += 1
        assert checked >= 3 * 40


class TestConeLinks:
    """In a pure sweep a link whose facets share a vertex outside the face is
    a cone, so it is not eliminated; its costar is still kept."""

    def test_nonpure_complexes_are_not_screened(self):
        # the top facet of the empty face's costar is a cone; the complex is not
        triangle_and_point = cx(4, [{1, 2, 3}, {4}])
        [c] = seeded_complexes(1, seed=1, n_range=(5, 7),
                               accept=lambda c: (not c.is_void and not c.is_pure
                                                 and not c.has_ghost_vertices))
        for f, p in ORACLE_FIELDS:
            assert sc.is_cohen_macaulay(triangle_and_point, f).witness == sc.CMWitness((), 0, 1)
            w = sc.is_cohen_macaulay(c, f).witness
            assert (w.face, w.degree, w.rank) == oracle_cm_witness(c, p)
        # the sample is one the purity gate decides: a sweep without it passes
        faces = _faces_by_size(c.facets)
        assert any(homology._cm_witness(c.universe, faces, f, True) is None for f, _ in ORACLE_FIELDS)

    def test_witness_under_cone_links_is_kept(self):
        c = edge_join_two_edges()
        for f, _ in ORACLE_FIELDS:
            assert sc.is_cohen_macaulay(c, f).witness == sc.CMWitness(("a", "b"), 0, 1)
            assert sc.is_sequentially_cm(c, f).witness == sc.CMWitness(("a", "b"), 0, 1, 3)

    def test_cone_links_are_not_eliminated(self, monkeypatch):
        calls = TestCostarSweep.counting(monkeypatch, "_reduced_ranks")
        for c in (edge_join_two_edges(), cone_over_projective_plane()):
            faces = _faces_by_size(c.facets)
            for f, _ in ORACLE_FIELDS:
                calls.clear()
                unscreened = homology._cm_witness(c.universe, faces, f, False)
                every_link = len(calls)
                calls.clear()
                assert sc.is_cohen_macaulay(c, f).witness == unscreened
                assert len(calls) < every_link
                # one call per link, over the sweep's own field for every field
                assert [field for _, field in calls] == [f] * len(calls)


def clearing_inputs():
    """Seeded 7-9-vertex complexes: high enough in dimension that every layer clears rows."""
    return seeded_complexes(10, seed=7070, n_range=(7, 9), density=(0.3, 0.6),
                            accept=lambda c: not c.is_void)


class TestClearing:
    """Boundary ranks from the top dimension down, skipping cleared rows."""

    def test_cleared_rows_would_reduce_to_zero(self):
        for c in [projective_plane()] + clearing_inputs()[:4]:
            layers = _faces_by_size(c.facets)
            for f, _ in ORACLE_FIELDS:
                for k in range(1, len(layers) - 1):
                    below = {m: j for j, m in enumerate(layers[k - 1])}
                    above = {m: j for j, m in enumerate(layers[k])}
                    _, cleared = homology._boundary_rank(layers[k + 1], above, (), f)
                    cleared = set(cleared)
                    assert cleared
                    rank, _ = homology._boundary_rank(layers[k], below, cleared, f)
                    assert rank == homology._boundary_rank(layers[k], below, (), f)[0]
                    for j in cleared:
                        assert homology._boundary_rank(layers[k], below, cleared - {j}, f)[0] == rank

    def test_each_layer_hands_the_kernel_only_uncleared_rows(self, monkeypatch):
        # each kernel that runs gets one call per layer, top layer first; over Q
        # the GF(2) kernel runs first, and the sparse kernel runs after it only
        # on GF(2) ranks with an adjacent nonzero pair (RP^2, the first seeded
        # input), so GF(3) and those Q inputs drive the sparse path
        seen = []
        gf2, sparse = homology._pivots_gf2, homology._pivots_sparse

        def counting(kernel):
            def wrapped(rows, *args):
                rows = list(rows)
                pivots = kernel(rows, *args)
                seen.append((kernel, len(rows), len(pivots)))
                return pivots
            return wrapped

        monkeypatch.setattr(homology, "_pivots_gf2", counting(gf2))
        monkeypatch.setattr(homology, "_pivots_sparse", counting(sparse))
        skipped = 0
        eliminated_over_q = []
        for c in [projective_plane()] + clearing_inputs():
            f_k = [len(layer) for layer in _faces_by_size(c.facets)]
            n = len(f_k) - 1
            adjacent = has_adjacent_pair(brute_reduced_homology(c.universe.labels, facet_sets(c), 2))
            eliminated_over_q.append(adjacent)
            for f, p in ORACLE_FIELDS:
                kernels = {2: [gf2], 3: [sparse], None: [gf2, sparse] if adjacent else [gf2]}[p]
                seen.clear()
                sc.reduced_homology(c, f)
                # one kernel call per layer, top layer first
                assert [k for k, _, _ in seen] == [k for k in kernels for _ in range(n)]
                for i in range(len(kernels)):
                    rank_above = 0
                    for k, (_, rows, rank) in zip(range(n, 0, -1), seen[i * n:(i + 1) * n]):
                        assert rows == f_k[k] - rank_above
                        skipped += rank_above
                        rank_above = rank
        assert skipped > 0
        assert eliminated_over_q[0] and any(eliminated_over_q[1:])


def has_adjacent_pair(ranks):
    """Whether two adjacent degrees of a ``{degree: rank}`` profile are both nonzero."""
    return any(ranks.get(i) and ranks.get(i + 1) for i in ranks)


def suspension(c):
    """c joined with two new points n and s."""
    u = VertexSet.of(c.universe.labels + ("n", "s"))
    return sc.from_facets(u, [set(F) | {v} for F in c.facet_members() for v in "ns"])


def sphere_plus_point():
    """The boundary of a tetrahedron and a disjoint point: GF(2) homology in
    degrees 0 and 2, which are not adjacent."""
    return cx(5, [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {5}])


class TestTwoTorsion:
    """Q ranks are the GF(2) ranks unless two adjacent GF(2) degrees are nonzero."""

    def test_gf2_ranks_without_adjacent_pair_are_the_q_ranks(self):
        # the lemma on data, with the brute-force oracle only; the suspension
        # of RP^2 has its 2-torsion in degree 2
        known = [projective_plane(), suspension(projective_plane()), sphere_plus_point()]
        sample = known + seeded_complexes(60, seed=2357, n_range=(3, 7),
                                          accept=lambda c: not c.is_void)
        checked = spread = differ = 0
        for c in sample:
            ranks_2 = brute_reduced_homology(c.universe.labels, facet_sets(c), 2)
            ranks_q = brute_reduced_homology(c.universe.labels, facet_sets(c), None)
            if has_adjacent_pair(ranks_2):
                differ += ranks_2 != ranks_q
                continue
            assert ranks_q == ranks_2
            checked += 1
            spread += sum(1 for r in ranks_2.values() if r) >= 2
        assert differ >= 2 and spread >= 1
        assert checked >= 60

    def test_q_eliminates_only_where_two_torsion_can_hide(self, monkeypatch):
        calls = TestCostarSweep.counting(monkeypatch, "_pivots_sparse")
        queries = (sc.reduced_homology, sc.is_cohen_macaulay, sc.is_sequentially_cm)
        skeleton = sc.pure_skeleton(cx(6, [set(range(1, 7))]), 2)
        for c in (pentagon_circle(), dunce_hat(), skeleton, sphere_plus_point()):
            for query in queries:
                calls.clear()
                query(c, sc.QQ)
                assert calls == []
        rp2 = projective_plane()
        for c in (rp2, cone_over_projective_plane()):
            expected = {sc.reduced_homology: brute_reduced_homology(c.universe.labels, facet_sets(c), None),
                        sc.is_cohen_macaulay: oracle_cm_witness(c, None) is None,
                        sc.is_sequentially_cm: oracle_scm_witness(c, None) is None}
            for query in queries:
                calls.clear()
                answer = query(c, sc.QQ)
                assert (dict(answer.ranks) if query is sc.reduced_homology else answer.ok) == expected[query]
                # RP^2 has GF(2) homology in degrees 1 and 2; its cone is GF(2)-acyclic,
                # so only the cone's sweeps, at the apex link RP^2, eliminate over Q
                assert bool(calls) == (c is rp2 or query is not sc.reduced_homology)
