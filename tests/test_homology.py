import random
import time

import pytest

import shellcert as sc
from shellcert.catalog import dunce_hat, gcd_violator, pentagon_circle, projective_plane
from shellcert.complexes import VertexSet
from shellcert.homology import rank_gf2, rank_sparse

from conftest import facet_sets, seeded_complexes
from oracles import brute_reduced_homology, euler_from_faces, rref_rank


def cx(n, facets):
    return sc.from_facets(VertexSet.of(range(1, n + 1)), facets)


class TestFieldSpec:
    def test_parse(self):
        assert sc.Field.parse("gf2") == sc.GF2
        assert sc.Field.parse("GF5").p == 5
        assert sc.Field.parse("q") == sc.QQ

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
        for c in seeded_complexes(40, seed=616, n_range=(2, 6)):
            if c.is_void:
                continue
            for f, p in ((sc.GF2, 2), (sc.Field.gf(3), 3), (sc.QQ, None)):
                prof = sc.reduced_homology(c, f)
                expected = brute_reduced_homology(c.universe.labels, facet_sets(c), p)
                assert dict(prof.ranks) == expected

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

    def test_ghost_vertices_reported_degenerate(self):
        c = cx(3, [{1, 2}])
        rep = sc.is_cohen_macaulay(c, sc.QQ)
        assert not rep.ok and rep.degenerate
        rep2 = sc.is_sequentially_cm(c, sc.QQ)
        assert not rep2.ok and rep2.degenerate

    def test_void_rejected(self):
        with pytest.raises(sc.InputError):
            sc.is_cohen_macaulay(cx(2, []), sc.QQ)


def cone_over_projective_plane():
    """RP^2 coned off at a new apex "a"; the apex link is RP^2 itself."""
    p = projective_plane()
    u = VertexSet.of(p.universe.labels + ("a",))
    return sc.from_facets(u, [set(F) | {"a"} for F in p.facet_members()])


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


def q_sweep_inputs():
    # in the triangle chain both vertex 3 and vertex 5 have disconnected links;
    # the witness must be the first in canonical order
    extra = [projective_plane(), cone_over_projective_plane(),
             cx(7, [{1, 2, 3}, {3, 4, 5}, {5, 6, 7}])]
    return extra + seeded_complexes(40, seed=8675309, n_range=(3, 6),
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
