import collections
import random
import warnings
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shellcert as sc
from shellcert import complexes
from shellcert.complexes import VertexSet, _maximal, _minimal_transversals

from conftest import facet_sets, seeded_complexes, seeded_flag_complexes
from oracles import (brute_chordless_cycle, brute_minimal_nonfaces, pairwise_maximal,
                     pairwise_nonface_error, skeleton_edges)


def cx(n_or_labels, facets):
    labels = range(1, n_or_labels + 1) if isinstance(n_or_labels, int) else n_or_labels
    u = VertexSet.of(labels)
    return sc.from_facets(u, facets)


class TestConstruction:
    def test_generated_complex(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        assert len(c.facets) == 3
        assert c.dim == 2

    def test_absorption(self):
        c = cx(2, [{1, 2}, {1}])
        assert c.facet_members() == [(1, 2)]

    def test_void_complex(self):
        c = cx(3, [])
        assert c.is_void
        assert c.dim == sc.VOID_DIM
        assert c.dim < -1

    def test_empty_complex_is_distinct_from_void(self):
        e = cx(3, [()])
        assert not e.is_void
        assert e.dim == -1

    def test_ghost_vertices_flagged(self):
        assert cx(3, [{1, 2}]).has_ghost_vertices
        assert not cx(2, [{1, 2}]).has_ghost_vertices

    def test_unknown_label_rejected(self):
        with pytest.raises(sc.InputError):
            cx(3, [{1, 9}])

    def test_mask_outside_the_universe_rejected(self):
        u = VertexSet.of([1, 2])
        assert u.as_mask(3) == 3
        with pytest.raises(sc.InputError, match="outside universe of size 2"):
            u.as_mask(8)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(sc.InputError):
            VertexSet.of([1, 1, 2])

    def test_canonical_facet_order(self):
        c = cx(4, [{2, 3, 4}, {1}, {1, 2}])
        sizes = [f.bit_count() for f in c.facets]
        assert sizes == sorted(sizes)
        assert list(c.facets) == sorted(c.facets, key=lambda m: (m.bit_count(), m))


class TestMinimalNonfaces:
    def test_four_cycle(self):
        c = cx(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
        got = {c.universe.members(m) for m in sc.minimal_nonfaces(c)}
        assert got == {(1, 3), (2, 4)}

    def test_full_simplex_has_none(self):
        c = cx(4, [{1, 2, 3, 4}])
        assert sc.minimal_nonfaces(c) == []

    def test_three_triangles(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        got = {c.universe.members(m) for m in sc.minimal_nonfaces(c)}
        assert got == {(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 6)}

    def test_void_complex_nonface_is_empty_set(self):
        c = cx(3, [])
        assert sc.minimal_nonfaces(c) == [0]

    def test_brute_force_agreement(self):
        for c in seeded_complexes(60, seed=424242, n_range=(3, 7)):
            expected = {tuple(sorted(s)) for s in
                        brute_minimal_nonfaces(c.universe.labels, facet_sets(c))}
            got = {c.universe.members(m) for m in sc.minimal_nonfaces(c)}
            assert got == expected

    def test_k48_one_skeleton(self):
        c = cx(48, combinations(range(1, 49), 2))
        expected = [c.universe.mask(t) for t in combinations(range(1, 49), 3)]
        assert sc.minimal_nonfaces(c) == sorted(expected)
        assert len(expected) == 17296

    def test_returned_list_is_fresh(self):
        # a flag complex, one with a triple non-face, and the full simplex
        for facets in ([{1, 2}, {2, 3}, {3, 4}, {1, 4}], [{1, 2}, {2, 3}, {1, 3}], [{1, 2, 3, 4}]):
            for mutate in (lambda got: (got.append(0), got.reverse()), list.clear):
                c, twin = cx(4, facets), cx(4, facets)
                expected = sc.minimal_nonfaces(twin)
                mutate(sc.minimal_nonfaces(c))
                assert sc.minimal_nonfaces(c) == expected
                assert sc.alexander_dual(c) == sc.alexander_dual(twin)
                assert sc.is_flag(c) == sc.is_flag(twin)

    def test_computed_nonfaces_leave_equality_hash_and_repr(self):
        for c in seeded_complexes(40, seed=1618, n_range=(3, 7)):
            fresh = sc.Complex(c.universe, c.facets)
            sc.minimal_nonfaces(c)
            assert c == fresh and fresh == c
            assert hash(c) == hash(fresh)
            assert repr(c) == repr(fresh)
            assert {c: 1}[fresh] == 1


class TestAlexanderDual:
    def test_bundled_example(self):
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 7)),
                                     [{1, 2, 3}, {1, 2, 6}, {4, 5, 6}])
        d = sc.alexander_dual(c)
        assert d.facet_members() == [(1, 2, 3), (3, 4, 5), (4, 5, 6)]

    def test_ten_vertex_example(self):
        nf = [{0, 1, 5, 6}, {1, 2, 6, 7}, {2, 3, 7, 8}, {3, 4, 8, 9}, {0, 4, 5, 9},
              {5, 6, 7, 8, 9}]
        c = sc.from_minimal_nonfaces(VertexSet.of(range(10)), nf)
        d = sc.alexander_dual(c)
        expected = {(2, 3, 4, 7, 8, 9), (0, 3, 4, 5, 8, 9), (0, 1, 4, 5, 6, 9),
                    (0, 1, 2, 5, 6, 7), (1, 2, 3, 6, 7, 8), (0, 1, 2, 3, 4)}
        assert set(d.facet_members()) == expected

    def test_full_simplex_dual_is_void(self):
        c = cx(3, [{1, 2, 3}])
        assert sc.alexander_dual(c).is_void

    def test_void_dual_is_full_simplex(self):
        c = cx(3, [])
        assert sc.alexander_dual(c).facet_members() == [(1, 2, 3)]

    def test_involution_on_samples(self):
        for c in seeded_complexes(80, seed=7, n_range=(2, 7)):
            assert sc.alexander_dual(sc.alexander_dual(c)) == c

    def test_involution_with_ghosts(self):
        c = cx(3, [{1}])  # ghosts 2, 3
        assert sc.alexander_dual(sc.alexander_dual(c)) == c

    def test_dual_facets_are_nonface_complements(self):
        for c in seeded_complexes(40, seed=99):
            full = c.universe.full_mask
            dual = sc.alexander_dual(c)
            assert sorted(dual.facets) == sorted(full ^ m for m in sc.minimal_nonfaces(c))


class TestFromMinimalNonfaces:
    def test_round_trip(self):
        for c in seeded_complexes(60, seed=5150, n_range=(2, 7)):
            if c.is_void:
                continue
            assert sc.from_minimal_nonfaces(c.universe, sc.minimal_nonfaces(c)) == c

    def test_no_nonfaces_gives_full_simplex(self):
        u = VertexSet.of(range(1, 5))
        c = sc.from_minimal_nonfaces(u, [])
        assert c.facet_members() == [(1, 2, 3, 4)]

    def test_five_cycle_nonfaces(self):
        u = VertexSet.of(range(5))
        c = sc.from_minimal_nonfaces(u, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}])
        assert set(c.facet_members()) == {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}

    def test_simplex_boundary_on_1200_vertices(self):
        # the one minimal non-face has 1,200 elements, deeper than the recursion limit
        u = VertexSet.of(range(1200))
        full = u.full_mask
        boundary = sc.from_facets(u, [full ^ 1 << i for i in range(1200)])
        assert sc.from_minimal_nonfaces(u, [full]) == boundary
        assert sc.minimal_nonfaces(boundary) == [full]

    def test_non_antichain_rejected(self):
        u = VertexSet.of(range(1, 5))
        with pytest.raises(sc.InputError):
            sc.from_minimal_nonfaces(u, [{1, 2}, {1, 2, 3}])

    def test_singleton_gives_a_ghost_vertex_without_a_warning(self):
        u = VertexSet.of(range(1, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = sc.from_minimal_nonfaces(u, [{1}])
        assert c.has_ghost_vertices

    def test_k24_from_its_triangles(self):
        # 2,024 non-faces: the antichain check must not compare all pairs
        u = VertexSet.of(range(24))
        c = sc.from_minimal_nonfaces(u, combinations(range(24), 3))
        assert c == sc.from_facets(u, combinations(range(24), 2))

    def test_validation_matches_the_double_loop_on_seeded_families(self):
        seen = collections.Counter()
        for family in seeded_mask_families(600, seed=2014):
            got = assert_validation_matches_the_double_loop(family)
            singleton = any(m.bit_count() == 1 for m in family)
            seen[got.split(":")[0] if got else "singleton" if singleton else "valid"] += 1
        assert len(seen) == 5 and min(seen.values()) >= 15, seen


def seeded_mask_families(count, seed):
    """Lists of up to about 60 masks of up to 64 bits: distinct random masks,
    then a few masks inside or around them, zeros and repeats, and in a
    quarter of the lists a vertex cut out of the rest as a singleton."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = rng.randint(1, 64)
        family = list({rng.getrandbits(width) | 1 << rng.randrange(width)
                       for _ in range(rng.randint(0, 30))})
        for _ in range(rng.choice([0, 1, 2, rng.randint(0, 30)]) if family else 0):
            m, other = rng.choice(family), rng.getrandbits(width)
            pick = rng.choice([m & other, m & other, m | other, m | other,
                               1 << rng.randrange(width), 0, m])
            family.insert(rng.randint(0, len(family)), pick)
        if rng.random() < 0.25:
            v = 1 << rng.randrange(width)
            family = [m & ~v for m in family if m & ~v] + [v]
        out.append(family)
    return out


def assert_validation_matches_the_double_loop(masks):
    """from_minimal_nonfaces on a 64-vertex universe raises the message
    ``oracles.pairwise_nonface_error`` gives, and warns about nothing, a
    singleton non-face included; returns the message.  Only the validation
    is under test, so the dualiser is stubbed out."""
    u = VertexSet.of(range(100, 164))
    expected = pairwise_nonface_error(u, masks)
    got = None
    with mock.patch.object(complexes, "_minimal_transversals", lambda family: []), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sc.from_minimal_nonfaces(u, masks)
        except sc.InputError as e:
            got = str(e)
    assert got == expected
    assert caught == []
    return got


class TestLink:
    def test_bundled_example(self):
        c = cx(6, [{1, 2, 3}, {3, 4, 5}, {4, 5, 6}])
        lk = sc.link(c, {3})
        assert lk.facet_members() == [(1, 2), (4, 5)]

    def test_link_of_empty_face(self):
        c = cx(4, [{1, 2}, {3, 4}])
        assert sc.link(c, ()) == c

    def test_link_in_simplex(self):
        c = cx(3, [{1, 2, 3}])
        assert sc.link(c, {1}).facet_members() == [(2, 3)]

    def test_link_of_nonface_rejected(self):
        c = cx(3, [{1, 2}])
        with pytest.raises(sc.InputError):
            sc.link(c, {1, 3})

    @pytest.mark.parametrize("facets, face, message", [
        ([{1, 2}], {1, 3}, "link of a non-face: {1,3}"),
        ([{1, 2}, {2, 3}], {1, 3}, "link of a non-face: {1,3}"),
        ([()], {1}, "link of a non-face: {1}"),
        ([], (), "link of a non-face: {}"),
        ([], {2}, "link of a non-face: {2}"),
    ])
    def test_nonface_message(self, facets, face, message):
        # a set no facet contains, and any set of the void complex, is no face
        c = cx(3, facets)
        with pytest.raises(sc.InputError) as caught:
            sc.link(c, face)
        assert str(caught.value) == message

    def test_matches_absorbed_generators_on_samples(self):
        # link() skips absorption because F - face is already an antichain;
        # from_facets absorbs, so agreement checks the antichain argument
        for c in seeded_complexes(60, seed=7411, n_range=(3, 7),
                                  accept=lambda c: not c.is_void):
            for sigma in sc.all_faces(c):
                expected = sc.from_facets(c.universe, [F & ~sigma for F in c.facets if F & sigma == sigma])
                assert sc.link(c, sigma) == expected
            nonfaces = sc.minimal_nonfaces(c)
            if nonfaces:
                with pytest.raises(sc.InputError):
                    sc.link(c, nonfaces[0])


class TestPureSkeleton:
    def test_top_skeleton_of_mixed_dims(self):
        nf = [{0, 1, 5, 6}, {1, 2, 6, 7}, {2, 3, 7, 8}, {3, 4, 8, 9}, {0, 4, 5, 9},
              {5, 6, 7, 8, 9}]
        d = sc.alexander_dual(sc.from_minimal_nonfaces(VertexSet.of(range(10)), nf))
        sk = sc.pure_skeleton(d, 5)
        expected = {(0, 1, 2, 5, 6, 7), (0, 1, 4, 5, 6, 9), (0, 3, 4, 5, 8, 9),
                    (1, 2, 3, 6, 7, 8), (2, 3, 4, 7, 8, 9)}
        assert set(sk.facet_members()) == expected

    def test_pure_complex_top_skeleton_is_identity(self):
        c = cx(4, [{1, 2, 3}, {2, 3, 4}])
        assert sc.pure_skeleton(c, c.dim) == c

    def test_zero_skeleton(self):
        c = cx(4, [{1, 2}, {3}])
        sk = sc.pure_skeleton(c, 0)
        assert sk.facet_members() == [(1,), (2,), (3,)]

    def test_empty_skeleton(self):
        c = cx(4, [{1, 2}, {3}])
        assert sc.pure_skeleton(c, -1).facets == (0,)

    def test_out_of_range(self):
        c = cx(3, [{1, 2}])
        with pytest.raises(sc.InputError):
            sc.pure_skeleton(c, 2)
        with pytest.raises(sc.InputError):
            sc.pure_skeleton(c, -2)
        for i in (-1, 0):
            message = "skeleton dimension %d out of range for a complex of dimension -inf" % i
            with pytest.raises(sc.InputError, match="^%s$" % message):
                sc.pure_skeleton(cx(3, []), i)


class TestFlag:
    def test_five_cycle_complex_is_flag(self):
        u = VertexSet.of(range(5))
        c = sc.from_minimal_nonfaces(u, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}])
        assert sc.is_flag(c)

    def test_triple_nonfaces_not_flag(self):
        c = sc.from_minimal_nonfaces(VertexSet.of(range(1, 7)),
                                     [{1, 2, 3}, {1, 2, 6}, {4, 5, 6}])
        assert not sc.is_flag(c)

    def test_full_simplex_vacuously_flag(self):
        assert sc.is_flag(cx(3, [{1, 2, 3}]))


def is_perfect_elimination_order(order, edges):
    """Each vertex's neighbours after it in the order are pairwise adjacent."""
    return all(frozenset((a, b)) in edges
               for i, v in enumerate(order)
               for a, b in combinations([u for u in order[i + 1:] if frozenset((u, v)) in edges], 2))


def is_chordless_cycle(cycle, edges):
    """Four or more distinct vertices, adjacent exactly when consecutive (cyclically)."""
    k = len(cycle)
    return k >= 4 and len(set(cycle)) == k and all(
        (frozenset((cycle[i], cycle[j])) in edges) == ((j - i) % k in (1, k - 1))
        for i, j in combinations(range(k), 2))


class TestChordalCertificate:
    def test_small_graphs(self):
        assert sc.chordal_certificate(cx(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])) == \
            sc.ChordalCertificate(False, (1, 2, 3, 4))
        assert sc.chordal_certificate(cx(4, [{1, 2}, {2, 3}, {3, 4}])) == \
            sc.ChordalCertificate(True, (4, 3, 2, 1))
        # a hexagon with one chord: the hole is the pentagon it leaves
        hexagon = cx(6, [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 6}, {1, 3}])
        assert sc.chordal_certificate(hexagon) == sc.ChordalCertificate(False, (1, 3, 4, 5, 6))
        # a ghost vertex is an isolated vertex of the 1-skeleton
        assert sc.chordal_certificate(cx(3, [{1, 2}])).chordal

    def test_against_brute_force_on_seeded_flags(self):
        kinds = {True: 0, False: 0}
        for c in seeded_flag_complexes(300, seed=1984, n_range=(4, 8)):
            cert = sc.chordal_certificate(c)
            edges = skeleton_edges(facet_sets(c))
            hole = brute_chordless_cycle(c.universe.labels, edges)
            if cert.chordal:
                assert hole is None, hole
                assert sorted(cert.vertices) == list(c.universe.labels)
                assert is_perfect_elimination_order(cert.vertices, edges)
            else:
                assert hole is not None
                assert is_chordless_cycle(cert.vertices, edges), cert
            kinds[cert.chordal] += 1
        assert min(kinds.values()) >= 80


class TestHelpers:
    def test_all_faces_counts(self):
        c = cx(3, [{1, 2, 3}])
        assert len(sc.all_faces(c)) == 8  # the whole Boolean lattice

    def test_euler_of_cycle(self):
        # a circle: -1 (empty face) + 4 vertices - 4 edges
        c = cx(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
        assert sc.reduced_euler_characteristic(c) == -1

    def test_euler_of_two_points(self):
        c = cx(2, [{1}, {2}])
        assert sc.reduced_euler_characteristic(c) == 1

    def test_restrict_to_support(self):
        c = cx(5, [{2, 4}])
        r = sc.restrict_to_support(c)
        assert r.universe.labels == (2, 4)
        assert not r.has_ghost_vertices
        assert r.facet_members() == [(2, 4)]

    def test_antichain_outputs(self, small_complexes):
        for c in small_complexes[:60]:
            for out in (c, sc.alexander_dual(c)):
                fs = out.facets
                for i, a in enumerate(fs):
                    for b in fs[i + 1:]:
                        assert a & b != a and a & b != b


@st.composite
def mask_families(draw):
    """Up to 60 masks of up to 64 bits, with zeros, duplicates and masks
    inside or around others, so containments are common."""
    top = (1 << draw(st.integers(min_value=1, max_value=64))) - 1
    family = draw(st.lists(st.integers(min_value=0, max_value=top), max_size=30))
    for _ in range(draw(st.integers(min_value=0, max_value=30)) if family else 0):
        m, other = draw(st.sampled_from(family)), draw(st.integers(min_value=0, max_value=top))
        pick = draw(st.sampled_from([m, m & other, m | other, 0]))
        family.insert(draw(st.integers(min_value=0, max_value=len(family))), pick)
    return family


# internal helpers are load-bearing enough to pin down directly
@settings(max_examples=200, deadline=None)
@given(mask_families())
@example([])
@example([0, 0])
@example([0b11, 0b1, 0b110, 0b1, 0])
def test_maximal_helper(masks):
    mx = _maximal(masks)
    assert sorted(mx) == sorted(pairwise_maximal(masks))
    sizes = [m.bit_count() for m in mx]
    assert sizes == sorted(sizes, reverse=True)
    for m in masks:
        assert any(m & a == m for a in mx)
    for i, a in enumerate(mx):
        for b in mx[i + 1:]:
            assert a & b != a and a & b != b


def test_maximal_helper_on_seeded_families():
    families = seeded_mask_families(600, seed=1996)
    for masks in families:
        assert sorted(_maximal(masks)) == sorted(pairwise_maximal(masks))
    assert sum(len(_maximal(m)) < len(set(m)) for m in families) >= 150


@settings(max_examples=200, deadline=None)
@given(mask_families())
@example([0b1, 0])        # the empty set, after a non-face nothing contains
@example([0b10, 0, 0b11])  # an earlier non-face's antichain error comes first
@example([0b11, 0b101, 0b1])  # a is the last one: reported against the first b above it
@example([0b1, 0b1])
@example([0b1, 0b10])     # two singletons: no warning
def test_nonface_validation_matches_the_double_loop(masks):
    assert_validation_matches_the_double_loop(masks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=10))
@example([])         # the void complex: its one non-face is the empty set
@example([0])        # the full simplex: no non-faces
@example([0, 0b110])
def test_minimal_transversals_match_brute_force(family):
    # T meets every set of the family iff T lies in no complement of one
    facets = [frozenset(v for v in range(8) if not s >> v & 1) for s in family]
    expected = {frozenset(t) for t in brute_minimal_nonfaces(range(8), facets)}
    got = _minimal_transversals(family)
    assert len(got) == len(expected)
    assert {frozenset(v for v in range(8) if t >> v & 1) for t in got} == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=2, max_value=6),
       st.floats(min_value=0.2, max_value=1.0))
def test_dual_involution_property(seed, n, density):
    c = sc.random_complex(seed, n, density)
    assert sc.alexander_dual(sc.alexander_dual(c)) == c
