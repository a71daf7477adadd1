"""Independent brute-force oracles used to cross-check the package.

Deliberately written in a different style from the library (label frozensets
instead of bitmasks, plain Fraction/modular row reduction instead of
fraction-free elimination) so that agreement is evidence, not tautology.
The two mask-form all-pairs loops, ``pairwise_maximal`` and
``pairwise_nonface_error``, are the library's own earlier code, kept as the
reference for the faster versions in ``complexes`` that replaced them.
``brute_weak_failure`` and ``brute_strong_gcd_failure`` are the definitions
of the two pair conditions, read as loops over label sets; they are the
reference for the ``check_*`` validators.  ``brute_dual_scm_gf2`` decides the
Alexander dual's sequential Cohen-Macaulayness from restrictions of the
complex itself, the reference for the link sweep from the other side.
"""

from fractions import Fraction
from itertools import combinations


def powerset(labels):
    labels = list(labels)
    for r in range(len(labels) + 1):
        for combo in combinations(labels, r):
            yield frozenset(combo)


def brute_minimal_nonfaces(vertices, facet_sets):
    """Minimal subsets of the vertex set contained in no facet."""
    facet_sets = [frozenset(f) for f in facet_sets]
    nonfaces = [s for s in powerset(vertices) if not any(s <= f for f in facet_sets)]
    return sorted((s for s in nonfaces if not any(t < s for t in nonfaces)),
                  key=lambda s: (len(s), sorted(map(repr, s))))


def pairwise_maximal(masks):
    """Inclusion-maximal members of a family of bitmasks, each tested
    against every one kept so far, largest first."""
    ms = sorted(set(masks), key=lambda m: m.bit_count(), reverse=True)
    out = []
    for m in ms:
        if not any(m & o == m for o in out):
            out.append(m)
    return out


def pairwise_nonface_error(universe, masks):
    """The InputError message a list of non-face masks earns, or None.

    Duplicates first; then each non-face a in input order, against every
    non-face b in input order: the empty set, or the first b containing a.
    """
    if len(set(masks)) != len(masks):
        return "duplicate non-faces"
    for a in masks:
        if a == 0:
            return "the empty set cannot be a minimal non-face"
        for b in masks:
            if a != b and a & b == a:
                return "non-faces must form an antichain: {%s} contains {%s}" % (
                    ",".join(map(str, universe.members(b))), ",".join(map(str, universe.members(a))))
    return None


def rref_rank(rows, p=None):
    """Matrix rank by textbook row reduction; over GF(p) or (p=None) over Q."""
    if not rows or not rows[0]:
        return 0
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[x % p for x in row] for row in rows]
    rank = 0
    lead = 0
    for col in range(len(m[0])):
        piv = None
        for i in range(lead, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        pv = m[lead][col]
        inv = Fraction(1) / pv if p is None else pow(pv, p - 2, p)
        m[lead] = [x * inv % p if p else x * inv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [(a - f * b) % p if p else a - f * b
                        for a, b in zip(m[i], m[lead])]
        lead += 1
        rank += 1
        if lead == len(m):
            break
    return rank


def brute_reduced_homology(vertices, facet_sets, p=None):
    """Reduced homology ranks from scratch, {dim: rank} for -1..top."""
    facet_sets = [frozenset(f) for f in facet_sets]
    faces = sorted({s for f in facet_sets for s in powerset(f)},
                   key=lambda s: (len(s), sorted(map(repr, s))))
    by_dim = {}
    for s in faces:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(group)} for d, group in by_dim.items()}
    boundary_rank = {}
    for d in range(0, top + 1):
        rows = []
        for s in by_dim.get(d, []):
            row = [0] * len(by_dim.get(d - 1, []))
            for t, v in enumerate(sorted(s, key=repr)):
                row[index[d - 1][s - {v}]] = 1 if t % 2 == 0 else -1
            rows.append(row)
        boundary_rank[d] = rref_rank(rows, p)
    ranks = {}
    for d in range(-1, top + 1):
        nd = len(by_dim.get(d, []))
        ranks[d] = nd - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
    return ranks


def euler_from_faces(facet_sets):
    """Reduced Euler characteristic by counting faces, empty face included."""
    faces = {s for f in facet_sets for s in powerset(frozenset(f))}
    return sum(-1 if len(s) % 2 == 0 else 1 for s in faces)


def brute_shelling_failure(order):
    """First failing position of a facet order given as label sets, or None.

    Position j fails unless the faces of F_j lying in some earlier facet form
    a complex pure of dimension dim F_j - 1.  Returns (j, its facets), the
    facets as frozensets, by listing every subset of F_j.
    """
    order = [frozenset(f) for f in order]
    for j in range(1, len(order)):
        faces = [s for s in powerset(order[j]) if any(s <= f for f in order[:j])]
        tops = [s for s in faces if not any(s < t for t in faces)]
        if any(len(s) != len(order[j]) - 1 for s in tops):
            return j, tops
    return None


def brute_weak_failure(vertices, order):
    """First failing pair (i, j) of a weak shelling order given as label
    sets, or None.

    A pair i < j whose facets cover every vertex needs a third facet F_k,
    k < j and k != i, containing F_i & F_j.  Pairs are taken by j, then by i.
    """
    vertices = frozenset(vertices)
    order = [frozenset(f) for f in order]
    for j, fj in enumerate(order):
        for i, fi in enumerate(order[:j]):
            if fi | fj == vertices and not any(
                    fi & fj <= fk for k, fk in enumerate(order[:j]) if k != i):
                return i, j
    return None


def brute_strong_gcd_failure(order):
    """First failing pair (i, j) of a strong gcd-order of non-faces given as
    label sets, or None.

    A disjoint pair i < j needs a third non-face N_k, k > i and k != j (so k
    may come after j), inside N_i | N_j.  Pairs are taken by i, then by j.
    """
    order = [frozenset(n) for n in order]
    for i, ni in enumerate(order):
        for j in range(i + 1, len(order)):
            nj = order[j]
            if not ni & nj and not any(
                    order[k] <= ni | nj for k in range(i + 1, len(order)) if k != j):
                return i, j
    return None


def homology_facet_counts(order):
    """{dim: count} of the homology facets of a shelling given as label sets.

    A facet is a homology facet when each of its ridges (the facet less one
    vertex) lies in an earlier facet; the first facet is one only when it is
    the empty face.  A shellable complex is homotopy equivalent to a wedge of
    spheres, one d-sphere per d-dimensional homology facet (Bjorner-Wachs,
    "Shellable nonpure complexes and posets I", Trans. AMS 348 (1996),
    Thm 4.1), so the counts are its reduced Betti numbers over every field.
    The order must already be known to be a shelling.
    """
    order = [frozenset(f) for f in order]
    counts = {}
    for j, facet in enumerate(order):
        if all(any(facet - {v} <= f for f in order[:j]) for v in facet):
            counts[len(facet) - 1] = counts.get(len(facet) - 1, 0) + 1
    return counts


def skeleton_edges(facet_sets):
    """The edges of a complex's 1-skeleton, as 2-element frozensets."""
    return {frozenset(e) for f in facet_sets for e in combinations(sorted(f, key=repr), 2)}


def brute_chordless_cycle(vertices, edges):
    """A vertex set W with at least four members whose induced graph is
    connected and 2-regular, that is a chordless cycle, or None; by listing
    every subset of the vertices."""
    edges = {frozenset(e) for e in edges}
    for w in powerset(vertices):
        if len(w) < 4:
            continue
        nbrs = {v: {u for u in w if frozenset((u, v)) in edges} for v in w}
        if any(len(n) != 2 for n in nbrs.values()):
            continue
        start = next(iter(w))
        seen, todo = {start}, [start]
        while todo:
            for u in nbrs[todo.pop()] - seen:
                seen.add(u)
                todo.append(u)
        if seen == w:
            return w
    return None


def brute_dual_scm_gf2(vertices, facet_sets):
    """Whether the Alexander dual of the complex is sequentially
    Cohen-Macaulay over GF(2), read on the complex's own side.

    Let D live on V with n = |V|, and let q be the least size of a minimal
    non-face.  For q <= j <= n - 1 let G_j be the sets all of whose
    j-subsets are faces of D; its minimal non-faces are the j-element
    non-faces of D, so G_j's dual is the pure skeleton of dimension n - j - 1
    of D's dual.  By Eagon-Reiner and Hochster's formula that skeleton is
    Cohen-Macaulay iff H~_i(G_j|W) = 0 for every subset W of V and every
    i >= j - 1, and by Duval's criterion the dual is sequentially CM iff
    every pure skeleton is.  G_j contains every set of fewer than j
    vertices; G_0 is void (the empty set is its one 0-subset), and a void
    restriction has no homology.
    """
    vertices = frozenset(vertices)
    faces = {s for f in facet_sets for s in powerset(f)}
    nonfaces = brute_minimal_nonfaces(vertices, facet_sets)
    if not nonfaces:
        return True  # the full simplex: its dual is void
    for j in range(len(nonfaces[0]), len(vertices)):
        gamma = {s for s in powerset(vertices)
                 if all(frozenset(t) in faces for t in combinations(s, j))}
        for w in powerset(vertices):
            if len(w) <= j or w in gamma:
                continue  # an i-cycle, i >= j - 1, needs j + 1 vertices; a simplex has none
            restricted = [s for s in gamma if s <= w]
            if not restricted:
                continue
            ranks = brute_reduced_homology(w, restricted, 2)
            if any(r for i, r in ranks.items() if i >= j - 1):
                return False
    return True
