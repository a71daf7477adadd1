"""Finite simplicial complexes as bitmask facet families.

A complex lives on a fixed vertex universe of at most a few dozen labelled
vertices.  Faces are encoded as integer bitmasks over the universe, facets are
kept as an antichain in canonical order (ascending cardinality, then ascending
mask value), and every operation returns values in that canonical form, so all
outputs are deterministic and diffable.

Two degenerate complexes are distinguished: the *void* complex has no faces at
all (``dim`` is the ``VOID_DIM`` sentinel) while the *empty* complex has the
single facet ``{}`` (``dim == -1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "VOID_DIM",
    "InputError",
    "Undecided",
    "VertexSet",
    "Complex",
    "from_facets",
    "from_minimal_nonfaces",
    "minimal_nonfaces",
    "alexander_dual",
    "link",
    "pure_skeleton",
    "is_flag",
    "ChordalCertificate",
    "chordal_certificate",
    "all_faces",
    "reduced_euler_characteristic",
    "restrict_to_support",
]

#: Dimension of the void complex; compares below every integer dimension.
VOID_DIM = float("-inf")


class InputError(ValueError):
    """Raised when an operation receives a malformed or inconsistent input."""


class Undecided(Exception):
    """An order search visited ``orders.NODE_BUDGET`` prefix-sets without an answer.

    Deliberately distinct from a None result: None means *proven* that no
    order exists, Undecided means the search gave up.
    """


@dataclass(frozen=True)
class VertexSet:
    """An ordered universe of distinct vertex labels; index i <-> bit i."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate vertex labels: %r" % (self.labels,))

    @classmethod
    def of(cls, labels: Iterable) -> "VertexSet":
        return cls(tuple(labels))

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask(self, vertices: Iterable) -> int:
        """Bitmask of a collection of labels."""
        m = 0
        for v in vertices:
            i = self._index.get(v)
            if i is None:
                raise InputError("unknown vertex label: %r" % (v,))
            m |= 1 << i
        return m

    def as_mask(self, face) -> int:
        """Accept a face given either as a bitmask or as an iterable of labels."""
        if isinstance(face, int):
            if face < 0 or face >> self.n:
                raise InputError("face mask %#x outside universe of size %d" % (face, self.n))
            return face
        return self.mask(face)

    def members(self, mask: int) -> tuple:
        """Labels of a bitmask, in universe order."""
        return tuple(self.labels[i] for i in _bit_indices(mask))


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical(masks: Iterable[int]) -> tuple:
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


def _maximal(masks: Iterable[int]) -> list:
    """Inclusion-maximal members of a family of bitmasks, largest size first.

    A mask can lie only inside a strictly larger one, so the distinct masks
    are taken by decreasing size and each is compared only with the kept
    masks of the larger sizes.  After the sort that is at most (masks of size
    k) x (kept masks larger than k) tests summed over k, and none at all for
    a family of one size, such as the facets of a pure complex.
    """
    ms = sorted(set(masks), key=int.bit_count, reverse=True)
    out: list[int] = []
    larger: tuple = ()
    size = -1
    for m in ms:
        if m.bit_count() != size:
            size, larger = m.bit_count(), tuple(out)
        for o in larger:
            if m & o == m:
                break
        else:
            out.append(m)
    return out


def _incidence(sets: Sequence[int], full: int) -> list:
    """contain[v]: the index mask of the sets that contain vertex v, for v in full."""
    contain = [0] * full.bit_length()
    for i, F in enumerate(sets):
        for v in _bit_indices(F):
            contain[v] |= 1 << i
    return contain


def _first_descent(facets: Sequence[int], full: int) -> Optional[list]:
    """The facets by non-increasing size, in index order within a size, as
    a list of indices when that order is a shelling; None when a step fails.

    This is the first path of the shelling search in ``orders``, whose
    ``find_shelling_order`` returns it when it passes, and the shelling
    certificate of ``homology``'s CM and sequential-CM tests.  A step is the
    exact step test of ``orders._shelling_moves``: F may follow the placed
    set S when no facet of S contains W, the vertices v of F whose ridge
    F - v lies in a facet of S.  The facets of S containing F - v_i are
    pre[i] & suf[i + 1], prefix and suffix ANDs of the incidence masks of
    F's vertices that start from S, so a step costs O(|F|) mask operations
    and the walk of r facets O(r |F|).  The first step passes by this test too: with S
    empty, nothing blocks.  A passing order is a shelling in the nonpure
    sense of Bjorner-Wachs ("Shellable nonpure complexes and posets I",
    Trans. AMS 348 (1996), Def. 2.1), and in the classical sense when the
    facets all have one size.
    """
    contain = _incidence(facets, full)
    order = sorted(range(len(facets)), key=lambda i: -facets[i].bit_count())
    state = 0
    for i in order:
        rows = [contain[v] for v in _bit_indices(facets[i])]
        suf = [state]
        for cv in reversed(rows):
            suf.append(suf[-1] & cv)
        suf.reverse()
        pre = block = state
        for k, cv in enumerate(rows):
            if pre & suf[k + 1]:
                block &= cv
            pre &= cv
        if block:
            return None
        state |= 1 << i
    return order


@dataclass(frozen=True)
class Complex:
    """A simplicial complex: vertex universe plus a canonical facet antichain."""

    universe: VertexSet
    facets: tuple

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self):
        """Top facet dimension; VOID_DIM for the void complex, -1 for {0}."""
        if not self.facets:
            return VOID_DIM
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        return len({f.bit_count() for f in self.facets}) <= 1

    @cached_property
    def support(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    @cached_property
    def _nonfaces(self) -> tuple:
        """The minimal non-faces, canonical order; read through ``minimal_nonfaces``."""
        full = self.universe.full_mask
        return _canonical(_minimal_transversals([full ^ f for f in self.facets]))

    @property
    def has_ghost_vertices(self) -> bool:
        """True iff some universe vertex lies in no facet."""
        return self.support != self.universe.full_mask

    def facet_members(self) -> list:
        """Facets as label tuples, canonical order."""
        return [self.universe.members(f) for f in self.facets]

    def __repr__(self):
        gen = ", ".join("{%s}" % ",".join(map(str, fs)) for fs in self.facet_members())
        return "Complex(n=%d, <%s>)" % (self.universe.n, gen)


def from_facets(universe: VertexSet, candidate_faces: Iterable) -> Complex:
    """Complex generated by the given faces; non-maximal candidates are absorbed.

    Absorption compares a candidate only with the kept candidates of larger
    size (``_maximal``), so a list of faces of one size, such as every facet
    list of a pure complex, needs one sort and no containment test.
    """
    masks = [universe.as_mask(f) for f in candidate_faces]
    return Complex(universe, _canonical(_maximal(masks)))


def _minimal_transversals(family: Sequence[int]) -> list:
    """Inclusion-minimal hitting sets of a family of bitmask sets.

    MMCS (Murakami and Uno, "Efficient algorithms for dualizing large-scale
    hypergraphs", Discrete Appl. Math. 170, 2014).  A node is a partial
    transversal T, its candidates, the sets T misses, and for each member of
    T its critical sets: those T meets in that member alone.  The node
    branches on the missed set with the fewest candidates.  Each candidate v
    in it is tried in turn, and is then returned to the candidates of the
    branches after it, so every minimal transversal is reached once.  A
    child T + v is kept only while every member still has a critical set;
    that is exactly the minimality of T + v among the sets it hits.  A node
    missing no set is therefore a minimal transversal.  An empty family
    gives [0]; a family containing 0 gives [].

    The stack is explicit because the depth is the size of the transversal,
    which can exceed Python's recursion limit (the boundary of a simplex has
    the whole universe as its one minimal non-face).  Callers canonicalise,
    so the output order is left unspecified.
    """
    full = (1 << max(family, default=0).bit_length()) - 1  # every vertex of every set
    contain = _incidence(family, full)
    out = []
    stack = [(0, full, (1 << len(family)) - 1, [])]
    while stack:
        t, cand, missed, crit = stack.pop()
        if not missed:
            out.append(t)
            continue
        branch = min([family[e] & cand for e in _bit_indices(missed)], key=int.bit_count)
        cand &= ~branch
        for v in _bit_indices(branch):
            hit = contain[v]
            kept = [c & ~hit for c in crit]
            if all(kept):
                stack.append((t | 1 << v, cand, missed & ~hit, kept + [missed & hit]))
            cand |= 1 << v
    return out


def minimal_nonfaces(c: Complex) -> list:
    """All inclusion-minimal non-faces, canonical order, as a fresh list.

    A set is a non-face iff it meets the complement of every facet, so the
    minimal non-faces are the minimal transversals of the facet-complement
    family.  They are computed once per complex, from its facets, on first
    use, and freed with the complex; every call returns a new list, so a
    caller may mutate it.  Empty iff c is the full simplex on its universe.
    """
    return list(c._nonfaces)


def alexander_dual(c: Complex) -> Complex:
    """The dual complex on the same universe.

    Facets are the complements of the minimal non-faces of c.  The dual of the
    full simplex is the void complex and vice versa, which keeps the operation
    total and an involution.
    """
    full = c.universe.full_mask
    return Complex(c.universe, _canonical(full ^ m for m in c._nonfaces))


def from_minimal_nonfaces(universe: VertexSet, nonfaces: Iterable) -> Complex:
    """The unique complex whose minimal non-faces are exactly the given antichain.

    The antichain is checked with vertex-incidence masks: the non-faces that
    contain a are the AND of the incidence masks of a's vertices, less a's
    own bit.  Non-faces are taken in input order, and the first error is
    reported: the empty set, or a against the first non-face that contains
    it, the lowest bit of that AND.  Each non-face costs one AND per vertex,
    on masks with one bit per non-face, in place of a pass over the list.

    The complex is the dual of the one whose facets are the complements of
    the non-faces, since a complex is the dual of its dual; so its facets are
    computed as every dual's are.  A singleton non-face {v} makes v a ghost
    vertex of the result, which is a complex like any other.
    """
    masks = [universe.as_mask(f) for f in nonfaces]
    if len(set(masks)) != len(masks):
        raise InputError("duplicate non-faces")
    contain = _incidence(masks, universe.full_mask)
    everyone = (1 << len(masks)) - 1
    for i, a in enumerate(masks):
        if a == 0:
            raise InputError("the empty set cannot be a minimal non-face")
        above = everyone ^ 1 << i
        for v in _bit_indices(a):
            above &= contain[v]
        if above:
            b = masks[(above & -above).bit_length() - 1]
            raise InputError(
                "non-faces must form an antichain: {%s} contains {%s}"
                % (",".join(map(str, universe.members(b))), ",".join(map(str, universe.members(a))))
            )
    return alexander_dual(Complex(universe, _canonical(universe.full_mask ^ a for a in masks)))


def link(c: Complex, face) -> Complex:
    """Link of a face: all G disjoint from it whose union with it is a face.

    Its facets are the sets F - face for the facets F containing the face.
    They already form an antichain (F - face inside G - face gives F inside
    G), so no absorption pass is needed.  A set that no facet contains is no
    face, and neither is any set of the void complex: both raise InputError.
    """
    f = c.universe.as_mask(face)
    facets = [F ^ f for F in c.facets if F & f == f]
    if not facets:
        raise InputError("link of a non-face: {%s}" % ",".join(map(str, c.universe.members(f))))
    return Complex(c.universe, _canonical(facets))


def pure_skeleton(c: Complex, i: int) -> Complex:
    """Subcomplex generated by all i-dimensional faces of c."""
    d = c.dim
    if not -1 <= i <= d:
        raise InputError("skeleton dimension %s out of range for a complex of dimension %s" % (i, d))
    gen: set[int] = set()
    k = i + 1
    for F in c.facets:
        bits = [1 << j for j in _bit_indices(F)]
        for combo in combinations(bits, k):
            m = 0
            for b in combo:
                m |= b
            gen.add(m)
    return Complex(c.universe, _canonical(gen))


def is_flag(c: Complex) -> bool:
    """True iff every minimal non-face has exactly two elements (vacuous for the full simplex)."""
    return all(m.bit_count() == 2 for m in c._nonfaces)


@dataclass(frozen=True)
class ChordalCertificate:
    """The verdict of ``chordal_certificate`` on the 1-skeleton G of a complex.

    When ``chordal`` is True, ``vertices`` is a perfect elimination order of
    G: the neighbours of each vertex that come after it are pairwise
    adjacent.  Otherwise ``vertices`` is a chordless cycle of G with at least
    four vertices, in cyclic order.  Vertices are labels.
    """

    chordal: bool
    vertices: tuple


def _shortest_path(adj: Sequence[int], allowed: int, a: int, b: int):
    """Vertex indices of a shortest a-b path inside ``allowed``, or None.

    Breadth-first by layers of bitmasks; each step back to a takes the
    lowest-index neighbour in the layer before.
    """
    layers = [1 << a]
    seen = 1 << a
    while not layers[-1] >> b & 1:
        nxt = 0
        for u in _bit_indices(layers[-1]):
            nxt |= adj[u]
        nxt &= allowed & ~seen
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    path = [b]
    for layer in reversed(layers[:-1]):
        near = adj[path[-1]] & layer
        path.append((near & -near).bit_length() - 1)
    return path[::-1]


def chordal_certificate(c: Complex) -> ChordalCertificate:
    """A perfect elimination order of the 1-skeleton G of c, or a chordless
    cycle of G with at least four vertices.

    Maximum cardinality search (Tarjan and Yannakakis, "Simple linear-time
    algorithms to test chordality of graphs", SIAM J. Comput. 13, 1984)
    numbers the vertices, taking each time an unnumbered vertex with the most
    numbered neighbours, the lowest index on ties; G is chordal exactly when
    the reverse of that numbering is a perfect elimination order, which is
    then checked directly.  Otherwise a hole is found as follows.  For a
    vertex v with non-adjacent neighbours a and b, a shortest a-b path in G
    less v and the other neighbours of v is induced and misses v's other
    neighbours, so v closes it into a chordless cycle of length at least
    four.  Every such cycle passes through some triple (v, a, b) of this
    kind, so trying them all, in index order, finds one.  Everything is a
    bitmask of at most n bits, so the search is O(n^2) word operations and
    the hole hunt O(n^4) in the worst case.
    """
    n = c.universe.n
    full = c.universe.full_mask
    adj = [0] * n
    for F in c.facets:
        for v in _bit_indices(F):
            adj[v] |= F ^ 1 << v
    weight = [0] * n
    left = full
    visit = []
    while left:
        v = max(_bit_indices(left), key=weight.__getitem__)
        visit.append(v)
        left ^= 1 << v
        for u in _bit_indices(adj[v] & left):
            weight[u] += 1
    peo = visit[::-1]
    later = full
    for v in peo:
        later ^= 1 << v
        after = adj[v] & later
        if any(after & ~adj[u] & ~(1 << u) for u in _bit_indices(after)):
            break
    else:
        return ChordalCertificate(True, tuple(c.universe.labels[v] for v in peo))
    for v in range(n):
        for a in _bit_indices(adj[v]):
            for b in _bit_indices(adj[v] & ~adj[a] & ~((2 << a) - 1)):
                allowed = full & ~(1 << v | adj[v]) | 1 << a | 1 << b
                path = _shortest_path(adj, allowed, a, b)
                if path:
                    return ChordalCertificate(False, tuple(c.universe.labels[x] for x in [v] + path))
    raise AssertionError("no perfect elimination order and no chordless cycle")


def _faces_by_size(facets: Sequence[int]) -> list:
    """Faces of the complex generated by the given masks, grouped by size.

    Entry k lists the k-element faces in ascending mask order, so reading the
    entries in turn gives canonical order.  Every subset of every mask is
    listed by submask enumeration; nothing is kept after the call.
    """
    faces: set[int] = set()
    for F in facets:
        sub = F
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & F
    layers: list[list[int]] = [[] for _ in range(max(map(int.bit_count, facets), default=-1) + 1)]
    for m in faces:
        layers[m.bit_count()].append(m)
    for layer in layers:
        layer.sort()
    return layers


def all_faces(c: Complex) -> tuple:
    """Every face of c (including the empty face), canonical order; empty for the void complex."""
    return tuple(f for layer in _faces_by_size(c.facets) for f in layer)


def reduced_euler_characteristic(c: Complex) -> int:
    """Alternating face count including the empty face; 0 for the void complex."""
    return sum(len(layer) if k % 2 else -len(layer) for k, layer in enumerate(_faces_by_size(c.facets)))


def restrict_to_support(c: Complex) -> Complex:
    """The same complex re-housed on the universe of its non-ghost vertices."""
    if not c.has_ghost_vertices:
        return c
    keep = list(_bit_indices(c.support))
    sub = VertexSet(tuple(c.universe.labels[i] for i in keep))
    pos = {old: new for new, old in enumerate(keep)}

    def remap(m: int) -> int:
        out = 0
        for i in _bit_indices(m):
            out |= 1 << pos[i]
        return out

    return Complex(sub, _canonical(remap(f) for f in c.facets))
