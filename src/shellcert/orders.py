"""Order conditions on facets and minimal non-faces.

Three linear-order conditions are checked and decided here:

* a *shelling order*: each facet meets the complex generated by its
  predecessors in a complex that is pure of dimension one less;
* a *weak shelling order*: whenever an earlier facet and a later one union to
  the whole universe, their intersection lies inside some strictly earlier
  facet;
* a *strong gcd-order* on minimal non-faces: every disjoint pair is filled by
  a non-face placed after the first of the two, inside their union.

Existence searches run in one iterative engine, ``_search_order``: a
depth-first search over subsets of placed facets with an explicit stack, so
depth is not limited by Python's recursion limit.  That is sound because
admissibility of appending a facet depends only on the **set** of facets
already placed, never on their order, so a memo of dead prefix-sets turns the
factorial search into one over at most 2^r states.  Every search, whatever
its size, visits at most ``NODE_BUDGET`` prefix-sets: a returned order or
None is exact, and a search that runs out raises ``Undecided``.  At each
state the condition returns the bitmask of facets to branch on.  Both
conditions build their tables from per-vertex incidence masks
(``contain[v]``, the facets containing v), so every table entry is an AND of
a few such masks.

The shelling condition branches only on the unplaced facets of the largest
size left.  That loses no answer: listing a shelling's facets by decreasing
size, keeping their order within a size, is again a shelling (Bjorner-Wachs,
"Shellable nonpure complexes and posets I", Trans. AMS 348 (1996), Lemma
2.6).  The weak condition has no such lemma and branches on every
admissible facet.  The dead-state memo keeps its meaning: every state the
restricted search reaches holds all facets larger than some size s and some
of size s, and stable-sorting any shelling that extends such a state S gives
a restricted shelling whose first |S| facets are S again, so a state with no
restricted completion has no completion at all.

Within a layer the shelling condition rechecks only the facets whose answer
can change after each step; ``_shelling_moves`` states its step test, proves
it exact and says which facets are rechecked.  Before any shelling search,
``find_shelling_order`` walks the search's *first descent* once
(``complexes._first_descent``, which the CM tests of ``homology`` share)
and returns it when every step passes; its docstring says why that is the
search's own answer.

The weak condition adds two exact rules.  Write sigma(i, j) for the possible
savers of a full-union pair, the facets k other than i, j with
F_i & F_j inside F_k.

* Refutation: if some full-union pair has an empty sigma, no weak shelling
  order exists, since whichever of the two comes later has no saver.
* Free facet: a facet x whose every full-union partner l already has a saver
  from sigma(x, l) in the placed set is appended without branching.  If any
  completion exists, moving x to its front is one too: x is admissible, since
  its placed partners are saved, and every later facet's prefix only gains x,
  while each pair {x, l} is already saved.

Two kinds of complex are settled before any shelling search, with the
proofs in ``find_shelling_order``: a pure complex with no free ridge and no
top GF(2) cycle has none (the dunce hat is refuted this way), and a complex
whose every facet misses exactly two vertices, the dual of a flag complex,
is answered from the chordality of its graph (Froberg's theorem, in the form
of Herzog, Hibi and Zheng, "Dirac's theorem on chordal graphs and Alexander
duality", European J. Combin. 25 (2004)).

Strong gcd-orders are decided through the dual complex: an order of the
minimal non-faces is a strong gcd-order exactly when the reversed complement
order is a weak shelling order of the dual, and the weak condition is
prefix-closed while the gcd condition is not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .complexes import (
    Complex,
    InputError,
    Undecided,
    _bit_indices,
    _canonical,
    _first_descent,
    _incidence,
    _maximal,
    alexander_dual,
    chordal_certificate,
    minimal_nonfaces,
)
from .homology import GF2, _boundary_rank

__all__ = [
    "NODE_BUDGET",
    "OrderCertificate",
    "CheckReport",
    "StepWitness",
    "PairWitness",
    "check_shelling_order",
    "check_weak_shelling_order",
    "check_strong_gcd_order",
    "find_shelling_order",
    "find_weak_shelling_order",
    "find_strong_gcd_order",
    "gcd_order_from_dual",
    "is_trivially_weakly_shellable",
]

#: Prefix-sets any one order search may visit before it raises Undecided.
NODE_BUDGET = 250_000


@dataclass(frozen=True)
class OrderCertificate:
    """A facet (or non-face) permutation of a complex, as masks in order."""

    complex: Complex
    sequence: tuple

    def members(self) -> list:
        return [self.complex.universe.members(m) for m in self.sequence]


@dataclass(frozen=True)
class StepWitness:
    """Shelling failure: position ``step`` whose prefix intersection is not
    pure of dimension ``required_dim``; ``intersection`` lists its maximal
    faces as label tuples, in canonical order."""

    step: int
    intersection: tuple
    required_dim: int


@dataclass(frozen=True)
class PairWitness:
    """Positions (i, j) of the pair for which no admissible k exists."""

    i: int
    j: int


@dataclass(frozen=True)
class CheckReport:
    """An order check's verdict: the order passes iff there is no witness."""

    witness: Optional[Union[StepWitness, PairWitness]] = None

    def __bool__(self) -> bool:
        return self.witness is None

    ok = property(__bool__)


def _as_sequence(c: Complex, order, expected: Sequence[int], what: str) -> tuple:
    """Normalize an order (an OrderCertificate, or faces as masks or labels) to
    masks and verify it is a permutation of *expected*."""
    if isinstance(order, OrderCertificate):
        order = order.sequence
    seq = tuple(c.universe.as_mask(f) for f in order)
    if sorted(seq) != sorted(expected):
        raise InputError("order is not a permutation of the %s" % what)
    return seq


def check_shelling_order(c: Complex, order) -> CheckReport:
    """Validate a shelling order of c's facets.

    Position j passes when every maximal element of {F_j & F_i : i < j} has
    |F_j| - 1 elements: those elements are the facets of <F_j> intersected
    with <F_0, ..., F_{j-1}>, which must be pure of dimension dim F_j - 1.
    The witness of the first failing position lists them, as label tuples,
    in canonical order.
    """
    seq = _as_sequence(c, order, c.facets, "facets")
    for j in range(1, len(seq)):
        F = seq[j]
        need = F.bit_count() - 1
        inter = _maximal([F & G for G in seq[:j]])
        if any(m.bit_count() != need for m in inter):
            faces = tuple(map(c.universe.members, _canonical(inter)))
            return CheckReport(StepWitness(j, faces, need - 1))
    return CheckReport()


def check_weak_shelling_order(c: Complex, order) -> CheckReport:
    """Validate a weak shelling order of c's facets."""
    seq = _as_sequence(c, order, c.facets, "facets")
    full = c.universe.full_mask
    for j in range(len(seq)):
        for i in range(j):
            if seq[i] | seq[j] != full:
                continue
            both = seq[i] & seq[j]
            if not any(k != i and both & ~seq[k] == 0 for k in range(j)):
                return CheckReport(PairWitness(i, j))
    return CheckReport()


def check_strong_gcd_order(c: Complex, order) -> CheckReport:
    """Validate a strong gcd-order of c's minimal non-faces.

    The filling index k for a disjoint pair i < j ranges over every position
    after i other than j itself, including positions after j.

    A rejection PairWitness(i, j) rejects every order that shares the first
    i entries of this one.  In such an order N_i and N_j both come after
    those entries.  Whichever of the two comes first pairs with the other,
    and every other non-face after it is one of N_{i+1}, ..., N_{r-1} other
    than N_j, none of which lies in N_i | N_j; so that pair fails too.
    """
    seq = _as_sequence(c, order, minimal_nonfaces(c), "minimal non-faces")
    for i, a in enumerate(seq):
        later = seq[i + 1:]
        for j, b in enumerate(later, i + 1):
            if a & b:
                continue
            outside = ~(a | b)
            for x in later:  # the masks are distinct, so x != b means k != j
                if not x & outside and x != b:
                    break
            else:
                return CheckReport(PairWitness(i, j))
    return CheckReport()


def is_trivially_weakly_shellable(c: Complex) -> bool:
    """True iff no two facets union to the whole universe.

    Implied whenever the universe has at least 2*dim(c) + 3 vertices; in that
    case every facet order is a weak shelling order.
    """
    full = c.universe.full_mask
    fs = c.facets
    for a in range(len(fs)):
        for b in range(a + 1, len(fs)):
            if fs[a] | fs[b] == full:
                return False
    return True


def _search_order(r: int, moves):
    """Iterative depth-first search over prefix-sets of r items.

    ``moves(state, added, parent)`` returns the index mask of the items to
    branch on after the prefix-set ``state``, which item bit ``added`` has
    just joined; ``parent`` is what it returned for ``state ^ added``.  At the
    root all three are 0.  Branches are tried in index order, so the first
    completed order is deterministic.  Returns the order as a list of
    indices, None when the whole reachable region was exhausted, or raises
    Undecided when more than ``NODE_BUDGET`` prefix-sets would be visited.
    """
    goal = (1 << r) - 1
    budget = NODE_BUDGET
    dead: set[int] = set()
    placed: list[int] = []   # item bits in the order they were appended
    given: list[int] = []    # per depth: the mask moves() returned
    pending: list[int] = []  # per depth: the part of it not tried yet
    state = added = mask = 0
    visited = 0
    while state != goal:
        visited += 1
        if visited > budget:
            raise Undecided("search budget of %d states exhausted" % budget)
        mask = moves(state, added, mask)
        given.append(mask)
        pending.append(mask)
        while True:
            todo = pending[-1]
            while todo:
                added = todo & -todo
                todo ^= added
                if state | added not in dead:
                    break
            else:
                added = 0
            if added:
                pending[-1] = todo
                placed.append(added)
                state |= added
                break
            dead.add(state)
            given.pop()
            pending.pop()
            if not placed:
                return None
            state ^= placed.pop()
            mask = given[-1]
    return [bit.bit_length() - 1 for bit in placed]


def _shelling_moves(facets: Sequence[int], full: int):
    """The shelling condition as a moves function for ``_search_order``.

    Appending F after a nonempty prefix-set S is allowed iff every maximal
    old-new intersection is a ridge of F.  Let W be the vertices v of F whose
    ridge F \\ {v} lies in a placed facet; then the condition says no placed
    facet contains all of W.  That step test is exact.  If F meets S in a
    pure complex of dimension dim F - 1 and some G in S contains W, then
    F & G, a proper face of F, lies in a ridge F - v of that complex, which
    lies in a facet of S, so v is in W although G misses it.  Conversely, if
    no facet of S contains W, each G in S misses some v in W, so F & G lies
    in the ridge F - v, which lies in a facet of S.  With single[f][v] the
    facets containing F \\ {v} but not v, both tests are a few word
    operations per vertex.

    Only the unplaced facets of the largest size left are branched on, the
    current *layer* (facets are indexed by increasing size, so it is the
    layer of the highest unplaced index).  Within a layer, adding x changes
    the answer for an unplaced facet y of x's size only in one direction:

    * R, x contains a ridge of y (y is in ``rd``, the OR of x's ``single``
      masks): W(y) gains the vertex of y outside x, which x lacks, so x
      cannot contain the new W(y) and an admissible y stays admissible;
    * N, otherwise y meets x: W(y) is unchanged and only x joins the placed
      facets, so an inadmissible y stays inadmissible;
    * D, otherwise: W(y) is unchanged, and nonempty if y was admissible, so
      x, which misses y, does not contain it and nothing changes.

    So a child's mask is its parent's on D and R, and only the inadmissible
    R facets and the admissible N facets are rechecked; every mask equals a
    full recheck of the layer.  At the first two states (``state ==
    added``, 0 at the root) and when x's layer has just run out, every
    unplaced facet of the current layer is checked.
    """
    r = len(facets)
    goal = (1 << r) - 1
    contain = _incidence(facets, full)
    by_size: dict[int, int] = {}
    for i, F in enumerate(facets):
        by_size[F.bit_count()] = by_size.get(F.bit_count(), 0) | 1 << i
    layer = [by_size[F.bit_count()] for F in facets]  # layer[f]: the facets of F_f's size
    rows = []   # rows[f]: (contain[v], single[f][v]) for each vertex v of F_f
    touch = []  # touch[f]: the facets sharing a vertex with F_f
    for F in facets:
        verts = list(_bit_indices(F))
        row = []
        t = 0
        for v in verts:
            sing = goal & ~contain[v]
            for u in verts:
                if u != v:
                    sing &= contain[u]
            row.append((contain[v], sing))
            t |= contain[v]
        rows.append(tuple(row))
        touch.append(t)

    def moves(state: int, added: int, parent: int) -> int:
        rest = goal & ~state
        now = layer[rest.bit_length() - 1]
        if state == added or not added & now:
            out, check = 0, rest & now
        else:
            x = added.bit_length() - 1
            t = touch[x]
            rd = 0  # within x's layer: the facets sharing a ridge with F_x
            for _, sing in rows[x]:
                rd |= sing
            out = parent & (~t | rd)
            check = (rd & ~parent | t & ~rd & parent) & rest & now
        while check:
            low = check & -check
            check ^= low
            block = goal
            for cv, sing in rows[low.bit_length() - 1]:
                if state & sing:
                    block &= cv
            if not state & block:
                out |= low
        return out

    return moves


def _weak_moves(facets: Sequence[int], full: int):
    """The weak condition as a moves function, or None when it is refuted.

    For each facet x the full-union partners l other than x itself are
    listed with their saver sets sigma(x, l), each an AND of incidence masks.
    An empty saver set refutes the instance; otherwise a free facet, if any,
    is the only branch.
    """
    r = len(facets)
    goal = (1 << r) - 1
    contain = _incidence(facets, full)
    partners = []  # partners[x]: (bit of l, sigma(x, l)) for each full-union partner l
    for x, F in enumerate(facets):
        mates = goal & ~(1 << x)
        for v in _bit_indices(full & ~F):
            mates &= contain[v]
        row = []
        for l in _bit_indices(mates):
            sav = goal & ~(1 << x | 1 << l)
            for v in _bit_indices(F & facets[l]):
                sav &= contain[v]
            if not sav:
                return None
            row.append((1 << l, sav))
        partners.append(tuple(row))

    def moves(state: int, added: int, parent: int) -> int:
        out = 0
        rest = goal & ~state
        while rest:
            low = rest & -rest
            rest ^= low
            free = True
            for lbit, sav in partners[low.bit_length() - 1]:
                if not state & sav:
                    if state & lbit:
                        break
                    free = False
            else:
                if free:
                    return low
                out |= low
        return out

    return moves


def _closed_and_acyclic(c: Complex) -> bool:
    """True when c is pure, every ridge of a facet lies in at least two
    facets, and the facets' boundary rows are independent over GF(2).

    Such a complex has no shelling (see ``find_shelling_order``).  The gates
    run cheapest first: purity, a ridge in one facet only, and last the
    rank.  The rows are the ones every homology sweep uses: ``_boundary_rank``
    builds them from the facets, one column per ridge.  The complex {empty
    set} gives one zero row, of rank 0.
    """
    if c.is_void or not c.is_pure:
        return False
    count = Counter(F ^ 1 << v for F in c.facets for v in _bit_indices(F))  # ridge -> its facets
    if 1 in count.values():
        return False
    column = {ridge: j for j, ridge in enumerate(count)}
    return _boundary_rank(c.facets, column, (), GF2)[0] == len(c.facets)


def _search(c: Complex, condition) -> Optional[OrderCertificate]:
    facets = c.facets
    moves = condition(facets, c.universe.full_mask)
    if moves is None:
        return None
    idx_order = _search_order(len(facets), moves)
    if idx_order is None:
        return None
    return OrderCertificate(c, tuple(facets[i] for i in idx_order))


def find_shelling_order(c: Complex) -> Optional[OrderCertificate]:
    """A shelling order of c, or None when provably none exists.

    A returned order lists the facets by non-increasing size.  None is a
    proof at any size; Undecided is raised when the search visits
    ``NODE_BUDGET`` prefix-sets without an answer.

    Outside the flag duals below, the search's first descent, the facets by
    non-increasing size in index order within a size, is checked first, one
    step test a facet (``_first_descent``), and returned when every step
    passes.  The answer is the search's: the search branches on the
    lowest-index admissible facet of the largest size left, so when every
    step passes it takes exactly those steps and returns the same order.  A
    complex with a shelling never meets the root refutation below, so
    checking the descent before it changes no answer either.  The walk
    places each facet once and does not count against ``NODE_BUDGET``.  When
    a step fails, the refutation and the search run.

    Before any search, a pure complex of dimension d whose every ridge
    lies in two facets and whose facets' boundary rows are independent over
    GF(2) returns None.  Proof: in a shelling, every ridge of the last facet
    F lies in an earlier facet, so F meets the earlier ones in its whole
    boundary and its restriction R(F) is F.  Then H~_d(c; Z) is nonzero
    (Bjorner-Wachs, "Shellable nonpure complexes and posets I", Trans. AMS
    348 (1996), Thm 4.1).  With no (d+1)-faces it is the group of d-cycles,
    and a nonzero cycle divided by the gcd of its coefficients has an odd
    one, so it stays a nonzero cycle mod 2: the rows are dependent.  This
    settles the dunce hat and its suspensions without a search.

    A complex whose every facet misses exactly two vertices is answered from
    the graph G on its universe whose non-edges are those pairs, with no
    search.  Such a complex is the dual of the flag complex X of G, since the
    minimal non-faces of X are the non-edges of G.

    When G is not chordal it returns None.  Let C be a chordless cycle of G
    with k >= 4 vertices and tau the other vertices.  C holds a non-edge, so
    tau is a face, and its link is the complex on C whose facets are the
    complements in C of the non-edges inside C, the dual on C of the
    restriction of X to C.  That restriction is the k-cycle, a circle, so
    the link has dimension k - 3, and by Alexander duality its H~_{k-4} is
    Z.  A link with homology below its dimension is not Cohen-Macaulay over
    any field, so neither is the complex, and a pure shellable complex is.

    When G is chordal, ``complexes.chordal_certificate`` gives a perfect
    elimination order of it.  The non-edges are sorted by the position of
    their earlier vertex in that order, then of their later one, and each is
    complemented; this is a shelling.  The complex is pure, so the condition
    is that for non-edges e_i before e_j some e_k before e_j lies in the
    union of the two and meets e_j in one vertex.  If e_i meets e_j, e_i is
    that e_k.  Otherwise write e_i = {a', b'} and e_j = {a, b} with a'
    before b' and a before b; a' comes before a, since the two are disjoint.
    The neighbours of a' after it are pairwise adjacent and a, b are not, so
    {a', a} or {a', b} is a non-edge; it comes before e_j and meets it in
    one vertex.
    """
    full = c.universe.full_mask
    if c.facets and all((full ^ F).bit_count() == 2 for F in c.facets):
        nonedges = {full ^ F for F in c.facets}
        pairs = (1 << a | 1 << b for b in range(c.universe.n) for a in range(b))
        graph = Complex(c.universe, _canonical(e for e in pairs if e not in nonedges))
        cert = chordal_certificate(graph)
        if not cert.chordal:
            return None
        pos = {c.universe.mask([v]): i for i, v in enumerate(cert.vertices)}
        nonedges = sorted(nonedges, key=lambda e: sorted((pos[e & -e], pos[e & e - 1])))
        return OrderCertificate(c, tuple(full ^ e for e in nonedges))
    facets = c.facets
    descent = _first_descent(facets, full)
    if descent is not None:
        return OrderCertificate(c, tuple(facets[i] for i in descent))
    if _closed_and_acyclic(c):
        return None
    return _search(c, _shelling_moves)


def find_weak_shelling_order(c: Complex) -> Optional[OrderCertificate]:
    """A weak shelling order of c, or None when provably none exists.

    When no two facets union to the universe every facet is free, so the
    free-facet rule places them in index order and the identity order is
    returned.  A full-union pair with no possible saver returns None without
    a search.  None is a proof at any size; Undecided is raised when the
    search visits ``NODE_BUDGET`` prefix-sets without an answer.
    """
    return _search(c, _weak_moves)


def find_strong_gcd_order(c: Complex) -> Optional[OrderCertificate]:
    """A strong gcd-order of c's minimal non-faces, or None when none exists.

    Decided via the dual: reverse a weak shelling order of the dual complex
    and take complements.  Searching the gcd condition directly would not be
    prefix-closed, since the filling index may come after both pair members.
    None is a proof at any size; Undecided is raised when the search of the
    dual visits ``NODE_BUDGET`` prefix-sets without an answer.
    """
    weak = find_weak_shelling_order(alexander_dual(c))
    if weak is None:
        return None
    return gcd_order_from_dual(c, weak)


def gcd_order_from_dual(c: Complex, order: OrderCertificate) -> OrderCertificate:
    """The order of c's minimal non-faces read off a facet order of its dual.

    The dual's facets are reversed and each is complemented.  A weak shelling
    order of the dual always maps to a strong gcd-order of c.  So does a
    shelling order when c has no ghost vertices: every dual facet then misses
    at least two vertices, and a shelling of such facets is a weak shelling.
    Any other order may map to one that fails; ``check_strong_gcd_order``
    decides.
    """
    full = c.universe.full_mask
    return OrderCertificate(c, tuple(full ^ f for f in reversed(order.sequence)))
