"""Exact reduced simplicial homology and the link-vanishing test for
Cohen-Macaulayness.

Ranks are computed from boundary matrices by exact elimination only.  Each
face that is not cleared (below) gives one sparse boundary row.  Over GF(2)
the row is packed into a bitmask and reduced by XOR (``_pivots_gf2``); over
GF(p) and the rationals one sparse kernel (``_pivots_sparse``) reduces it by
cross-multiples, mod p or divided by the gcd of its entries.  Both return
their pivots keyed by leading column, and the rank is their number.  No
floating point anywhere.

Boundary ranks are computed from the top dimension down, with *clearing*
(Chen-Kerber, "Persistent homology computation with a twist", EuroCG 2011).
Lemma: if the elimination of the boundary from (k+1)-faces leaves a pivot
with leading column c, the row of the k-face c in the boundary from k-faces
reduces to zero against the rows of higher index, so it is never built.
Proof: a pivot is a combination of (k+1)-face boundaries, so it is a k-cycle
z with z_c != 0 and every other term of index > c.  Its boundary is 0, so
row c is -1/z_c times the combination of rows j > c with weights z_j.  Rows
are taken in descending index, so those rows are either kept or, by the
same argument, in the span of kept rows; the rank is the same over every
field.  Each layer k hands the kernel f_k - rank(boundary from (k+1)-faces)
rows, where the full sweep handed it f_k.

The chain complex is *augmented*: the empty face spans the (-1)-chains, so
rank(-1) is nonzero only for the complex whose sole face is the empty face.
Boundary signs come from vertex positions in ascending index order; any
consistent convention gives the same ranks, fixing one makes the matrices
reproducible.

A shelling certifies both link tests before any sweep, over every field.
``is_sequentially_cm`` walks the shelling search's first descent
(``complexes._first_descent``: the facets by non-increasing size, one exact
step test each), and ``is_cohen_macaulay`` does so for a pure complex; when
every step passes, the complex passes with no face listed.  Proof: a pure
shellable complex of dimension d has the homotopy type of a wedge of
d-spheres (Bjorner-Wachs, "Shellable nonpure complexes and posets I", Trans.
AMS 348 (1996), Thm 4.1), and the link of a face of a shellable complex is
shellable (ibid., Prop. 10.14), so every link has homology in its top degree
only, which is Reisner's criterion for Cohen-Macaulayness over every field.
A complex is shellable iff each of its pure i-skeleta is (ibid., Thm 2.9),
so each skeleton is Cohen-Macaulay and the complex is sequentially
Cohen-Macaulay by Duval's criterion below (Stanley, Combinatorics and
Commutative Algebra, 2nd ed. (1996), III.2.10).  A Cohen-Macaulay complex is
pure, so ``is_cohen_macaulay`` walks no nonpure descent.  A failing step
proves nothing and the sweep runs as before; no descent is kept.

The link sweeps build no ``Complex`` per link or per skeleton, and list the
faces of a complex once per sweep.  The costar of a face s is the list of
faces t containing s, grouped by |t| - |s|; the link of s has the faces
t - s, layer by layer in the same ascending order (t - s is t XOR s, which
keeps the order of masks that all contain s).  The costar of the empty face
is the face list itself.  A face s with lowest vertex v has the parent s - v,
one size layer earlier in canonical order, and the costar of s is the
parent's costar from its layer 1 on, filtered to the faces that contain v.
Adding a vertex lowers a link's dimension by at least one and links of
dimension <= 0 pass, so only the costars of links of dimension >= 2 are
kept, for one size layer at a time.

A cone has no reduced homology, so its link passes without elimination when
the sweep can see that it is one.  In a pure complex every face lies in a
facet of top dimension, so the link of s is pure and its facets are t - s
for the faces t in the top layer of s's costar.  If those faces share a
vertex outside s, every facet of the link contains it, and the link is a
cone with that apex.  In a complex that is not pure the top layer may miss
facets of the link (a triangle plus a point is no cone, though its only
triangle is), so the rule is applied only to pure sweeps: every skeleton of
``is_sequentially_cm``, and ``is_cohen_macaulay`` of a pure complex.  A
cone link still keeps its costar, since the links below it need not be
cones.

A link of dimension 1 is a graph.  Its only degrees below 1 are -1, where
its rank is 0 since it has a vertex, and 0, where over every field the rank
is one less than its number of connected components.  So after the cone
rule its components are counted by the GF(2) kernel, with no
``_reduced_ranks`` call: a graph's edge bitmasks have GF(2) rank equal to
its vertices minus its components.  Proof: a spanning forest has that many
edges, and they are independent, since any nonempty set of them is a forest
with a leaf, whose bit only one edge of the set has; every other edge closes
a cycle with forest edges, and a cycle has each vertex bit twice, so it sums
to zero.  A disconnected link gives the witness (face, 0, components - 1)
that the ranks give.

The pure i-skeleton D^[i] is generated by the (i+1)-element faces of D, which
``is_sequentially_cm`` takes from its one face list of D; D is sequentially
Cohen-Macaulay when every D^[i] is Cohen-Macaulay (Duval, Electron. J.
Combin. 1996).  Once the top skeleton D^[top] has passed, skeleton i < top is
not swept when every i-face of D lies in a top facet: then D^[i] is the
i-skeleton of D^[top], and a skeleton of a Cohen-Macaulay complex is
Cohen-Macaulay.  Proof (Reisner): for a face s of K^(m), m <= dim K,
lk_{K^(m)} s = (lk_K s)^(m-|s|), and H~_j(L^(q)) = H~_j(L) for j < q, since
the chains and boundaries in degrees <= q agree; lk_K s has no homology
below dim K - |s| >= m - |s|, so neither has its (m-|s|)-skeleton.  A skipped
skeleton holds no witness, so the order top, 0, 1, ... gives the same report.
Only faces are swept, so a vertex in no face of a skeleton plays no part,
and no face list is kept after the call.

Ranks over Q come from the GF(2) bitmask kernel unless 2-torsion can hide.
Lemma: write H~_i(K; Z) as Z^{b_i} plus cyclic groups of prime-power order,
so b_i = dim H~_i(K; Q), and let t_i count the summands of order a power of
2.  Then dim H~_i(K; GF(2)) = b_i + t_i + t_{i-1}; so when no two adjacent
degrees both have GF(2) homology, every t_i is 0 and the GF(2) ranks are the
Q ranks.  Proof: by the universal coefficient theorem (Hatcher, Thm 3A.3),
H~_i(K; GF(2)) is H~_i(K; Z) (x) GF(2) plus Tor(H~_{i-1}(K; Z), GF(2)).
Tensoring with GF(2) leaves one GF(2) for each Z and each Z/2^a and kills
Z/q^a for odd q; Tor(-, GF(2)) is GF(2) for each Z/2^a and 0 for Z and Z/q^a.
This holds for the augmented chain complex, a complex of free abelian
groups, whose H~_{-1} is free (t_{-1} = 0).  A summand counted in t_i adds
one to both degree i and degree i + 1 over GF(2), so t_i > 0 makes two
adjacent degrees nonzero.  ``_reduced_ranks`` therefore eliminates over Q
only a complex whose GF(2) ranks have an adjacent nonzero pair (RP^2:
degrees 1 and 2, where Q finds nothing).  A link sweep over Q asks it once
per link, so a link with GF(2) homology in its top degree alone, the common
case in a Cohen-Macaulay complex, is never eliminated over Q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .complexes import Complex, InputError, VertexSet, _faces_by_size, _first_descent

__all__ = [
    "Field",
    "GF2",
    "QQ",
    "HomologyProfile",
    "CMWitness",
    "CMReport",
    "reduced_homology",
    "is_cohen_macaulay",
    "is_sequentially_cm",
    "cm_reports",
    "DEFAULT_FIELDS",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: GF(p) for a prime p < 2**31, or the rationals (p is None).

    Primality is tested by trial division; the bound keeps that under about
    46k steps, so a huge characteristic is rejected at once instead of hanging.
    """

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= 2**31:
            raise InputError("characteristic must be below 2**31, got %r" % (self.p,))
        if not _is_prime(self.p):
            raise InputError("characteristic must be prime, got %r" % (self.p,))

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "Field":
        """A field from its name: gf<p> or gf(p) with p in ASCII digits, so ``str``
        round-trips, or q; case and surrounding whitespace are ignored.  No other
        name is read."""
        t = text.strip().lower()
        if t == "q":
            return cls(None)
        m = re.fullmatch(r"gf([0-9]+)|gf\(([0-9]+)\)", t)
        if m is None:
            raise InputError("unrecognized field %r (expected gf<p> or q)" % text)
        return cls(int(m[1] or m[2]))

    def __str__(self):
        return "Q" if self.p is None else "GF(%d)" % self.p


GF2 = Field.gf(2)
QQ = Field(None)
DEFAULT_FIELDS = (GF2, QQ)


def _pivots_gf2(vectors: Iterable[int]) -> dict:
    """Pivots of bitmask vectors over GF(2), keyed by leading column.

    A vector's leading column is the index of its lowest set bit.  Each vector
    is reduced by XOR against the pivot with its leading column until it
    vanishes or opens a new one, so each pivot has no set bit below its key.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = (v & -v).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = v
                break
            v ^= piv
    return pivots


def _pivots_sparse(rows: Iterable[dict], p: Optional[int]) -> dict:
    """Pivots of sparse rows ``{column: entry}`` over GF(p), or over Q when p
    is None, keyed by leading column (the least column with a nonzero entry).

    Rows are reduced one at a time against the pivot with their leading
    column, as in ``_pivots_gf2``.  An update is the cross-multiple
    ``pv*row - f*pivot``, reduced mod p or divided by the gcd of its entries
    over Q so they stay small.  Scaling a row by a nonzero scalar never changes
    the rank, so no pivot is normalised and no inverse mod p is needed.
    """

    def normalised(row: dict) -> dict:
        if p is None:
            g = gcd(*row.values()) or 1
            return {c: x // g for c, x in row.items() if x}
        return {c: x % p for c, x in row.items() if x % p}

    pivots: dict[int, dict] = {}
    for row in rows:
        row = normalised(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            pv, f = piv[lead], row[lead]
            new = {c: pv * x for c, x in row.items()}
            for c, y in piv.items():
                new[c] = new.get(c, 0) - f * y
            row = normalised(new)
    return pivots


def _boundary_rank(faces_d: Sequence[int], below_index: dict, cleared: Container[int],
                   field: Field) -> tuple:
    """Rank of the boundary map from d-faces to (d-1)-faces, and its pivot columns.

    Rows go to the kernel in descending face index, and the row of every face
    whose index is in ``cleared`` is never built (``_betti_numbers`` says why
    that is exact).  A pivot column is the index of a (d-1)-face.  Over GF(2)
    signs vanish, so each row goes straight into a bitmask.  It is the only
    code that turns faces into boundary rows; its callers are
    ``_betti_numbers`` and the shelling root refutation,
    ``orders._closed_and_acyclic``, which passes the facets with no cleared
    index.
    """
    faces = [faces_d[j] for j in range(len(faces_d) - 1, -1, -1) if j not in cleared]
    if field.p == 2:
        vectors = []
        for F in faces:
            v = 0
            m = F
            while m:
                low = m & -m
                v |= 1 << below_index[F ^ low]
                m ^= low
            vectors.append(v)
        pivots = _pivots_gf2(vectors)
    else:
        rows = []
        for F in faces:
            row = {}
            sign = 1
            m = F
            while m:
                low = m & -m
                row[below_index[F ^ low]] = sign
                sign = -sign
                m ^= low
            rows.append(row)
        pivots = _pivots_sparse(rows, field.p)
    return len(pivots), pivots.keys()


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology ranks per dimension, from -1 up to dim of the complex."""

    field: Field
    ranks: tuple  # tuple of (dimension, rank) pairs, ascending dimension

    def rank(self, d: int) -> int:
        for dd, r in self.ranks:
            if dd == d:
                return r
        return 0

    @property
    def total(self) -> int:
        return sum(r for _, r in self.ranks)

    def alternating_sum(self) -> int:
        return sum(r if d % 2 == 0 else -r for d, r in self.ranks)

    def __str__(self):
        body = ", ".join("H~%d=%d" % (d, r) for d, r in self.ranks)
        return "[%s over %s]" % (body, self.field)


def _betti_numbers(layers: Sequence[Sequence[int]], field: Field) -> list:
    """Reduced Betti numbers over the field for faces grouped by size: entry k
    is the rank in dimension k - 1.

    The boundary ranks are computed from the top layer down, with clearing:
    the rows of the k-faces whose indices are pivot columns of the boundary
    from the (k+1)-faces are skipped, which leaves every rank unchanged over
    every field by the clearing lemma of the module docstring.
    """
    brank = [0] * (len(layers) + 1)  # brank[k]: rank of the boundary from k-faces
    cleared: Container[int] = ()
    for k in range(len(layers) - 1, 0, -1):
        below = {f: j for j, f in enumerate(layers[k - 1])}
        brank[k], cleared = _boundary_rank(layers[k], below, cleared, field)
    return [len(layers[k]) - brank[k] - brank[k + 1] for k in range(len(layers))]


def _reduced_ranks(layers: Sequence[Sequence[int]], field: Field) -> tuple:
    """(dimension, rank) pairs from -1 up, for faces grouped by size (entry k: k-faces).

    Over Q the ranks are first computed over GF(2), and the complex is
    eliminated over Q only when two adjacent degrees both have GF(2)
    homology; otherwise the GF(2) ranks are the Q ranks (module docstring).
    """
    ranks = _betti_numbers(layers, GF2 if field.p is None else field)
    if field.p is None and any(a and b for a, b in zip(ranks, ranks[1:])):
        ranks = _betti_numbers(layers, field)
    return tuple((k - 1, r) for k, r in enumerate(ranks))


def reduced_homology(c: Complex, field: Field = QQ) -> HomologyProfile:
    """Exact reduced homology ranks of a non-void complex over the given field."""
    if c.is_void:
        raise InputError("reduced homology of the void complex is undefined")
    return HomologyProfile(field, _reduced_ranks(_faces_by_size(c.facets), field))


@dataclass(frozen=True)
class CMWitness:
    """A face whose link has nonvanishing reduced homology below its dimension."""

    face: tuple  # vertex labels
    degree: int
    rank: int
    skeleton_dim: Optional[int] = None


@dataclass(frozen=True)
class CMReport:
    ok: bool
    witness: Optional[CMWitness] = None
    degenerate: Optional[str] = None  # never set; perfbench/workloads.py still reads it

    def __bool__(self) -> bool:
        return self.ok


def _cm_witness(universe: VertexSet, faces: Sequence[Sequence[int]],
                field: Field, pure: bool) -> Optional[CMWitness]:
    """First face (canonical order) of the complex with the given faces (grouped
    by size, as ``_faces_by_size`` lists them) whose link has homology below
    its dimension, or None.

    Each link comes from the face's costar, the faces containing it grouped
    by how many vertices they add: the costar of the empty face is ``faces``,
    and that of s is its parent's (s minus its lowest vertex v), from layer 1
    on, filtered to the faces containing v (module docstring).  Links of
    dimension <= 0 cannot violate the condition: the only degree below 0 is
    -1, and a complex with a vertex has rank 0 there.  So costars are kept for
    one size layer and only for links of dimension >= 2; a face whose parent
    kept none has a link of dimension <= 0, and the sweep ends at a layer that
    keeps none.  When ``pure`` says the complex is pure, a link whose facets,
    the top layer of the costar, share a vertex outside the face is a cone
    and passes without elimination; its costar is kept first, so the faces
    below it are still swept.  Any other link of dimension 1 is a graph,
    Cohen-Macaulay iff connected, and has its vertices minus the GF(2) rank
    of its edges as components (a spanning forest's edges are independent
    and every cycle sums to zero; module docstring), over every field.
    Every other link costs one ``_reduced_ranks`` call over the sweep's
    field.
    """
    kept = {0: faces}
    for layer in faces:
        costars = {}
        for sigma in layer:
            low = sigma & -sigma
            parent = kept.get(sigma ^ low)
            if parent is None:
                continue
            if sigma:  # the layers that keep a face stay contiguous from layer 0
                costar = [ts for ts in ([t for t in us if t & low] for us in parent[1:]) if ts]
            else:
                costar = parent
            d = len(costar) - 2  # layer j holds the link's (j-1)-faces
            if d < 1:
                continue
            if d > 1:
                costars[sigma] = costar
            if pure:
                apex = costar[-1][0]
                for t in costar[-1]:
                    apex &= t
                if apex & ~sigma:  # the link is a cone
                    continue
            if d == 1:
                # _pivots_gf2 keys pivots by lowest bit, so descending edges make the
                # top vertex's star the pivots first and a dense link's edges clear in
                # two XORs (K80 link: 0.56 ms descending, 6.3 ms ascending)
                k = len(costar[1]) - len(_pivots_gf2([t ^ sigma for t in reversed(costar[2])]))
                if k > 1:
                    return CMWitness(universe.members(sigma), 0, k - 1)
                continue
            lk = [[t ^ sigma for t in ts] for ts in costar]
            for i, r in _reduced_ranks(lk, field):
                if i < d and r:
                    return CMWitness(universe.members(sigma), i, r)
        if not costars:
            return None
        kept = costars


def is_cohen_macaulay(c: Complex, field: Field = QQ) -> CMReport:
    """Link-vanishing test: every face's link (the empty face included) must
    have zero reduced homology below its own dimension (Reisner,
    "Cohen-Macaulay quotients of polynomial rings", Adv. Math. 21 (1976)).

    A pure complex whose shelling search's first descent passes is a pure
    shellable complex, Cohen-Macaulay over every field (Bjorner-Wachs 1996,
    Thm 4.1 and Prop. 10.14; module docstring), and passes with no sweep.
    Otherwise the links are swept (``_cm_witness``).  Only faces are swept,
    and a ghost vertex lies in no face, so it plays no part: the report
    equals that of ``restrict_to_support(c)``, whose relabelling keeps the
    order of the faces and so the first failing one.
    """
    if c.is_void:
        raise InputError("Cohen-Macaulayness of the void complex is undefined")
    if c.is_pure and _first_descent(c.facets, c.universe.full_mask) is not None:
        return CMReport(True)
    w = _cm_witness(c.universe, _faces_by_size(c.facets), field, c.is_pure)
    return CMReport(w is None, witness=w)


def is_sequentially_cm(c: Complex, field: Field = QQ) -> CMReport:
    """Pure-skeleton reduction: the subcomplex generated by the i-faces must be
    Cohen-Macaulay for every 0 <= i <= dim (Duval, Electron. J. Combin. 3
    (1996), Thm 3.3).

    A complex whose shelling search's first descent passes is shellable in
    the nonpure sense, so sequentially Cohen-Macaulay over every field
    (Bjorner-Wachs 1996, Thm 2.9; Stanley, Combinatorics and Commutative
    Algebra, III.2.10; module docstring), and passes before any face is
    listed.  Otherwise the skeleta are swept, the top one first: it is the
    cheapest way to fail.  The (i+1)-element faces of c are the facets of
    skeleton i, whose faces are listed once and swept by costars (see the
    module docstring).  Once the top skeleton passes, a skeleton whose
    i-faces all lie in top facets is the i-skeleton of a Cohen-Macaulay
    complex, so it is Cohen-Macaulay and not swept; a pure complex costs one
    sweep, as in ``is_cohen_macaulay``.  Only faces are swept, so vertices a
    skeleton leaves unused (a vertex facet is in no pure 1-skeleton) play no
    part, and neither does a ghost vertex of c: the report equals that of
    ``restrict_to_support(c)``.
    """
    if c.is_void:
        raise InputError("sequential Cohen-Macaulayness of the void complex is undefined")
    if _first_descent(c.facets, c.universe.full_mask) is not None:
        return CMReport(True)
    layers = _faces_by_size(c.facets)
    top = c.dim
    top_faces = layers if c.is_pure else _faces_by_size(layers[top + 1])
    for i in [top] + [i for i in range(top) if len(top_faces[i + 1]) < len(layers[i + 1])]:
        faces = top_faces if i == top else _faces_by_size(layers[i + 1])
        w = _cm_witness(c.universe, faces, field, True)
        if w is not None:
            return CMReport(False, witness=replace(w, skeleton_dim=i))
    return CMReport(True)


def cm_reports(test: Callable, c: Complex, fields: Iterable[Field]) -> Iterator[tuple]:
    """(field, report) pairs of ``test`` (``is_cohen_macaulay`` or
    ``is_sequentially_cm``) on c, each field once in first-seen order.  The
    pair carries the field; a ``CMReport`` does not, since every caller of a
    test passes the field in.

    Q passes without a sweep after a prime field has passed: by universal
    coefficients, link homology that vanishes over GF(p) vanishes over Q (the
    lemma in the module docstring, with p in place of 2).  After a failing
    prime field Q is swept.  Sweeps run as the pairs are consumed, so a
    caller that stops at the first failure sweeps no more.
    """
    prime_passed = False
    for f in dict.fromkeys(fields):
        rep = CMReport(True) if f.p is None and prime_passed else test(c, f)
        prime_passed |= rep.ok and f.p is not None
        yield f, rep
