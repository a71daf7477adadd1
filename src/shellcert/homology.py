"""Exact reduced simplicial homology and the link-vanishing test for
Cohen-Macaulayness.

Ranks are computed from boundary matrices by exact elimination only.  Each
face gives one sparse boundary row.  Over GF(2) the row is packed into a
bitmask and reduced by XOR (``rank_gf2``); over GF(p) and the rationals one
sparse kernel (``rank_sparse``) reduces it by cross-multiples, mod p or
divided by the gcd of its entries.  No floating point anywhere.

The chain complex is *augmented*: the empty face spans the (-1)-chains, so
rank(-1) is nonzero only for the complex whose sole face is the empty face.
Boundary signs come from vertex positions in ascending index order; any
consistent convention gives the same ranks, fixing one makes the matrices
reproducible.

Cohen-Macaulayness over Q is decided at about the cost of GF(2).  By the
universal coefficient theorem, H~_i(K; GF(p)) is H~_i(K; Z) (x) GF(p) plus
Tor(H~_{i-1}(K; Z), GF(p)), and the first term alone has dimension at least
the free rank of H~_i(K; Z), which is dim H~_i(K; Q).  So a link with no
GF(2) homology below its dimension has none over Q either, and the Q sweep
eliminates over Q only the links where GF(2) finds homology (torsion such as
RP^2's can make those pass over Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .complexes import (
    VOID_DIM,
    Complex,
    InputError,
    all_faces,
    faces_by_dim,
    link,
    pure_skeleton,
    restrict_to_support,
)

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
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "Field":
        t = text.strip().lower()
        if t in ("q", "qq", "rational", "rationals"):
            return cls(None)
        try:
            p = int(t[2:]) if t.startswith("gf") else None
        except ValueError:
            p = None
        if p is None:
            raise InputError("unrecognized field %r (expected gf<p> or q)" % text)
        return cls(p)

    def __str__(self):
        return "Q" if self.p is None else "GF(%d)" % self.p


GF2 = Field.gf(2)
QQ = Field.rationals()
DEFAULT_FIELDS = (GF2, QQ)


def rank_gf2(vectors: Sequence[int]) -> int:
    """Rank of bitmask vectors over GF(2), by XOR elimination on lowest set bits."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            low = v & -v
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = v
                rank += 1
                break
            v ^= piv
    return rank


def rank_sparse(rows: Sequence[dict], p: Optional[int]) -> int:
    """Rank of sparse rows ``{column: entry}`` over GF(p), or over Q when p is None.

    Rows are reduced one at a time against pivots keyed by their leading
    column, as in ``rank_gf2``.  An update is the cross-multiple
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
    return len(pivots)


def _boundary_rank(faces_d: Sequence[int], below_index: dict, field: Field) -> int:
    """Rank of the boundary map from d-faces to (d-1)-faces.

    Over GF(2) signs vanish, so each row goes straight into a bitmask.
    """
    if field.p == 2:
        vectors = []
        for F in faces_d:
            v = 0
            m = F
            while m:
                low = m & -m
                v |= 1 << below_index[F ^ low]
                m ^= low
            vectors.append(v)
        return rank_gf2(vectors)
    rows = []
    for F in faces_d:
        row = {}
        sign = 1
        m = F
        while m:
            low = m & -m
            row[below_index[F ^ low]] = sign
            sign = -sign
            m ^= low
        rows.append(row)
    return rank_sparse(rows, field.p)


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


def reduced_homology(c: Complex, field: Field = QQ) -> HomologyProfile:
    """Exact reduced homology ranks of a non-void complex over the given field."""
    if c.is_void:
        raise InputError("reduced homology of the void complex is undefined")
    groups = faces_by_dim(c)
    top = c.dim
    index: dict[int, dict] = {}
    for d, fs in groups.items():
        index[d] = {f: i for i, f in enumerate(fs)}
    brank = {}  # brank[d] = rank of boundary C_d -> C_{d-1}
    for d in range(0, top + 1):
        brank[d] = _boundary_rank(groups.get(d, ()), index.get(d - 1, {}), field)
    ranks = []
    for d in range(-1, top + 1):
        nd = len(groups.get(d, ()))
        ranks.append((d, nd - brank.get(d, 0) - brank.get(d + 1, 0)))
    return HomologyProfile(field, tuple(ranks))


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
    field: Field
    witness: Optional[CMWitness] = None
    degenerate: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _cm_witness(c: Complex, field: Field) -> Optional[CMWitness]:
    """First face (canonical order) violating link vanishing, or None.

    Links of dimension <= 0 cannot violate the condition: the only degree
    below 0 is -1, and a complex with a vertex has rank 0 there.  Over Q a
    link is first checked over GF(2) and skipped if it passes there (see the
    module docstring), so only links that fail over GF(2) are eliminated
    over Q; the first failing face, and so the witness, is unchanged.
    """
    for sigma in all_faces(c):
        lk = link(c, sigma)
        d = lk.dim
        if d is VOID_DIM or d < 1:
            continue
        if field.p is None:
            prof2 = reduced_homology(lk, GF2)
            if not any(prof2.rank(i) for i in range(-1, d)):
                continue
        prof = reduced_homology(lk, field)
        for i in range(-1, d):
            r = prof.rank(i)
            if r:
                return CMWitness(c.universe.members(sigma), i, r)
    return None


def is_cohen_macaulay(c: Complex, field: Field = QQ) -> CMReport:
    """Link-vanishing test: every face's link (the empty face included) must
    have zero reduced homology below its own dimension.

    Over Q each link is screened over GF(2) first and eliminated over Q only
    when GF(2) finds homology below its dimension; the witness is the one a
    plain Q sweep would give."""
    if c.is_void:
        raise InputError("Cohen-Macaulayness of the void complex is undefined")
    if c.has_ghost_vertices:
        ghosts = c.universe.members(c.universe.full_mask ^ c.support)
        return CMReport(False, field, degenerate="ghost vertices %r: restrict to the support first" % (ghosts,))
    w = _cm_witness(c, field)
    return CMReport(w is None, field, witness=w)


def is_sequentially_cm(c: Complex, field: Field = QQ) -> CMReport:
    """Pure-skeleton reduction: the subcomplex generated by the i-faces must be
    Cohen-Macaulay for every 0 <= i <= dim.

    The top skeleton is checked first; it is the cheapest way to fail.  Lower
    skeleta may leave some vertices unused (a vertex facet is in no pure
    1-skeleton), so each skeleton is tested on its own support.  Over Q the
    link sweep of each skeleton screens links over GF(2) first, as in
    ``is_cohen_macaulay``.
    """
    if c.is_void:
        raise InputError("sequential Cohen-Macaulayness of the void complex is undefined")
    if c.has_ghost_vertices:
        ghosts = c.universe.members(c.universe.full_mask ^ c.support)
        return CMReport(False, field, degenerate="ghost vertices %r: restrict to the support first" % (ghosts,))
    top = c.dim
    if top == -1:
        return CMReport(True, field)
    for i in [top] + list(range(top)):
        sk = restrict_to_support(pure_skeleton(c, i))
        w = _cm_witness(sk, field)
        if w is not None:
            return CMReport(False, field,
                            witness=CMWitness(w.face, w.degree, w.rank, skeleton_dim=i))
    return CMReport(True, field)
