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

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "VOID_DIM",
    "InputError",
    "VertexSet",
    "Complex",
    "from_facets",
    "from_minimal_nonfaces",
    "minimal_nonfaces",
    "alexander_dual",
    "link",
    "pure_skeleton",
    "is_flag",
    "all_faces",
    "reduced_euler_characteristic",
    "intersection_with_prefix",
    "restrict_to_support",
]

#: Dimension of the void complex; compares below every integer dimension.
VOID_DIM = float("-inf")


class InputError(ValueError):
    """Raised when an operation receives a malformed or inconsistent input."""


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
    """Inclusion-maximal members of a family of bitmasks."""
    ms = sorted(set(masks), key=lambda m: m.bit_count(), reverse=True)
    out: list[int] = []
    for m in ms:
        if not any(m & o == m for o in out):
            out.append(m)
    return out


def _minimal(masks: Iterable[int]) -> list:
    ms = sorted(set(masks), key=lambda m: m.bit_count())
    out: list[int] = []
    for m in ms:
        if not any(m & o == o for o in out):
            out.append(m)
    return out


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

    @property
    def has_ghost_vertices(self) -> bool:
        """True iff some universe vertex lies in no facet."""
        return self.support != self.universe.full_mask

    def contains(self, face) -> bool:
        m = self.universe.as_mask(face)
        return any(m & f == m for f in self.facets)

    def facet_members(self) -> list:
        """Facets as label tuples, canonical order."""
        return [self.universe.members(f) for f in self.facets]

    def __repr__(self):
        gen = ", ".join("{%s}" % ",".join(map(str, fs)) for fs in self.facet_members())
        return "Complex(n=%d, <%s>)" % (self.universe.n, gen)


def from_facets(universe: VertexSet, candidate_faces: Iterable) -> Complex:
    """Complex generated by the given faces; non-maximal candidates are absorbed."""
    masks = [universe.as_mask(f) for f in candidate_faces]
    return Complex(universe, _canonical(_maximal(masks)))


def _minimal_transversals(family: Sequence[int]) -> list:
    """Inclusion-minimal hitting sets of a family of bitmask sets.

    Incremental Berge product: fold in one set at a time, extending each
    partial transversal that misses it by one element, with absorption after
    every step.  Exponential in the worst case; intended for desk-scale
    inputs (tens of sets over a few dozen vertices).
    """
    if any(s == 0 for s in family):
        return []
    trans = [0]
    for s in sorted(family, key=lambda m: m.bit_count()):
        nxt = []
        for t in trans:
            if t & s:
                nxt.append(t)
            else:
                for i in _bit_indices(s):
                    nxt.append(t | (1 << i))
        trans = _minimal(nxt)
    return trans


def minimal_nonfaces(c: Complex) -> list:
    """All inclusion-minimal non-faces, canonical order.

    A set is a non-face iff it meets the complement of every facet, so the
    minimal non-faces are the minimal transversals of the facet-complement
    family.  Empty iff c is the full simplex on its universe.
    """
    full = c.universe.full_mask
    family = [full ^ f for f in c.facets]
    return sorted(_minimal_transversals(family), key=lambda m: (m.bit_count(), m))


def alexander_dual(c: Complex) -> Complex:
    """The dual complex on the same universe.

    Facets are the complements of the minimal non-faces of c.  The dual of the
    full simplex is the void complex and vice versa, which keeps the operation
    total and an involution.
    """
    return _dual_from_nonfaces(c.universe, minimal_nonfaces(c))


def _dual_from_nonfaces(universe: VertexSet, nonfaces: Iterable[int]) -> Complex:
    """The dual complex whose facets complement the given minimal non-faces."""
    full = universe.full_mask
    return Complex(universe, _canonical(full ^ m for m in nonfaces))


def from_minimal_nonfaces(universe: VertexSet, nonfaces: Iterable) -> Complex:
    """The unique complex whose minimal non-faces are exactly the given antichain."""
    masks = [universe.as_mask(f) for f in nonfaces]
    if len(set(masks)) != len(masks):
        raise InputError("duplicate non-faces")
    for a in masks:
        if a == 0:
            raise InputError("the empty set cannot be a minimal non-face")
        for b in masks:
            if a != b and a & b == a:
                raise InputError(
                    "non-faces must form an antichain: {%s} contains {%s}"
                    % (",".join(map(str, universe.members(b))), ",".join(map(str, universe.members(a))))
                )
    if any(m.bit_count() == 1 for m in masks):
        warnings.warn("singleton non-face: the resulting complex has a ghost vertex", stacklevel=2)
    full = universe.full_mask
    facets = [full ^ t for t in _minimal_transversals(masks)]
    return Complex(universe, _canonical(facets))


def link(c: Complex, face) -> Complex:
    """Link of a face: all G disjoint from it whose union with it is a face.

    Its facets are the sets F - face for the facets F containing the face.
    They already form an antichain (F - face inside G - face gives F inside
    G), so no absorption pass is needed.
    """
    f = c.universe.as_mask(face)
    if not c.contains(f):
        raise InputError("link of a non-face: {%s}" % ",".join(map(str, c.universe.members(f))))
    return Complex(c.universe, _canonical(F ^ f for F in c.facets if F & f == f))


def pure_skeleton(c: Complex, i: int) -> Complex:
    """Subcomplex generated by all i-dimensional faces of c."""
    d = c.dim
    if d is VOID_DIM or not -1 <= i <= d:
        raise InputError("skeleton dimension %s out of range for a complex of dimension %s" % (i, d))
    if i == -1:
        return Complex(c.universe, (0,))
    gen: set[int] = set()
    k = i + 1
    for F in c.facets:
        bits = [1 << j for j in _bit_indices(F)]
        if len(bits) < k:
            continue
        for combo in combinations(bits, k):
            m = 0
            for b in combo:
                m |= b
            gen.add(m)
    return Complex(c.universe, _canonical(gen))


def is_flag(c: Complex) -> bool:
    """True iff every minimal non-face has exactly two elements (vacuous for the full simplex)."""
    return _flag_from_nonfaces(minimal_nonfaces(c))


def _flag_from_nonfaces(nonfaces: Iterable[int]) -> bool:
    return all(m.bit_count() == 2 for m in nonfaces)


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


def intersection_with_prefix(c: Complex, order: Sequence[int], j: int) -> Complex:
    """The complex <F_j> intersected with <F_0,...,F_{j-1}> for a facet order.

    Its facets are the maximal elements of {F_j & F_i : i < j}.  For j == 0
    the prefix is empty and the result is the void complex.
    """
    if not 0 <= j < len(order):
        raise InputError("order position %d out of range" % j)
    return from_facets(c.universe, (order[j] & order[i] for i in range(j)))


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
