"""Bundled reference complexes.

These form the ground-truth corpus for the verification suite and the demos.
Each entry is a small named complex with well-understood behaviour under the
four conditions tracked by the fact table.  ``CLAIMS`` records the expected
fact-table row for the complexes whose full row is part of the corpus; the
Golod claim for ``gcd-violator`` rests on an algebraic computation this
package does not perform, so it is recorded as a catalog claim, never as a
computed fact.
"""

from __future__ import annotations

from .complexes import Complex, VertexSet, alexander_dual, from_facets, from_minimal_nonfaces

__all__ = [
    "strong_gcd_witness",
    "strong_gcd_witness_nonface_order",
    "dunce_hat",
    "gcd_violator",
    "gcd_violator_nonface_order",
    "pentagon_circle",
    "projective_plane",
    "FIXTURES",
    "CLAIMS",
]


def strong_gcd_witness() -> Complex:
    """Six vertices, minimal non-faces {1,2,3}, {1,2,6}, {4,5,6}.

    Satisfies the strong gcd-condition (the listed non-face order works) while
    its dual <123, 345, 456> is not shellable and not Cohen-Macaulay: the link
    of vertex 3 in the dual is one-dimensional but disconnected.
    """
    u = VertexSet.of(range(1, 7))
    return from_minimal_nonfaces(u, strong_gcd_witness_nonface_order())


def strong_gcd_witness_nonface_order() -> tuple:
    return ({1, 2, 3}, {1, 2, 6}, {4, 5, 6})


DUNCE_HAT_FACETS = (
    {1, 2, 4}, {1, 2, 7}, {1, 2, 8}, {1, 3, 4}, {1, 3, 5}, {1, 3, 6},
    {1, 5, 6}, {1, 7, 8}, {2, 3, 5}, {2, 3, 7}, {2, 3, 8}, {2, 4, 5},
    {3, 4, 8}, {3, 6, 7}, {4, 5, 6}, {4, 6, 8}, {6, 7, 8},
)


def dunce_hat() -> Complex:
    """The classical 8-vertex, 17-facet triangulation of the dunce hat.

    Contractible, Cohen-Macaulay over every field, yet not shellable; with
    8 >= 2*2 + 3 vertices it is trivially weakly shellable.
    """
    u = VertexSet.of(range(1, 9))
    return from_facets(u, DUNCE_HAT_FACETS)


def gcd_violator() -> Complex:
    """Ten vertices, five cyclic 4-element non-faces plus {5,...,9}.

    Admits no strong gcd-order (all 720 non-face orders fail) and its dual is
    not sequentially Cohen-Macaulay: the pure top skeleton of the dual has
    nonvanishing first homology.  ``verify-paper`` covers the 720 orders with
    30 validator calls: a rejection at the pair (i, j) rejects every order
    sharing the first i entries, so each checked order stands for all of them.
    """
    u = VertexSet.of(range(10))
    return from_minimal_nonfaces(u, gcd_violator_nonface_order())


def gcd_violator_nonface_order() -> tuple:
    return ({0, 1, 5, 6}, {1, 2, 6, 7}, {2, 3, 7, 8}, {3, 4, 8, 9}, {0, 4, 5, 9},
            {5, 6, 7, 8, 9})


def pentagon_circle() -> Complex:
    """Independence complex of the 5-cycle: a pentagon, triangulating the circle.

    Flag by construction (all non-faces are edges of the cycle); reduced
    homology ranks 0 and 1 in degrees 0 and 1 over every field.
    """
    u = VertexSet.of(range(5))
    return from_minimal_nonfaces(u, ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}))


PROJECTIVE_PLANE_FACETS = (
    {0, 1, 4}, {0, 1, 5}, {0, 2, 3}, {0, 2, 4}, {0, 3, 5},
    {1, 2, 3}, {1, 2, 5}, {1, 3, 4}, {2, 4, 5}, {3, 4, 5},
)


def projective_plane() -> Complex:
    """The classical 6-vertex triangulation of the real projective plane.

    Cohen-Macaulay in characteristic other than 2 only, not shellable, yet
    weakly shellable: no two of its ten triangles cover all six vertices.
    """
    u = VertexSet.of(range(6))
    return from_facets(u, PROJECTIVE_PLANE_FACETS)


FIXTURES = {
    "strong-gcd-witness": strong_gcd_witness,
    "strong-gcd-witness-dual": lambda: alexander_dual(strong_gcd_witness()),
    "dunce-hat": dunce_hat,
    "dunce-hat-dual": lambda: alexander_dual(dunce_hat()),
    "gcd-violator": gcd_violator,
    "gcd-violator-dual": lambda: alexander_dual(gcd_violator()),
    "pentagon": pentagon_circle,
    "projective-plane": projective_plane,
}

# Expected fact-table rows (dual_shellable, strong_gcd, dual_seq_cm, golod).
# "claim:T" marks a corpus claim the engine does not recompute.
CLAIMS = {
    "strong-gcd-witness": ("F", "T", "F", "T"),
    "dunce-hat-dual": ("F", "T", "T", "T"),
    "gcd-violator": ("F", "F", "F", "claim:T"),
}
