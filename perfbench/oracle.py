"""Independent computations the benchmark checks the program against.

Written on label frozensets, never on the program's bitmasks, and by direct
enumeration from the definitions: face counts, minimal non-faces, Alexander
duals, and brute-force searches over permutations for the three order
conditions.  Nothing here imports ``shellcert``.
"""

from __future__ import annotations

from itertools import combinations

#: Order questions on at most this many facets or non-faces are re-decided by brute force.
BRUTE_FORCE_MAX = 8


def subsets(s):
    items = sorted(s)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def faces(facets) -> set:
    out: set = set()
    for f in facets:
        if f not in out:
            out.update(subsets(f))
    return out


def f_vector(facets) -> dict:
    """Number of faces per dimension, the empty face in dimension -1."""
    out: dict = {}
    for s in faces(facets):
        out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
    return out


def reduced_euler(facets) -> int:
    return sum(n if d % 2 == 0 else -n for d, n in f_vector(facets).items())


def boundary_cells(facets) -> int:
    """Rows times columns summed over the boundary matrices of the chain complex."""
    fv = f_vector(facets)
    return sum(fv[d] * fv.get(d - 1, 0) for d in fv if d >= 0)


def minimal_nonfaces(vertices, facets) -> tuple:
    """Sets outside the complex whose every proper subset is a face."""
    fs = faces(facets)
    out = set()
    for s in fs:
        for v in vertices:
            if v in s:
                continue
            t = s | {v}
            if t not in fs and all(t - {u} in fs for u in t):
                out.add(t)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def facets_from_nonfaces(vertices, nonfaces) -> tuple:
    """Maximal vertex sets containing none of the given non-faces."""
    good = [s for s in subsets(vertices) if not any(n <= s for n in nonfaces)]
    good_set = set(good)
    return tuple(s for s in good if not any(s | {v} in good_set for v in vertices if v not in s))


def complements(vertices, sets) -> tuple:
    full = frozenset(vertices)
    return tuple(full - s for s in sets)


def dual_facets(vertices, facets) -> tuple:
    """Alexander dual: complements of the minimal non-faces."""
    return complements(vertices, minimal_nonfaces(vertices, facets))


def link_dim(facets, face) -> int:
    return max((len(f - face) - 1 for f in facets if face <= f), default=-2)


def shelling_step_ok(prefix, new) -> bool:
    """<new> meets <prefix> in a complex pure of dimension dim(new) - 1."""
    inter = [new & g for g in prefix]
    top = [s for s in inter if not any(s < t for t in inter)]
    return all(len(s) == len(new) - 1 for s in top)


def restriction(prefix, new) -> frozenset:
    """Vertices v of ``new`` such that new - v already lies in <prefix>."""
    return frozenset(v for v in new if any(new - {v} <= g for g in prefix))


def _weak_step_ok(full, prefix, new) -> bool:
    for i, g in enumerate(prefix):
        if g | new == full:
            both = g & new
            if not any(both <= h for k, h in enumerate(prefix) if k != i):
                return False
    return True


def _forward_exists(items, step_ok) -> bool:
    """Some permutation of ``items`` passes ``step_ok`` at every position.

    The shelling and weak conditions at position j read only positions
    before j, so a failed prefix rules out every permutation extending it.
    """
    items = list(items)
    used = [False] * len(items)
    prefix: list = []

    def extend() -> bool:
        if len(prefix) == len(items):
            return True
        for i, f in enumerate(items):
            if not used[i] and (not prefix or step_ok(prefix, f)):
                used[i] = True
                prefix.append(f)
                if extend():
                    return True
                prefix.pop()
                used[i] = False
        return False

    return extend()


def shelling_order_exists(facets) -> bool:
    return _forward_exists(facets, shelling_step_ok)


def weak_order_exists(vertices, facets) -> bool:
    full = frozenset(vertices)
    return _forward_exists(facets, lambda prefix, new: _weak_step_ok(full, prefix, new))


def gcd_order_exists(nonfaces) -> bool:
    """Some order of the non-faces in which every disjoint pair N_i, N_j (i < j)
    has an N_k (k > i, k != j) inside N_i | N_j.

    The filler may come after both members, so the order is built from its
    end: prepending ``a`` settles every pair (a, b) with b already placed.
    """
    items = list(nonfaces)
    used = [False] * len(items)
    suffix: list = []

    def prepend() -> bool:
        if len(suffix) == len(items):
            return True
        for i, a in enumerate(items):
            if used[i]:
                continue
            if all(any(c != b and c <= a | b for c in suffix)
                   for b in suffix if not a & b):
                used[i] = True
                suffix.append(a)
                if prepend():
                    return True
                suffix.pop()
                used[i] = False
        return False

    return prepend()

