"""Seeded random complexes for property tests and the counterexample hunt.

All randomness flows through ``random.Random(seed)``, so a fixed seed gives a
fixed complex on every platform and run.
"""

from __future__ import annotations

import random

from .complexes import Complex, InputError, VertexSet, from_facets, from_minimal_nonfaces

__all__ = ["MAX_RANDOM_VERTICES", "random_complex", "random_flag_complex"]

MAX_RANDOM_VERTICES = 16


def _check_n(n_vertices: int):
    if not 1 <= n_vertices <= MAX_RANDOM_VERTICES:
        raise InputError("n_vertices must be in 1..%d" % MAX_RANDOM_VERTICES)


def random_complex(seed, n_vertices: int, density: float) -> Complex:
    """Complex generated by random candidate facets.

    Each candidate face keeps every vertex independently with probability
    ``density``, so density 1.0 yields the full simplex and small densities
    yield sparse low-dimensional complexes.  Ghost vertices are possible by
    design; callers that need the support only can restrict afterwards.
    """
    _check_n(n_vertices)
    if not 0.0 <= density <= 1.0:
        raise InputError("density must lie in [0, 1]")
    rng = random.Random(seed)
    u = VertexSet.of(range(1, n_vertices + 1))
    count = rng.randint(max(2, n_vertices // 2), 2 * n_vertices)
    candidates = []
    for _ in range(count):
        m = 0
        for i in range(n_vertices):
            if rng.random() < density:
                m |= 1 << i
        candidates.append(m)
    return from_facets(u, candidates)


def random_flag_complex(seed, n_vertices: int, edge_prob: float) -> Complex:
    """Clique complex of a random graph.

    The minimal non-faces are exactly the non-edges of the sampled graph, so
    the result is flag by construction; a complete graph yields the full
    simplex, which is vacuously flag.
    """
    _check_n(n_vertices)
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    u = VertexSet.of(range(1, n_vertices + 1))
    nonedges = []
    for a in range(n_vertices):
        for b in range(a + 1, n_vertices):
            if rng.random() >= edge_prob:
                nonedges.append((1 << a) | (1 << b))
    return from_minimal_nonfaces(u, nonedges)
