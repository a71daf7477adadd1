import random

import pytest

import shellcert as sc


def facet_sets(c):
    """Complex facets as a list of label frozensets (for the oracles)."""
    return [frozenset(fs) for fs in c.facet_members()]


def masks_of(c, sets):
    return [c.universe.mask(s) for s in sets]


def seeded_complexes(count, seed, n_range=(3, 7), density=(0.25, 0.95), accept=None):
    """Deterministic stream of random complexes, filtered by ``accept``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = sc.random_complex(rng.randint(0, 2**31), rng.randint(*n_range),
                              rng.uniform(*density))
        if accept is None or accept(c):
            out.append(c)
    return out


def seeded_flag_complexes(count, seed, n_range=(4, 8), edge_prob=(0.2, 0.9)):
    """Deterministic stream of clique complexes of random graphs."""
    rng = random.Random(seed)
    return [sc.random_flag_complex(rng.randint(0, 2**31), rng.randint(*n_range), rng.uniform(*edge_prob))
            for _ in range(count)]


@pytest.fixture(scope="session")
def small_complexes():
    return seeded_complexes(200, seed=20240901, n_range=(3, 7))
