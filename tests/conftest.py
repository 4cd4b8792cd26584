import itertools
import os
import random

import pytest
from hypothesis import settings

from ramseylab import Hypergraph

DEFAULT_SEED = int(os.environ.get("RAMSEYLAB_SEED", "0"))

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on each run.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return random.Random(DEFAULT_SEED)


def random_hypergraph(rng, n, k, density=0.4):
    """Random k-graph on n vertices: each possible edge kept independently."""
    edges = [e for e in itertools.combinations(range(n), k) if rng.random() < density]
    return Hypergraph(k, n, edges)


def oracle_has_loose_path(h, length):
    """Definitional check over all edge pairs/triples, with all middle roles."""
    edges = h.edges
    if length == 2:
        return any(
            len(set(a) & set(b)) == 1 for a, b in itertools.combinations(edges, 2)
        )
    for trio in itertools.combinations(edges, 3):
        for mid in range(3):
            e2 = trio[mid]
            e1, e3 = (trio[i] for i in range(3) if i != mid)
            if (
                len(set(e1) & set(e2)) == 1
                and len(set(e2) & set(e3)) == 1
                and not set(e1) & set(e3)
            ):
                return True
    return False
