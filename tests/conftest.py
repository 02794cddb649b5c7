"""Shared random-instance generators for the test suite.

Everything is driven by explicit numpy Generators so each test pins its own
seed; nothing here reads global random state.
"""

import numpy as np
from hypothesis import settings

from spectrumshare import Instance, InterferenceGraph, make_profile

# A property that fails prints its @reproduce_failure line, so a failure on one
# CI matrix entry can be replayed anywhere; per-test @settings still choose
# their own example counts and deadlines.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


def random_graph(rng, num_users, edge_prob=0.35):
    edges = []
    for a in range(num_users):
        for b in range(a + 1, num_users):
            if rng.random() < edge_prob:
                edges.append((a, b))
    return InterferenceGraph.from_edges(num_users, edges)


def random_drm_instance(rng, max_users=10, max_channels=5, max_select=3,
                        edge_prob=0.35):
    """Multi-channel selection game with continuous utilities, caps below 1."""
    n = int(rng.integers(2, max_users + 1))
    k = int(rng.integers(2, max_channels + 1))
    m = int(rng.integers(1, min(k, max_select) + 1))
    utilities = rng.uniform(0.5, 2.0, size=(n, k))
    caps = rng.uniform(0.2, 0.8, size=n)
    return Instance(
        random_graph(rng, n, edge_prob),
        k,
        m,
        tuple(tuple(row) for row in utilities),
        tuple(float(c) for c in caps),
    )


def random_drm_profile(instance, rng):
    """Each user on a random channel set of the required size, at its cap."""
    sets = [
        sorted(
            int(k)
            for k in rng.choice(
                instance.num_channels, size=instance.channels_per_user, replace=False
            )
        )
        for _ in range(instance.num_users)
    ]
    return make_profile(sets, instance.caps)


def random_fairness_instance(rng, max_users=6, max_channels=3, edge_prob=0.4):
    """Single-channel game; caps are irrelevant to it and pinned at 1."""
    n = int(rng.integers(2, max_users + 1))
    k = int(rng.integers(2, max_channels + 1))
    utilities = rng.uniform(0.5, 2.0, size=(n, k))
    return Instance(
        random_graph(rng, n, edge_prob),
        k,
        1,
        tuple(tuple(row) for row in utilities),
        tuple(1.0 for _ in range(n)),
    )


def random_fairness_profile(instance, rng, continuous=False):
    """Random single-channel strategies.

    Grid mode draws attempt probabilities 1/r as the dynamics would;
    continuous mode draws from (0.05, 0.95) to probe identities away from
    the grid.
    """
    chans = [int(c) for c in rng.integers(0, instance.num_channels,
                                          size=instance.num_users)]
    if continuous:
        probs = rng.uniform(0.05, 0.95, size=instance.num_users)
    else:
        probs = [
            1.0 / int(rng.integers(1, instance.graph.degree(n) + 2))
            for n in range(instance.num_users)
        ]
    return make_profile([[c] for c in chans], [float(p) for p in probs])
