"""Exhaustive reference computations for small instances.

Everything here enumerates joint strategy spaces through _joint, which refuses
a space over its capacity before building any profile. These routines pin down
ground truth in tests and experiments; none is meant for large networks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .drm import is_nep_drm, log_utility
from .errors import CapacityError, DegenerateInstanceError
from .fairness import (
    _action_grid, _require_single_channel, _softmax, exact_potential, is_nep_fairness
)
from .network import (
    Instance,
    Strategy,
    StrategyProfile,
    replace_strategy,
    total_expected_rate,
)

__all__ = [
    "exhaustive_sum_log_rate",
    "exhaustive_drm_nep_enumeration",
    "exhaustive_fairness_nep_enumeration",
    "gibbs_stationary",
    "brute_force_best_response",
    "empirical_visit_distribution",
]

ORACLE_CAPACITY = 10_000_000  # channel allocations and DRM profiles
GRID_CAPACITY = 10**6  # profiles over the fairness game's action grids


def _joint(per_user: Sequence[Sequence], capacity: int, what: str) -> tuple[int, Iterator]:
    """The size of the joint space of per-user options and its profiles, lazily.

    Raises CapacityError before building any profile when the size exceeds
    capacity; `what` names the profiles in the message.
    """
    total = math.prod(len(options) for options in per_user)
    if total > capacity:
        raise CapacityError(f"{total} {what} exceed the oracle capacity of {capacity}")
    return total, itertools.product(*per_user)


def _fair_grids(instance: Instance) -> list[tuple[Strategy, ...]]:
    """Each user's fairness action grid."""
    return [
        _action_grid(instance.num_channels, instance.graph.degree(n))
        for n in range(instance.num_users)
    ]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive search.

    best_allocations lists every channel allocation whose objective is
    within 1e-9 of the best, in enumeration order.
    """

    best_value: float
    best_allocations: tuple[tuple[int, ...], ...]
    num_evaluated: int


def exhaustive_sum_log_rate(instance: Instance) -> OracleResult:
    """Maximize the sum of log rates over all single-channel allocations.

    Each user's attempt probability is set to its best reply
    1/(same-channel neighbor count + 1), so the search space is the
    num_channels ** num_users channel assignments. Assignments whose
    objective is minus infinity for every user's choice cannot be ranked,
    so a user whose utilities are all zero raises DegenerateInstanceError.
    An instance outside the fairness game (more than one channel per user,
    or a channel mask) is a ValueError.
    """
    _require_single_channel(instance)
    n_users = instance.num_users
    total, allocs = _joint(
        [range(instance.num_channels)] * n_users, ORACLE_CAPACITY, "allocations"
    )
    for n in range(n_users):
        if max(instance.utilities[n]) <= 0.0:
            raise DegenerateInstanceError(f"user {n} has no channel with positive utility")

    log_u = [list(map(log_utility, row)) for row in instance.utilities]
    max_degree = instance.graph.max_degree
    # log p and log(1 - p) at p = 1/(count+1), indexed by neighbor count
    log_attempt = [-math.log(r + 1) for r in range(max_degree + 1)]
    log_clear = [-math.inf] + [math.log(r / (r + 1)) for r in range(1, max_degree + 1)]
    adjacency = instance.graph.adjacency

    best_value = -math.inf
    best: list[tuple[tuple[int, ...], float]] = []
    for alloc in allocs:
        counts = [sum(1 for i in adjacency[n] if alloc[i] == alloc[n]) for n in range(n_users)]
        value = 0.0
        for n in range(n_users):
            term = log_u[n][alloc[n]] + log_attempt[counts[n]]
            if term == -math.inf:
                value = -math.inf
                break
            for i in adjacency[n]:
                if alloc[i] == alloc[n]:
                    term += log_clear[counts[i]]
            value += term
        if value == -math.inf:
            continue
        if value > best_value:
            best_value = value
            best = [(a, v) for a, v in best if v >= best_value - 1e-9]
            best.append((alloc, value))
        elif value >= best_value - 1e-9:
            best.append((alloc, value))
    # every user has a positive-utility channel, so some allocation scores finite
    return OracleResult(best_value, tuple(a for a, _ in best), total)


def exhaustive_drm_nep_enumeration(instance: Instance) -> tuple[StrategyProfile, ...]:
    """All pure equilibria of the rate-maximization game, by full enumeration.

    Attempt probabilities are pinned at the caps; the search runs over every
    combination of per-user channel sets.
    """
    per_user = [
        [
            Strategy(chans, instance.caps[n])
            for chans in itertools.combinations(
                instance.allowed_channels(n), instance.channels_per_user
            )
        ]
        for n in range(instance.num_users)
    ]
    _, profiles = _joint(per_user, ORACLE_CAPACITY, "profiles")
    return tuple(p for p in profiles if is_nep_drm(p, instance).is_nep)


def exhaustive_fairness_nep_enumeration(instance: Instance) -> tuple[StrategyProfile, ...]:
    """All pure equilibria of the fairness game over the discrete action grid."""
    _require_single_channel(instance)
    _, profiles = _joint(_fair_grids(instance), GRID_CAPACITY, "profiles")
    return tuple(p for p in profiles if is_nep_fairness(p, instance).is_nep)


def gibbs_stationary(instance: Instance, beta: float) -> dict[StrategyProfile, float]:
    """Long-run profile distribution of noisy best response at fixed beta.

    Enumerates the joint action space (each user's channel-probability grid)
    and weights each joint profile by exp(beta * objective), max-shifted,
    with -inf-objective profiles at weight 0. Refuses joint spaces larger
    than GRID_CAPACITY profiles.
    """
    _require_single_channel(instance)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    _, joint = _joint(_fair_grids(instance), GRID_CAPACITY, "profiles")
    profiles = list(joint)
    values = [exact_potential(prof, instance) for prof in profiles]
    shift = max(values)
    if shift == -math.inf:
        raise DegenerateInstanceError("every joint profile has objective -inf")
    return dict(zip(profiles, _softmax(values, beta, shift)))


def brute_force_best_response(
    user: int, profile: StrategyProfile, instance: Instance
) -> tuple[int, ...]:
    """Best channel set for one user by trying every combination.

    Scans combinations in lexicographic order and keeps the first strict
    maximum of the user's total expected rate, which matches the
    lowest-index tie-breaking of drm.top_channels on drm.channel_scores.
    """
    best_rate = -math.inf
    best_set: Optional[tuple[int, ...]] = None
    for combo in itertools.combinations(
        instance.allowed_channels(user), instance.channels_per_user
    ):
        candidate = replace_strategy(
            profile, user, Strategy(combo, profile[user].attempt_prob)
        )
        rate = total_expected_rate(user, candidate, instance)
        if rate > best_rate:
            best_rate = rate
            best_set = tuple(combo)
    assert best_set is not None
    return best_set


def empirical_visit_distribution(
    trajectory, burn_in: int = 0
) -> dict[StrategyProfile, float]:
    """Relative visit frequencies of the profiles recorded after burn_in steps."""
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    profiles = trajectory.profiles[burn_in:]
    if not profiles:
        raise ValueError("burn_in leaves no recorded steps")
    first, counts = dict(zip(map(id, profiles), profiles)), Counter()  # by identity, then value
    for key, count in Counter(map(id, profiles)).items():
        counts[first[key]] += count
    total = len(profiles)
    return {profile: count / total for profile, count in counts.items()}
