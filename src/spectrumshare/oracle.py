"""Exhaustive reference computations for small instances.

Everything here enumerates joint strategy spaces outright, guarded by
explicit capacity limits. These routines exist to pin down ground truth in
tests and experiments; none of them are meant for large networks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .drm import is_nep_drm
from .errors import CapacityError, DegenerateInstanceError
from .fairness import _action_grid, is_nep_fairness
from .network import (
    Instance,
    Strategy,
    StrategyProfile,
    replace_strategy,
    total_expected_rate,
)

__all__ = [
    "OracleResult",
    "exhaustive_sum_log_rate",
    "exhaustive_drm_nep_enumeration",
    "exhaustive_fairness_nep_enumeration",
    "brute_force_best_response",
    "empirical_visit_distribution",
]

ORACLE_CAPACITY = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive search.

    best_allocations lists every channel allocation whose objective is
    within 1e-9 of the best, in enumeration order.
    """

    best_value: float
    best_allocations: tuple[tuple[int, ...], ...]
    num_evaluated: int


def exhaustive_sum_log_rate(
    instance: Instance, capacity: int = ORACLE_CAPACITY
) -> OracleResult:
    """Maximize the sum of log rates over all single-channel allocations.

    Each user's attempt probability is set to its best reply
    1/(same-channel neighbor count + 1), so the search space is the
    num_channels ** num_users channel assignments. Assignments whose
    objective is minus infinity for every user's choice cannot be ranked,
    so a user whose utilities are all zero raises DegenerateInstanceError.
    """
    if instance.channels_per_user != 1:
        raise ValueError("oracle requires single-channel selection")
    n_users = instance.num_users
    n_channels = instance.num_channels
    total = n_channels**n_users
    if total > capacity:
        raise CapacityError(
            f"{total} allocations exceed the oracle capacity of {capacity}"
        )
    for n in range(n_users):
        if max(instance.utilities[n]) <= 0.0:
            raise DegenerateInstanceError(f"user {n} has no channel with positive utility")

    log_u = [
        [math.log(u) if u > 0.0 else -math.inf for u in row]
        for row in instance.utilities
    ]
    max_degree = instance.graph.max_degree
    # log p and log(1 - p) at p = 1/(count+1), indexed by neighbor count
    log_attempt = [-math.log(r + 1) for r in range(max_degree + 1)]
    log_clear = [-math.inf] + [math.log(r / (r + 1)) for r in range(1, max_degree + 1)]
    adjacency = instance.graph.adjacency

    best_value = -math.inf
    best: list[tuple[tuple[int, ...], float]] = []
    for alloc in itertools.product(range(n_channels), repeat=n_users):
        counts = [
            sum(1 for i in adjacency[n] if alloc[i] == alloc[n])
            for n in range(n_users)
        ]
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
    if best_value == -math.inf:
        raise DegenerateInstanceError("every allocation has zero rate for some user")
    return OracleResult(best_value, tuple(a for a, _ in best), total)


def _enumerate_equilibria(
    per_user: Sequence[Sequence[Strategy]],
    capacity: int,
    is_nep: Callable[[StrategyProfile], bool],
) -> tuple[StrategyProfile, ...]:
    total = math.prod(len(options) for options in per_user)
    if total > capacity:
        raise CapacityError(
            f"{total} profiles exceed the enumeration capacity of {capacity}"
        )
    return tuple(p for p in itertools.product(*per_user) if is_nep(p))


def exhaustive_drm_nep_enumeration(
    instance: Instance,
    capacity: int = ORACLE_CAPACITY,
) -> tuple[StrategyProfile, ...]:
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
    return _enumerate_equilibria(
        per_user, capacity, lambda p: is_nep_drm(p, instance).is_nep
    )


def exhaustive_fairness_nep_enumeration(
    instance: Instance,
    capacity: int = 10**6,
) -> tuple[StrategyProfile, ...]:
    """All pure equilibria of the fairness game over the discrete action grid."""
    if instance.channels_per_user != 1:
        raise ValueError("fairness enumeration requires single-channel selection")
    per_user = [
        _action_grid(instance.num_channels, instance.graph.degree(n))
        for n in range(instance.num_users)
    ]
    return _enumerate_equilibria(
        per_user, capacity, lambda p: is_nep_fairness(p, instance).is_nep
    )


def brute_force_best_response(
    user: int, profile: StrategyProfile, instance: Instance
) -> tuple[int, ...]:
    """Best channel set for one user by trying every combination.

    Scans combinations in lexicographic order and keeps the first strict
    maximum of the user's total expected rate, which matches the
    lowest-index tie-breaking of the closed-form best response.
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
    counts = Counter(profiles)
    total = len(profiles)
    return {profile: count / total for profile, count in counts.items()}
