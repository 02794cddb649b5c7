"""Non-cooperative distributed rate maximization over shared channels.

Every user transmits at its attempt-probability cap and competes only through
channel choice: the best response picks the channels with the largest product
of utility and clearance probability. Best-response switches monotonically
increase a scalar audit function (`br_potential`), which is what rules out
cycles for best-response dynamics even though plain better-response dynamics
can cycle. The closed-form efficiency bound compares equilibrium rates against
a channel-oblivious random policy on regular networks.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .network import (
    NEP_REL_TOL,
    NO_LOAD,
    Instance,
    NepReport,
    Strategy,
    StrategyProfile,
    _neg_log1m,
    channel_load,
    left_sum,
    rate_from_load,
    validate_profile,
)
# unused; perfbench/tracing.py patches them
from .network import log_interference, success_probability

__all__ = [
    "br_potential",
    "is_nep_drm",
    "efficiency_bound",
    "naive_expected_rate",
]


def channel_scores(
    user: int,
    profile: StrategyProfile,
    instance: Instance,
    success_estimates: Optional[Sequence[float]] = None,
) -> dict[int, float]:
    """Utility times clearance probability for each of the user's allowed channels.

    Clearance is the exact closed form, or success_estimates[k] if given.
    """
    if success_estimates is None:
        load = channel_load(user, profile, instance.graph)  # checks the index
        utils = instance.utilities[user]
        return {
            k: utils[k] * load.get(k, NO_LOAD)[1] for k in instance.allowed_channels(user)
        }
    if not 0 <= user < instance.num_users:
        raise ValueError(f"user index {user} out of range")
    utils = instance.utilities[user]
    return {
        k: utils[k] * float(success_estimates[k]) for k in instance.allowed_channels(user)
    }


def top_channels(scores: dict[int, float], count: int) -> tuple[int, ...]:
    """The `count` best-scoring channels, ties toward the lowest index, ascending.

    On the user's channel_scores this is its best response, the set nep_violation proposes.
    """
    ranked = sorted(scores, key=lambda k: (-scores[k], k))
    return tuple(sorted(ranked[:count]))


def br_potential(profile: StrategyProfile, instance: Instance) -> float:
    """Scalar that strict best-response channel switches strictly increase.

    Sum over users of log(1/(1-P_n)) times the selected channels' log
    utilities, each discounted by half the log-interference seen there. A zero
    utility on a selected channel yields -inf rather than an error so dynamics
    can move off such profiles. Only meaningful when every cap is below 1;
    with a cap pinned at exactly 1 the multiplier is infinite and the value
    may degenerate to +/-inf or nan.
    """
    validate_profile(profile, instance)
    return left_sum(potential_term(n, profile, instance) for n in range(len(profile)))


def potential_term(user: int, profile: StrategyProfile, instance: Instance) -> float:
    """The user's br_potential term, 0 where it reads 0 * inf."""
    load = channel_load(user, profile, instance.graph)
    mult = _neg_log1m(instance.caps[user])
    inner = 0.0
    for k in profile[user].channels:
        inner += log_utility(instance.utilities[user][k]) - 0.5 * load.get(k, NO_LOAD)[2]
    if mult == math.inf and inner == 0.0:
        return 0.0  # 0 * inf: the user contributes nothing
    return mult * inner


def log_utility(u: float) -> float:
    """log(u) with libm's floats, -inf at a zero utility: a potential term's log."""
    return math.log(u) if u > 0.0 else -math.inf


def is_nep_drm(profile: StrategyProfile, instance: Instance) -> NepReport:
    """Check that no user can improve its rate by switching; report the first that can."""
    validate_profile(profile, instance)
    reports = (nep_violation(n, profile, instance) for n in range(len(profile)))
    return next((r for r in reports if r is not None), NepReport(True))


def nep_violation(
    user: int,
    profile: StrategyProfile,
    instance: Instance,
    success_estimates: Optional[Sequence[float]] = None,
) -> Optional[NepReport]:
    """The user's improving switch, or None when it has none; the rule BR-DRM plays by.

    Ranks channel_scores (the exact clearances, or success_estimates) with
    top_channels. A switch counts when the best set's score total beats the
    current one's by more than NEP_REL_TOL relative to the larger total. The
    report holds the best set at the current attempt probability and the
    exact rate gain, both rates priced from one channel_load. BR-DRM plays its array form,
    `switches`, in both modes; this is that form's reference.
    """
    scores = channel_scores(user, profile, instance, success_estimates)
    strat = profile[user]
    br_set = top_channels(scores, instance.channels_per_user)
    if br_set == strat.channels:
        return None
    current = left_sum(scores[k] for k in strat.channels if k in scores)
    best = left_sum(scores[k] for k in br_set)
    if not best - current > NEP_REL_TOL * max(best, current):
        return None
    load = channel_load(user, profile, instance.graph)
    utils, p = instance.utilities[user], strat.attempt_prob
    gain = rate_from_load(p, utils, br_set, load) - rate_from_load(p, utils, strat.channels, load)
    return NepReport(False, user, Strategy(br_set, p), gain)


def switches(
    utilities: np.ndarray, clearances: np.ndarray, current: np.ndarray, masked=None
) -> list:
    """Each row's nep_violation verdict: its best channel set, or None when it keeps its play.

    Rows are users: utilities and clearances (exact or estimated) are (users, channels),
    `current` their channel sets (users, channels_per_user) and `masked`, if given, the
    channels each may not select. The floats are nep_violation's: masked scores are -inf after
    the product (-inf * 0 is nan), ties go to the lowest channel and totals add left to right.
    """
    scores = utilities * clearances
    if masked is not None:
        scores[masked] = -np.inf
    rows, picks = np.arange(len(scores)), current.shape[1]
    best = _best_sets(scores, picks)
    best_total, current_total = np.zeros((2, len(scores)))
    for j in range(picks):  # column by column, as left_sum adds
        best_total += scores[rows, best[:, j]]
        current_total += scores[rows, current[:, j]]
    gains = best_total - current_total > NEP_REL_TOL * np.maximum(best_total, current_total)
    switch = (gains & (best != current).any(axis=1)).tolist()
    return [tuple(chans) if s else None for s, chans in zip(switch, best.tolist())]


def _best_sets(scores: np.ndarray, picks: int) -> np.ndarray:
    """top_channels of every row of `scores` at once; a -inf score (masked) is picked last."""
    if picks == 1:
        return scores.argmax(axis=1)[:, None]  # the first maximum
    return np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :picks], axis=1)


def efficiency_bound(num_channels: int, degree: int) -> float:
    """Guaranteed per-user rate ratio of best-response play over random play.

    Defined on regular networks where every user sees `degree` interferers,
    utilities are equal, caps equal num_channels/(degree+1), and (degree+1)
    is a multiple of num_channels. Equals
    (1 - K/(d+1))^((d+1)/K - 1) / (1 - 1/(d+1))^d, which is 1 at K=1 and
    grows toward e as (d+1)/K shrinks to 1; the boundary case d+1 == K uses
    the 0^0 = 1 limit.
    """
    if num_channels < 1:
        raise ValueError("num_channels must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    group = degree + 1
    if group % num_channels != 0:
        raise ValueError(
            f"(degree+1)={group} must be a multiple of num_channels={num_channels}"
        )
    numerator = (1.0 - num_channels / group) ** (group // num_channels - 1)
    denominator = (1.0 - 1.0 / group) ** degree
    return numerator / denominator


def naive_expected_rate(user: int, instance: Instance, degree: int) -> float:
    """Expected rate of the channel-oblivious policy in the regular setting.

    The naive policy picks one of the K channels uniformly at random each slot
    and transmits with probability K/(degree+1). Requires the instance to be
    a degree-regular graph with equal utilities and caps all equal to
    K/(degree+1); anything else is rejected.
    """
    if not 0 <= user < instance.num_users:
        raise ValueError(f"user index {user} out of range")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    group = degree + 1
    k = instance.num_channels
    if group % k != 0:
        raise ValueError(f"(degree+1)={group} must be a multiple of num_channels={k}")
    for n in range(instance.num_users):
        if instance.graph.degree(n) != degree:
            raise ValueError("instance graph is not degree-regular")
    flat = [u for row in instance.utilities for u in row]
    if any(u != flat[0] for u in flat):
        raise ValueError("instance utilities are not all equal")
    attempt = k / group
    if any(abs(cap - attempt) > 1e-12 for cap in instance.caps):
        raise ValueError("instance caps must all equal num_channels/(degree+1)")
    utility = instance.utilities[user][0]
    return utility * attempt * (1.0 - 1.0 / group) ** degree
