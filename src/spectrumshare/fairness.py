"""Cooperative single-channel game targeting proportional fairness.

Each user plays a one-channel Strategy with an attempt probability from the
grid {1, 1/2, ..., 1/(deg+1)}. The shared objective is the sum of log rates;
each user's cooperative utility is its own log rate minus the log-rate damage
its transmissions inflict on same-channel neighbors, and a unilateral change
moves the global objective by exactly the utility change. Noisy best responses
(softmax in beta times utility) turn the game into annealed local search whose
long-run profile distribution is the Gibbs measure of the objective.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateInstanceError
from .network import (
    NEP_REL_TOL,
    NO_LOAD,
    Instance,
    NepReport,
    StrategyProfile,
    Strategy,
    channel_load,
    left_sum,
    total_expected_rate,
    validate_profile,
)
from .network import log_interference  # unused; perfbench/tracing.py patches it

__all__ = [
    "CoolingSchedule",
    "cooperative_utility",
    "exact_potential",
    "allocation_profile",
    "noisy_br_distribution",
    "sample_noisy_br",
    "is_nep_fairness",
    "delta_lower_bound",
]

LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _require_single_channel(instance: Instance) -> None:
    if instance.channels_per_user != 1:
        raise ValueError("the fairness game requires channels_per_user == 1")
    # every play grid spans all channels, so a mask would be ignored
    if instance.allowed is not None:
        raise ValueError("the fairness game takes no channel mask (allowed)")


def cooperative_utility(
    user: int, action: Strategy, profile: StrategyProfile, instance: Instance
) -> float:
    """Fair utility of playing the one-channel `action` against the others' profile.

    log(u * p) minus the log-interference the user suffers on the channel,
    minus log(1/(1-p)) times the number of neighbors it would interfere with
    there. -inf when u * p is 0 (p = 0, a zero utility, or a product that
    underflows), when a same-channel neighbor transmits with probability 1,
    or when p = 1 with any same-channel neighbor present (an isolated p = 1
    play scores log u, reading 0*log 0 as 0). Any play off the grid may be
    priced; a play of other than one channel raises ValueError.
    """
    _require_single_channel(instance)
    if len(action.channels) != 1:
        raise ValueError("a fairness play selects exactly one channel")
    k = action.channels[0]
    if k >= instance.num_channels:
        raise ValueError(f"channel index {k} out of range")
    count, _, suffered = channel_load(user, profile, instance.graph).get(k, NO_LOAD)
    return _fair_utility(instance.utilities[user][k], action.attempt_prob, count, suffered)


def _fair_utility(u: float, p: float, count: int, suffered: float) -> float:
    """cooperative_utility from u, p, same-channel neighbor count and log-interference."""
    # u and p are nonnegative, so this also catches a product that underflows to 0
    if u * p <= 0.0 or suffered == math.inf:
        return -math.inf
    if p >= 1.0:
        return math.log(u) - suffered if count == 0 else -math.inf
    return math.log(u * p) - suffered + count * math.log1p(-p)


def exact_potential(profile: StrategyProfile, instance: Instance) -> float:
    """Sum of log expected rates; -inf if any user's rate is zero."""
    _require_single_channel(instance)
    validate_profile(profile, instance)
    rates = (total_expected_rate(n, profile, instance) for n in range(instance.num_users))
    return sum_log_rate(rates)


def sum_log_rate(rates: Iterable[float]) -> float:
    """Sum of log rates, left to right from 0.0; -inf if any rate is zero."""
    return left_sum(map(_log_rate, rates))


def _log_rate(rate: float) -> float:  # a user's exact_potential term
    return math.log(rate) if rate > 0.0 else -math.inf


def allocation_profile(alloc: Sequence[int], instance: Instance) -> StrategyProfile:
    """Profile for a channel allocation with best-reply attempt probabilities.

    User n plays alloc[n] at 1/(count+1), count being its neighbors that the
    allocation puts on the same channel.
    """
    adjacency = instance.graph.adjacency
    return tuple(
        Strategy(
            (int(alloc[n]),),
            1.0 / (1 + sum(1 for i in adjacency[n] if alloc[i] == alloc[n])),
        )
        for n in range(instance.num_users)
    )


@functools.lru_cache(maxsize=None)
def _action_grid(num_channels: int, degree: int) -> tuple[Strategy, ...]:
    """Every one-channel play at probability 1/r, r = 1..degree+1, channel-major.

    Shared by all users of that degree; the plays are frozen, so sharing is safe.
    """
    return tuple(
        Strategy((k,), 1.0 / r) for k in range(num_channels) for r in range(1, degree + 2)
    )


class _ActionTable(NamedTuple):
    """One user's plays and the parts of their fair utilities that the profile cannot move.

    plays is the user's _action_grid, channel-major. lups[k] holds log(u_k * p)
    for p = 1/r, r = 1..degree+1 (-inf where the product is 0: all of them when
    u_k is 0); l1ps holds log1p(-p) for r = 2..degree+1 (p = 1 has none).
    """

    plays: tuple[Strategy, ...]
    lups: tuple[tuple[float, ...], ...]
    l1ps: tuple[float, ...]


def _action_table(user: int, instance: Instance) -> _ActionTable:
    """The user's action table, built on first use and kept on the instance.

    An Instance is frozen, so no table can go stale on it; each stage of a
    growing population is its own Instance (a kept prefix) with its own tables.
    """
    tables = instance.__dict__.setdefault("_fair_action_tables", {})
    table = tables.get(user)
    if table is None:
        degree = instance.graph.degree(user)
        plays = _action_grid(instance.num_channels, degree)
        probs = [play.attempt_prob for play in plays[: degree + 1]]
        lups = tuple(
            tuple(math.log(u * p) if u * p > 0.0 else -math.inf for p in probs)
            for u in instance.utilities[user]
        )
        table = tables[user] = _ActionTable(plays, lups, tuple(math.log1p(-p) for p in probs[1:]))
    return table


def _table_values(table: _ActionTable, load: dict) -> list[float]:
    """Each play's _fair_utility under `load`, in grid order, with the same floats.

    A play's value is lup - suffered + count * l1p. On a channel no neighbor
    selects that is lup itself (x - 0.0 + 0 * l1p == x, l1p < 0), p = 1
    included; beside a neighbor p = 1 is worthless. A worthless lup stays -inf
    (-inf - suffered + count * l1p, suffered in [0, inf], count finite).
    """
    values: list[float] = []
    for k, lups in enumerate(table.lups):
        if k not in load:
            values += lups
        else:
            count, _, suffered = load[k]
            values.append(-math.inf)
            values += [lup - suffered + count * l1p for lup, l1p in zip(lups[1:], table.l1ps)]
    return values


def _priced(user: int, profile: StrategyProfile, instance: Instance, load=None) -> tuple:
    """The user's priced record (load, plays, values): its channel_load (priced unless given),
    its action table's plays and their values under that load. The fairness rules take it as
    their `prices`."""
    _require_single_channel(instance)
    load = channel_load(user, profile, instance.graph) if load is None else load  # checks the index
    table = _action_table(user, instance)
    return load, table.plays, _table_values(table, load)


def best_fair_action(
    user: int, profile: StrategyProfile, instance: Instance, prices=None
) -> tuple[Optional[Strategy], float, float]:
    """The first grid play of highest cooperative utility and its utility.

    Prices the user's action table, as the sampler does, and takes its first
    maximum in grid order. Also returns the utility of the user's current
    play, priced from the same channel_load. The best play is None (and its
    utility -inf) when every grid play is worthless. `prices`: its _priced record, if known.
    """
    load, plays, values = prices or _priced(user, profile, instance)
    best_value = max(values)
    best = None if best_value == -math.inf else plays[values.index(best_value)]
    k, p = profile[user].channels[0], profile[user].attempt_prob
    count, _, suffered = load.get(k, NO_LOAD)
    return best, best_value, _fair_utility(instance.utilities[user][k], p, count, suffered)


def noisy_br_distribution(
    user: int, profile: StrategyProfile, instance: Instance, beta: float
) -> dict[Strategy, float]:
    """Softmax over the user's action grid at inverse temperature beta.

    Weights are exp(beta * utility), computed max-shifted; actions with
    utility -inf get weight 0, except at beta = 0 where the distribution is
    uniform over the whole grid (zero times -inf is read as zero). Raises
    ValueError unless beta is finite and nonnegative, and
    DegenerateInstanceError when every action is worthless.
    """
    plays, probs, _ = noisy_br_table(user, profile, instance, beta)
    return dict(zip(plays, probs))


def _softmax(values: list[float], beta: float, shift: float) -> list[float]:
    """Weights exp(beta * (value - shift)), normalized by their left-to-right sum.

    shift is max(values), which must be finite; -inf gets weight 0.
    """
    weights = [
        math.exp(beta * (v - shift)) if v > -math.inf else 0.0 for v in values
    ]
    total = left_sum(weights)
    return [w / total for w in weights]


def noisy_br_table(
    user: int, profile: StrategyProfile, instance: Instance, beta: float, prices=None
) -> tuple[tuple[Strategy, ...], list[float], list[float]]:
    """The user's plays, their noisy_br_distribution probabilities and running sums, in grid order.

    `prices` as for best_fair_action. A zero-probability play repeats its predecessor's running
    sum (x + 0.0 == x), so the supported plays carry the sums of a table that holds only them.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be finite and nonnegative")
    _, plays, values = prices or _priced(user, profile, instance)
    shift = max(values)
    if shift == -math.inf:
        raise DegenerateInstanceError(f"user {user} has utility -inf for every available action")
    probs = [1.0 / len(values)] * len(values) if beta == 0.0 else _softmax(values, beta, shift)
    return plays, probs, list(itertools.accumulate(probs))


def draw_action(table: tuple, rng: np.random.Generator) -> Strategy:
    """Single inverse-CDF draw from a noisy_br_table: the first play whose running sum passes
    rng.random(). That is never a zero-probability play, whose sum ties its predecessor's."""
    plays, probs, cumulative = table
    idx = bisect.bisect_right(cumulative, rng.random())
    if idx < len(plays):
        return plays[idx]
    # rounding fallthrough lands on the last supported play; not on the first play at the
    # final sum, which may precede tiny probabilities that the running sum absorbed
    return next(play for play, prob in zip(reversed(plays), reversed(probs)) if prob > 0.0)


def sample_noisy_br(
    user: int,
    profile: StrategyProfile,
    instance: Instance,
    beta: float,
    rng: np.random.Generator,
) -> Strategy:
    """Single inverse-CDF draw from noisy_br_distribution; raises before drawing if degenerate."""
    return draw_action(noisy_br_table(user, profile, instance, beta), rng)


def is_nep_fairness(profile: StrategyProfile, instance: Instance) -> NepReport:
    """Check that no user can improve its fair utility; report the first that can."""
    _require_single_channel(instance)
    validate_profile(profile, instance)
    reports = (nep_violation(n, profile, instance) for n in range(instance.num_users))
    return next((r for r in reports if r is not None), NepReport(True))


def nep_violation(
    user: int, profile: StrategyProfile, instance: Instance, prices=None
) -> Optional[NepReport]:
    """The user's best grid play if it gains more than NEP_REL_TOL (relative), else None.

    The grid holds the closed-form optimum 1/(count+1) of every channel.
    Frozen NBRF plays by this rule. `prices` as for best_fair_action.
    """
    best_action, best_value, current = best_fair_action(user, profile, instance, prices)
    if best_action is None:
        return None  # nothing the user does matters; cannot improve
    if current == -math.inf:
        return NepReport(False, user, best_action, math.inf)
    gain = best_value - current
    if gain > NEP_REL_TOL * max(1.0, abs(best_value), abs(current)):
        return NepReport(False, user, best_action, gain)
    return None


def delta_lower_bound(instance: Instance) -> float:
    """Sufficient temperature step for the annealed dynamics to concentrate.

    N * (log(max u) - log(min u / (max_degree + 1)) + max_degree * log 2),
    evaluated on the instance. Schedules with a larger delta are conservative
    ("sufficient" in the run manifest); smaller ones are heuristic.
    """
    utilities, max_deg = instance.arrays[0], instance.graph.max_degree
    max_u, min_u = float(utilities.max()), float(utilities.min())
    if not min_u > 0.0:
        raise ValueError("all utilities must be strictly positive")
    return instance.num_users * (
        math.log(max_u) - math.log(min_u / (max_deg + 1)) + max_deg * math.log(2.0)
    )


@dataclass(frozen=True)
class CoolingSchedule:
    """Inverse-temperature schedule beta(t) for updating times t = 1, 2, ...

    Kinds: "fixed-beta" holds beta0 forever; "logarithmic" is log(t)/delta;
    "piecewise-constant" holds beta = level on [t_level, t_level+1) with
    t_1 = 1 and breakpoint gaps e^(level * delta), so the level at the
    breakpoints tracks the logarithmic schedule.
    """

    kind: str
    beta0: float = 0.0
    delta: float = 1.0
    # piecewise-constant: (level, its breakpoint, the next one) at the last call; the
    # walk's start. Unannotated, so not a field: ==, hash and repr ignore it.
    _cursor = (0, -math.inf, 1.0)

    def __post_init__(self) -> None:
        if self.kind not in ("fixed-beta", "logarithmic", "piecewise-constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed-beta":
            if not (math.isfinite(self.beta0) and self.beta0 >= 0.0):
                raise ValueError("beta0 must be finite and nonnegative")
        else:
            if not (math.isfinite(self.delta) and self.delta > 0.0):
                raise ValueError("delta must be finite and positive")
            # log(t) / delta stays below LOG_FLOAT_MAX / delta for every float t
            if self.kind == "logarithmic" and not math.isfinite(LOG_FLOAT_MAX / self.delta):
                raise ValueError("delta is too small: log(t) / delta overflows to infinity")

    @classmethod
    def fixed(cls, beta0: float) -> "CoolingSchedule":
        return cls("fixed-beta", beta0=beta0)

    @classmethod
    def logarithmic(cls, delta: float) -> "CoolingSchedule":
        return cls("logarithmic", delta=delta)

    @classmethod
    def piecewise_constant(cls, delta: float) -> "CoolingSchedule":
        return cls("piecewise-constant", delta=delta)

    def beta(self, t: float) -> float:
        if not 1 <= t < math.inf:
            raise ValueError("updating times are finite and 1-based")
        if self.kind == "fixed-beta":
            return self.beta0
        if self.kind == "logarithmic":
            return math.log(t) / self.delta
        # the walk resumes at the last call's level unless t lies below it, so calls
        # at increasing t cost amortized O(1); the breakpoints are the same running sum
        level, start, next_break = self._cursor
        if t < start:
            level, start, next_break = CoolingSchedule._cursor
        while t >= next_break:
            level += 1
            start = next_break
            # capped: a gap past the largest float puts the breakpoint beyond every t
            next_break += math.exp(min(level * self.delta, LOG_FLOAT_MAX))
        object.__setattr__(self, "_cursor", (level, start, next_break))
        return float(level)
