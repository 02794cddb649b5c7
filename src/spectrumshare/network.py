"""Core model of multichannel slotted random access under interference.

N users share K collision channels. Each user holds a strategy: a set of
channels it transmits on, plus a single attempt probability. Interference is
local: a transmission on a channel succeeds in a slot exactly when none of the
user's graph neighbors transmits on that channel in the same slot. Everything
downstream (both games, the dynamics, the oracles) is built from the handful
of closed forms defined here.

Indexing is 0-based throughout, including all serialized output.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import add
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "InterferenceGraph",
    "Strategy",
    "StrategyProfile",
    "Instance",
    "make_profile",
    "replace_strategy",
    "validate_profile",
    "success_probability",
    "log_interference",
    "total_expected_rate",
    "channel_load",
    "graph_from_positions",
    "build_regular_graph",
]

# Relative slack below which a unilateral improvement does not count, in the
# equilibrium checks and switching rules of both games.
NEP_REL_TOL = 1e-9

# channel_load's (count, clearance, log-interference) for an unused channel
NO_LOAD = (0, 1.0, 0.0)


def left_sum(values: Iterable[float]) -> float:
    """Left-to-right float total; the built-in sum() compensates from Python 3.12 on."""
    return reduce(add, values, 0.0)


def _neg_log1m(p: float) -> float:
    # log(1/(1-p)); +inf once p reaches 1 (a neighbor that always transmits).
    if p >= 1.0:
        return math.inf
    return -math.log1p(-p)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class InterferenceGraph:
    """Undirected interference relation over users 0..num_users-1.

    adjacency[n] is the sorted tuple of neighbors of user n. The relation is
    symmetric and irreflexive: simultaneous same-channel transmissions by two
    adjacent users destroy both. Construction and from_edges check all of this;
    graph_from_positions and Instance.prefix, whose adjacencies hold it as built,
    skip the check. Its array form, `pairs` and the `edge_array` taken from them,
    is built on first use, kept on this object and read-only.
    """

    num_users: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_int("num_users", self.num_users)
        if self.num_users < 0:
            raise ValueError("num_users must be nonnegative")
        if len(self.adjacency) != self.num_users:
            raise ValueError("adjacency length must equal num_users")
        for n, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency[{n}] must be sorted and duplicate-free")
            for r in nbrs:
                if not 0 <= r < self.num_users:
                    raise ValueError(f"adjacency[{n}] contains out-of-range user {r}")
                if r == n:
                    raise ValueError(f"user {n} listed as its own neighbor")
                if n not in self.adjacency[r]:
                    raise ValueError(f"asymmetric edge ({n}, {r})")

    @classmethod
    def from_edges(cls, num_users: int, edges: Iterable[tuple[int, int]]) -> "InterferenceGraph":
        nbrs: list[set[int]] = [set() for _ in range(num_users)]
        for a, b in edges:
            if not (0 <= a < num_users and 0 <= b < num_users):
                raise ValueError(f"edge ({a}, {b}) out of range for {num_users} users")
            if a == b:
                raise ValueError(f"self-edge on user {a}")
            nbrs[a].add(b)
            nbrs[b].add(a)
        return cls(num_users, tuple(tuple(sorted(s)) for s in nbrs))

    @classmethod
    def _built(cls, num_users: int, adjacency: tuple[tuple[int, ...], ...]) -> "InterferenceGraph":
        """The graph of an adjacency valid by construction, without __post_init__'s check."""
        graph = object.__new__(cls)
        graph.__dict__.update(num_users=num_users, adjacency=adjacency)
        return graph

    def degree(self, user: int) -> int:
        return len(self.adjacency[user])

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every (user, neighbor) pair as intp arrays, by user, then neighbor: adjacency order."""
        users = np.repeat(np.arange(self.num_users, dtype=np.intp), [len(a) for a in self.adjacency])
        neighbors = np.array([r for nbrs in self.adjacency for r in nbrs], dtype=np.intp)
        return _read_only(users), _read_only(neighbors)

    @cached_property
    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge once, as (lower endpoint, higher endpoint) intp arrays, by lower endpoint."""
        users, neighbors = self.pairs
        keep = users < neighbors
        return _read_only(users[keep]), _read_only(neighbors[keep])


@dataclass(frozen=True)
class Strategy:
    """One user's play: the channels it transmits on, and how eagerly.

    channels is a sorted tuple of distinct channel indices; attempt_prob is
    the per-slot transmission probability applied on every selected channel.
    """

    channels: tuple[int, ...]
    attempt_prob: float

    def __post_init__(self) -> None:
        chans = tuple(self.channels)
        object.__setattr__(self, "channels", chans)
        if list(chans) != sorted(set(chans)):
            raise ValueError("channels must be sorted and distinct")
        if chans and chans[0] < 0:
            raise ValueError("channel indices must be nonnegative")
        if not 0.0 <= self.attempt_prob <= 1.0:
            raise ValueError("attempt_prob must lie in [0, 1]")
        # the dataclass hash, computed once: profiles are hashed whole
        object.__setattr__(self, "_hash", hash((chans, self.attempt_prob)))

    def __hash__(self) -> int:
        return self._hash


# A profile is one Strategy per user, indexed by user. Plain tuples keep
# profiles hashable and cheap to snapshot.
StrategyProfile = tuple[Strategy, ...]


@dataclass(frozen=True)
class NepReport:
    """Outcome of an equilibrium check, in either game.

    When is_nep is False, violating_user is the first user found able to
    improve, deviation the play it would switch to, and gain what that switch
    earns it (its rate in the rate game, its cooperative utility in the
    fairness game).
    """

    is_nep: bool
    violating_user: Optional[int] = None
    deviation: Optional[Strategy] = None
    gain: float = 0.0


def make_profile(
    channel_sets: Sequence[Sequence[int]], attempt_probs: Sequence[float]
) -> StrategyProfile:
    if len(channel_sets) != len(attempt_probs):
        raise ValueError("channel_sets and attempt_probs must have equal length")
    return tuple(
        Strategy(tuple(sorted(chans)), float(p))
        for chans, p in zip(channel_sets, attempt_probs)
    )


def replace_strategy(
    profile: StrategyProfile, user: int, strategy: Strategy
) -> StrategyProfile:
    return profile[:user] + (strategy,) + profile[user + 1 :]


@dataclass(frozen=True)
class Instance:
    """A complete problem: graph, channel count, per-user utilities and caps.

    utilities[n][k] is user n's collision-free rate on channel k (Mbps).
    caps[n] bounds user n's attempt probability; the rate-maximization game
    always plays at the cap. Each user selects channels_per_user channels
    among those `allowed`, when present, permits. `arrays`, its array form,
    is built on first use, kept on this instance and read-only.
    """

    graph: InterferenceGraph
    num_channels: int
    channels_per_user: int
    utilities: tuple[tuple[float, ...], ...]
    caps: tuple[float, ...]
    allowed: Optional[tuple[tuple[bool, ...], ...]] = None

    def __post_init__(self) -> None:
        n_users = self.graph.num_users
        if n_users < 1:
            raise ValueError("an instance needs at least one user")
        _require_int("num_channels", self.num_channels)
        _require_int("channels_per_user", self.channels_per_user)
        if self.num_channels < 1:
            raise ValueError("num_channels must be at least 1")
        if not 1 <= self.channels_per_user <= self.num_channels:
            raise ValueError("channels_per_user must lie in [1, num_channels]")
        utils = tuple(tuple(map(float, row)) for row in self.utilities)
        object.__setattr__(self, "utilities", utils)
        if len(utils) != n_users:
            raise ValueError("utilities must have one row per user")
        for n, row in enumerate(utils):
            if len(row) != self.num_channels:
                raise ValueError(f"utilities[{n}] must have num_channels entries")
            if not all(map(math.isfinite, row)) or min(row) < 0.0:
                raise ValueError(f"utilities[{n}] must be finite and nonnegative")
        caps = tuple(float(c) for c in self.caps)
        object.__setattr__(self, "caps", caps)
        if len(caps) != n_users:
            raise ValueError("caps must have one entry per user")
        for n, cap in enumerate(caps):
            # The upper end is closed: the regular-graph efficiency regime with
            # degree+1 == num_channels legitimately pins caps at exactly 1.
            if not 0.0 < cap <= 1.0:
                raise ValueError(f"caps[{n}] must lie in (0, 1]")
        if self.allowed is not None:
            mask = tuple(tuple(bool(b) for b in row) for row in self.allowed)
            object.__setattr__(self, "allowed", mask)
            if len(mask) != n_users:
                raise ValueError("allowed must have one row per user")
            for n, row in enumerate(mask):
                if len(row) != self.num_channels:
                    raise ValueError(f"allowed[{n}] must have num_channels entries")
                if sum(row) < self.channels_per_user:
                    raise ValueError(
                        f"allowed[{n}] permits fewer than channels_per_user channels"
                    )

    @property
    def num_users(self) -> int:
        return self.graph.num_users

    @cached_property
    def channel_choices(self) -> tuple[tuple[int, ...], ...]:
        """Each user's selectable channels, ascending; built on first use."""
        every = tuple(range(self.num_channels))
        if self.allowed is None:
            return (every,) * self.num_users
        return tuple(tuple(k for k in every if row[k]) for row in self.allowed)

    def allowed_channels(self, user: int) -> tuple[int, ...]:
        return self.channel_choices[user]

    @cached_property
    def arrays(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(utilities, masked): the (users, channels) utility floats and ~allowed, None unmasked."""
        masked = None if self.allowed is None else _read_only(~np.array(self.allowed))
        return _read_only(np.array(self.utilities)), masked

    def prefix(self, num_users: int) -> "Instance":
        """Users 0..num_users-1 and the graph they induce; self when that is every user. Each
        prefix is built on first use and kept on this instance, so repeated calls share it."""
        _require_int("prefix size", num_users)
        if num_users == self.num_users:
            return self
        if not 1 <= num_users < self.num_users:
            raise ValueError(f"prefix size {num_users} must lie in 1..{self.num_users}")
        kept = self.__dict__.setdefault("_prefixes", {})
        if num_users not in kept:
            adjacency = (a[: bisect_left(a, num_users)] for a in self.graph.adjacency[:num_users])
            kept[num_users] = replace(
                self,
                graph=InterferenceGraph._built(num_users, tuple(adjacency)),
                utilities=self.utilities[:num_users],
                caps=self.caps[:num_users],
                allowed=None if self.allowed is None else self.allowed[:num_users],
            )
        return kept[num_users]


def validate_profile(profile: StrategyProfile, instance: Instance) -> None:
    """Raise if the profile does not fit the instance's dimensions and channel masks."""
    if len(profile) != instance.num_users:
        raise ValueError("profile length must equal num_users")
    for n, strat in enumerate(profile):
        if len(strat.channels) != instance.channels_per_user:
            raise ValueError(
                f"user {n} selects {len(strat.channels)} channels, "
                f"expected {instance.channels_per_user}"
            )
        for k in strat.channels:
            if k >= instance.num_channels:
                raise ValueError(f"user {n} selects out-of-range channel {k}")
            if instance.allowed is not None and not instance.allowed[n][k]:
                raise ValueError(f"user {n} selects channel {k}, which its mask forbids")


def channel_load(user: int, profile: StrategyProfile, graph: InterferenceGraph) -> dict:
    """What the neighbors of `user` put on each channel, in one adjacency pass.

    Maps every channel some neighbor selects to (neighbor count, clearance
    product of (1 - p), log-interference sum of log(1/(1 - p))), accumulated in
    adjacency order; other channels read as NO_LOAD. Membership is
    structural: a neighbor counts even with attempt_prob 0. The user's own
    strategy never enters.
    """
    if not 0 <= user < graph.num_users:
        raise ValueError(f"user index {user} out of range")
    load: dict[int, tuple[int, float, float]] = {}
    for i in graph.adjacency[user]:
        strat = profile[i]
        p = strat.attempt_prob
        clear = 1.0 - p
        log_term = -math.log1p(-p) if p < 1.0 else math.inf  # inlined _neg_log1m: hot loop
        for k in strat.channels:
            count, clearance, suffered = load.get(k, NO_LOAD)
            load[k] = (count + 1, clearance * clear, suffered + log_term)
    return load


def success_probability(
    user: int, channel: int, profile: StrategyProfile, graph: InterferenceGraph
) -> float:
    """Probability that no neighbor of `user` transmits on `channel` in a slot.

    Product of (1 - p_i) over neighbors i that selected the channel; the empty
    product is 1. The user's own strategy never enters.
    """
    if channel < 0:
        raise ValueError(f"channel index {channel} out of range")
    return channel_load(user, profile, graph).get(channel, NO_LOAD)[1]


def log_interference(
    user: int, channel: int, profile: StrategyProfile, graph: InterferenceGraph
) -> float:
    """Negative log of success_probability; +inf if a neighbor has p = 1."""
    if channel < 0:
        raise ValueError(f"channel index {channel} out of range")
    return channel_load(user, profile, graph).get(channel, NO_LOAD)[2]


def total_expected_rate(user: int, profile: StrategyProfile, instance: Instance) -> float:
    """Expected throughput of `user` summed over its selected channels."""
    load = channel_load(user, profile, instance.graph)
    strat = profile[user]
    return rate_from_load(strat.attempt_prob, instance.utilities[user], strat.channels, load)


def rate_from_load(attempt_prob: float, utilities: Sequence[float], channels, load: dict) -> float:
    """Expected rate p * u_k * clearance_k summed over `channels`, given a channel_load."""
    rate = 0.0  # left to right, as left_sum adds
    for k in channels:
        rate += attempt_prob * utilities[k] * load.get(k, NO_LOAD)[1]
    return rate


def drop_in_disc(
    rng: np.random.Generator, num_users: int, region_radius: float
) -> np.ndarray:
    """(num_users, 2) positions drawn uniformly in a disc centered at the origin."""
    radii = region_radius * np.sqrt(rng.random(num_users))
    angles = 2.0 * math.pi * rng.random(num_users)
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


# Candidate pairs graph_from_positions tests at once: at most a few MB of temporaries.
_PAIR_CHUNK = 1 << 15


def graph_from_positions(
    positions: np.ndarray, interference_radius: float
) -> InterferenceGraph:
    """Link every pair of points within interference range of each other.

    Points go into square cells a little wider than the radius (cell lists),
    and only points in the same or adjacent cells are compared: O(N * degree)
    time, bounded temporaries and no all-pairs scan. A pair a < b is linked
    exactly when np.hypot(*(positions[a] - positions[b])) <= interference_radius.
    Positions of any other shape than (N, 2) are a ValueError. The adjacency is
    valid as built, so the graph skips InterferenceGraph's check.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (N, 2), not {positions.shape}")
    num_users = len(positions)
    if num_users < 1:
        raise ValueError("need at least one position")
    if not interference_radius >= 0:
        raise ValueError(f"interference_radius must be nonnegative, not {interference_radius!r}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    corner = positions.min(axis=0)
    # past the float range, a spread overflows to inf: one cell, or a pair rightly left unlinked
    with np.errstate(over="ignore"):
        extent = float((positions.max(axis=0) - corner).max())
    # With at most 2^20 cells per axis, rounding moves a cell coordinate by
    # less than 1e-9 of a cell, so the 1e-6 margin keeps every pair in range
    # in the same or adjacent cells. Width 0 (all points coincide) and inf
    # (infinite radius, or an extent past the float range) mean one cell.
    width = max(interference_radius * (1.0 + 1e-6), extent / 2**20)
    spread = (positions - corner) / width if 0.0 < width < math.inf else np.zeros(positions.shape)
    cells = np.floor(spread).astype(np.int64)
    # an empty y cell between x columns: no neighbor offset lands in the next column
    stride = int(cells[:, 1].max()) + 2
    ids = cells[:, 0] * stride + cells[:, 1]
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    # Each point's candidates, as runs [start, stop) of `order`: the later points
    # of its own cell, then every point of each forward cell. The forward (x, y)
    # offsets hold one of each pair of opposite neighbors, so that every pair of
    # adjacent cells is visited once.
    starts = [np.arange(1, num_users + 1)]
    stops = [np.searchsorted(ids, ids, side="right")]
    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
        target = ids + (dx * stride + dy)
        starts.append(np.searchsorted(ids, target, side="left"))
        stops.append(np.searchsorted(ids, target, side="right"))
    start = np.concatenate(starts)
    ends = np.cumsum(np.concatenate(stops) - start)
    shift = start - np.concatenate(([0], ends[:-1]))  # candidate number -> its place in order
    owner = np.tile(order, len(starts))
    total = int(ends[-1])
    found = [np.empty((2, 0), dtype=np.intp)]
    for lo in range(0, total, _PAIR_CHUNK):
        candidate = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        run = np.searchsorted(ends, candidate, side="right")
        p, q = owner[run], order[shift[run] + candidate]
        a, b = np.minimum(p, q), np.maximum(p, q)
        with np.errstate(over="ignore"):  # an inf distance passes every finite radius
            offsets = positions[a] - positions[b]
            close = np.hypot(offsets[:, 0], offsets[:, 1]) <= interference_radius
        found.append(np.stack((a[close], b[close])))
    low, high = np.concatenate(found, axis=1).astype(np.int64)  # keys below N^2 fit at any N
    # each (user, neighbor) pair once as one key, so sorting the keys sorts by user, then neighbor
    keys = np.sort(np.concatenate((low * num_users + high, high * num_users + low)))
    neighbors = (keys % num_users).tolist()
    bounds = np.searchsorted(keys, np.arange(num_users + 1, dtype=np.int64) * num_users).tolist()
    adjacency = tuple(tuple(neighbors[s:e]) for s, e in zip(bounds, bounds[1:]))
    return InterferenceGraph._built(num_users, adjacency)


def build_regular_graph(num_users: int, degree: int) -> InterferenceGraph:
    """Circulant graph in which every user has exactly `degree` neighbors.

    Even degree d links each user to its d/2 nearest indices on either side
    (mod N); odd degree additionally links antipodal pairs, which requires an
    even user count.
    """
    if num_users < 1:
        raise ValueError("num_users must be at least 1")
    if degree < 0 or degree >= num_users:
        raise ValueError("degree must lie in [0, num_users)")
    if (degree * num_users) % 2 != 0:
        raise ValueError("degree * num_users must be even; no such regular graph")
    edges = []
    half = degree // 2
    for n in range(num_users):
        for j in range(1, half + 1):
            edges.append((n, (n + j) % num_users))
        if degree % 2 == 1:
            edges.append((n, (n + num_users // 2) % num_users))
    return InterferenceGraph.from_edges(num_users, edges)
