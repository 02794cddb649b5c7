"""Update scheduling, learning loops, and the slot-level channel simulator.

Three activation mechanisms decide who may update at each updating time:
backoff (lowest local draw wins, so active users never neighbor each other),
probabilistic (independent coin flips, neighbors may collide), and
sweep-sequential (round robin). On top of these sits one learning driver with
a step per game: best-response play for the rate-maximization game and noisy
best response with a cooling schedule for the fairness game. A slot-level simulator
produces the busy/idle observations that the windowed clearance estimator
consumes, which is how runs work without closed-form knowledge of their
neighbors' strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import drm, fairness
from .drm import br_potential, is_nep_drm
from .errors import DegenerateInstanceError, EstimationError
from .fairness import (
    CoolingSchedule,
    allocation_profile,
    draw_action,
    exact_potential,
    is_nep_fairness,
    noisy_br_table,
)
# unused, as are is_nep_drm and is_nep_fairness; perfbench/tracing.py patches them
from .fairness import cooperative_utility, noisy_br_distribution, sample_noisy_br
from .network import (
    Instance,
    InterferenceGraph,
    Strategy,
    StrategyProfile,
    channel_load,
    rate_from_load,
    total_expected_rate,
    validate_profile,
)
from .network import success_probability  # unused; perfbench/tracing.py patches it

__all__ = [
    "UpdateMechanism",
    "EstimatorConfig",
    "Trajectory",
    "select_active",
    "run_br_drm",
    "run_better_response_replay",
    "run_nbrf",
    "simulate_slot",
    "simulate_slots",
    "simulate_naive_policy",
    "estimate_success_probability",
    "drm_initial_profile",
    "nbrf_initial_profile",
]


@dataclass(frozen=True)
class UpdateMechanism:
    """How active users are chosen at each updating time.

    kind "backoff": every user draws uniformly on [0, backoff_bound]; a user
    is active iff its draw beats every neighbor's (ties toward the lower
    index), so the active set is independent in the interference graph.
    kind "probabilistic": each user is active independently with its entry of
    update_probs (one shared, or per user of the final population, each stage
    using its prefix); neighbors may both be active.
    kind "sweep-sequential": exactly one user per updating time, round robin.
    """

    kind: str
    backoff_bound: float = 1.0
    update_probs: tuple[float, ...] = (0.5,)

    def __post_init__(self) -> None:
        if self.kind not in ("backoff", "probabilistic", "sweep-sequential"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        # an infinite bound makes every draw inf, so the lower index always wins
        if self.kind == "backoff" and not 0 < self.backoff_bound < math.inf:
            raise ValueError("backoff_bound must be positive and finite")
        object.__setattr__(self, "update_probs", tuple(float(q) for q in self.update_probs))
        if self.kind == "probabilistic":
            if not self.update_probs:
                raise ValueError("update_probs must list at least one probability")
            for q in self.update_probs:
                # q = 1 is the everyone-updates-every-time chain
                if not 0.0 < q <= 1.0:
                    raise ValueError("update probabilities must lie in (0, 1]")

    @classmethod
    def backoff(cls, bound: float = 1.0) -> "UpdateMechanism":
        return cls("backoff", backoff_bound=bound)

    @classmethod
    def probabilistic(cls, update_probs: Union[float, Sequence[float]] = 0.5) -> "UpdateMechanism":
        return cls("probabilistic", update_probs=np.atleast_1d(update_probs))

    @classmethod
    def sweep_sequential(cls) -> "UpdateMechanism":
        return cls("sweep-sequential")


def select_active(
    mechanism: UpdateMechanism,
    graph: InterferenceGraph,
    rng: np.random.Generator,
    step: int = 0,
) -> tuple[int, ...]:
    """Active users for one updating time, ascending. `step` drives the sweep. Backoff picks each
    edge's loser by arithmetic on the comparison of its draws, with no branch over the edges."""
    n_users = graph.num_users
    if mechanism.kind == "sweep-sequential":
        return (step % n_users,)
    if mechanism.kind == "probabilistic":
        probs = mechanism.update_probs
        if not (len(probs) == 1 or len(probs) >= n_users):
            raise ValueError("per-user update_probs must cover every user")
        draws = rng.random(n_users).tolist()
        if len(probs) == 1:
            q = probs[0]
            return tuple([n for n, d in enumerate(draws) if d < q])
        return tuple(n for n, (d, q) in enumerate(zip(draws, probs)) if d < q)
    draws = rng.random(n_users) * mechanism.backoff_bound
    # each edge has one loser: the higher draw, or on a tie the higher index;
    # the winners are the users that lose on none of their edges
    low, high = graph.edge_array
    won = np.ones(n_users, dtype=bool)
    won[high + (low - high) * (draws[low] > draws[high])] = False
    return tuple(np.flatnonzero(won).tolist())


@dataclass(frozen=True)
class EstimatorConfig:
    """Windowed clearance estimation driven by simulated slots.

    Before each updating time, slots_per_update fresh slots are simulated
    under the current profile and appended to a shared window of the most
    recent `window` slots. A user estimates its clearance on a channel as the
    fraction of its valid window slots in which no neighbor transmitted
    there. When flush_on_neighbor_update is set, a strategy change by any
    neighbor invalidates the user's older observations.
    """

    window: int = 100
    slots_per_update: int = 100
    flush_on_neighbor_update: bool = True

    def __post_init__(self) -> None:
        for name in ("window", "slots_per_update"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, not {value!r}")


@dataclass
class Trajectory:
    """Recorded run: one entry per updating time plus the initial state.

    Entry 0 is the initial profile with an empty active set. `at_nep` says whether each entry's
    profile is an equilibrium, as the game's is_nep_* would. `potentials`, the audit scalar that
    no run reads, is priced on first read by the closed form named `_potential` (br_potential,
    or the fairness game's exact_potential) once per distinct profile. termination is
    "converged", "max-iters", or "cycle-detected"; cycle_length is set only for replays that
    revisited a profile.
    """

    active_sets: list[tuple[int, ...]]
    profiles: list[StrategyProfile]
    rates: list[tuple[float, ...]]
    instances: list[Instance]
    at_nep: list[bool]
    _potential: str = field(repr=False, compare=False)
    converged_at: Optional[int] = None
    termination: str = "max-iters"
    cycle_length: Optional[int] = None

    def __len__(self) -> int:
        return len(self.profiles)

    @cached_property
    def potentials(self) -> list[float]:
        # looked up when read, so that a patch of the module's closed form applies
        closed_form, memo = globals()[self._potential], {}
        for profile, instance in zip(self.profiles, self.instances):
            if id(profile) not in memo:  # the recorder records one object per profile value
                memo[id(profile)] = closed_form(profile, instance)
        return [memo[id(profile)] for profile in self.profiles]


class _Recorder:
    """Appends to the trajectory's columns, one entry per updating time, from the loop's moves.

    The recorder holds the current profile: `stage` takes up a population stage and `play` one
    updating time's plays {n: play}, each a change of value. Both queue their users, whom _price
    renews with their neighbors only when asked: by `moves`, the fairness `prices`, or the
    `record` of a profile not seen before (judging each, or unchecking it for _judge). Each
    distinct profile, keyed by value, keeps its recorded object, rates and at_nep flag, which a
    revisit records again. A verdict is the play of the game's deterministic rule (nep_violation's
    move), or None to keep the current one; it is the only record of who may move, since it holds
    until the user or a neighbor moves. at_nep checks unchecked users in index order until one
    violates. Each game's recorder names its potential's closed form, `potential`, for the
    trajectory to price when read.
    """

    def __init__(self):
        self.trajectory = Trajectory([], [], [], [], [], self.potential)
        self._active_interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        # [recorded object, rates, at_nep] per distinct profile
        self._entries: dict[StrategyProfile, list] = {}
        self._entry: Optional[list] = None  # the current profile's, once recorded

    def start(self, profile: StrategyProfile, instance: Instance) -> None:
        """Check the initial profile, stage it and record it as entry 0."""
        validate_profile(profile, instance)
        self.stage(profile, instance)
        self.record(())

    def stage(self, profile: StrategyProfile, instance: Instance) -> None:
        """Take up `profile` on a new stage `instance`, every user queued for pricing."""
        n_users = instance.num_users
        self.profile, self.instance, self._entry = profile, instance, None
        self._rates: list[float] = [0.0] * n_users  # a list: untouched users' floats are shared
        self._verdicts, self._unchecked, self._violators = [None] * n_users, set(), 0
        self._queued = set(range(n_users))
        self._stage(instance)

    def play(self, plays: dict[int, Strategy]) -> None:
        """Apply one updating time's plays, each a change of the user's play's value."""
        moved = list(self.profile)
        for n, play in plays.items():
            moved[n] = play
        self.profile, self._entry = tuple(moved), None
        self._queued.update(plays)

    def record(self, active: tuple[int, ...]) -> bool:
        """Append one entry for the current profile; returns its at_nep flag."""
        entry = self._entry
        if entry is None:
            # one lookup, one hash of the profile: a new entry is completed in place
            entry = self._entries.setdefault(self.profile, [self.profile])
            if len(entry) == 1:
                self._reprice()
                if not self._violators:
                    for n in sorted(self._unchecked):
                        if self._check(n) is not None:
                            break
                entry += (tuple(self._rates), self._violators == 0)
            self._entry, self.profile = entry, entry[0]
        profile, rates, at_nep = entry
        traj = self.trajectory
        traj.active_sets.append(self._active_interned.setdefault(active, active))
        traj.profiles.append(profile)
        traj.rates.append(rates)
        traj.instances.append(self.instance)
        traj.at_nep.append(at_nep)
        return at_nep

    def build(
        self, converged_at: Optional[int], termination: str, cycle_length: Optional[int] = None
    ) -> Trajectory:
        traj = self.trajectory
        traj.converged_at, traj.termination, traj.cycle_length = (
            converged_at, termination, cycle_length
        )
        return traj

    def moves(self, active: Sequence[int]) -> dict[int, Strategy]:
        """{n: play} for each active user whose verdict at the current profile moves."""
        self._reprice()
        if not self._violators and not self._unchecked:  # every verdict is None
            return {}
        verdicts, unchecked, plays = self._verdicts, self._unchecked, {}
        for n in active:
            play = self._check(n) if n in unchecked else verdicts[n]
            if play is not None:
                plays[n] = play
        return plays

    def _reprice(self) -> None:
        if self._queued:
            self._price(list(self._queued))
            self._queued.clear()

    def _check(self, n: int):
        self._unchecked.discard(n)
        verdict = self._verdicts[n] = self._judge(n)
        self._violators += verdict is not None
        return verdict


class _RateRecorder(_Recorder):
    """The rate game's recorder, priced in arrays over the rows a profile change touches.

    Row n of `clearance` (users, channels) holds user n's channel_load clearance, NO_LOAD's
    where no neighbor plays. Repricing resets the rows of the movers and their neighbors to 1.0,
    then multiplies in each neighbor's 1 - p on its channels in one ufunc.at pass, which applies
    them in index order: per row in adjacency order, so every cell is channel_load's float. The
    same rows give the users' rates and verdicts, all judged at once by drm.switches on the
    exact clearances: the improving channel set at the user's cap, or None.
    """

    potential = "br_potential"

    def _stage(self, instance: Instance) -> None:
        """The instance's arrays, every user's row unpriced."""
        n_users, per_user, num_channels = (
            instance.num_users, instance.channels_per_user, instance.num_channels
        )
        self._utilities = np.array(instance.utilities)
        self._masked = None if instance.allowed is None else ~np.array(instance.allowed)
        # (user, neighbor) pairs by user; the edges run ascending by lower end, so a stable
        # sort by user keeps each user's neighbors ascending: adjacency order
        low, high = instance.graph.edge_array
        users, nbrs = np.concatenate((high, low)), np.concatenate((low, high))
        order = np.argsort(users, kind="stable")
        self._owners, self._adjacent = users[order], nbrs[order]
        self._first = np.arange(0, n_users * num_channels, num_channels)[:, None]  # row n's cell 0
        self._channels = np.zeros((n_users, per_user), dtype=np.intp)
        self._plays = np.zeros((n_users, 2))  # p and 1 - p, as channel_load prices
        self._clearance = np.ones((n_users, num_channels))

    def _price(self, moved: list[int]) -> None:
        """Take in the movers' plays, then reprice their and their neighbors' rows and verdicts."""
        profile, instance = self.profile, self.instance
        plays = [profile[n] for n in moved]
        self._channels[moved] = [s.channels for s in plays]
        self._plays[moved] = [(s.attempt_prob, 1.0 - s.attempt_prob) for s in plays]
        touched = np.zeros(instance.num_users, dtype=bool)
        touched[moved] = True
        touched[self._adjacent[touched[self._owners]]] = True  # and the movers' neighbors
        rows, pairs = np.flatnonzero(touched), touched[self._owners]
        nbrs = self._adjacent[pairs]
        cells = self._first[self._owners[pairs]] + self._channels[nbrs]
        self._clearance[rows] = 1.0
        clearance = self._clearance.reshape(-1)
        np.multiply.at(clearance, cells, self._plays[nbrs, 1:])
        current = self._channels[rows]
        cells = self._first[rows] + current
        probs, utilities = self._plays[rows, 0], self._utilities.reshape(-1)[cells]
        clear, rates = clearance[cells], np.zeros(len(rows))
        for j in range(current.shape[1]):  # from 0.0, as rate_from_load adds
            rates += probs * utilities[:, j] * clear[:, j]
        verdicts = drm.switches(
            self._utilities[rows], self._clearance[rows], current,
            None if self._masked is None else self._masked[rows],
        )
        old, rate_list, caps = self._verdicts, self._rates, instance.caps
        for n, rate, channels in zip(rows.tolist(), rates.tolist(), verdicts):
            self._violators += (channels is not None) - (old[n] is not None)
            old[n] = None if channels is None else Strategy(channels, caps[n])
            rate_list[n] = rate


class _FairRecorder(_Recorder):
    """The fairness game's recorder, priced one user at a time.

    A user's prices are its channel_load and, once some rule asks, its action table's values.
    A load reads only the neighbors' plays, so a user reloads (a fresh channel_load, values
    dropped) when a neighbor moves, and every user at a new stage; a mover keeps its prices.
    Repricing renews a user's rate and unchecks it; its verdict, judged on demand, is the
    deviation fairness.nep_violation reports.
    """

    potential = "exact_potential"

    def _stage(self, instance: Instance) -> None:
        self._prices: list[Optional[dict]] = [None] * instance.num_users  # None: never priced

    def _price(self, moved: list[int]) -> None:
        profile, instance = self.profile, self.instance
        graph, prices = instance.graph, self._prices
        reload = set().union(*(graph.adjacency[n] for n in moved))
        users = reload.union(moved)
        for n in users:
            if n in reload or prices[n] is None:
                prices[n] = {"load": channel_load(n, profile, graph)}
            strat = profile[n]
            self._rates[n] = rate_from_load(
                strat.attempt_prob, instance.utilities[n], strat.channels, prices[n]["load"])
        verdicts = self._verdicts  # an unchecked user's verdict is stale and never read
        self._violators -= sum(verdicts[n] is not None for n in users - self._unchecked)
        self._unchecked |= users

    def _judge(self, n: int) -> Optional[Strategy]:
        prices = self.prices(n)
        report = fairness.nep_violation(n, self.profile, self.instance, prices["load"],
                                        prices["values"])
        return None if report is None else report.deviation

    def prices(self, n: int) -> dict:
        """User n's prices at the current profile, as keywords of the fairness rules: its
        channel_load and its action table's values, priced on first demand."""
        self._reprice()
        prices = self._prices[n]
        if "values" not in prices:
            _, prices["values"] = fairness._priced(n, self.profile, self.instance, prices["load"])
        return prices


def drm_initial_profile(instance: Instance) -> StrategyProfile:
    """Each user claims its highest-utility allowed channels at its cap."""
    utilities = np.array(instance.utilities)
    if instance.allowed is not None:
        utilities[~np.array(instance.allowed)] = -np.inf
    picks = drm._best_sets(utilities, instance.channels_per_user).tolist()
    return tuple(Strategy(tuple(chans), cap) for chans, cap in zip(picks, instance.caps))


def nbrf_initial_profile(instance: Instance) -> StrategyProfile:
    """Two-phase start: channels by highest utility, then matched probabilities.

    All users pick their best-utility channel first; each then sets its
    attempt probability to 1/(count+1) from the same-channel neighbor counts
    that those picks produce. An instance the fairness game refuses (masked,
    or more than one channel per user) is a ValueError.
    """
    fairness._require_single_channel(instance)
    return _NoisyBestResponse.extend((), instance)


_BLOCK = 512  # doubles per pre-drawn block: above a 4-user step's ~5, below an 800-user activation


class _BlockStream:
    """One run's random() calls, served in their order from blocks pre-drawn from its generator.

    Generator.random takes one double of the bit generator per value, whatever the call's size,
    so block slices are the values direct calls would get. A request larger than a block, and
    the first small request after one (an estimator run's activation), go to the generator
    directly. rewind(), and reading bit_generator, leave the generator where direct calls would.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._block, self._pos, self._saved = rng, np.empty(0), 0, None
        self._after_large = False

    def random(self, size=None):
        count = 1 if size is None else math.prod(size) if isinstance(size, tuple) else size
        block, start = self._block, self._pos
        if 0 <= count <= len(block) - start:
            self._pos = end = start + count
            if size is None:
                return block.item(start)
            out = block[start:end]
        elif 0 <= count <= _BLOCK and not self._after_large:
            # the rest of this block, then the head of a new one
            rest, self._saved = block[start:], self._rng.bit_generator.state
            self._block = block = self._rng.random(_BLOCK)
            self._pos = count - len(rest)
            out = np.concatenate((rest, block[: self._pos]))
        else:
            self.rewind()
            self._after_large = count > _BLOCK
            return self._rng.random(size)
        return out.item(0) if size is None else out if type(size) is int else out.reshape(size)

    def rewind(self) -> None:
        if self._saved is not None:
            self._rng.bit_generator.state = self._saved
            self._rng.random(self._pos)
            self._block, self._pos, self._saved = self._block[:0], 0, None

    @property
    def bit_generator(self):
        self.rewind()
        return self._rng.bit_generator


def _stages(instance: Instance, arrivals: Optional[Sequence[int]]) -> list[tuple[int, Instance]]:
    """(start, stage) pairs: updating time 0 and each distinct positive arrival time, each with
    the prefix of `instance` that holds the users arrived by then."""
    if arrivals is None:
        return [(0, instance)]
    if len(arrivals) != instance.num_users:
        raise ValueError(f"arrivals must have one entry per user, not {len(arrivals)}")
    for n, at in enumerate(arrivals):
        if isinstance(at, bool) or not isinstance(at, (int, np.integer)):
            raise ValueError(f"arrivals[{n}] must be an integer, not {at!r}")
        if n and at < arrivals[n - 1]:
            raise ValueError(f"arrivals must not decrease, but arrivals[{n}] < arrivals[{n - 1}]")
    if arrivals[0] != 0:
        raise ValueError(f"arrivals[0] must be 0, not {arrivals[0]!r}")
    counts = {int(at): n + 1 for n, at in enumerate(arrivals)}  # users arrived by each time
    return [(at, instance.prefix(count)) for at, count in counts.items()]


def _play(
    instance: Instance,
    mechanism: UpdateMechanism,
    rng: Optional[np.random.Generator],
    max_iters: int,
    initial_profile: Optional[StrategyProfile],
    arrivals: Optional[Sequence[int]],
    step,
) -> Trajectory:
    """The learning loop of both games: `step` holds one game's rule and names its recorder.

    `instance` is the whole population and arrivals[n] the updating time at which user n joins
    (None: all at 0). A step.recorder (_RateRecorder or _FairRecorder) holds the current
    profile and records each updating time. Each updating time t starts the stage whose users
    arrive at t, if any (step.extend grows the profile, which the recorder stages), and calls
    step.prepare with the last updating time's plays; it says whether this time plays verdicts.
    If it does (exact BR-DRM, frozen NBRF: rules that read no rng and only the user's
    neighborhood), the active users whose recorded verdict at the pre-step profile is a play
    make it, and the others keep theirs; otherwise step.decide answers each active user, in
    ascending order, with a play or None to keep its own. All plays of an updating time, each a
    change of value, go to the recorder at once. Once num_users updating times pass without a
    play (a quiet pass) and no arrival is pending, the run converges at the first quiet updating
    time from then on whose profile is recorded at_nep, if it plays verdicts, or at once if
    step.quiet_converges. All draws go through a _BlockStream, rewound when the run ends or
    raises.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    (_, instance), *pending = _stages(instance, arrivals)
    rng = _BlockStream(rng if rng is not None else np.random.default_rng(0))
    if initial_profile is None:
        initial_profile = step.extend((), instance)
    recorder = step.recorder()
    recorder.start(initial_profile, instance)
    prepare, decide = step.prepare, step.decide
    quiet_run, plays = 0, {}
    try:
        for t in range(1, max_iters + 1):
            if pending and pending[0][0] == t:
                instance = pending.pop(0)[1]
                recorder.stage(step.extend(recorder.profile, instance), instance)
                quiet_run = 0
            profile = recorder.profile
            follows = prepare(t, profile, instance, rng, plays)
            active = select_active(mechanism, instance.graph, rng, step=t - 1)
            if follows:
                plays = recorder.moves(active)
            else:
                plays = {}
                for n in active:
                    play = decide(n, profile, instance, rng, recorder)
                    if play is not None:
                        plays[n] = play
            if plays:
                recorder.play(plays)
                quiet_run = 0
            else:
                quiet_run += 1
            at_nep = recorder.record(active)
            if quiet_run >= instance.num_users and not pending and (
                at_nep if follows else step.quiet_converges
            ):
                return recorder.build(t, "converged")
        return recorder.build(None, "max-iters")
    finally:
        rng.rewind()


def run_br_drm(
    instance: Instance,
    mechanism: UpdateMechanism,
    estimator_config: Optional[EstimatorConfig] = None,
    max_iters: int = 200,
    rng: Optional[np.random.Generator] = None,
    *,
    initial_profile: Optional[StrategyProfile] = None,
    arrivals: Optional[Sequence[int]] = None,
) -> Trajectory:
    """Best-response play for the rate-maximization game, run by _play.

    Each active user plays drm.nep_violation's improving channel set, if any, at its cap.
    Both modes decide through its one array form, drm.switches: exact mode plays the verdicts
    the recorder derives from its clearance rows (repriced only where a switch touched them),
    estimator mode scores all users' windowed estimates per estimator_config once per slot
    batch. The rule is is_nep_drm's, so ties and near-ties keep the current set and
    exact-mode runs cannot oscillate between tied sets. Exact mode converges after a quiet
    pass at a profile recorded at_nep; estimator mode, whose estimates move with every slot
    batch, takes the quiet pass itself as convergence.
    """
    step = _BestResponse(estimator_config)
    return _play(instance, mechanism, rng, max_iters, initial_profile, arrivals, step)


class _BestResponse:
    """BR-DRM's step. In exact mode _play plays the rate recorder's verdicts at the pre-step
    profile; in estimator mode the step keeps the slot window, its estimates and drm.switches'
    verdicts on them, renewed once per updating time, and decide plays those."""

    recorder = _RateRecorder
    quiet_converges = True

    def __init__(self, estimator_config: Optional[EstimatorConfig]):
        self._config = estimator_config
        self._instance: Optional[Instance] = None  # the window's instance
        self._window = np.zeros((0, 0, 0), dtype=bool)  # busy masks, (slots, channels, users)
        self._valid_from = np.zeros(0, dtype=np.int64)
        self._slots = 0  # slots simulated on the window's instance
        # the prepared profile's layout; clearances, (users, channels); each user's switch or None
        self._layout, self._estimates, self._proposals = None, None, []

    @staticmethod
    def extend(profile: StrategyProfile, instance: Instance) -> StrategyProfile:
        return profile + drm_initial_profile(instance)[len(profile) :]

    def prepare(self, t, profile: StrategyProfile, instance: Instance, rng, moved) -> bool:
        """Flush the windows of the neighbors of `moved`, the last updating time's plays, draw
        this time's slots, estimate. Returns whether this updating time plays the recorder's
        verdicts: in exact mode."""
        config, layout = self._config, self._layout
        if config is None:
            return True
        if instance is not self._instance:
            self._instance, self._slots = instance, 0
            self._window = np.zeros((0, instance.num_channels, instance.num_users), dtype=bool)
            self._valid_from = np.zeros(instance.num_users, dtype=np.int64)
            self._utilities = np.array(instance.utilities)
            self._masked = None if instance.allowed is None else ~np.array(instance.allowed)
        elif config.flush_on_neighbor_update:
            # a list, never a tuple: arr[()] = x would write every entry
            self._valid_from[[r for n in moved for r in instance.graph.adjacency[n]]] = self._slots
        # the recorder shares one object per profile value: a play or a new stage makes a new one
        if not (layout and layout.profile is profile and layout.instance is instance):
            layout = self._layout = _SlotLayout(profile, instance)
        # slots that would fall out of the window need only their coins, drawn in bounded chunks
        skip, chunk = config.slots_per_update - config.window, max(1, 2**16 // instance.num_users)
        for start in range(0, skip, chunk):
            rng.random((min(chunk, skip - start), instance.num_users))
        busy = layout.draw(min(config.slots_per_update, config.window), rng)[1]
        window = self._window = np.concatenate((self._window, busy))[-config.window :]
        self._slots += config.slots_per_update
        # all users at once (valid_from changes only here); n's valid slots are the newest
        valid = np.minimum(len(window), self._slots - self._valid_from)
        self._estimates = _clearances(window, valid).T
        self._proposals = drm.switches(
            self._utilities, self._estimates, layout.channels, self._masked)
        return False

    def decide(self, n: int, profile: StrategyProfile, instance: Instance, rng, recorder):
        channels = self._proposals[n]
        return None if channels is None else Strategy(channels, instance.caps[n])


def run_better_response_replay(
    instance: Instance,
    initial_profile: StrategyProfile,
    move_sequence: Sequence[tuple[int, Sequence[int]]],
) -> Trajectory:
    """Apply a scripted sequence of strictly improving channel switches.

    Each move is (user, new channel set) and must strictly increase that
    user's expected rate against the then-current profile; a move that is
    out of range, invalid or non-improving raises with its step index. The
    replay stops early when a profile repeats, reporting the cycle length.
    """
    recorder = _RateRecorder()
    recorder.start(initial_profile, instance)
    seen = {recorder.profile: 0}
    for step_index, (user, new_channels) in enumerate(move_sequence, start=1):
        profile = recorder.profile
        try:
            if not 0 <= user < instance.num_users:
                raise ValueError(f"user index {user} out of range")
            chans = tuple(sorted(int(k) for k in new_channels))
            recorder.play({user: Strategy(chans, profile[user].attempt_prob)})
            validate_profile(recorder.profile, instance)
            before = total_expected_rate(user, profile, instance)
            after = total_expected_rate(user, recorder.profile, instance)
            if not after > before:
                raise ValueError(f"switching user {user} to {chans} does not strictly improve "
                                 f"its rate ({before!r} -> {after!r})")
        except ValueError as error:
            raise ValueError(f"move {step_index}: {error}") from error
        recorder.record((user,))
        profile = recorder.profile
        if profile in seen:
            return recorder.build(None, "cycle-detected", cycle_length=step_index - seen[profile])
        seen[profile] = step_index
    return recorder.build(None, "max-iters")


def run_nbrf(
    instance: Instance,
    mechanism: UpdateMechanism,
    schedule: CoolingSchedule,
    max_iters: int = 500,
    rng: Optional[np.random.Generator] = None,
    *,
    freeze_beta: Optional[float] = None,
    initial_profile: Optional[StrategyProfile] = None,
    arrivals: Optional[Sequence[int]] = None,
) -> Trajectory:
    """Noisy best response for the fairness game under a cooling schedule, run by _play.

    Active users draw fresh (channel, probability) actions from their
    softmax distributions at beta(t). Once beta(t) reaches freeze_beta (if
    given; it must be finite), active users stop exploring: _play plays the fair
    recorder's verdicts, the deviation fairness.nep_violation reports or none
    (is_nep_fairness's rule), and the run converges after a quiet pass at a
    profile recorded at_nep. A masked instance (`allowed` set) is a ValueError.
    """
    fairness._require_single_channel(instance)
    if freeze_beta is not None and not math.isfinite(freeze_beta):
        raise ValueError("freeze_beta must be finite; None never freezes")
    step = _NoisyBestResponse(schedule, freeze_beta)
    return _play(instance, mechanism, rng, max_iters, initial_profile, arrivals, step)


class _NoisyBestResponse:
    """NBRF's step: beta(t) and the sampler's memo. Frozen, _play plays the fair recorder's
    verdicts; unfrozen, decide draws from the softmax, and the run never converges."""

    recorder = _FairRecorder
    quiet_converges = False

    def __init__(self, schedule: CoolingSchedule, freeze_beta: Optional[float]):
        self._schedule, self._freeze_beta = schedule, freeze_beta
        # A user's noisy_br_table depends only on beta and its neighbors' plays, so while
        # beta(t) holds still the tables are kept per (user, neighbors' plays) and cleared when
        # it moves. A logarithmic beta(t) never holds still, so it builds each table afresh.
        # Arrivals keep every entry valid: users keep their utilities, new neighbors lengthen keys.
        self._memo = schedule.kind != "logarithmic"
        self._draws: dict[tuple, tuple] = {}
        self._beta: Optional[float] = None

    @staticmethod
    def extend(profile: StrategyProfile, instance: Instance) -> StrategyProfile:
        keep = len(profile)
        picks = [strat.channels[0] for strat in profile + drm_initial_profile(instance)[keep:]]
        return profile + allocation_profile(picks, instance)[keep:]

    def prepare(self, t, profile: StrategyProfile, instance: Instance, rng, moved) -> bool:
        """Set beta(t); returns whether it froze play, which then follows the verdicts."""
        beta = self._schedule.beta(t)
        if beta != self._beta:
            self._draws.clear()
            self._beta = beta
        return self._freeze_beta is not None and beta >= self._freeze_beta

    def decide(self, n: int, profile: StrategyProfile, instance: Instance, rng, recorder):
        # At beta = 0 the sampler is uniform over the whole grid, so a
        # user can land on attempt probability 1.0 next to a neighbor and
        # leave some third user with no finite-value action at all.  Such
        # a user cannot rank its options this step; it keeps its current
        # strategy until a neighbor moves away.  The sampler raises
        # before consuming rng draws, so the stream stays reproducible.
        try:
            if self._memo:
                key = (n, tuple(map(profile.__getitem__, instance.graph.adjacency[n])))
                table = self._draws.get(key)
                if table is None:
                    table = self._draws[key] = noisy_br_table(
                        n, profile, instance, self._beta, **recorder.prices(n))
            else:
                table = noisy_br_table(
                    n, profile, instance, self._beta, **recorder.prices(n))
            action = draw_action(table, rng)
        except DegenerateInstanceError:
            return None
        # grid plays are shared; by value: the initial plays and an old degree's grid are others
        return None if action is profile[n] or action == profile[n] else action


class _SlotLayout:
    """One profile's plays on one instance: member[k, n] when n plays k, channels[n], probs[n].

    columns lists, ascending as k*N + n, the (channel, user) pairs that some neighbor plays, and
    spread[r, c] = 1.0 when r is such a neighbor of column c; both come from the edge list taken
    in both directions. (S, N) transmit coins @ spread counts each slot's transmitting neighbors
    per pair exactly (float32 sums of <= N ones).
    """

    def __init__(self, profile: StrategyProfile, instance: Instance):
        validate_profile(profile, instance)
        self.profile, self.instance, n_users = profile, instance, instance.num_users
        chans = np.array([strat.channels for strat in profile], dtype=np.intp)
        chans = self.channels = chans.reshape(n_users, instance.channels_per_user)
        self.member = np.zeros((instance.num_channels, n_users), dtype=bool)
        self.member[chans, np.arange(n_users)[:, None]] = True
        self.probs = np.array([strat.attempt_prob for strat in profile])
        low, high = instance.graph.edge_array
        talkers, listeners = np.concatenate((low, high)), np.concatenate((high, low))
        keys = chans[talkers] * n_users + listeners[:, None]  # (2 * edges, channels_per_user)
        # not np.unique: its first call imports numpy.ma, which costs 1.7 MB of peak RSS
        self.columns = np.flatnonzero(np.bincount(keys.ravel(), minlength=self.member.size))
        self.spread = np.zeros((n_users, len(self.columns)), dtype=np.float32)
        self.spread[talkers[:, None], np.searchsorted(self.columns, keys)] = 1.0

    def draw(self, num_slots: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Transmit coins (slots, users) and busy masks (slots, channels, users)."""
        transmitted = rng.random((num_slots, len(self.probs))) < self.probs
        busy = np.zeros((num_slots, self.member.size), dtype=bool)
        busy[:, self.columns] = transmitted.astype(np.float32) @ self.spread > 0.5
        return transmitted, busy.reshape(num_slots, *self.member.shape)


def _draw_slots(
    profile: StrategyProfile, instance: Instance, num_slots: int, rng: np.random.Generator,
    layout: Optional[_SlotLayout] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmit, success and neighbor-busy masks for num_slots slots, from `layout` if given.

    Shapes are (slots, users) and (slots, users, channels), views of (slots, channels, users)
    arrays. One rng.random((S, N)) call draws the stream of S calls of rng.random(N).
    """
    layout = layout or _SlotLayout(profile, instance)
    transmitted, busy = layout.draw(num_slots, rng)
    success = layout.member & transmitted[:, None, :] & ~busy
    return transmitted, success.transpose(0, 2, 1), busy.transpose(0, 2, 1)


def simulate_slot(
    profile: StrategyProfile, instance: Instance, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_draw_slots for one slot: transmit (users), success and busy (users, channels) masks.

    success[n, k]: n transmitted on its selected channel k and no neighbor did.
    busy[n, k]: some neighbor of n transmitted on k, whatever n did.
    """
    transmitted, success, busy = _draw_slots(profile, instance, 1, rng)
    return transmitted[0], success[0], busy[0]


def simulate_slots(
    profile: StrategyProfile,
    instance: Instance,
    num_slots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized slot batch; returns per-(user, channel) success and busy counts."""
    if num_slots < 0:
        raise ValueError("num_slots must be nonnegative")
    success_counts, busy_counts = np.zeros((2, instance.num_users, instance.num_channels), np.int64)
    batch = max(1, min(num_slots, 4_000_000 // max(1, success_counts.size)))
    layout = _SlotLayout(profile, instance)
    for start in range(0, num_slots, batch):
        size = min(batch, num_slots - start)
        _, success, busy = _draw_slots(profile, instance, size, rng, layout)
        success_counts += success.sum(axis=0)
        busy_counts += busy.sum(axis=0)
    return success_counts, busy_counts


def simulate_naive_policy(
    instance: Instance,
    attempt_prob: float,
    num_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-user success counts for the channel-oblivious baseline.

    Each slot, every user picks one of the channels uniformly at random and
    transmits with attempt_prob; a transmission succeeds when no neighbor
    picked the same channel and transmitted.
    """
    if not 0.0 <= attempt_prob <= 1.0:
        raise ValueError("attempt_prob must lie in [0, 1]")
    if num_slots < 0:
        raise ValueError("num_slots must be nonnegative")
    n_users = instance.num_users
    successes = np.zeros(n_users, dtype=np.int64)
    batch = max(1, min(num_slots, 2_000_000 // max(1, n_users)))
    for start in range(0, num_slots, batch):
        size = min(batch, num_slots - start)
        channels = rng.integers(0, instance.num_channels, size=(size, n_users))
        transmitted = rng.random((size, n_users)) < attempt_prob
        for n, nbrs in enumerate(instance.graph.adjacency):
            # an isolated user's empty columns give no clash
            same = channels[:, nbrs] == channels[:, n : n + 1]
            clash = (same & transmitted[:, nbrs]).any(axis=1)
            successes[n] += int((transmitted[:, n] & ~clash).sum())
    return successes


def estimate_success_probability(user: int, busy: np.ndarray) -> np.ndarray:
    """Per-channel fraction of slots in which no neighbor of `user` transmitted.

    busy holds neighbor-busy masks shaped (slots, users, channels), as
    _draw_slots returns them; the result has one entry per channel.
    """
    if len(busy) == 0:
        raise EstimationError("cannot estimate from an empty window")
    if not 0 <= user < busy.shape[1]:
        raise ValueError(f"user index {user} out of range")
    return _clearances(busy[:, user, :, None], len(busy))[:, 0]


def _clearances(window: np.ndarray, valid) -> np.ndarray:
    """Per (channel, user), the fraction of the user's newest valid[n] slots of `window` (busy
    masks, (slots, channels, users)) with no neighbor on air: the one window estimator."""
    recent = np.arange(len(window))[:, None] >= len(window) - valid
    return (valid - np.logical_and(window, recent[:, None, :]).sum(axis=0, dtype=np.int64)) / valid
