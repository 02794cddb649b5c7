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
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import drm, fairness
from .drm import br_potential, is_nep_drm, top_channels
from .errors import DegenerateInstanceError, EstimationError
from .fairness import (
    CoolingSchedule,
    allocation_profile,
    draw_action,
    exact_potential,
    is_nep_fairness,
    noisy_br_table,
)
# unused, as are br_potential, exact_potential, is_nep_drm and is_nep_fairness;
# perfbench/tracing.py patches them
from .fairness import cooperative_utility, noisy_br_distribution, sample_noisy_br
from .network import (
    NEP_REL_TOL,
    Instance,
    InterferenceGraph,
    Strategy,
    StrategyProfile,
    channel_load,
    left_sum,
    rate_from_load,
    replace_strategy,
    total_expected_rate,
    validate_profile,
)
from .network import success_probability  # unused; perfbench/tracing.py patches it

__all__ = [
    "UpdateMechanism",
    "EstimatorConfig",
    "PopulationEvent",
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
    """Active users for one updating time, ascending. `step` drives the sweep."""
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
    won[np.where(draws[low] <= draws[high], high, low)] = False
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


@dataclass(frozen=True)
class PopulationEvent:
    """Mid-run arrival of extra users, described by the enlarged instance.

    The new instance must extend the previous one: identical channel counts,
    utilities, caps, and induced interference among the existing users, with
    the newcomers appended at the end. Takes effect at the start of updating
    time `at_iter`.
    """

    at_iter: int
    instance: Instance

    def __post_init__(self) -> None:
        at_iter = self.at_iter
        if isinstance(at_iter, bool) or not isinstance(at_iter, (int, np.integer)) or at_iter < 1:
            raise ValueError(f"at_iter must be an integer of at least 1, not {at_iter!r}")


def _check_extension(old: Instance, new: Instance) -> None:
    if new.num_users <= old.num_users:
        raise ValueError("population event must add at least one user")
    if new.num_channels != old.num_channels:
        raise ValueError("population event must keep num_channels")
    if new.channels_per_user != old.channels_per_user:
        raise ValueError("population event must keep channels_per_user")
    keep = old.num_users
    if new.utilities[:keep] != old.utilities:
        raise ValueError("population event must keep existing utilities")
    if new.caps[:keep] != old.caps:
        raise ValueError("population event must keep existing caps")
    if (old.allowed is None) != (new.allowed is None) or (
        old.allowed is not None and new.allowed[:keep] != old.allowed
    ):
        raise ValueError("population event must keep existing channel masks")
    for n in range(keep):
        old_nbrs = old.graph.adjacency[n]
        new_nbrs = tuple(r for r in new.graph.adjacency[n] if r < keep)
        if old_nbrs != new_nbrs:
            raise ValueError("population event must keep interference among existing users")


@dataclass
class Trajectory:
    """Recorded run: one entry per updating time plus the initial state.

    Entry 0 is the initial profile with an empty active set. `potentials`
    holds the run's audit scalar (best-response potential for rate
    maximization, sum of log rates for the fairness loops); `at_nep` says
    whether each entry's profile is an equilibrium, as the game's is_nep_*
    would. termination is "converged", "max-iters", or "cycle-detected";
    cycle_length is set only for replays that revisited a profile.
    """

    active_sets: list[tuple[int, ...]]
    profiles: list[StrategyProfile]
    potentials: list[float]
    rates: list[tuple[float, ...]]
    instances: list[Instance]
    at_nep: list[bool]
    converged_at: Optional[int] = None
    termination: str = "max-iters"
    cycle_length: Optional[int] = None

    def __len__(self) -> int:
        return len(self.profiles)


class _Recorder:
    """Appends to the trajectory's columns, de-duplicating repeated snapshots.

    A user's rate, potential term and equilibrium verdict read only its own
    and its neighbors' plays, so a new profile reprices only the users it
    touched, re-summing the terms left to right (the float of the game's full
    potential). Touched users' verdicts go stale; the profile is off
    equilibrium while the last violator found is untouched, and otherwise the
    stale users are checked in index order up to the first violator. Each
    user's `prices` are kept until it is touched.
    """

    def __init__(self, game):
        self._game = game  # the drm or fairness module
        self.trajectory = Trajectory([], [], [], [], [], [])
        self._interned: dict[StrategyProfile, StrategyProfile] = {}
        self._active_interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        # keyed by id: recorded profiles stay alive in the trajectory, and
        # interned ones are equal exactly when they are the same object
        self._derived: dict[int, tuple[float, tuple[float, ...], bool]] = {}
        # the last derived profile's per-user terms, rates, prices, unchecked
        # users and violator (a revisit hits _derived)
        self._last: tuple[StrategyProfile, Optional[Instance]] = ((), None)
        self._terms: list[float] = []
        self._rates: list[float] = []
        self._prices: list[dict] = []
        self._stale: set[int] = set()
        self._violator: Optional[int] = None

    def canonical(self, profile: StrategyProfile) -> StrategyProfile:
        return self._interned.setdefault(profile, profile)

    def start(self, profile: StrategyProfile, instance: Instance) -> StrategyProfile:
        """Check the initial profile, record it as entry 0, and return it canonical."""
        validate_profile(profile, instance)
        profile = self.canonical(profile)
        self.record((), profile, instance)
        return profile

    def record(self, active: tuple[int, ...], profile: StrategyProfile, instance: Instance) -> bool:
        """Append one entry; returns its at_nep flag."""
        derived = self._derived.get(id(profile))
        if derived is None:
            derived = self._derived[id(profile)] = self._derive(profile, instance)
        traj = self.trajectory
        traj.active_sets.append(self._active_interned.setdefault(active, active))
        traj.profiles.append(profile)
        traj.potentials.append(derived[0])
        traj.rates.append(derived[1])
        traj.instances.append(instance)
        traj.at_nep.append(derived[2])
        return derived[2]

    def _derive(self, profile: StrategyProfile, instance: Instance) -> tuple[float, tuple, bool]:
        last, last_instance = self._last
        if instance is last_instance:
            moved = [n for n in range(len(profile)) if profile[n] is not last[n]]
            users = set(moved).union(*(instance.graph.adjacency[n] for n in moved))
            self._stale |= users
            if self._violator in users:
                self._violator = None
        else:
            users = range(instance.num_users)
            self._terms, self._rates = [0.0] * len(users), [0.0] * len(users)
            self._prices = [{}] * len(users)
            self._stale, self._violator = set(users), None
        self._last = (profile, instance)
        drm_term = drm.potential_term if self._game is drm else None
        for n in users:
            strat, load = profile[n], channel_load(n, profile, instance.graph)
            rate = rate_from_load(strat.attempt_prob, instance.utilities[n], strat.channels, load)
            term = drm_term(n, profile, instance, load) if drm_term else fairness._log_rate(rate)
            self._rates[n], self._terms[n], self._prices[n] = rate, term, {"load": load}
        if self._violator is None:
            check = self._game.nep_violation
            for n in sorted(self._stale):
                self._stale.discard(n)
                if check(n, profile, instance, **self.prices(n, profile, instance)) is not None:
                    self._violator = n
                    break
        return left_sum(self._terms), tuple(self._rates), self._violator is None

    def prices(self, n: int, profile: StrategyProfile, instance: Instance) -> dict:
        """User n's prices as keywords of the game's rules: its channel_load and, in the fairness
        game, its action table's values, priced on first demand. Empty (the rules price directly)
        unless `profile` on `instance` was derived last: not after an event or a memo revisit."""
        if profile is not self._last[0] or instance is not self._last[1]:
            return {}
        prices = self._prices[n]
        if "values" not in prices and self._game is fairness:
            _, prices["values"] = fairness._priced(n, profile, instance, prices["load"])
        return prices

    def build(
        self, converged_at: Optional[int], termination: str, cycle_length: Optional[int] = None
    ) -> Trajectory:
        traj = self.trajectory
        traj.converged_at, traj.termination, traj.cycle_length = (
            converged_at, termination, cycle_length
        )
        return traj


def drm_initial_profile(instance: Instance) -> StrategyProfile:
    """Each user claims its highest-utility allowed channels at its cap."""
    strategies = []
    for n in range(instance.num_users):
        utils = instance.utilities[n]
        by_utility = {k: utils[k] for k in instance.allowed_channels(n)}
        chans = top_channels(by_utility, instance.channels_per_user)
        strategies.append(Strategy(chans, instance.caps[n]))
    return tuple(strategies)


def nbrf_initial_profile(instance: Instance) -> StrategyProfile:
    """Two-phase start: channels by highest utility, then matched probabilities.

    All users pick their best-utility channel first; each then sets its
    attempt probability to 1/(count+1) from the same-channel neighbor counts
    that those picks produce. An instance the fairness game refuses (masked,
    or more than one channel per user) is a ValueError.
    """
    fairness._require_single_channel(instance)
    return _NoisyBestResponse.extend((), instance)


_SETTLE = object()
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


def _play(
    instance: Instance,
    mechanism: UpdateMechanism,
    rng: Optional[np.random.Generator],
    max_iters: int,
    initial_profile: Optional[StrategyProfile],
    events: Sequence[PopulationEvent],
    game,
    step,
) -> Trajectory:
    """The learning loop of both games: `step` holds one game's rule, `game` its module.

    Each updating time t applies the events due (step.extend grows the
    profile), calls step.prepare, and asks step.decide of every active user
    that is not settled, in ascending order, against the pre-step profile and
    the recorder's `prices`. The answer is a play, None to keep the current
    one, or _SETTLE to keep it and be skipped until a neighbor moves or users
    arrive; a step settles a user only when its decision reads no rng and no
    plays beyond the user's neighborhood. All plays of an updating time apply
    at once. Once num_users updating times pass without a play (a quiet pass)
    and no event is pending, step.confirm decides at each further quiet
    updating time, from the at_nep flag just recorded, whether the run has
    converged. All draws go through a _BlockStream, rewound when the run ends or raises.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    rng = _BlockStream(rng if rng is not None else np.random.default_rng(0))
    if initial_profile is None:
        initial_profile = step.extend((), instance)
    pending = sorted(events, key=lambda e: e.at_iter)
    grown = instance
    for i, event in enumerate(pending):
        if i and event.at_iter == pending[i - 1].at_iter:
            raise ValueError(f"duplicate population event at updating time {event.at_iter}")
        _check_extension(grown, event.instance)
        grown = event.instance
    recorder = _Recorder(game)
    profile = recorder.start(initial_profile, instance)
    prepare, decide, prices = step.prepare, step.decide, recorder.prices
    quiet_run = 0
    settled: set[int] = set()
    try:
        for t in range(1, max_iters + 1):
            while pending and pending[0].at_iter == t:
                instance = pending.pop(0).instance
                profile = recorder.canonical(step.extend(profile, instance))
                quiet_run = 0
                settled.clear()
            prepare(t, profile, instance, rng)
            active = select_active(mechanism, instance.graph, rng, step=t - 1)
            plays: dict[int, Strategy] = {}
            for n in active:
                if n in settled:
                    continue
                play = decide(n, profile, instance, rng, prices)
                if play is _SETTLE:
                    settled.add(n)
                elif play is not None:
                    plays[n] = play
            if plays:
                # one copy; the movers' neighbors leave `settled`: their verdicts read moved plays
                moved = list(profile)
                for n, play in plays.items():
                    moved[n] = play
                    if settled:
                        settled.difference_update(instance.graph.adjacency[n])
                profile = recorder.canonical(tuple(moved))
                quiet_run = 0
            else:
                quiet_run += 1
            at_nep = recorder.record(active, profile, instance)
            if quiet_run >= instance.num_users and not pending and step.confirm(at_nep):
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
    events: Sequence[PopulationEvent] = (),
) -> Trajectory:
    """Best-response play for the rate-maximization game, run by _play.

    Each active user plays drm.nep_violation's improving channel set, if any,
    at its cap: from exact clearances, or from windowed estimates per
    estimator_config, all users' verdicts in one array pass per slot batch.
    The rule is is_nep_drm's, so ties and near-ties keep the current set and
    exact-mode runs cannot oscillate between tied sets. Exact mode settles a
    user with no improving switch and converges after a quiet pass at a
    profile recorded at_nep. Estimator mode keeps such a user, since its
    estimates move with every slot batch, and takes the quiet pass itself as
    convergence.
    """
    step = _BestResponse(estimator_config)
    return _play(instance, mechanism, rng, max_iters, initial_profile, events, drm, step)


class _BestResponse:
    """BR-DRM's step; in estimator mode it also keeps the slot window and its estimates."""

    def __init__(self, estimator_config: Optional[EstimatorConfig]):
        self._config = estimator_config
        self._instance: Optional[Instance] = None  # the window's instance
        self._window = np.zeros((0, 0, 0), dtype=bool)  # busy masks, (slots, channels, users)
        self._valid_from = np.zeros(0, dtype=np.int64)
        self._slots = 0  # slots simulated on the window's instance
        # the prepared profile's layout; clearances, (users, channels); each user's switch or None
        self._layout, self._estimates, self._proposals = None, None, []
        self._switched: list[int] = []  # users that switched at the last updating time

    @staticmethod
    def extend(profile: StrategyProfile, instance: Instance) -> StrategyProfile:
        return profile + drm_initial_profile(instance)[len(profile) :]

    def prepare(self, t, profile: StrategyProfile, instance: Instance, rng) -> None:
        """Flush the last switchers' neighbors' windows, draw this time's slots, estimate."""
        switched, self._switched = self._switched, []
        config = self._config
        if config is None:
            return
        if instance is not self._instance:
            self._instance, self._slots = instance, 0
            self._window = np.zeros((0, instance.num_channels, instance.num_users), dtype=bool)
            self._valid_from = np.zeros(instance.num_users, dtype=np.int64)
            self._utilities = np.array(instance.utilities)
            self._masked = None if instance.allowed is None else ~np.array(instance.allowed)
        elif config.flush_on_neighbor_update:
            # a list, never a tuple: arr[()] = x would write every entry
            self._valid_from[[r for n in switched for r in instance.graph.adjacency[n]]] = self._slots
        layout = self._layout  # profiles are interned: a switch or an event makes a new object
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
        self._proposals = self._switches(self._estimates, layout.channels)

    def _switches(self, estimates: np.ndarray, current: np.ndarray) -> list:
        """Each user's drm.nep_violation verdict (channel set or None) on its estimates, in the
        same floats: masked scores -inf after the product (-inf * 0 is nan), left-to-right sums."""
        scores = self._utilities * estimates
        if self._masked is not None:
            scores[self._masked] = -np.inf
        rows, picks = np.arange(len(scores)), current.shape[1]
        best = scores.argmax(axis=1)[:, None] if picks == 1 else (  # argmax: the first maximum
            np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :picks], axis=1))
        best_total, current_total = np.zeros((2, len(scores)))
        for j in range(picks):  # column by column, as left_sum adds
            best_total += scores[rows, best[:, j]]
            current_total += scores[rows, current[:, j]]
        gains = best_total - current_total > NEP_REL_TOL * np.maximum(best_total, current_total)
        switch = (gains & (best != current).any(axis=1)).tolist()
        return [tuple(chans) if s else None for s, chans in zip(switch, best.tolist())]

    def decide(self, n: int, profile: StrategyProfile, instance: Instance, rng, prices):
        if self._config is not None:
            channels = self._proposals[n]
        else:
            report = drm.nep_violation(n, profile, instance, **prices(n, profile, instance))
            channels = None if report is None else report.deviation.channels
        if channels is None:
            return None if self._config is not None else _SETTLE
        self._switched.append(n)
        return Strategy(channels, instance.caps[n])

    def confirm(self, at_nep: bool) -> bool:
        return self._config is not None or at_nep


def run_better_response_replay(
    instance: Instance,
    initial_profile: StrategyProfile,
    move_sequence: Sequence[tuple[int, Sequence[int]]],
) -> Trajectory:
    """Apply a scripted sequence of strictly improving channel switches.

    Each move is (user, new channel set) and must strictly increase that
    user's expected rate against the then-current profile; a non-improving
    move raises with the offending step index. The replay stops early when a
    profile repeats, reporting the cycle length.
    """
    recorder = _Recorder(drm)
    profile = recorder.start(initial_profile, instance)
    seen = {profile: 0}
    for step_index, (user, new_channels) in enumerate(move_sequence, start=1):
        if not 0 <= user < instance.num_users:
            raise ValueError(f"move {step_index}: user index {user} out of range")
        chans = tuple(sorted(int(k) for k in new_channels))
        before = total_expected_rate(user, profile, instance)
        candidate = replace_strategy(
            profile, user, Strategy(chans, profile[user].attempt_prob)
        )
        validate_profile(candidate, instance)
        after = total_expected_rate(user, candidate, instance)
        if not after > before:
            raise ValueError(
                f"move {step_index}: switching user {user} to {chans} does not "
                f"strictly improve its rate ({before!r} -> {after!r})"
            )
        profile = recorder.canonical(candidate)
        recorder.record((user,), profile, instance)
        if profile in seen:
            return recorder.build(
                None, "cycle-detected", cycle_length=step_index - seen[profile]
            )
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
    events: Sequence[PopulationEvent] = (),
) -> Trajectory:
    """Noisy best response for the fairness game under a cooling schedule, run by _play.

    Active users draw fresh (channel, probability) actions from their
    softmax distributions at beta(t). Once beta(t) reaches freeze_beta (if
    given; it must be finite), active users stop exploring: each plays the
    deviation fairness.nep_violation reports, or settles when there is none
    (is_nep_fairness's rule), and the run converges after a quiet pass at a
    profile recorded at_nep. A masked instance (`allowed` set) is a ValueError.
    """
    fairness._require_single_channel(instance)
    if freeze_beta is not None and not math.isfinite(freeze_beta):
        raise ValueError("freeze_beta must be finite; None never freezes")
    step = _NoisyBestResponse(schedule, freeze_beta)
    return _play(instance, mechanism, rng, max_iters, initial_profile, events, fairness, step)


class _NoisyBestResponse:
    """NBRF's step: beta(t), the frozen flag, and the sampler's memo."""

    def __init__(self, schedule: CoolingSchedule, freeze_beta: Optional[float]):
        self._schedule, self._freeze_beta = schedule, freeze_beta
        # A user's noisy_br_table depends only on beta and its neighbors' plays, so while
        # beta(t) holds still the tables are kept per (user, neighbors' plays) and cleared when
        # it moves. A logarithmic beta(t) never holds still, so it builds each table afresh.
        # Events keep every entry valid: users keep their utilities, new neighbors lengthen keys.
        self._memo = schedule.kind != "logarithmic"
        self._draws: dict[tuple, tuple] = {}
        self._beta: Optional[float] = None
        self._frozen = False

    @staticmethod
    def extend(profile: StrategyProfile, instance: Instance) -> StrategyProfile:
        keep = len(profile)
        picks = [strat.channels[0] for strat in profile + drm_initial_profile(instance)[keep:]]
        return profile + allocation_profile(picks, instance)[keep:]

    def prepare(self, t, profile: StrategyProfile, instance: Instance, rng) -> None:
        beta = self._schedule.beta(t)
        if beta != self._beta:
            self._draws.clear()
            self._beta = beta
        self._frozen = self._freeze_beta is not None and beta >= self._freeze_beta

    def decide(self, n: int, profile: StrategyProfile, instance: Instance, rng, prices):
        if self._frozen:
            # reads no rng and only local plays, so a keeper settles
            report = fairness.nep_violation(n, profile, instance, **prices(n, profile, instance))
            return _SETTLE if report is None else report.deviation
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
                        n, profile, instance, self._beta, **prices(n, profile, instance))
            else:
                table = noisy_br_table(
                    n, profile, instance, self._beta, **prices(n, profile, instance))
            action = draw_action(table, rng)
        except DegenerateInstanceError:
            return None
        # grid plays are shared; by value: the initial plays and an old degree's grid are others
        return None if action is profile[n] or action == profile[n] else action

    def confirm(self, at_nep: bool) -> bool:
        return self._frozen and at_nep


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
