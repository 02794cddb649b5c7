"""Update scheduling, learning loops, and the slot-level channel simulator.

Three activation mechanisms decide who may update at each updating time:
backoff (lowest local draw wins, so active users never neighbor each other),
probabilistic (independent coin flips, neighbors may collide), and
sweep-sequential (round robin). On top of these sit the two learning loops:
best-response play for the rate-maximization game and noisy best response
with a cooling schedule for the fairness game. A slot-level simulator
produces the busy/idle observations that the windowed clearance estimator
consumes, which is how runs work without closed-form knowledge of their
neighbors' strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .drm import br_potential, channel_scores, is_nep_drm, top_channels
from .errors import DegenerateInstanceError, EstimationError
from .fairness import (
    CoolingSchedule,
    FairnessAction,
    allocation_profile,
    best_fair_action,
    cooperative_utility,
    cumulative_table,
    draw_action,
    exact_potential,
    is_nep_fairness,
    noisy_br_distribution,
)
from .fairness import sample_noisy_br  # unused; perfbench/tracing.py patches it
from .network import (
    NEP_REL_TOL,
    Instance,
    InterferenceGraph,
    Strategy,
    StrategyProfile,
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
    "TrajectoryStep",
    "SlotOutcome",
    "select_active",
    "run_br_drm",
    "run_better_response_replay",
    "run_nbrf",
    "simulate_slot",
    "simulate_slots",
    "simulate_naive_policy",
    "estimate_success_probability",
]


@dataclass(frozen=True)
class UpdateMechanism:
    """How active users are chosen at each updating time.

    kind "backoff": every user draws uniformly on [0, backoff_bound]; a user
    is active iff its draw beats every neighbor's (ties toward the lower
    index), so the active set is independent in the interference graph.
    kind "probabilistic": each user is active independently with its entry of
    update_probs (scalar or per-user); neighbors may both be active.
    kind "sweep-sequential": exactly one user per updating time, round robin.
    """

    kind: str
    backoff_bound: float = 1.0
    update_probs: Union[float, tuple[float, ...]] = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("backoff", "probabilistic", "sweep-sequential"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "backoff" and not self.backoff_bound > 0:
            raise ValueError("backoff_bound must be positive")
        if self.kind == "probabilistic":
            probs = self.update_probs
            if isinstance(probs, (int, float)):
                probs_seq = (float(probs),)
            else:
                probs_seq = tuple(float(q) for q in probs)
                object.__setattr__(self, "update_probs", probs_seq)
            for q in probs_seq:
                # q = 1 is the everyone-updates-every-time chain
                if not 0.0 < q <= 1.0:
                    raise ValueError("update probabilities must lie in (0, 1]")

    @classmethod
    def backoff(cls, bound: float = 1.0) -> "UpdateMechanism":
        return cls("backoff", backoff_bound=bound)

    @classmethod
    def probabilistic(cls, update_probs: Union[float, Sequence[float]] = 0.5) -> "UpdateMechanism":
        return cls("probabilistic", update_probs=update_probs)

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
        if isinstance(probs, tuple) and len(probs) > 1:
            if len(probs) != n_users:
                raise ValueError("per-user update_probs length must equal num_users")
            q = np.array(probs)
        else:
            q = float(probs[0]) if isinstance(probs, tuple) else float(probs)
        draws = rng.random(n_users)
        return tuple(int(n) for n in np.flatnonzero(draws < q))
    draws = rng.random(n_users) * mechanism.backoff_bound
    active = []
    for n in range(n_users):
        mine = draws[n]
        wins = True
        for r in graph.adjacency[n]:
            theirs = draws[r]
            if theirs < mine or (theirs == mine and r < n):
                wins = False
                break
        if wins:
            active.append(n)
    return tuple(active)


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
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.slots_per_update < 1:
            raise ValueError("slots_per_update must be at least 1")


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
        if self.at_iter < 1:
            raise ValueError("at_iter must be at least 1")


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


class TrajectoryStep(NamedTuple):
    index: int
    active: tuple[int, ...]
    profile: StrategyProfile
    potential: float
    rates: tuple[float, ...]
    instance: Instance


@dataclass
class Trajectory:
    """Recorded run: one entry per updating time plus the initial state.

    Entry 0 is the initial profile with an empty active set. `potentials`
    holds the run's audit scalar (best-response potential for rate
    maximization, sum of log rates for the fairness loops). termination is
    "converged", "max-iters", or "cycle-detected"; cycle_length is set only
    for replays that revisited a profile.
    """

    active_sets: list[tuple[int, ...]]
    profiles: list[StrategyProfile]
    potentials: list[float]
    rates: list[tuple[float, ...]]
    instances: list[Instance]
    converged_at: Optional[int] = None
    termination: str = "max-iters"
    cycle_length: Optional[int] = None

    def __len__(self) -> int:
        return len(self.profiles)

    def step(self, index: int) -> TrajectoryStep:
        return TrajectoryStep(
            index,
            self.active_sets[index],
            self.profiles[index],
            self.potentials[index],
            self.rates[index],
            self.instances[index],
        )

    def steps(self) -> Iterator[TrajectoryStep]:
        for i in range(len(self.profiles)):
            yield self.step(i)


class _Recorder:
    """Accumulates trajectory columns, de-duplicating repeated snapshots."""

    def __init__(self, potential_fn: Callable[[StrategyProfile, Instance], float]):
        self._potential_fn = potential_fn
        self.active_sets: list[tuple[int, ...]] = []
        self.profiles: list[StrategyProfile] = []
        self.potentials: list[float] = []
        self.rates: list[tuple[float, ...]] = []
        self.instances: list[Instance] = []
        self._interned: dict[StrategyProfile, StrategyProfile] = {}
        self._active_interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._derived: dict[StrategyProfile, tuple[float, tuple[float, ...]]] = {}

    def reset_instance_caches(self) -> None:
        self._derived.clear()

    def canonical(self, profile: StrategyProfile) -> StrategyProfile:
        return self._interned.setdefault(profile, profile)

    def record(
        self, active: tuple[int, ...], profile: StrategyProfile, instance: Instance
    ) -> None:
        derived = self._derived.get(profile)
        if derived is None:
            potential = self._potential_fn(profile, instance)
            rates = tuple(
                total_expected_rate(n, profile, instance)
                for n in range(instance.num_users)
            )
            derived = (potential, rates)
            self._derived[profile] = derived
        self.active_sets.append(self._active_interned.setdefault(active, active))
        self.profiles.append(profile)
        self.potentials.append(derived[0])
        self.rates.append(derived[1])
        self.instances.append(instance)

    def build(
        self,
        converged_at: Optional[int],
        termination: str,
        cycle_length: Optional[int] = None,
    ) -> Trajectory:
        return Trajectory(
            self.active_sets,
            self.profiles,
            self.potentials,
            self.rates,
            self.instances,
            converged_at,
            termination,
            cycle_length,
        )


def _sorted_events(events: Sequence[PopulationEvent], start: Instance) -> list[PopulationEvent]:
    ordered = sorted(events, key=lambda e: e.at_iter)
    seen = set()
    previous = start
    for event in ordered:
        if event.at_iter in seen:
            raise ValueError(f"duplicate population event at updating time {event.at_iter}")
        seen.add(event.at_iter)
        _check_extension(previous, event.instance)
        previous = event.instance
    return ordered


def _begin_run(
    instance: Instance,
    initial_profile: StrategyProfile,
    potential_fn: Callable[[StrategyProfile, Instance], float],
    events: Sequence[PopulationEvent] = (),
) -> tuple[list[PopulationEvent], _Recorder, StrategyProfile]:
    """Order the population events, check the start, and record entry 0."""
    pending = _sorted_events(events, instance)
    validate_profile(initial_profile, instance)
    recorder = _Recorder(potential_fn)
    profile = recorder.canonical(initial_profile)
    recorder.record((), profile, instance)
    return pending, recorder, profile


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
    that those picks produce.
    """
    return _extend_profile_nbrf((), instance)


def _extend_profile_nbrf(
    profile: StrategyProfile, instance: Instance
) -> StrategyProfile:
    keep = len(profile)
    picks = [strat.channels[0] for strat in profile]
    for n in range(keep, instance.num_users):
        utils = instance.utilities[n]
        picks.append(min(range(instance.num_channels), key=lambda k: (-utils[k], k)))
    return profile + allocation_profile(picks, instance)[keep:]


def run_br_drm(
    instance: Instance,
    mechanism: UpdateMechanism,
    estimator_config: Optional[EstimatorConfig] = None,
    max_iters: int = 200,
    rng: Optional[np.random.Generator] = None,
    *,
    initial_profile: Optional[StrategyProfile] = None,
    events: Sequence[PopulationEvent] = (),
    rel_tol: float = NEP_REL_TOL,
) -> Trajectory:
    """Best-response play for the rate-maximization game.

    Active users simultaneously recompute their best channel sets against the
    pre-step profile, using exact clearance probabilities or windowed
    estimates per estimator_config. A user switches only on a strict score
    improvement (beyond rel_tol), so exact-mode runs cannot oscillate between
    tied sets. Convergence is declared after a full quiet pass (num_users
    consecutive updating times without a change), confirmed by an equilibrium
    check in exact mode; estimator mode treats the quiet pass itself as
    convergence. Scheduled population events enlarge the instance mid-run.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    rng = rng if rng is not None else np.random.default_rng(0)
    if initial_profile is None:
        initial_profile = drm_initial_profile(instance)
    pending, recorder, profile = _begin_run(
        instance, initial_profile, br_potential, events
    )

    window: Optional[np.ndarray] = None  # busy masks, (slots, users, channels)
    valid_from = [0] * instance.num_users
    slot_counter = 0
    quiet_run = 0

    for t in range(1, max_iters + 1):
        while pending and pending[0].at_iter == t:
            event = pending.pop(0)
            fresh = drm_initial_profile(event.instance)[len(profile) :]
            profile = recorder.canonical(profile + fresh)
            instance = event.instance
            recorder.reset_instance_caches()
            window = None
            valid_from = [0] * instance.num_users
            slot_counter = 0
            quiet_run = 0
        if estimator_config is not None:
            busy = _draw_slots(profile, instance, estimator_config.slots_per_update, rng)[2]
            if window is not None:
                busy = np.concatenate((window, busy))
            window = busy[-estimator_config.window :]
            slot_counter += estimator_config.slots_per_update
        active = select_active(mechanism, instance.graph, rng, step=t - 1)
        switches: dict[int, tuple[int, ...]] = {}
        for n in active:
            estimates = None
            if estimator_config is not None:
                # slots are numbered consecutively, so the user's valid ones
                # (simulated since valid_from[n]) are the newest of the window
                valid = min(len(window), slot_counter - valid_from[n])
                estimates = estimate_success_probability(n, window[len(window) - valid :])
            scores = channel_scores(n, profile, instance, estimates)
            br_set = top_channels(scores, instance.channels_per_user)
            if br_set == profile[n].channels:
                continue
            current_score = sum(scores[k] for k in profile[n].channels if k in scores)
            br_score = sum(scores[k] for k in br_set)
            if br_score - current_score > rel_tol * max(br_score, current_score):
                switches[n] = br_set
        if switches:
            for n, chans in switches.items():
                profile = replace_strategy(profile, n, Strategy(chans, instance.caps[n]))
            profile = recorder.canonical(profile)
            if estimator_config is not None and estimator_config.flush_on_neighbor_update:
                for n in switches:
                    for r in instance.graph.adjacency[n]:
                        valid_from[r] = slot_counter
            quiet_run = 0
        else:
            quiet_run += 1
        recorder.record(active, profile, instance)
        if quiet_run >= instance.num_users and not pending:
            if estimator_config is not None or is_nep_drm(profile, instance, rel_tol).is_nep:
                return recorder.build(t, "converged")
            quiet_run = 0
    return recorder.build(None, "max-iters")


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
    _, recorder, profile = _begin_run(instance, initial_profile, br_potential)
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


def _sticky_best_action(
    user: int,
    profile: StrategyProfile,
    instance: Instance,
    rel_tol: float,
) -> FairnessAction:
    current = FairnessAction(profile[user].channels[0], profile[user].attempt_prob)
    best_action, best_value = best_fair_action(user, profile, instance)
    if best_action is None:
        return current
    current_value = cooperative_utility(user, current, profile, instance)
    if current_value >= best_value - rel_tol * max(1.0, abs(best_value)):
        return current
    return best_action


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
    rel_tol: float = NEP_REL_TOL,
) -> Trajectory:
    """Noisy best response for the fairness game under a cooling schedule.

    Active users simultaneously draw fresh (channel, probability) actions
    from their softmax distributions at beta(t). Once beta(t) reaches
    freeze_beta (if given), active users stop exploring and play their best
    action outright, keeping their current one on near-ties; the run then
    terminates once a full quiet pass ends at a fairness equilibrium.
    Records the sum of log rates at every step.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    rng = rng if rng is not None else np.random.default_rng(0)
    if initial_profile is None:
        initial_profile = nbrf_initial_profile(instance)
    pending, recorder, profile = _begin_run(
        instance, initial_profile, exact_potential, events
    )

    # Conditional draw distributions depend only on beta and the neighbors'
    # strategies, so they are memoized per (user, neighbor state) while beta(t)
    # holds still.
    conditional_cache: dict[tuple, tuple[list[FairnessAction], list[float]]] = {}
    cache_beta: Optional[float] = None

    quiet_run = 0

    for t in range(1, max_iters + 1):
        while pending and pending[0].at_iter == t:
            event = pending.pop(0)
            profile = recorder.canonical(_extend_profile_nbrf(profile, event.instance))
            instance = event.instance
            recorder.reset_instance_caches()
            conditional_cache.clear()
            quiet_run = 0
        beta_t = schedule.beta(t)
        if beta_t != cache_beta:
            conditional_cache.clear()
            cache_beta = beta_t
        frozen = freeze_beta is not None and beta_t >= freeze_beta
        active = select_active(mechanism, instance.graph, rng, step=t - 1)
        replacements: dict[int, FairnessAction] = {}
        for n in active:
            # At beta = 0 the sampler is uniform over the whole grid, so a
            # user can land on attempt probability 1.0 next to a neighbor and
            # leave some third user with no finite-value action at all.  Such
            # a user cannot rank its options this step; it keeps its current
            # strategy until a neighbor moves away.  The sampler raises
            # before consuming rng draws, so the stream stays reproducible.
            if frozen:
                action = _sticky_best_action(n, profile, instance, rel_tol)
            else:
                try:
                    action = _sample_cached(
                        n, profile, instance, beta_t, rng, conditional_cache
                    )
                except DegenerateInstanceError:
                    continue
            strat = profile[n]
            if action.channel != strat.channels[0] or action.attempt_prob != strat.attempt_prob:
                replacements[n] = action
        if replacements:
            for n, action in replacements.items():
                profile = replace_strategy(
                    profile, n, Strategy((action.channel,), action.attempt_prob)
                )
            profile = recorder.canonical(profile)
            quiet_run = 0
        else:
            quiet_run += 1
        recorder.record(active, profile, instance)
        if (
            frozen
            and quiet_run >= instance.num_users
            and not pending
            and is_nep_fairness(profile, instance, rel_tol).is_nep
        ):
            return recorder.build(t, "converged")
    return recorder.build(None, "max-iters")


def _sample_cached(
    user: int,
    profile: StrategyProfile,
    instance: Instance,
    beta: float,
    rng: np.random.Generator,
    cache: dict,
) -> FairnessAction:
    """sample_noisy_br with its cumulative table memoized in `cache`.

    The key omits beta: the caller clears the cache whenever beta changes.
    """
    key = (
        user,
        tuple(
            (profile[i].channels, profile[i].attempt_prob)
            for i in instance.graph.adjacency[user]
        ),
    )
    table = cache.get(key)
    if table is None:
        dist = noisy_br_distribution(user, profile, instance, beta)
        table = cache[key] = cumulative_table(dist)
    return draw_action(table, rng)


@lru_cache(maxsize=64)
def _graph_arrays(graph: InterferenceGraph) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    mat = graph.adjacency_matrix().astype(np.float32)
    nbr_arrays = tuple(np.array(nbrs, dtype=np.intp) for nbrs in graph.adjacency)
    return mat, nbr_arrays


def _draw_slots(
    profile: StrategyProfile,
    instance: Instance,
    num_slots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmit, success and neighbor-busy masks for num_slots slots.

    Shapes are (slots, users) and (slots, users, channels). One transmit coin
    per user and slot covers all its channels; one rng.random((S, N)) call
    draws the same stream as S calls of rng.random(N). Busy counts are sums of
    at most num_users ones in float32, so they are exact.
    """
    n_users = instance.num_users
    member = np.zeros((n_users, instance.num_channels), dtype=bool)
    probs = np.empty(n_users)
    for n, strat in enumerate(profile):
        member[n, list(strat.channels)] = True
        probs[n] = strat.attempt_prob
    adj, _ = _graph_arrays(instance.graph)
    transmitted = rng.random((num_slots, n_users)) < probs
    on_air = member & transmitted[..., None]
    busy = np.matmul(adj, on_air.astype(np.float32)) > 0.5
    return transmitted, on_air & ~busy, busy


@dataclass(frozen=True, eq=False)
class SlotOutcome:
    """One slot: who transmitted, who got through, and who heard whom.

    success[n, k] is true iff user n transmitted on its selected channel k
    and no neighbor transmitted there. neighbor_busy[n, k] is true iff any
    neighbor of n transmitted on k, regardless of n's own behavior; it is the
    observable the windowed estimator averages.
    """

    transmitted: np.ndarray
    success: np.ndarray
    neighbor_busy: np.ndarray


def simulate_slot(
    profile: StrategyProfile, instance: Instance, rng: np.random.Generator
) -> SlotOutcome:
    """Simulate one slot: a single transmit coin per user covers all its channels."""
    transmitted, success, busy = _draw_slots(profile, instance, 1, rng)
    return SlotOutcome(transmitted[0], success[0], busy[0])


def simulate_slots(
    profile: StrategyProfile,
    instance: Instance,
    num_slots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized slot batch; returns per-(user, channel) success and busy counts."""
    if num_slots < 0:
        raise ValueError("num_slots must be nonnegative")
    n_users, n_channels = instance.num_users, instance.num_channels
    success_counts = np.zeros((n_users, n_channels), dtype=np.int64)
    busy_counts = np.zeros((n_users, n_channels), dtype=np.int64)
    batch = max(1, min(num_slots, 4_000_000 // max(1, n_users * n_channels)))
    for start in range(0, num_slots, batch):
        size = min(batch, num_slots - start)
        _, success, busy = _draw_slots(profile, instance, size, rng)
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
    _, nbr_arrays = _graph_arrays(instance.graph)
    n_users = instance.num_users
    successes = np.zeros(n_users, dtype=np.int64)
    batch = max(1, min(num_slots, 2_000_000 // max(1, n_users)))
    done = 0
    while done < num_slots:
        size = min(batch, num_slots - done)
        channels = rng.integers(0, instance.num_channels, size=(size, n_users))
        transmitted = rng.random((size, n_users)) < attempt_prob
        for n in range(n_users):
            nbrs = nbr_arrays[n]
            if nbrs.size:
                clash = (
                    (channels[:, nbrs] == channels[:, n : n + 1]) & transmitted[:, nbrs]
                ).any(axis=1)
            else:
                clash = np.zeros(size, dtype=bool)
            successes[n] += int((transmitted[:, n] & ~clash).sum())
        done += size
    return successes


def estimate_success_probability(user: int, busy: np.ndarray) -> np.ndarray:
    """Per-channel fraction of slots in which no neighbor of `user` transmitted.

    busy holds neighbor-busy masks shaped (slots, users, channels), as
    SlotOutcome.neighbor_busy stacks; the result has one entry per channel.
    """
    slots = len(busy)
    if slots == 0:
        raise EstimationError("cannot estimate from an empty window")
    return (slots - np.count_nonzero(busy[:, user], axis=0)) / slots
