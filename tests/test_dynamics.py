"""Update mechanisms, trajectories, replay, annealing, slot simulation."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrumshare import (
    CoolingSchedule,
    EstimatorConfig,
    Instance,
    InterferenceGraph,
    UpdateMechanism,
    build_regular_graph,
    drm_initial_profile,
    estimate_success_probability,
    is_nep_drm,
    is_nep_fairness,
    make_profile,
    naive_expected_rate,
    nbrf_initial_profile,
    run_better_response_replay,
    run_br_drm,
    run_nbrf,
    select_active,
    simulate_naive_policy,
    simulate_slot,
    simulate_slots,
    success_probability,
    total_expected_rate,
)
from spectrumshare import dynamics
from spectrumshare.drm import top_channels
from spectrumshare.dynamics import _draw_slots
from spectrumshare.errors import EstimationError

import golden
from conftest import random_drm_instance, random_graph

CYCLE_RATES = (1.0, 1.25)


def cycle_instance():
    """Two adjacent users, four channels, two picks each, dyadic values."""
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    return Instance(
        g, 4, 2,
        ((1.0, 2.0, 1.0, 2.0), (2.0, 1.0, 2.0, 1.0)),
        (0.5, 0.5),
    )


def test_mechanism_validation():
    with pytest.raises(ValueError):
        UpdateMechanism("nonsense")
    with pytest.raises(ValueError):
        UpdateMechanism.backoff(0.0)
    with pytest.raises(ValueError):
        UpdateMechanism.probabilistic(0.0)
    # q = 1 is allowed: the everyone-every-step chain
    UpdateMechanism.probabilistic(1.0)


def test_probabilistic_mechanism_rejects_empty_update_probs():
    # at construction, not at the first select_active
    with pytest.raises(ValueError, match="update_probs must list at least one probability"):
        UpdateMechanism.probabilistic([])


def test_backoff_active_set_is_independent():
    rng = np.random.default_rng(41)
    mech = UpdateMechanism.backoff()
    for _ in range(50):
        graph = random_graph(rng, int(rng.integers(2, 12)))
        active = select_active(mech, graph, rng)
        assert active  # the global winner is always active
        for n in active:
            assert not any(r in active for r in graph.adjacency[n])


def test_backoff_activates_every_local_minimum():
    # a path 0-1-2 where draws are forced by seed inspection: instead of
    # pinning draws, check the definition directly against a re-draw
    rng = np.random.default_rng(42)
    graph = InterferenceGraph.from_edges(3, [(0, 1), (1, 2)])
    mech = UpdateMechanism.backoff()
    seen_both_ends = False
    for _ in range(200):
        active = select_active(mech, graph, rng)
        if active == (0, 2):
            seen_both_ends = True
    assert seen_both_ends  # non-adjacent users do fire together


def _scalar_backoff_winners(graph, draws):
    """The backoff rule user by user: beat every neighbor, ties to the lower index."""
    active = []
    for n in range(graph.num_users):
        if all(
            not (draws[r] < draws[n] or (draws[r] == draws[n] and r < n))
            for r in graph.adjacency[n]
        ):
            active.append(n)
    return tuple(active)


class _FixedDraws:
    """Stands in for a Generator: random(n) returns the next queued array."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def random(self, size):
        draws = self.arrays.pop(0)
        assert len(draws) == size
        return draws.copy()


def test_backoff_selection_equals_the_scalar_rule():
    rng = np.random.default_rng(47)
    graphs = [InterferenceGraph(1, ((),)), InterferenceGraph(3, ((), (), ()))]
    graphs += [random_graph(rng, int(rng.integers(2, 16)), 0.25) for _ in range(60)]
    for graph in graphs:
        mech = UpdateMechanism.backoff(float(rng.choice([1.0, 0.3, 7.0])))
        n = graph.num_users
        # few distinct values, so neighbors tie often; all ties, too
        for draws in (rng.integers(0, 3, n) / 4.0, np.full(n, 0.5), rng.random(n)):
            active = select_active(mech, graph, _FixedDraws([draws]))
            assert active == _scalar_backoff_winners(graph, draws * mech.backoff_bound)
            assert all(type(u) is int for u in active)
        real, oracle = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(5):
            active = select_active(mech, graph, real)
            draws = oracle.random(n) * mech.backoff_bound
            assert active == _scalar_backoff_winners(graph, draws)
        assert real.bit_generator.state == oracle.bit_generator.state


def test_graph_arrays_are_kept_per_graph_object():
    edges = [(0, 1), (1, 2), (0, 3)]
    graph, twin = InterferenceGraph.from_edges(4, edges), InterferenceGraph.from_edges(4, edges)
    assert graph == twin
    for name in ("pairs", "edge_array"):
        arrays, twin_arrays = getattr(graph, name), getattr(twin, name)
        assert getattr(graph, name) is arrays
        assert twin_arrays is not arrays and getattr(twin, name) is twin_arrays
        assert all(np.array_equal(a, b) for a, b in zip(arrays, twin_arrays))
    assert graph.max_degree == 2 and twin.max_degree == 2
    assert graph == twin and hash(graph) == hash(twin)
    # and the instance's: one utility array and one mask per instance object
    utilities, allowed = ((1.0, 2.0),) * 4, ((True, False), (True, True)) * 2
    inst, other = (Instance(graph, 2, 1, utilities, (0.5,) * 4, allowed) for _ in range(2))
    arrays = inst.arrays
    assert inst.arrays is arrays and other.arrays is not arrays and other.arrays is other.arrays
    assert all(a is b for a, b in zip(inst.arrays, arrays))
    assert inst == other and hash(inst) == hash(other)


def test_sweep_mechanism_round_robin():
    graph = InterferenceGraph(3, ((), (), ()))
    mech = UpdateMechanism.sweep_sequential()
    rng = np.random.default_rng(0)
    order = [select_active(mech, graph, rng, step=t) for t in range(6)]
    assert order == [(0,), (1,), (2,), (0,), (1,), (2,)]


def test_probabilistic_mechanism_respects_per_user_probs():
    graph = InterferenceGraph(2, ((), ()))
    mech = UpdateMechanism.probabilistic([1.0, 0.2])
    rng = np.random.default_rng(43)
    hits = np.zeros(2)
    for _ in range(2000):
        for n in select_active(mech, graph, rng):
            hits[n] += 1
    assert hits[0] == 2000
    assert 300 < hits[1] < 500


def _numpy_probabilistic_winners(probs, n, rng):
    """Probabilistic select_active's numpy path: the reference at every size."""
    q = probs[0] if len(probs) == 1 else np.array(probs[:n])
    return tuple(np.flatnonzero(rng.random(n) < q).tolist())


def test_probabilistic_selection_equals_the_numpy_path_at_every_size():
    rng = np.random.default_rng(53)
    for n in (1, 4, 31, 32, 33, 96, 800):
        graph = InterferenceGraph(n, ((),) * n)
        per_user = tuple(float(q) for q in rng.choice([0.25, 0.5, 1.0], size=n + 3))
        for probs in ((0.5,), (1.0,), (0.3,), per_user[:n], per_user):
            mech = UpdateMechanism.probabilistic(probs)
            real, oracle = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(20):
                active = select_active(mech, graph, real)
                assert active == _numpy_probabilistic_winners(probs, n, oracle)
                assert all(type(u) is int for u in active)
            assert real.bit_generator.state == oracle.bit_generator.state
            # a draw equal to its probability is not a hit
            ties = np.array([probs[0] if len(probs) == 1 else probs[i] for i in range(n)])
            active = select_active(mech, graph, _FixedDraws([ties]))
            assert active == _numpy_probabilistic_winners(probs, n, _FixedDraws([ties]))
            assert active == ()


def test_drm_initial_profile_prefers_high_utility():
    inst = cycle_instance()
    prof = drm_initial_profile(inst)
    assert prof[0].channels == (1, 3)
    assert prof[1].channels == (0, 2)
    assert prof[0].attempt_prob == 0.5


@st.composite
def _masked_instances(draw):
    """Edgeless instances with 1-3 channels per user, tied and zero utilities, and masks."""
    users, channels = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    picks = draw(st.integers(1, min(3, channels)))
    level = st.sampled_from([0.0, 0.0, 1.0, 2.0]) | st.floats(0.0, 4.0)
    utilities = draw(st.lists(st.tuples(*[level] * channels), min_size=users, max_size=users))
    allowed = None
    if draw(st.booleans()):
        masks = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                              min_size=users, max_size=users))
        allowed = tuple(tuple(k in row for k in range(channels)) for row in masks)
    caps = draw(st.lists(st.sampled_from([0.3, 0.5, 1.0]), min_size=users, max_size=users))
    return Instance(InterferenceGraph(users, ((),) * users), channels, picks, utilities, caps,
                    allowed)


@settings(max_examples=150, deadline=None)
@given(inst=_masked_instances())
def test_drm_initial_profile_is_top_channels_over_allowed_utilities(inst):
    prof = drm_initial_profile(inst)
    for n in range(inst.num_users):
        utils = {k: inst.utilities[n][k] for k in inst.allowed_channels(n)}
        assert prof[n].channels == top_channels(utils, inst.channels_per_user), n
        assert all(type(k) is int for k in prof[n].channels)
        assert prof[n].attempt_prob == inst.caps[n]


def test_nbrf_initial_profile_count_consistent():
    g = InterferenceGraph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, 2, 1, ((2.0, 1.0),) * 3, (1.0, 1.0, 1.0))
    prof = nbrf_initial_profile(inst)
    # everyone picks channel 0; attempt probs reflect same-channel neighbors
    assert [s.channels for s in prof] == [(0,), (0,), (0,)]
    assert prof[0].attempt_prob == pytest.approx(0.5)
    assert prof[1].attempt_prob == pytest.approx(1.0 / 3.0)


def test_nbrf_initial_profile_rejects_instances_the_fairness_game_refuses():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    masked = Instance(g, 2, 1, ((2.0, 1.0),) * 2, (1.0, 1.0), ((True, False), (True, False)))
    with pytest.raises(ValueError, match="the fairness game takes no channel mask"):
        nbrf_initial_profile(masked)
    two_channels = Instance(g, 3, 2, ((2.0, 1.0, 1.0),) * 2, (1.0, 1.0))
    with pytest.raises(ValueError, match="the fairness game requires channels_per_user == 1"):
        nbrf_initial_profile(two_channels)


def test_run_br_drm_exact_reaches_equilibrium():
    rng = np.random.default_rng(44)
    for _ in range(20):
        inst = random_drm_instance(rng, max_users=8)
        traj = run_br_drm(
            inst, UpdateMechanism.sweep_sequential(), max_iters=20 * inst.num_users,
            rng=np.random.default_rng(4)
        )
        assert traj.termination == "converged"
        assert is_nep_drm(traj.profiles[-1], inst).is_nep
        # recorded potentials never decrease on the exact path
        pots = traj.potentials
        assert all(b >= a - 1e-12 for a, b in zip(pots, pots[1:]))


def test_run_br_drm_trajectory_shapes():
    inst = cycle_instance()
    traj = run_br_drm(
        inst, UpdateMechanism.sweep_sequential(), max_iters=10,
        rng=np.random.default_rng(0)
    )
    assert len(traj.profiles) == len(traj.potentials) == len(traj.rates)
    assert len(traj.active_sets) == len(traj.profiles)
    assert traj.active_sets[0] == ()  # initial snapshot precedes any update
    assert traj.rates[0] == (
        total_expected_rate(0, traj.profiles[0], inst),
        total_expected_rate(1, traj.profiles[0], inst),
    )


def test_run_br_drm_initial_profile_override():
    inst = cycle_instance()
    start = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    traj = run_br_drm(
        inst, UpdateMechanism.sweep_sequential(), max_iters=10,
        rng=np.random.default_rng(0), initial_profile=start,
    )
    assert traj.profiles[0] == start


def _pair():
    return Instance(
        InterferenceGraph.from_edges(2, [(0, 1)]), 2, 1, ((2.0, 1.0), (1.0, 3.0)), (0.5, 0.5)
    )


def grown_instance():
    """_pair with a third user, a neighbor of user 1."""
    g = InterferenceGraph.from_edges(3, [(0, 1), (1, 2)])
    return Instance(g, 2, 1, ((2.0, 1.0), (1.0, 3.0), (2.0, 2.0)), (0.5,) * 3)


def _grow_pair(arrivals=None, max_iters=10):
    return run_br_drm(
        grown_instance(), UpdateMechanism.sweep_sequential(), max_iters=max_iters,
        rng=np.random.default_rng(0), arrivals=arrivals,
    )


def _replay_second_move(channels):
    """A replay on two adjacent users and three channels whose first move improves user 1 and
    whose second moves user 0 to `channels`."""
    inst = Instance(
        InterferenceGraph.from_edges(2, [(0, 1)]), 3, 1, ((1.0, 2.0, 3.0),) * 2, (0.5, 0.5)
    )
    return run_better_response_replay(
        inst, make_profile([[0], [0]], [0.5, 0.5]), [(1, [2]), (0, channels)]
    )


_DYNAMICS_INPUT_FAULTS = {
    "per-user update_probs must cover every user": lambda: select_active(
        UpdateMechanism.probabilistic([0.5, 0.5]), build_regular_graph(3, 2),
        np.random.default_rng(0),
    ),
    "arrivals must have one entry per user, not 2": lambda: _grow_pair([0, 2]),
    "arrivals[2] must be an integer, not 2.5": lambda: _grow_pair([0, 0, 2.5]),
    "arrivals must not decrease, but arrivals[2] < arrivals[1]": lambda: _grow_pair([0, 3, 2]),
    "arrivals[0] must be 0, not 1": lambda: _grow_pair([1, 1, 2]),
    "max_iters must be nonnegative": lambda: _grow_pair(max_iters=-1),
    "move 1: user index 5 out of range": lambda: run_better_response_replay(
        cycle_instance(), make_profile([[0, 1], [1, 2]], [0.5, 0.5]), [(5, (2, 3))]
    ),
    "move 2: user 0 selects out-of-range channel 7": lambda: _replay_second_move([7]),
    "move 2: channels must be sorted and distinct": lambda: _replay_second_move([1, 1]),
    "move 2: user 0 selects 0 channels, expected 1": lambda: _replay_second_move([]),
    "move 2: channel indices must be nonnegative": lambda: _replay_second_move([-1]),
    "num_slots must be nonnegative": lambda: simulate_slots(
        make_profile([[0], [1]], [0.5, 0.5]), _pair(), -1, np.random.default_rng(0)
    ),
    "attempt_prob must lie in [0, 1]": lambda: simulate_naive_policy(
        _pair(), 1.5, 10, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("message", sorted(_DYNAMICS_INPUT_FAULTS))
def test_dynamics_input_checks_name_the_fault(message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _DYNAMICS_INPUT_FAULTS[message]()


def test_replay_without_a_repeat_ends_at_max_iters():
    start = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    traj = run_better_response_replay(cycle_instance(), start, [(0, (2, 3))])
    assert (traj.termination, traj.cycle_length, len(traj)) == ("max-iters", None, 2)


def test_replay_cycle_detection_and_rates():
    inst = cycle_instance()
    start = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    moves = [(0, (2, 3)), (1, (0, 3)), (0, (0, 1)), (1, (1, 2))]
    traj = run_better_response_replay(inst, start, moves)
    assert traj.termination == "cycle-detected"
    assert traj.cycle_length == 4
    assert traj.profiles[-1] == start
    # the two users' rates swap back and forth, bit-exact
    assert traj.rates[0] == CYCLE_RATES
    assert traj.rates[1] == (1.25, 1.0)
    assert traj.rates[2] == CYCLE_RATES
    assert traj.rates[4] == CYCLE_RATES
    # the scalar the sequential dynamics would climb stays flat
    level = math.log(2.0) ** 2
    for value in traj.potentials:
        assert value == pytest.approx(level, rel=1e-12)


def test_replay_rejects_non_improving_move():
    inst = cycle_instance()
    start = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    with pytest.raises(ValueError, match="move 1"):
        run_better_response_replay(inst, start, [(0, (0, 1))])


def test_runs_reject_plays_on_masked_channels():
    # user 0 may not play channel 2, which alone it values; a run started
    # there would report `converged` with user 0 still on it
    graph = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(
        graph, 3, 1, ((0.0, 0.0, 3.0), (1.0, 1.0, 1.0)), (0.5, 0.5),
        allowed=((True, True, False), (True, True, True)),
    )
    start = make_profile([[2], [0]], [0.5, 0.5])
    forbidden = "user 0 selects channel 2, which its mask forbids"
    for config in (None, EstimatorConfig(window=5, slots_per_update=5)):
        with pytest.raises(ValueError, match=forbidden):
            run_br_drm(
                inst, UpdateMechanism.sweep_sequential(), config, max_iters=10,
                rng=np.random.default_rng(0), initial_profile=start,
            )
    with pytest.raises(ValueError, match=forbidden):
        run_better_response_replay(inst, start, [])
    # a scripted move onto the masked channel is refused the same way
    allowed_start = make_profile([[0], [0]], [0.5, 0.5])
    with pytest.raises(ValueError, match=forbidden):
        run_better_response_replay(inst, allowed_start, [(0, (2,))])
    assert run_br_drm(inst, UpdateMechanism.sweep_sequential(), max_iters=10,
                      initial_profile=allowed_start).termination == "converged"


def test_run_nbrf_freezes_into_equilibrium():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (1.0, 1.0))
    traj = run_nbrf(
        inst, UpdateMechanism.backoff(), CoolingSchedule.logarithmic(0.5),
        max_iters=400, rng=np.random.default_rng(45), freeze_beta=6.0,
    )
    assert traj.termination == "converged"
    assert is_nep_fairness(traj.profiles[-1], inst).is_nep


def _nbrf_play(schedule, memo, instance, arrivals, seed):
    """run_nbrf's loop with the sampler memo on or off; the trajectory, the step and the rng."""
    step = dynamics._NoisyBestResponse(schedule, None)
    step._memo = memo
    rng = np.random.default_rng(seed)
    traj = dynamics._play(
        instance, UpdateMechanism.probabilistic(0.5), rng, 150, None, arrivals, step
    )
    return traj, step, rng


@pytest.mark.parametrize(
    "schedule",
    # piecewise levels 1, 2, 3, 4, 5 start at t = 1, 3.7, 11.1, 31.2, 85.8: the arrival is inside 4
    [CoolingSchedule.fixed(1.7), CoolingSchedule.piecewise_constant(1.0)],
    ids=["fixed-beta", "piecewise-constant"],
)
def test_run_nbrf_memo_matches_the_unmemoized_run(schedule):
    """The memoized tables draw what tables built afresh draw, across level changes and an
    arrival: the same columns, termination and final rng state."""
    grown = Instance(
        InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        2, 1, ((2.0, 1.0), (1.0, 3.0), (2.0, 2.0), (1.0, 1.5)), (1.0,) * 4,
    )
    for seed in range(4):
        (direct, _, direct_rng), (memoized, step, memo_rng) = (
            _nbrf_play(schedule, memo, grown, [0, 0, 0, 50], seed) for memo in (False, True)
        )
        assert step._draws  # the memo served the run
        for column in ("active_sets", "profiles", "potentials", "rates", "at_nep"):
            assert getattr(memoized, column) == getattr(direct, column)
        assert [id(i) for i in memoized.instances] == [id(i) for i in direct.instances]
        assert (memoized.termination, memoized.converged_at) == (
            direct.termination, direct.converged_at
        )
        assert memo_rng.bit_generator.state == direct_rng.bit_generator.state


def test_run_nbrf_deterministic_per_seed():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (1.0, 1.0))
    runs = [
        run_nbrf(
            inst, UpdateMechanism.probabilistic(0.3), CoolingSchedule.fixed(1.0),
            max_iters=200, rng=np.random.default_rng(7),
        )
        for _ in range(2)
    ]
    assert runs[0].profiles == runs[1].profiles
    assert runs[0].active_sets == runs[1].active_sets


def test_population_event_extension_checks():
    """A population event is an arrival time: the run grows by kept prefixes of the whole
    population, and only integer times start a stage, numpy's included."""
    inst = grown_instance()
    for at in (4, np.int64(4)):
        traj = run_br_drm(
            inst, UpdateMechanism.sweep_sequential(), max_iters=20,
            rng=np.random.default_rng(0), arrivals=[0, 0, at],
        )
        assert traj.instances[0] is traj.instances[3] is inst.prefix(2)
        assert traj.instances[4] is traj.instances[-1] is inst
        # the profile grows with the instance and stays valid
        assert len(traj.profiles[3]) == 2 and len(traj.profiles[-1]) == 3
    # everyone present from the start is the run without arrivals
    assert _grow_pair([0, 0, 0]).profiles == _grow_pair().profiles
    # the loop starts a stage at the integer time t == arrival, so these never would; each
    # fault raises before the run draws
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for bad in (2.5, 3.0, math.nan, math.inf, True, "3", None):
        message = f"arrivals[2] must be an integer, not {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_br_drm(inst, UpdateMechanism.backoff(), rng=rng, arrivals=[0, 0, bad])
    assert rng.bit_generator.state == state


def test_estimator_driven_run_settles_on_equilibrium():
    rng = np.random.default_rng(46)
    inst = random_drm_instance(rng, max_users=6, max_channels=3, max_select=1)
    traj = run_br_drm(
        inst, UpdateMechanism.backoff(),
        estimator_config=EstimatorConfig(window=80, slots_per_update=80),
        max_iters=120, rng=np.random.default_rng(9),
    )
    # estimation noise keeps strict convergence claims off the table; the
    # final profile should still be an exact equilibrium here
    assert is_nep_drm(traj.profiles[-1], inst).is_nep


# The pinned runs live in golden.py; each case reruns one and compares its
# lines with tests/golden.json, which `python tests/golden.py` rewrites.
def _assert_pinned(name):
    assert golden.entry(name) == golden.stored(name)


def _pinned_group(group):
    """One parametrised test over the registered runs named `group/...`."""
    @pytest.mark.parametrize("case", golden.cases(group))
    def test(case):
        _assert_pinned(f"{group}/{case}")

    return test


test_estimator_window_shapes_reproduce_recorded_trajectories = _pinned_group("window")
test_exact_runs_reproduce_recorded_trajectories = _pinned_group("exact")
test_frozen_nbrf_runs_reproduce_recorded_trajectories = _pinned_group("frozen-nbrf")
test_piecewise_nbrf_runs_reproduce_recorded_trajectories = _pinned_group("piecewise-nbrf")
test_runs_leave_the_caller_rng_after_their_draws = _pinned_group("caller-rng")


def test_masked_estimator_run_reproduces_recorded_trajectory():
    _assert_pinned("masked-estimator")


def test_a_run_that_raises_leaves_the_caller_rng_after_its_draws():
    reference = golden._StoppingNBRF(137, raises=False)
    golden.stopped_run(np.random.default_rng(37), reference)
    rng = np.random.default_rng(37)
    golden.stopped_run(rng, golden._StoppingNBRF(137, raises=True))
    assert rng.bit_generator.state == reference.state
    _assert_pinned("stopped-run")


_SMALL_REQUESTS = st.one_of(
    st.none(), st.just(0), st.just(()), st.integers(1, 40), st.integers(1, 40).map(np.int64),
    st.tuples(st.integers(0, 6), st.integers(0, 90)),
    st.integers(dynamics._BLOCK - 2, dynamics._BLOCK),
)
_LARGE_REQUESTS = st.one_of(
    st.integers(dynamics._BLOCK + 1, 3 * dynamics._BLOCK),
    st.tuples(st.integers(2, 5), st.integers(dynamics._BLOCK // 2 + 1, dynamics._BLOCK)),
)
_REQUESTS = st.lists(
    st.one_of(
        _SMALL_REQUESTS.map(lambda r: [r]),
        _LARGE_REQUESTS.map(lambda r: [r]),
        st.tuples(_LARGE_REQUESTS, _SMALL_REQUESTS, _SMALL_REQUESTS).map(list),
    ),
    max_size=30,
).map(lambda runs: [r for run in runs for r in run])


def _state_text(bit_generator):
    return json.dumps(bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


@settings(max_examples=150, deadline=None)
@given(
    requests=_REQUESTS,
    kind=st.sampled_from([np.random.PCG64, np.random.MT19937]),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 90),
)
def test_block_stream_serves_what_direct_calls_would(requests, kind, seed, cut):
    """Values bit for bit, the generator's state after a rewind, and a deep copy taken
    anywhere (mid-block too) continuing as the original does."""
    direct = np.random.Generator(kind(seed))
    stream = dynamics._BlockStream(np.random.Generator(kind(seed)))
    cut = min(cut, len(requests))
    want = [direct.random(size) for size in requests]
    got = [stream.random(size) for size in requests[:cut]]
    twin = copy.deepcopy(stream)
    got += [stream.random(size) for size in requests[cut:]]
    for served, expected in [(got, want), ([twin.random(size) for size in requests[cut:]], want[cut:])]:
        for value, reference in zip(served, expected):
            assert type(value) is type(reference) and np.shape(value) == np.shape(reference)
            assert np.asarray(value).tobytes() == np.asarray(reference).tobytes()
    assert _state_text(stream.bit_generator) == _state_text(direct.bit_generator)
    assert _state_text(twin.bit_generator) == _state_text(direct.bit_generator)


def test_estimate_success_probability_counts_idle_slots():
    busy = np.zeros((2, 2, 2), dtype=bool)  # (slots, users, channels)
    busy[0, 0, 1] = True
    estimates = estimate_success_probability(0, busy)
    assert estimates[1] == 0.5
    assert estimates[0] == 1.0
    with pytest.raises(EstimationError):
        estimate_success_probability(0, busy[:0])
    # as the closed forms do, not numpy's negative indexing
    for user in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            estimate_success_probability(user, busy)


@pytest.mark.parametrize("shape", [(4, 2), (4, 2, 2, 1), (4,), ()])
def test_estimate_success_probability_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=rf"busy must have shape \(slots, users, channels\), "
                                         rf"not {re.escape(str(shape))}"):
        estimate_success_probability(0, np.zeros(shape, dtype=bool))


def test_estimate_success_probability_reads_nested_lists():
    busy = [[[False, True], [True, True]], [[False, False], [True, False]]]
    assert estimate_success_probability(0, busy).tolist() == [1.0, 0.5]
    assert estimate_success_probability(1, busy).tolist() == [0.0, 0.5]


def test_draw_slots_matches_slot_by_slot_stream():
    inst = cycle_instance()
    prof = make_profile([[0, 1], [1, 2]], [0.6, 0.4])
    batch_rng, slot_rng = np.random.default_rng(50), np.random.default_rng(50)
    transmitted, success, busy = _draw_slots(prof, inst, 64, batch_rng)
    outcomes = [simulate_slot(prof, inst, slot_rng) for _ in range(64)]
    np.testing.assert_array_equal(transmitted, [o[0] for o in outcomes])
    np.testing.assert_array_equal(success, [o[1] for o in outcomes])
    np.testing.assert_array_equal(busy, [o[2] for o in outcomes])
    assert batch_rng.bit_generator.state == slot_rng.bit_generator.state


def test_simulate_slot_success_requires_clear_air():
    inst = cycle_instance()
    prof = make_profile([[0, 1], [1, 2]], [0.9, 0.9])
    rng = np.random.default_rng(47)
    for _ in range(200):
        transmitted, success, busy = simulate_slot(prof, inst, rng)
        # success only on selected channels while transmitting, never under
        # a transmitting neighbor
        for n in range(2):
            for k in range(4):
                if success[n, k]:
                    assert transmitted[n]
                    assert k in prof[n].channels
                    assert not busy[n, k]
        if transmitted[0] and transmitted[1]:
            assert not success[0, 1] and not success[1, 1]


def test_simulate_slots_matches_closed_form_statistically():
    inst = cycle_instance()
    prof = make_profile([[0, 1], [1, 2]], [0.6, 0.4])
    rng = np.random.default_rng(48)
    slots = 200_000
    succ, busy = simulate_slots(prof, inst, slots, rng)
    for n in range(2):
        for k in prof[n].channels:
            want = prof[n].attempt_prob * success_probability(
                n, k, prof, inst.graph
            )
            assert succ[n, k] / slots == pytest.approx(want, rel=0.03)
    # busy counts estimate the neighbor-clear probability complement
    v = success_probability(0, 1, prof, inst.graph)
    assert 1.0 - busy[0, 1] / slots == pytest.approx(v, rel=0.03)


def test_simulate_naive_policy_matches_closed_form():
    g = build_regular_graph(8, 3)
    inst = Instance(g, 2, 1, ((100.0, 100.0),) * 8, (0.5,) * 8)
    rng = np.random.default_rng(49)
    slots = 100_000
    succ = simulate_naive_policy(inst, 0.5, slots, rng)
    want = naive_expected_rate(0, inst, degree=3) / 100.0  # success prob
    for n in range(8):
        assert succ[n] / slots == pytest.approx(want, rel=0.05)
    # an isolated user (3) never clashes: it succeeds in every slot it transmits
    graph = InterferenceGraph.from_edges(4, [(0, 1), (1, 2)])
    inst = Instance(graph, 2, 1, ((1.0, 1.0),) * 4, (0.5,) * 4)
    succ = simulate_naive_policy(inst, 0.5, 1000, np.random.default_rng(51))
    replica = np.random.default_rng(51)
    replica.integers(0, 2, size=(1000, 4))
    assert succ[3] == int((replica.random((1000, 4))[:, 3] < 0.5).sum())
    with pytest.raises(ValueError, match="num_slots"):
        simulate_naive_policy(inst, 0.5, -5, np.random.default_rng(51))
