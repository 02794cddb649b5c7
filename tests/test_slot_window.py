"""BR-DRM's slot window: estimator settings, the batched estimates, the cached layouts."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    EstimatorConfig,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    drm,
    estimate_success_probability,
    run_br_drm,
)
from spectrumshare.dynamics import _BestResponse, _draw_slots, _play, _SlotLayout
from spectrumshare.harness import build_instance_and_events


@pytest.mark.parametrize("bad", [2.5, 10.0, math.inf, math.nan, True, "10", None])
@pytest.mark.parametrize("name", ["window", "slots_per_update"])
def test_estimator_config_rejects_non_integer_sizes(name, bad):
    with pytest.raises(ValueError, match=name):
        EstimatorConfig(**{name: bad})


def test_estimator_config_keeps_integer_sizes():
    config = EstimatorConfig(window=np.int64(7), slots_per_update=3)
    assert (config.window, config.slots_per_update) == (7, 3)
    for name in ("window", "slots_per_update"):
        with pytest.raises(ValueError, match="at least 1"):
            EstimatorConfig(**{name: 0})


class _CheckedStep(_BestResponse):
    """BR-DRM's estimator step, checked at every updating time against a plain re-derivation.

    The reference draws each whole batch with a fresh layout on a copy of the
    run's rng, keeps the newest `window` slots, flushes the neighbors of users
    whose play changed, and estimates one user at a time. At the updating
    times in `forced`, every active user that would keep its play switches to
    its channel set shifted by one channel instead.
    """

    def __init__(self, config, forced=frozenset()):
        super().__init__(config)
        self.forced, self.t = forced, 0
        self.ref_instance, self.ref_profile = None, None
        self.checked = self.switches = self.layouts = self.new_plays = 0

    def prepare(self, t, profile, instance, rng):
        config, ref_rng, layout = self._config, copy.deepcopy(rng), self._layout
        super().prepare(t, profile, instance, rng)
        self.t, self.layouts = t, self.layouts + (self._layout is not layout)
        self.new_plays += profile is not self.ref_profile or instance is not self.ref_instance
        if instance is not self.ref_instance:
            self.ref_instance, self.ref_slots = instance, 0
            self.ref_window = np.zeros((0, instance.num_users, instance.num_channels), bool)
            self.ref_valid_from = [0] * instance.num_users
        else:
            moved = [n for n in range(instance.num_users) if profile[n] != self.ref_profile[n]]
            self.switches += len(moved)
            for n in moved if config.flush_on_neighbor_update else ():
                for r in instance.graph.adjacency[n]:
                    self.ref_valid_from[r] = self.ref_slots
        self.ref_profile = profile
        busy = _draw_slots(profile, instance, config.slots_per_update, ref_rng)[2]
        window = self.ref_window = np.concatenate((self.ref_window, busy))[-config.window :]
        self.ref_slots += config.slots_per_update
        assert ref_rng.bit_generator.state == rng.bit_generator.state
        for n in range(instance.num_users):
            valid = min(len(window), self.ref_slots - self.ref_valid_from[n])
            want = estimate_success_probability(n, window[len(window) - valid :])
            assert self._estimates[n].tolist() == want.tolist(), (t, n)
        self.checked += 1

    def decide(self, n, profile, instance, rng, prices):
        play = super().decide(n, profile, instance, rng, prices)
        if play is None and self.t in self.forced:
            self._switched.append(n)
            shifted = sorted((k + 1) % instance.num_channels for k in profile[n].channels)
            return Strategy(tuple(shifted), instance.caps[n])
        return play


def _geometric(graph_seed, users, channels, picks, events_spec=()):
    final = events_spec[-1]["num_users"] if events_spec else users
    spec = {
        "kind": "geometric", "num_users": users, "num_channels": channels,
        "channels_per_user": picks, "region_radius": 2.5, "interference_radius": 2.0,
        "graph_seed": graph_seed,
        "utilities": {"kind": "uniform", "low": 50.0, "high": 150.0},
        "caps": {"kind": "explicit", "values": [(0.7, 0.3, 0.5)[n % 3] for n in range(final)]},
    }
    return build_instance_and_events(spec, list(events_spec))


def _checked_run(inst, joins, config, mechanism, seed, max_iters, forced=frozenset()):
    step = _CheckedStep(config, forced)
    traj = _play(inst, mechanism, np.random.default_rng(seed), max_iters, None, joins, drm, step)
    assert step.checked == len(traj) - 1
    return traj, step


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 2**16),
    users=st.integers(2, 7),
    channels=st.integers(2, 4),
    window=st.integers(1, 9),
    slots=st.integers(1, 9),
    flush=st.booleans(),
    arrivals=st.integers(0, 3),
    mechanism=st.sampled_from(["backoff", "probabilistic", "sweep"]),
    forced=st.frozensets(st.integers(1, 14), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_estimates_equal_the_single_user_reference(
    graph_seed, users, channels, window, slots, flush, arrivals, mechanism, forced, seed
):
    events_spec = [{"at_iter": 8, "num_users": users + arrivals}] if arrivals else []
    picks = 1 + graph_seed % (channels - 1)
    inst, joins = _geometric(graph_seed, users, channels, picks, events_spec)
    mech = {
        "backoff": UpdateMechanism.backoff(),
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    config = EstimatorConfig(window, slots, flush_on_neighbor_update=flush)
    _checked_run(inst, joins, config, mech, seed, 14, forced)


def test_slot_layout_is_rebuilt_after_switches_and_events():
    # a layout kept across a switch or an event would draw the old plays'
    # busy masks, which the reference's fresh layouts would not match
    inst, joins = _geometric(5, 8, 3, 1, [{"at_iter": 12, "num_users": 11}])
    config = EstimatorConfig(window=6, slots_per_update=4)
    traj, step = _checked_run(
        inst, joins, config, UpdateMechanism.backoff(), 3, 24, forced=frozenset({3, 7, 16})
    )
    assert traj.instances[-1].num_users == 11
    # one layout per run of updating times with the same plays, not one per batch
    assert step.switches > 0 and step.layouts == step.new_plays >= 5


def test_oversized_batches_draw_skipped_coins_in_bounded_memory():
    graph = InterferenceGraph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(graph, 2, 1, ((1.0, 2.0), (2.0, 1.0), (1.0, 2.0)), (0.5, 0.4, 0.3))
    config = EstimatorConfig(window=10, slots_per_update=10**6)
    rng = np.random.default_rng(8)
    tracemalloc.start()
    try:
        traj = run_br_drm(inst, UpdateMechanism.sweep_sequential(), config, max_iters=2, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch's coins alone would take 24 MB
    assert peak < 4 * 2**20
    assert len(traj) == 3
    one_shot = np.random.default_rng(8)
    one_shot.random((2 * 10**6, 3))
    assert rng.bit_generator.state == one_shot.bit_generator.state


def _dense_layout(profile, instance):
    """The dense reference: member @ A over a float32 (N, N) adjacency A, then its columns."""
    n_users = instance.num_users
    adjacency = np.zeros((n_users, n_users), dtype=np.float32)
    member = np.zeros((instance.num_channels, n_users), dtype=bool)
    for n, nbrs in enumerate(instance.graph.adjacency):
        adjacency[n, list(nbrs)] = 1.0
        member[list(profile[n].channels), n] = True
    columns = np.flatnonzero(member @ adjacency)
    channels, listeners = np.divmod(columns, n_users)
    return member, columns, adjacency[:, listeners] * member[channels].T


@st.composite
def _layout_cases(draw):
    """A profile on a small instance, and the instance an event grows it into."""
    users, arrivals = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    channels = draw(st.integers(1, 4))
    picks = draw(st.integers(1, min(3, channels)))
    total = users + arrivals
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    # empty lists and sparse ones: edgeless graphs and isolated users
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    allowed = None
    if draw(st.booleans()):
        rows = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                             min_size=total, max_size=total))
        allowed = [tuple(k in row for k in range(channels)) for row in rows]

    def instance(n_users):
        graph = InterferenceGraph.from_edges(n_users, [e for e in edges if e[1] < n_users])
        return Instance(
            graph, channels, picks, ((1.0,) * channels,) * n_users, (0.5,) * n_users,
            None if allowed is None else allowed[:n_users],
        )

    small, grown = instance(users), instance(total)
    plays = []
    for n in range(users):
        options = small.allowed_channels(n)
        chans = draw(st.lists(st.sampled_from(options), min_size=picks, max_size=picks,
                              unique=True))
        plays.append(Strategy(tuple(sorted(chans)), draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))))
    profile = tuple(plays)
    cases = [(profile, small)]
    if arrivals:
        cases.append((_BestResponse.extend(profile, grown), grown))
    return cases


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases=_layout_cases(), slots=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_edge_list_layout_equals_the_dense_construction(cases, slots, seed):
    for profile, instance in cases:
        layout = _SlotLayout(profile, instance)
        member, columns, spread = _dense_layout(profile, instance)
        np.testing.assert_array_equal(layout.member, member)
        np.testing.assert_array_equal(layout.columns, columns)
        assert layout.spread.dtype == spread.dtype == np.float32
        np.testing.assert_array_equal(layout.spread, spread)
        # the draw, re-derived from the dense arrays on a twin rng
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        transmitted, success, busy = _draw_slots(profile, instance, slots, rng)
        probs = [strat.attempt_prob for strat in profile]
        want_tx = ref_rng.random((slots, instance.num_users)) < np.array(probs)
        want_busy = np.zeros((slots, member.size), dtype=bool)
        want_busy[:, columns] = want_tx.astype(np.float32) @ spread > 0.5
        want_busy = want_busy.reshape(slots, *member.shape)
        want_success = member & want_tx[:, None, :] & ~want_busy
        np.testing.assert_array_equal(transmitted, want_tx)
        np.testing.assert_array_equal(busy, want_busy.transpose(0, 2, 1))
        np.testing.assert_array_equal(success, want_success.transpose(0, 2, 1))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
