"""The recorder's per-switch state agrees with the full sums and scans.

A run records each new profile's potential, rates and at_nep flag in one
pass that reprices only the users a switch touched. The rate game keeps
array rows (clearance and log-interference per channel, rate, potential term
and verdict per user) and a count of violators; the fairness game re-checks
the verdicts only of users touched since their last check and keeps each
user's prices (channel_load and the action-table values) until the user is
touched. These properties drive both through random switch sequences,
revisits of earlier profiles and population events, and compare every entry
with br_potential / exact_potential, the per-user closed-form rates, the
is_nep_* scans, and the rows or prices with fresh closed forms, bit for bit.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    CoolingSchedule,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    br_potential,
    exact_potential,
    is_nep_drm,
    is_nep_fairness,
    channel_load,
    make_profile,
    replace_strategy,
    run_br_drm,
    run_nbrf,
    total_expected_rate,
)
from spectrumshare import drm, fairness
from spectrumshare.dynamics import _BestResponse, _FairRecorder, _play, _RateRecorder
from spectrumshare.harness import build_instance_and_events
from spectrumshare.network import NO_LOAD, rate_from_load

GAMES = {
    "drm": (_RateRecorder, br_potential, is_nep_drm),
    "fairness": (_FairRecorder, exact_potential, is_nep_fairness),
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(["switch", "switch", "improve", "improve", "stay", "revisit", "event"]),
        st.integers(0, 2**31 - 1),
    ),
    max_size=30,
)


def _stage_instances(rng, game, num_stages):
    """Instances of a growing population, each an extension of the previous."""
    sizes = [int(rng.integers(2, 7))]
    for _ in range(num_stages - 1):
        sizes.append(sizes[-1] + int(rng.integers(1, 4)))
    final = sizes[-1]
    edges = [(a, b) for a in range(final) for b in range(a + 1, final) if rng.random() < 0.4]
    num_channels = int(rng.integers(2, 5))
    per_user = 1 if game == "fairness" else int(rng.integers(1, num_channels + 1))
    utilities = rng.uniform(0.5, 2.0, size=(final, num_channels))
    # zero utilities and caps of 1 reach the -inf and 0 * inf branches
    utilities[rng.random(utilities.shape) < 0.1] = 0.0
    caps = rng.choice([0.3, 0.5, 0.8, 1.0], size=final)
    return [
        Instance(
            InterferenceGraph.from_edges(n, [(a, b) for a, b in edges if b < n]),
            num_channels,
            per_user,
            tuple(tuple(row) for row in utilities[:n]),
            tuple(float(c) for c in caps[:n]),
        )
        for n in sizes
    ]


def _random_play(rng, game, user, instance):
    if game == "fairness":
        r = int(rng.integers(1, instance.graph.degree(user) + 2))
        return Strategy((int(rng.integers(instance.num_channels)),), 1.0 / r)
    chans = rng.choice(instance.num_channels, size=instance.channels_per_user, replace=False)
    return Strategy(tuple(sorted(int(k) for k in chans)), instance.caps[user])


def _assert_matches_full_checks(traj, game):
    _, full_potential, full_check = GAMES[game]
    for i, (profile, instance) in enumerate(zip(traj.profiles, traj.instances)):
        potential = full_potential(profile, instance)
        assert traj.potentials[i] == potential or (
            math.isnan(potential) and math.isnan(traj.potentials[i])
        ), i
        rates = tuple(total_expected_rate(n, profile, instance) for n in range(len(profile)))
        assert traj.rates[i] == rates, i
        assert traj.at_nep[i] == full_check(profile, instance).is_nep, i


def _assert_prices_are_fresh(recorder, profile, instance):
    """The prices of the profile derived last equal fresh channel_load / _table_values; any
    other profile (an event's before it is recorded, a revisit served from the memo) gets none."""
    last, last_instance = recorder._last
    for n in range(last_instance.num_users):
        load = channel_load(n, last, last_instance.graph)
        want = {"load": load}
        want["values"] = fairness._table_values(fairness._action_table(n, last_instance), load)
        assert recorder.prices(n, last, last_instance) == want, n
        if profile is not last or instance is not last_instance:
            assert recorder.prices(n, profile, instance) == {}, n


def _bits(x):
    return float(x).hex()


def _assert_rows_are_fresh(recorder, profile, instance):
    """The rate recorder's rows are those of `profile` on `instance`, bit for bit: each
    channel's clearance and log-interference are channel_load's (NO_LOAD's where no neighbor
    plays it), each user's rate rate_from_load's, its potential term drm.potential_term's and
    its verdict drm.nep_violation's channel set; the violator count is the scan's."""
    assert recorder._last[0] is profile and recorder._last[1] is instance
    violators = 0
    for n in range(instance.num_users):
        load = channel_load(n, profile, instance.graph)
        for k in range(instance.num_channels):
            _, clearance, suffered = load.get(k, NO_LOAD)
            assert _bits(recorder._clearance[n, k]) == _bits(clearance), (n, k)
            assert _bits(recorder._suffered[n, k]) == _bits(suffered), (n, k)
        strat = profile[n]
        rate = rate_from_load(strat.attempt_prob, instance.utilities[n], strat.channels, load)
        assert _bits(recorder._rates[n]) == _bits(rate), n
        assert _bits(recorder._terms[n + 1]) == _bits(drm.potential_term(n, profile, instance)), n
        report = drm.nep_violation(n, profile, instance)
        assert recorder._switches[n] == (None if report is None else report.deviation.channels), n
        violators += report is not None
    assert recorder._violators == violators


def _assert_priced(recorder, game, profile, instance):
    """The rate game's rows are those of the profile priced last, and `switches` moves them to
    any profile asked about (a revisit served from the memo, an event's before it is
    recorded); the fairness game keeps prices as _assert_prices_are_fresh says."""
    if game == "fairness":
        _assert_prices_are_fresh(recorder, profile, instance)
        return
    _assert_rows_are_fresh(recorder, *recorder._last)
    recorder.switches(profile, instance)
    _assert_rows_are_fresh(recorder, profile, instance)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), ops=OPS, game=st.sampled_from(sorted(GAMES)))
def test_recorder_and_at_nep_match_full_checks_on_random_switches(seed, ops, game):
    rng = np.random.default_rng(seed)
    stages = _stage_instances(rng, game, num_stages=3)
    recorder_class, _, full_check = GAMES[game]
    instance = stages.pop(0)
    recorder = recorder_class()
    profile = tuple(_random_play(rng, game, n, instance) for n in range(instance.num_users))
    profile = recorder.canonical(profile)
    recorder.record((), profile, instance)
    _assert_priced(recorder, game, profile, instance)
    history = [profile]  # profiles of the current stage, for revisits
    for op, draw in ops:
        active: tuple[int, ...] = ()
        if op == "switch":
            active = tuple(sorted({draw % instance.num_users, (draw // 7) % instance.num_users}))
            for n in active:
                profile = replace_strategy(profile, n, _random_play(rng, game, n, instance))
        elif op == "improve":
            report = full_check(profile, instance)
            if not report.is_nep:
                active = (report.violating_user,)
                profile = replace_strategy(profile, active[0], report.deviation)
        elif op == "revisit":
            # an equal copy, which interning maps back to the recorded object
            old = history[draw % len(history)]
            profile = tuple(Strategy(s.channels, s.attempt_prob) for s in old)
        elif op == "event" and stages:
            instance = stages.pop(0)
            fresh = tuple(
                _random_play(rng, game, n, instance)
                for n in range(len(profile), instance.num_users)
            )
            profile = profile + fresh
            history = []
        profile = recorder.canonical(profile)
        if op == "event" and draw % 2:
            _assert_priced(recorder, game, profile, instance)  # priced before it is recorded
        recorder.record(active, profile, instance)
        _assert_priced(recorder, game, profile, instance)
        history.append(profile)
    _assert_matches_full_checks(recorder.build(None, "max-iters"), game)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    graph_seed=st.integers(0, 1000),
    game=st.sampled_from(sorted(GAMES)),
    mechanism=st.sampled_from(["backoff", "probabilistic", "sweep"]),
)
def test_runs_with_population_events_match_full_checks(seed, graph_seed, game, mechanism):
    spec = {
        "kind": "geometric", "num_users": 8, "num_channels": 3,
        "channels_per_user": 1 if game == "fairness" else 2,
        "region_radius": 3.0, "interference_radius": 2.0, "graph_seed": graph_seed,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, arrivals = build_instance_and_events(
        spec, [{"at_iter": 6, "num_users": 10}, {"at_iter": 15, "num_users": 13}]
    )
    mech = {
        "backoff": UpdateMechanism.backoff(),
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    rng = np.random.default_rng(seed)
    if game == "drm":
        traj = run_br_drm(inst, mech, max_iters=60, rng=rng, arrivals=arrivals)
    else:
        traj = run_nbrf(
            inst, mech, CoolingSchedule.logarithmic(1.0), max_iters=60, rng=rng,
            freeze_beta=2.5, arrivals=arrivals,
        )
    _assert_matches_full_checks(traj, game)


class _RowCheckedStep(_BestResponse):
    """Exact BR-DRM's step that checks the recorder's rows at every profile it decides on."""

    def __init__(self):
        super().__init__(None)
        self.seen, self.last, self.revisits = set(), None, 0

    def decide(self, n, profile, instance, rng, recorder):
        play = super().decide(n, profile, instance, rng, recorder)
        if profile is not self.last:
            _assert_rows_are_fresh(recorder, profile, instance)
            self.revisits += id(profile) in self.seen
            self.seen.add(id(profile))
            self.last = profile
        return play


@st.composite
def _exact_cases(draw):
    """Masked instances with 1-3 channels per user, zero utilities and caps of 1.0, from
    off-cap profiles that may put a user at p = 1 or p = 0 (or -0.0), with or without arrivals."""
    users, late = draw(st.integers(2, 7)), draw(st.integers(0, 3))
    total, channels = users + late, draw(st.integers(1, 5))
    picks = draw(st.integers(1, min(3, channels)))
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    level = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.1, 4.0)
    utilities = draw(st.lists(st.tuples(*[level] * channels), min_size=total, max_size=total))
    caps = draw(st.lists(st.sampled_from([0.3, 0.45, 0.5, 0.9, 1.0]), min_size=total,
                         max_size=total))
    allowed = None
    if draw(st.booleans()):
        masks = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                              min_size=total, max_size=total))
        allowed = tuple(tuple(k in row for k in range(channels)) for row in masks)
    inst = Instance(InterferenceGraph.from_edges(total, edges), channels, picks, utilities, caps,
                    allowed)
    start = make_profile(
        [draw(st.lists(st.sampled_from(inst.allowed_channels(n)), min_size=picks,
                       max_size=picks, unique=True)) for n in range(users)],
        [draw(st.sampled_from([caps[n], caps[n], 1.0, 0.0, -0.0, 0.7])) for n in range(users)],
    )
    arrivals = [0] * users + sorted(draw(st.integers(1, 10)) for _ in range(late))
    return inst, start, arrivals if late else None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=_exact_cases(),
    mechanism=st.sampled_from(["everyone", "probabilistic", "backoff", "sweep"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_rows_equal_the_closed_forms_bit_for_bit(case, mechanism, seed):
    inst, start, arrivals = case
    mech = {
        "everyone": UpdateMechanism.probabilistic(1.0),  # every user moves at once: revisits
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "backoff": UpdateMechanism.backoff(),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    step = _RowCheckedStep()
    traj = _play(inst, mech, np.random.default_rng(seed), 14, start, arrivals, drm, step)
    _assert_matches_full_checks(traj, "drm")


def test_exact_revisits_get_their_own_verdicts():
    # two neighbors on one channel both move to the other at every updating time, so the run
    # alternates between two profiles; each revisit is served from the memo, and its verdicts
    # must be its own, not those of the profile priced last
    inst = Instance(InterferenceGraph.from_edges(2, [(0, 1)]), 2, 1, ((1.0, 1.0),) * 2, (0.5,) * 2)
    step = _RowCheckedStep()
    traj = _play(inst, UpdateMechanism.probabilistic(1.0), np.random.default_rng(0), 14,
                 make_profile([[0], [0]], [0.5, 0.5]), None, drm, step)
    assert traj.termination == "max-iters" and len(set(map(id, traj.profiles))) == 2
    assert step.revisits == 12  # updating times 3..14
