"""The recorder's per-switch state agrees with the full sums and scans.

A run records each new profile's potential, rates and at_nep flag in one
pass: it reprices only the users a switch touched and re-checks the verdicts
only of users touched since their last check. These properties drive it through
random switch sequences, revisits of earlier profiles and population events,
and compare every entry with br_potential / exact_potential, the per-user
closed-form rates and the is_nep_* scans.
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
    replace_strategy,
    run_br_drm,
    run_nbrf,
    total_expected_rate,
)
from spectrumshare import drm, fairness
from spectrumshare.dynamics import _Recorder
from spectrumshare.harness import build_instance_and_events

GAMES = {
    "drm": (drm, br_potential, is_nep_drm),
    "fairness": (fairness, exact_potential, is_nep_fairness),
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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), ops=OPS, game=st.sampled_from(sorted(GAMES)))
def test_recorder_and_at_nep_match_full_checks_on_random_switches(seed, ops, game):
    rng = np.random.default_rng(seed)
    stages = _stage_instances(rng, game, num_stages=3)
    module, _, full_check = GAMES[game]
    instance = stages.pop(0)
    recorder = _Recorder(module)
    profile = tuple(_random_play(rng, game, n, instance) for n in range(instance.num_users))
    profile = recorder.canonical(profile)
    recorder.record((), profile, instance)
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
        recorder.record(active, profile, instance)
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
    inst, events = build_instance_and_events(
        spec, [{"at_iter": 6, "num_users": 10}, {"at_iter": 15, "num_users": 13}]
    )
    mech = {
        "backoff": UpdateMechanism.backoff(),
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    rng = np.random.default_rng(seed)
    if game == "drm":
        traj = run_br_drm(inst, mech, max_iters=60, rng=rng, events=events)
    else:
        traj = run_nbrf(
            inst, mech, CoolingSchedule.logarithmic(1.0), max_iters=60, rng=rng,
            freeze_beta=2.5, events=events,
        )
    _assert_matches_full_checks(traj, game)
