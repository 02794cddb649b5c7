"""Each game has one switching rule: its nep_violation.

BR-DRM and frozen NBRF move exactly where the game's equilibrium check finds
an improving play, so a run stops where no user has one (Monderer & Shapley,
"Potential Games", GEB 1996). These tests walk whole runs step by step against
the rule, and compare the rule with the two per-loop rules it replaced, kept
here as references.
"""

import dataclasses

import numpy as np
import pytest

from spectrumshare import (
    CoolingSchedule,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    is_nep_drm,
    make_profile,
    run_br_drm,
    run_nbrf,
)
from spectrumshare import drm, fairness
from spectrumshare.drm import channel_scores, top_channels
from spectrumshare.fairness import best_fair_action
from spectrumshare.harness import build_instance_and_events
from spectrumshare.network import NEP_REL_TOL, NepReport, left_sum

from conftest import random_drm_instance, random_fairness_instance, random_fairness_profile


def _reference_drm_switch(n, profile, instance, estimates):
    """BR-DRM's former inline rule: the channel set it switched to, or None."""
    scores = channel_scores(n, profile, instance, estimates)
    br_set = top_channels(scores, instance.channels_per_user)
    if br_set != profile[n].channels:
        current_score = left_sum(scores[k] for k in profile[n].channels if k in scores)
        br_score = left_sum(scores[k] for k in br_set)
        if br_score - current_score > NEP_REL_TOL * max(br_score, current_score):
            return br_set
    return None


def _sticky_best_action(user, profile, instance):
    """Frozen NBRF's former rule: the play it made, its current one when kept."""
    best_action, best_value, current_value = best_fair_action(user, profile, instance)
    if best_action is None:
        return profile[user]
    if current_value >= best_value - NEP_REL_TOL * max(1.0, abs(best_value)):
        return profile[user]
    return best_action


def _assert_moves_by_the_rule(traj, violation, same_play):
    """Every non-event step: keepers have no violation, switchers play its deviation."""
    kept = switched = 0
    for t in range(1, len(traj)):
        before, after, instance = traj.profiles[t - 1], traj.profiles[t], traj.instances[t]
        if instance is not traj.instances[t - 1]:
            continue  # a population event extended the profile first
        active = set(traj.active_sets[t])
        for n in range(instance.num_users):
            if n not in active:
                assert after[n] is before[n], (t, n)
            elif after[n] is before[n]:
                assert violation(n, before, instance) is None, (t, n)
                kept += 1
            else:
                report = violation(n, before, instance)
                assert report is not None and same_play(after[n], report, instance), (t, n)
                switched += 1
    assert kept > 0 and switched > 0
    return kept, switched


def _drm_case(name):
    spec = {
        "kind": "geometric", "num_users": 30, "num_channels": 4,
        "channels_per_user": 1, "region_radius": 5.0, "interference_radius": 2.0,
        "graph_seed": 11,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    events_spec = []
    mechanism = UpdateMechanism.probabilistic(0.7) if name == "probabilistic" else (
        UpdateMechanism.backoff()
    )
    if name == "masked":
        spec["allowed"] = [[(n + k) % 3 != 0 for k in range(4)] for n in range(36)]
        events_spec = [{"at_iter": 30, "num_users": 36}]
    if name == "two-channels":
        spec.update(num_channels=5, channels_per_user=2)
    return build_instance_and_events(spec, events_spec), mechanism


def _drm_same_play(play, report, instance):
    return play == Strategy(report.deviation.channels, instance.caps[report.violating_user])


@pytest.mark.parametrize("name", ["backoff", "probabilistic", "masked", "two-channels"])
def test_exact_br_drm_moves_by_nep_violation(name):
    (inst, arrivals), mechanism = _drm_case(name)
    rng = np.random.default_rng(3)
    # start every user present from the start (30) on its lowest allowed channels, far from
    # equilibrium
    start = tuple(
        Strategy(inst.allowed_channels(n)[: inst.channels_per_user], inst.caps[n])
        for n in range(30)
    )
    traj = run_br_drm(
        inst, mechanism, max_iters=300, rng=rng, initial_profile=start, arrivals=arrivals
    )
    assert traj.termination == "converged"
    _assert_moves_by_the_rule(traj, drm.nep_violation, _drm_same_play)


@pytest.mark.parametrize(
    "mechanism", [UpdateMechanism.backoff(), UpdateMechanism.probabilistic(0.7)]
)
def test_frozen_nbrf_moves_by_nep_violation(mechanism):
    spec = {
        "kind": "geometric", "num_users": 30, "num_channels": 3,
        "channels_per_user": 1, "region_radius": 5.0, "interference_radius": 2.0,
        "graph_seed": 4,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, _ = build_instance_and_events(spec, [])
    start = random_fairness_profile(inst, np.random.default_rng(8))
    traj = run_nbrf(
        inst, mechanism, CoolingSchedule.fixed(2.0), max_iters=400,
        rng=np.random.default_rng(8), freeze_beta=2.0, initial_profile=start,
    )
    assert traj.termination == "converged"
    _assert_moves_by_the_rule(
        traj, fairness.nep_violation, lambda play, report, _: play == report.deviation
    )


def _masked(instance, rng):
    """The instance with a random channel mask that still admits every user."""
    m, k = instance.channels_per_user, instance.num_channels
    rows = []
    for _ in range(instance.num_users):
        row = rng.random(k) < 0.7
        row[rng.choice(k, size=m, replace=False)] = True
        rows.append(tuple(bool(b) for b in row))
    return dataclasses.replace(instance, allowed=tuple(rows))


def test_drm_rule_equals_the_former_inline_rule():
    rng = np.random.default_rng(29)
    switches = keeps = 0
    for trial in range(150):
        inst = random_drm_instance(rng, max_users=7, max_channels=5)
        if trial % 2:
            inst = _masked(inst, rng)
        profile = tuple(
            Strategy(
                tuple(sorted(int(k) for k in rng.choice(
                    inst.allowed_channels(n), size=inst.channels_per_user, replace=False
                ))),
                inst.caps[n],
            )
            for n in range(inst.num_users)
        )
        for n in range(inst.num_users):
            for estimates in (
                None,
                rng.random(inst.num_channels),
                # few distinct values: ties between the best and the current set
                rng.choice([0.0, 0.5, 1.0], size=inst.num_channels),
            ):
                want = _reference_drm_switch(n, profile, inst, estimates)
                report = drm.nep_violation(n, profile, inst, estimates)
                if want is None:
                    assert report is None
                    keeps += 1
                else:
                    assert report.deviation == Strategy(want, profile[n].attempt_prob)
                    switches += 1
    assert switches > 100 and keeps > 100


def test_fairness_rule_equals_the_former_sticky_rule():
    rng = np.random.default_rng(31)
    switches = keeps = 0
    for trial in range(300):
        inst = random_fairness_instance(rng)
        if trial % 3 == 2:
            utilities = np.array(inst.utilities)
            utilities[rng.random(utilities.shape) < 0.3] = 0.0
            inst = dataclasses.replace(inst, utilities=tuple(map(tuple, utilities)))
        profile = random_fairness_profile(inst, rng, continuous=trial % 3 == 1)
        for n in range(inst.num_users):
            want = _sticky_best_action(n, profile, inst)
            report = fairness.nep_violation(n, profile, inst)
            if want == profile[n]:
                assert report is None
                keeps += 1
            else:
                assert report.deviation == want
                switches += 1
    assert switches > 100 and keeps > 100


def test_attempt_probability_zero_on_the_worse_channel_is_a_violation():
    # User 0 sends nothing on channel 0, which user 1 shares, while channel 1
    # is free and worth twice as much. Both rates are 0, so the former
    # rate-ranked check saw no gain; the score rule sees the better channel.
    graph = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(graph, 2, 1, ((1.0, 2.0), (1.0, 1.0)), (0.5, 0.5))
    profile = make_profile([[0], [0]], [0.0, 0.5])
    report = is_nep_drm(profile, inst)
    assert report == NepReport(False, 0, Strategy((1,), 0.0), 0.0)
