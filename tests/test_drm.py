"""Best-response game for rate maximization: BR, potential, bounds."""

import itertools
import math
import re

import numpy as np
import pytest

from spectrumshare import (
    Instance,
    InterferenceGraph,
    Strategy,
    build_regular_graph,
    br_potential,
    efficiency_bound,
    exact_potential,
    is_nep_drm,
    is_nep_fairness,
    log_interference,
    make_profile,
    naive_expected_rate,
    replace_strategy,
    success_probability,
    total_expected_rate,
)
from spectrumshare import drm
from spectrumshare.drm import channel_scores, top_channels

from conftest import random_drm_instance, random_drm_profile


def best_response(user, prof, inst, estimates=None):
    """The ranking BR-DRM plays: top_channels over channel_scores."""
    return top_channels(channel_scores(user, prof, inst, estimates), inst.channels_per_user)


def two_user_instance():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    return Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (0.5, 0.5))


def test_best_response_picks_top_scoring_channels():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 3, 2, ((3.0, 2.0, 1.0), (1.0, 1.0, 1.0)), (0.5, 0.5))
    # neighbor sits on channel 0 at 0.5, halving its score: 1.5 < 2.0
    prof = make_profile([[0, 1], [0]], [0.5, 0.5])
    assert best_response(0, prof, inst) == (0, 1)
    prof = make_profile([[0, 1], [0]], [0.5, 0.8])
    # score on 0 drops to 0.6, so channels 1 and 2 win
    assert best_response(0, prof, inst) == (1, 2)


def test_best_response_tie_breaks_to_lowest_index():
    g = InterferenceGraph(2, ((), ()))
    inst = Instance(g, 3, 1, ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    prof = make_profile([[2], [2]], [0.5, 0.5])
    assert best_response(0, prof, inst) == (0,)


def test_best_response_respects_allowed_mask():
    g = InterferenceGraph(1, ((),))
    inst = Instance(
        g, 3, 1, ((5.0, 4.0, 3.0),), (0.5,), allowed=((False, True, True),)
    )
    prof = make_profile([[1]], [0.5])
    assert best_response(0, prof, inst) == (1,)


def test_best_response_from_estimates_overrides_closed_form():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # closed form prefers channel 0 (2*0.5=1.0 > 1.0*1=1.0 tie -> 0); an
    # estimate claiming channel 0 is nearly always busy flips the choice
    assert best_response(0, prof, inst) == (0,)
    assert best_response(0, prof, inst, [0.1, 1.0]) == (1,)


def test_br_potential_hand_value():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # both users on channel 0 at 0.5: multiplier log 2 each, interference
    # log 2 each, so log2*(log2 - log2/2) + log2*(log4 - log2/2)
    want = math.log(2) * (math.log(2) / 2) + math.log(2) * (1.5 * math.log(2))
    assert br_potential(prof, inst) == pytest.approx(want, rel=1e-12)


def test_potential_term_reads_zero_times_inf_as_zero():
    # user 0 at cap 1 has an infinite multiplier, and log utility 1 minus no interference on a
    # channel no neighbor selects is 0.0: its term is 0, not nan, and the potential stays finite
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 2, 1, ((1.0, 3.0), (2.0, 2.0)), (1.0, 0.5))
    prof = make_profile([[0], [1]], [1.0, 0.5])
    assert drm.potential_term(0, prof, inst) == 0.0
    assert math.isfinite(br_potential(prof, inst))
    assert br_potential(prof, inst) == 0.0 + drm.potential_term(1, prof, inst)


def test_strict_best_response_switch_raises_potential():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(200):
        inst = random_drm_instance(rng)
        prof = random_drm_profile(inst, rng)
        user = int(rng.integers(inst.num_users))
        br = best_response(user, prof, inst)
        if br == prof[user].channels:
            continue
        before_rate = total_expected_rate(user, prof, inst)
        after = replace_strategy(prof, user, Strategy(br, inst.caps[user]))
        after_rate = total_expected_rate(user, after, inst)
        if after_rate <= before_rate * (1 + 1e-9):
            continue  # not a strict improvement
        assert br_potential(after, inst) > br_potential(prof, inst) + 1e-12
        checked += 1
    assert checked > 50


def test_is_nep_flags_an_improvable_user():
    inst = two_user_instance()
    # user 1 on channel 0 under interference earns 4*0.5*0.5 = 1.0 but
    # could earn 1*0.5 = 0.5 on channel 1... channel 0 still better; user 0
    # however earns 2*0.5*0.5 = 0.5 there and 1*0.5 = 0.5 on channel 1: tie.
    prof = make_profile([[0], [0]], [0.5, 0.5])
    report = is_nep_drm(prof, inst)
    assert report.is_nep
    assert report.deviation is None
    # raise user 1's pressure: at 0.8 user 0 nets 2*0.5*0.2 = 0.2 < 0.5
    prof = make_profile([[0], [0]], [0.5, 0.8])
    inst2 = Instance(inst.graph, 2, 1, inst.utilities, (0.5, 0.8))
    report = is_nep_drm(prof, inst2)
    assert not report.is_nep
    assert report.violating_user == 0
    assert report.deviation == Strategy((1,), 0.5)
    assert report.gain == pytest.approx(0.3, rel=1e-12)
    # applying the deviation gains exactly the reported rate
    moved = replace_strategy(prof, 0, report.deviation)
    assert total_expected_rate(0, moved, inst2) - total_expected_rate(
        0, prof, inst2
    ) == report.gain


def test_nep_check_and_potential_reject_a_masked_channel():
    # user 0 plays channel 2, which its mask forbids; the check used to skip
    # that channel and call the profile an equilibrium
    inst = Instance(
        InterferenceGraph.from_edges(2, [(0, 1)]),
        3,
        1,
        ((0.0, 0.0, 3.0), (1.0, 1.0, 1.0)),
        (0.5, 0.5),
        allowed=((True, True, False), (True, True, True)),
    )
    prof = make_profile([[2], [0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="mask forbids"):
        is_nep_drm(prof, inst)
    with pytest.raises(ValueError, match="mask forbids"):
        br_potential(prof, inst)


def test_fairness_checks_reject_a_profile_that_does_not_fit():
    # the fairness game's potential and equilibrium check validate their
    # profile as the DRM ones do; these used to answer or raise IndexError
    inst = Instance(
        InterferenceGraph.from_edges(2, [(0, 1)]), 2, 1, ((1.0, 2.0), (2.0, 1.0)), (0.5, 0.5)
    )
    misfits = {
        "profile length": make_profile([[0], [1], [0]], [0.5] * 3),
        "selects 2 channels": make_profile([[0, 1], [1]], [0.5, 0.5]),
        "out-of-range channel 5": make_profile([[5], [1]], [0.5, 0.5]),
    }
    for message, prof in misfits.items():
        with pytest.raises(ValueError, match=message):
            exact_potential(prof, inst)
        with pytest.raises(ValueError, match=message):
            is_nep_fairness(prof, inst)


def test_nep_reports_match_exhaustive_deviation_scan():
    rng = np.random.default_rng(13)
    for _ in range(60):
        inst = random_drm_instance(rng, max_users=6, max_channels=4)
        prof = random_drm_profile(inst, rng)
        report = is_nep_drm(prof, inst)
        # replicate by scanning every alternative channel set of every user
        improvable = False
        for n in range(inst.num_users):
            base = total_expected_rate(n, prof, inst)
            for combo in itertools.combinations(
                inst.allowed_channels(n), inst.channels_per_user
            ):
                trial = replace_strategy(prof, n, Strategy(combo, inst.caps[n]))
                if total_expected_rate(n, trial, inst) > base * (1 + 1e-9):
                    improvable = True
                    break
            if improvable:
                break
        assert report.is_nep == (not improvable)


def test_scores_potential_and_nep_gain_equal_their_scalar_formulas():
    # Exact equality, not approx: the per-user scans must reproduce the
    # per-channel closed forms bit for bit.
    rng = np.random.default_rng(41)
    violations = 0
    for _ in range(60):
        inst = random_drm_instance(rng)
        prof = random_drm_profile(inst, rng)
        for n in range(inst.num_users):
            assert channel_scores(n, prof, inst) == {
                k: inst.utilities[n][k] * success_probability(n, k, prof, inst.graph)
                for k in range(inst.num_channels)
            }
        want = 0.0
        for n, strat in enumerate(prof):
            inner = 0.0
            for k in strat.channels:
                inner += math.log(inst.utilities[n][k]) - 0.5 * log_interference(
                    n, k, prof, inst.graph
                )
            want += -math.log1p(-inst.caps[n]) * inner
        assert br_potential(prof, inst) == want
        report = is_nep_drm(prof, inst)
        if not report.is_nep:
            violations += 1
            n = report.violating_user
            assert report.deviation.attempt_prob == prof[n].attempt_prob
            switched = replace_strategy(prof, n, report.deviation)
            assert report.gain == total_expected_rate(
                n, switched, inst
            ) - total_expected_rate(n, prof, inst)
    assert violations > 10


def test_efficiency_bound_values():
    assert efficiency_bound(2, 1) == 2.0
    assert efficiency_bound(2, 3) == pytest.approx(32.0 / 27.0, rel=1e-14)
    assert efficiency_bound(3, 5) == pytest.approx(3888.0 / 3125.0, rel=1e-14)
    with pytest.raises(ValueError):
        efficiency_bound(3, 1)  # more channels than users per clique
    with pytest.raises(ValueError, match="num_channels must be at least 1"):
        efficiency_bound(0, 1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        efficiency_bound(1, -1)


def test_naive_expected_rate_hand_value():
    g = build_regular_graph(8, 3)
    inst = Instance(g, 2, 1, ((100.0, 100.0),) * 8, (0.5,) * 8)
    # attempt K/(D+1) = 2/4 = 0.5, clear (1 - 1/4)^3
    assert naive_expected_rate(0, inst, degree=3) == pytest.approx(
        100.0 * 0.5 * (0.75 ** 3), rel=1e-14
    )
    # degree+1 == K pins the attempt probability at 1
    g = build_regular_graph(4, 1)
    inst = Instance(g, 2, 1, ((100.0, 100.0),) * 4, (1.0,) * 4)
    assert naive_expected_rate(0, inst, degree=1) == pytest.approx(
        100.0 * 1.0 * 0.5, rel=1e-14
    )


def _regular_pairs(utilities=(1.0, 1.0), cap=1.0, graph=None):
    """Four users, degree 1, two channels: the naive rate's setting at caps K/(D+1) = 1."""
    graph = graph or build_regular_graph(4, 1)
    return Instance(graph, 2, 1, (utilities,) * 4, (cap,) * 4)


_DRM_INPUT_FAULTS = {
    "user index 4 out of range": lambda: naive_expected_rate(4, _regular_pairs(), 1),
    "degree must be nonnegative": lambda: naive_expected_rate(0, _regular_pairs(), -1),
    "(degree+1)=3 must be a multiple of num_channels=2": lambda: naive_expected_rate(
        0, _regular_pairs(), 2
    ),
    "instance graph is not degree-regular": lambda: naive_expected_rate(
        0, _regular_pairs(graph=InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])), 1
    ),
    "instance utilities are not all equal": lambda: naive_expected_rate(
        0, _regular_pairs(utilities=(1.0, 2.0)), 1
    ),
    "instance caps must all equal num_channels/(degree+1)": lambda: naive_expected_rate(
        0, _regular_pairs(cap=0.5), 1
    ),
}


@pytest.mark.parametrize("message", sorted(_DRM_INPUT_FAULTS))
def test_drm_input_checks_name_the_fault(message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _DRM_INPUT_FAULTS[message]()
