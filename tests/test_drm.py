"""Best-response game for rate maximization: BR, potential, bounds."""

import itertools
import math

import numpy as np
import pytest

from spectrumshare import (
    Instance,
    InterferenceGraph,
    Strategy,
    best_response_drm,
    build_regular_graph,
    br_potential,
    br_potential_upper_bound,
    efficiency_bound,
    is_nep_drm,
    log_interference,
    make_profile,
    naive_expected_rate,
    replace_strategy,
    success_probability,
    total_expected_rate,
)
from spectrumshare.drm import channel_scores

from conftest import random_drm_instance, random_drm_profile


def two_user_instance():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    return Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (0.5, 0.5))


def test_best_response_picks_top_scoring_channels():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 3, 2, ((3.0, 2.0, 1.0), (1.0, 1.0, 1.0)), (0.5, 0.5))
    # neighbor sits on channel 0 at 0.5, halving its score: 1.5 < 2.0
    prof = make_profile([[0, 1], [0]], [0.5, 0.5])
    assert best_response_drm(0, prof, inst) == (0, 1)
    prof = make_profile([[0, 1], [0]], [0.5, 0.8])
    # score on 0 drops to 0.6, so channels 1 and 2 win
    assert best_response_drm(0, prof, inst) == (1, 2)


def test_best_response_tie_breaks_to_lowest_index():
    g = InterferenceGraph(2, ((), ()))
    inst = Instance(g, 3, 1, ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    prof = make_profile([[2], [2]], [0.5, 0.5])
    assert best_response_drm(0, prof, inst) == (0,)


def test_best_response_respects_allowed_mask():
    g = InterferenceGraph(1, ((),))
    inst = Instance(
        g, 3, 1, ((5.0, 4.0, 3.0),), (0.5,), allowed=((False, True, True),)
    )
    prof = make_profile([[1]], [0.5])
    assert best_response_drm(0, prof, inst) == (1,)


def test_best_response_from_estimates_overrides_closed_form():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # closed form prefers channel 0 (2*0.5=1.0 > 1.0*1=1.0 tie -> 0); an
    # estimate claiming channel 0 is nearly always busy flips the choice
    assert best_response_drm(0, prof, inst) == (0,)
    assert best_response_drm(0, prof, inst, success_estimates=[0.1, 1.0]) == (1,)


def test_br_potential_hand_value():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # both users on channel 0 at 0.5: multiplier log 2 each, interference
    # log 2 each, so log2*(log2 - log2/2) + log2*(log4 - log2/2)
    want = math.log(2) * (math.log(2) / 2) + math.log(2) * (1.5 * math.log(2))
    assert br_potential(prof, inst) == pytest.approx(want, rel=1e-12)


def test_br_potential_upper_bound_holds_on_random_profiles():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = random_drm_instance(rng)
        bound = br_potential_upper_bound(inst)
        for _ in range(10):
            prof = random_drm_profile(inst, rng)
            assert br_potential(prof, inst) <= bound + 1e-9


def test_strict_best_response_switch_raises_potential():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(200):
        inst = random_drm_instance(rng)
        prof = random_drm_profile(inst, rng)
        user = int(rng.integers(inst.num_users))
        br = best_response_drm(user, prof, inst)
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
