"""Single-channel fairness game: utilities, potential, sampler, schedules."""

import bisect
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    CoolingSchedule,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    cooperative_utility,
    delta_lower_bound,
    exact_potential,
    gibbs_stationary,
    is_nep_fairness,
    make_profile,
    noisy_br_distribution,
    replace_strategy,
    run_nbrf,
    sample_noisy_br,
)
from spectrumshare import PopulationEvent, fairness
from spectrumshare.errors import DegenerateInstanceError
from spectrumshare.fairness import LOG_FLOAT_MAX, _action_grid, best_fair_action
from spectrumshare.harness import default_gibbs_instance

from conftest import random_fairness_instance, random_fairness_profile


def two_user_instance():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    return Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (1.0, 1.0))


def test_exact_potential_hand_value():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # rates 2*0.5*0.5 = 0.5 and 4*0.5*0.5 = 1.0
    assert exact_potential(prof, inst) == pytest.approx(math.log(0.5), rel=1e-12)


def test_exact_potential_minus_inf_on_zero_rate():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [1.0, 0.5])
    # user 1 is drowned out every slot
    assert exact_potential(prof, inst) == -math.inf


def test_cooperative_utility_tracks_own_rate_and_neighbor_damage():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    # log(2*0.5) - log(1/(1-0.5)) - log(1/(1-0.5)) * 1
    want = math.log(1.0) - math.log(2.0) - math.log(2.0)
    action = Strategy((0,), 0.5)
    assert cooperative_utility(0, action, prof, inst) == pytest.approx(
        want, abs=1e-12
    )
    # an isolated probability-1 play scores plain log utility
    solo = Strategy((1,), 1.0)
    assert cooperative_utility(0, solo, prof, inst) == pytest.approx(
        math.log(1.0), abs=1e-12
    )
    # a fairness play holds exactly one channel
    with pytest.raises(ValueError, match="exactly one channel"):
        cooperative_utility(0, Strategy((0, 1), 0.5), prof, inst)


def test_unilateral_deviation_matches_potential_change():
    rng = np.random.default_rng(21)
    for _ in range(300):
        inst = random_fairness_instance(rng)
        prof = random_fairness_profile(inst, rng, continuous=True)
        user = int(rng.integers(inst.num_users))
        new = Strategy(
            (int(rng.integers(inst.num_channels)),), float(rng.uniform(0.05, 0.95))
        )
        after = replace_strategy(prof, user, new)
        df = cooperative_utility(user, new, prof, inst) - cooperative_utility(
            user, prof[user], prof, inst
        )
        dphi = exact_potential(after, inst) - exact_potential(prof, inst)
        assert df == pytest.approx(dphi, abs=1e-9)


def test_noisy_br_distribution_uniform_at_zero_beta():
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 0.5])
    dist = noisy_br_distribution(0, prof, inst, 0.0)
    # grid: 2 channels x degrees+1 probabilities
    assert len(dist) == 4
    for p in dist.values():
        assert p == pytest.approx(0.25, rel=1e-12)


def test_noisy_br_distribution_softmax_ratio():
    inst = two_user_instance()
    prof = make_profile([[0], [1]], [0.5, 0.5])
    beta = 1.3
    dist = noisy_br_distribution(0, prof, inst, beta)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    items = list(dist.items())
    for (a1, p1), (a2, p2) in itertools.combinations(items, 2):
        f1 = cooperative_utility(0, a1, prof, inst)
        f2 = cooperative_utility(0, a2, prof, inst)
        if f2 == -math.inf:
            assert p2 == 0.0
        elif f1 == -math.inf:
            assert p1 == 0.0
        else:
            assert p1 / p2 == pytest.approx(math.exp(beta * (f1 - f2)), rel=1e-9)


def test_noisy_br_distribution_zeroes_worthless_actions():
    # the neighbor camps on channel 0 with probability 1
    inst = two_user_instance()
    prof = make_profile([[0], [0]], [0.5, 1.0])
    dist = noisy_br_distribution(0, prof, inst, 2.0)
    for action, p in dist.items():
        if action.channels == (0,):
            assert p == 0.0
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_noisy_br_distribution_raises_when_everything_is_worthless():
    g = InterferenceGraph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, 2, 1, ((1.0, 1.0),) * 3, (1.0, 1.0, 1.0))
    prof = make_profile([[0], [0], [1]], [0.5, 1.0, 1.0])
    with pytest.raises(DegenerateInstanceError):
        noisy_br_distribution(0, prof, inst, 1.0)


@pytest.mark.parametrize("beta", [math.inf, math.nan, -0.5])
def test_sampler_rejects_a_beta_that_is_not_finite_and_nonnegative(beta):
    inst = two_user_instance()
    prof = make_profile([[0], [1]], [0.5, 0.5])
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        noisy_br_distribution(0, prof, inst, beta)
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        sample_noisy_br(0, prof, inst, beta, rng)
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        fairness.noisy_br_table(0, prof, inst, beta)
    assert rng.bit_generator.state == state


def test_sample_noisy_br_empirical_frequencies():
    inst = two_user_instance()
    prof = make_profile([[0], [1]], [0.5, 0.5])
    beta = 1.0
    dist = noisy_br_distribution(0, prof, inst, beta)
    rng = np.random.default_rng(23)
    counts = {}
    draws = 20000
    for _ in range(draws):
        a = sample_noisy_br(0, prof, inst, beta, rng)
        counts[a] = counts.get(a, 0) + 1
    for action, p in dist.items():
        got = counts.get(action, 0) / draws
        assert got == pytest.approx(p, abs=0.012)


def test_is_nep_fairness_accepts_balanced_split():
    inst = two_user_instance()
    # each alone on a channel at probability 1: both at their count optimum
    prof = make_profile([[0], [1]], [1.0, 1.0])
    assert is_nep_fairness(prof, inst).is_nep
    # shared channel at 1/2 each is beaten by moving to the free channel
    prof = make_profile([[0], [0]], [0.5, 0.5])
    report = is_nep_fairness(prof, inst)
    assert not report.is_nep
    assert report.deviation == Strategy((1,), 1.0)
    # applying the deviation gains exactly the reported utility
    n = report.violating_user
    moved = replace_strategy(prof, n, report.deviation)
    assert cooperative_utility(n, moved[n], moved, inst) - cooperative_utility(
        n, prof[n], prof, inst
    ) == report.gain


def _reference_softmax(actions, values, beta):
    finite = [v for v in values if v > -math.inf]
    if not finite:
        return None
    if beta == 0.0:
        return dict.fromkeys(actions, 1.0 / len(actions))
    shift = max(finite)
    weights = [math.exp(beta * (v - shift)) if v > -math.inf else 0.0 for v in values]
    total = 0.0
    for w in weights:
        total += w
    return {a: w / total for a, w in zip(actions, weights)}


def test_grid_scans_equal_scalar_cooperative_utility():
    # Exact equality, not approx: the per-user grid scans must reproduce
    # cooperative_utility action by action, bit for bit.
    rng = np.random.default_rng(43)
    for trial in range(40):
        inst = random_fairness_instance(rng)
        prof = random_fairness_profile(inst, rng, continuous=trial % 2 == 1)
        for n in range(inst.num_users):
            grid = _action_grid(inst.num_channels, inst.graph.degree(n))
            values = [cooperative_utility(n, a, prof, inst) for a in grid]
            best = max(values)
            first = grid[values.index(best)] if best > -math.inf else None
            current = cooperative_utility(n, prof[n], prof, inst)
            assert best_fair_action(n, prof, inst) == (first, best, current)
            for beta in (0.0, 0.7, 3.0):
                want = _reference_softmax(grid, values, beta)
                if want is None:
                    with pytest.raises(DegenerateInstanceError):
                        noisy_br_distribution(n, prof, inst, beta)
                else:
                    assert noisy_br_distribution(n, prof, inst, beta) == want
        report = is_nep_fairness(prof, inst)
        if not report.is_nep and report.gain < math.inf:
            n = report.violating_user
            best_play, best_value, current = best_fair_action(n, prof, inst)
            assert report.deviation == best_play
            assert report.gain == best_value - current
            moved = replace_strategy(prof, n, report.deviation)
            assert report.gain == cooperative_utility(
                n, report.deviation, moved, inst
            ) - cooperative_utility(n, prof[n], prof, inst)


def _grid_scan(n, prof, inst):
    """best_fair_action by pricing the whole grid with cooperative_utility: the reference."""
    grid = _action_grid(inst.num_channels, inst.graph.degree(n))
    values = [cooperative_utility(n, a, prof, inst) for a in grid]
    best = max(values)
    first = grid[values.index(best)] if best > -math.inf else None
    return first, best, cooperative_utility(n, prof[n], prof, inst)


@st.composite
def fairness_cases(draw):
    """Small instances with zero and tied utilities, and plays on and off the grid.

    Attempt probabilities 1 put a neighbor at suffered = inf; a channel no
    neighbor selects has count 0 and its optimum at p = 1.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if draw(st.booleans())]
    graph = InterferenceGraph.from_edges(n, edges)
    # tiny utilities make u * p subnormal or 0, where rounding breaks concavity
    tiny = st.sampled_from([5e-324, 2e-323, 1e-320, 3e-310, 3e-308])
    level = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.01, 4.0) | tiny
    utilities = tuple(tuple(draw(level) for _ in range(k)) for _ in range(n))
    inst = Instance(graph, k, 1, utilities, (1.0,) * n)
    probs = []
    for user in range(n):
        on_grid = st.integers(1, graph.degree(user) + 1).map(lambda r: 1.0 / r)
        probs.append(draw(on_grid | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    chans = [[draw(st.integers(0, k - 1))] for _ in range(n)]
    return inst, make_profile(chans, probs)


def _star_case(utility, p):
    """User 0 on channel 0 at attempt probability p beside two neighbors there."""
    graph = InterferenceGraph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(graph, 2, 1, ((utility, 0.0), (1.0, 1.0), (1.0, 1.0)), (1.0,) * 3)
    return inst, make_profile([[0], [0], [0]], [p, 0.5, 0.5])


def _wide_star_case():
    """User 0 at p = 1/2 beside 30 leaves at p = 0.01, all on channel 0."""
    leaves = 30
    graph = InterferenceGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    utilities = ((1.5, 1e-3),) + ((1.0, 2.0),) * leaves
    inst = Instance(graph, 2, 1, utilities, (1.0,) * (leaves + 1))
    return inst, make_profile([[0]] * (leaves + 1), [0.5] + [0.01] * leaves)


@settings(max_examples=400, deadline=None)
@given(case=fairness_cases())
# a subnormal product puts the grid's best at p = 1/2, not at the optimum 1/3
@example(case=_star_case(2e-323, 0.5))
# an off-grid current play whose u * p underflows to 0
@example(case=_star_case(0.5, 5e-324))
# 31 plays per channel for the hub; fairness_cases' grids stop at 6
@example(case=_wide_star_case())
def test_best_fair_action_equals_the_full_grid_scan(case):
    inst, prof = case
    for n in range(inst.num_users):
        assert best_fair_action(n, prof, inst) == _grid_scan(n, prof, inst)


def _reference_cumulative_table(dist):
    """The supported plays of a distribution and their running sums: the former sampler table."""
    actions, cumulative, running = [], [], 0.0
    for action, prob in dist.items():
        if prob <= 0.0:
            continue
        running += prob
        actions.append(action)
        cumulative.append(running)
    return actions, cumulative


def _reference_draw(reference, u):
    """The supported-only table's draw at u: bisect, a rounding fallthrough taking the last play."""
    actions, cumulative = reference
    return actions[min(bisect.bisect_right(cumulative, u), len(actions) - 1)]


def _assert_tables_equal_the_reference(n, prof, inst, beta):
    """The sampler's table holds the reference softmax and, on its supported plays, the reference
    running sums, float for float; draw_action and sample_noisy_br draw from it."""
    grid = _action_grid(inst.num_channels, inst.graph.degree(n))
    values = [cooperative_utility(n, a, prof, inst) for a in grid]
    want = _reference_softmax(grid, values, beta)
    rng = np.random.default_rng(n)
    state = rng.bit_generator.state
    if want is None:
        # a degenerate user raises before any draw
        with pytest.raises(DegenerateInstanceError):
            sample_noisy_br(n, prof, inst, beta, rng)
        with pytest.raises(DegenerateInstanceError):
            fairness.noisy_br_table(n, prof, inst, beta)
        assert rng.bit_generator.state == state
        return 0
    reference = _reference_cumulative_table(want)
    table = fairness.noisy_br_table(n, prof, inst, beta)
    assert table[0] == grid and table[1] == list(want.values())
    assert [c for c, p in zip(table[2], table[1]) if p > 0.0] == reference[1]
    assert all(type(c) is float for c in table[2])
    oracle = np.random.default_rng(n)
    assert fairness.draw_action(table, rng) == _reference_draw(reference, oracle.random())
    assert sample_noisy_br(n, prof, inst, beta, rng) == fairness.draw_action(table, oracle)
    assert rng.bit_generator.state == oracle.bit_generator.state
    return 1


def test_sampler_tables_equal_the_reference_softmax_bitwise():
    rng = np.random.default_rng(59)
    checked = degenerate = 0
    for trial in range(60):
        inst = random_fairness_instance(rng)
        if trial % 3 == 0:
            # some zero utilities; and tiny ones, whose u * p is subnormal or underflows to 0
            scale = 1.0 if trial % 2 else 1e-323
            rows = [
                [scale * u if rng.random() < 0.7 else 0.0 for u in row] for row in inst.utilities
            ]
            inst = Instance(inst.graph, inst.num_channels, 1, rows, inst.caps)
        prof = random_fairness_profile(inst, rng, continuous=trial % 2 == 1)
        for n in range(inst.num_users):
            for beta in (0.0, 0.7, 3.0, 50.0):
                ok = _assert_tables_equal_the_reference(n, prof, inst, beta)
                checked += ok
                degenerate += 1 - ok
    assert checked > 500 and degenerate > 0
    # a user worthless on every play: its neighbors hold both channels at p = 1
    g = InterferenceGraph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, 2, 1, ((1.0, 1.0),) * 3, (1.0, 1.0, 1.0))
    prof = make_profile([[0], [0], [1]], [0.5, 1.0, 1.0])
    for beta in (0.0, 0.7, 3.0, 50.0):
        assert _assert_tables_equal_the_reference(0, prof, inst, beta) == 0


class _FixedRandom:
    """An rng stand-in whose random() returns u and counts its calls."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def random(self):
        self.calls += 1
        return self.u


def _degenerate_case():
    """User 0 is worthless on every play: its neighbors hold both channels at p = 1."""
    g = InterferenceGraph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, 2, 1, ((1.0, 1.0),) * 3, (1.0, 1.0, 1.0))
    return inst, make_profile([[0], [0], [1]], [0.5, 1.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    case=fairness_cases(),
    beta=st.sampled_from([0.0, 0.7, 3.0, 50.0]) | st.floats(0.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=_degenerate_case(), beta=1.0, seed=0)
@example(case=_degenerate_case(), beta=0.0, seed=0)
def test_draw_action_equals_the_reference_cumulative_table_draw(case, beta, seed):
    """draw_action on noisy_br_table, priced or not, plays the supported-only reference table's
    draw and takes one rng.random(), at random and at every boundary of the reference table; a
    degenerate user raises before any draw."""
    inst, prof = case
    for n in range(inst.num_users):
        load, values = fairness._priced(n, prof, inst)
        for prices in ({}, {"load": load, "values": values}):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            try:
                reference = _reference_cumulative_table(noisy_br_distribution(n, prof, inst, beta))
            except DegenerateInstanceError:
                with pytest.raises(DegenerateInstanceError):
                    fairness.noisy_br_table(n, prof, inst, beta, **prices)
                with pytest.raises(DegenerateInstanceError):
                    sample_noisy_br(n, prof, inst, beta, rng)
                assert rng.bit_generator.state == state
                continue
            table = fairness.noisy_br_table(n, prof, inst, beta, **prices)
            oracle = np.random.default_rng(seed)
            for _ in range(4):
                drawn = fairness.draw_action(table, rng)
                assert drawn == _reference_draw(reference, oracle.random())
                assert rng.bit_generator.state == oracle.bit_generator.state
            # exact boundaries, and past the last running sum (the rounding fallthrough)
            edges = [0.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
            for c in reference[1]:
                edges += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
            for u in edges:
                fixed = _FixedRandom(u)
                assert fairness.draw_action(table, fixed) == _reference_draw(reference, u)
                assert fixed.calls == 1
            assert sample_noisy_br(n, prof, inst, beta, np.random.default_rng(seed)) == (
                fairness.draw_action(table, np.random.default_rng(seed))
            )


def test_rounding_fallthrough_draws_the_last_supported_play_past_absorbed_probabilities():
    """The running sum reaches its final float at play 1 and absorbs play 3's 7.9e-31, so a u past
    it must land on play 3, the last supported play, not on the first play at the final sum."""
    inst = default_gibbs_instance()
    prof = make_profile([[0], [1]], [1.0, 0.5])
    table = fairness.noisy_br_table(0, prof, inst, 50.0)
    plays, probs, cumulative = table
    assert probs[1:] == [8.881784197001237e-16, 0.0, 7.888609052210098e-31] and probs[0] < 1.0
    assert cumulative[1] == cumulative[3]
    fixed = _FixedRandom(math.nextafter(1.0, 2.0))
    assert fairness.draw_action(table, fixed) == plays[3] == Strategy((1,), 0.5)
    assert fixed.calls == 1


def test_sampler_tables_are_rebuilt_when_a_population_event_changes_a_degree():
    # user 1 has one neighbor before the event and two after it
    small = Instance(
        InterferenceGraph.from_edges(2, [(0, 1)]), 2, 1, ((2.0, 1.0), (1.0, 3.0)), (1.0, 1.0)
    )
    grown = Instance(
        InterferenceGraph.from_edges(3, [(0, 1), (1, 2)]),
        2, 1, ((2.0, 1.0), (1.0, 3.0), (2.0, 2.0)), (1.0,) * 3,
    )
    before = make_profile([[0], [1]], [1.0, 0.5])
    after = before + make_profile([[1]], [0.5])
    for beta in (0.0, 0.7, 3.0, 50.0):
        assert _assert_tables_equal_the_reference(1, before, small, beta)
        assert _assert_tables_equal_the_reference(1, after, grown, beta)
        # the small instance's table still serves it
        assert _assert_tables_equal_the_reference(1, before, small, beta)
    assert len(fairness.noisy_br_table(1, before, small, 0.0)[0]) == 2 * 2
    assert len(fairness.noisy_br_table(1, after, grown, 0.0)[0]) == 2 * 3
    # and a run through the event draws from both
    traj = run_nbrf(
        small, UpdateMechanism.probabilistic(1.0), CoolingSchedule.fixed(0.7),
        max_iters=40, rng=np.random.default_rng(61), events=[PopulationEvent(20, grown)],
    )
    assert traj.instances[-1] is grown and len(traj.profiles[-1]) == 3


def test_gibbs_stationary_ratio_law():
    inst = two_user_instance()
    beta = 0.7
    stat = gibbs_stationary(inst, beta)
    assert sum(stat.values()) == pytest.approx(1.0, abs=1e-12)
    finite = [
        (prof, w) for prof, w in stat.items()
        if exact_potential(prof, inst) > -math.inf
    ]
    # minus-inf profiles carry no stationary mass
    for prof, w in stat.items():
        if exact_potential(prof, inst) == -math.inf:
            assert w == 0.0
    (p1, w1), (p2, w2) = finite[0], finite[-1]
    want = math.exp(
        beta * (exact_potential(p1, inst) - exact_potential(p2, inst))
    )
    assert w1 / w2 == pytest.approx(want, rel=1e-9)


def test_fairness_game_rejects_channel_masks():
    # every play grid spans all channels, so a mask would be silently ignored
    inst = two_user_instance()
    masked = Instance(inst.graph, 2, 1, inst.utilities, inst.caps, ((True, False), (True, False)))
    profile = make_profile([(0,), (0,)], [0.5, 0.5])
    for call in (
        lambda: run_nbrf(masked, UpdateMechanism.sweep_sequential(), CoolingSchedule.fixed(1.0)),
        lambda: is_nep_fairness(profile, masked),
        lambda: gibbs_stationary(masked, 1.0),
        lambda: fairness.nep_violation(0, profile, masked),
    ):
        with pytest.raises(ValueError, match="the fairness game takes no channel mask"):
            call()


def test_fairness_rule_rejects_multi_channel_instances():
    # pricing only the first of two channels would report a one-channel deviation
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 3, 2, ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    profile = make_profile([(0, 1), (1, 2)], [0.5, 0.5])
    for call in (
        lambda: best_fair_action(0, profile, inst),
        lambda: fairness.nep_violation(0, profile, inst),
    ):
        with pytest.raises(ValueError, match="the fairness game requires channels_per_user == 1"):
            call()


def test_delta_lower_bound_hand_value():
    inst = two_user_instance()
    # 2 users, max degree 1, utilities spanning [1, 4]
    want = 2 * (math.log(4.0) - math.log(1.0 / 2.0) + 1 * math.log(2.0))
    assert delta_lower_bound(inst) == pytest.approx(want, rel=1e-12)


def test_cooling_schedules():
    fixed = CoolingSchedule.fixed(2.5)
    assert fixed.beta(1) == 2.5 and fixed.beta(1000) == 2.5
    log = CoolingSchedule.logarithmic(2.0)
    assert log.beta(1) == 0.0
    assert log.beta(10) == pytest.approx(math.log(10) / 2.0, rel=1e-12)
    pw = CoolingSchedule.piecewise_constant(1.0)
    # levels hold on [t_k, t_{k+1}) with t_1 = 1, t_2 = 1 + e, t_3 = 1 + e + e^2
    assert pw.beta(1) == 1.0
    assert pw.beta(1 + math.e - 1e-9) == 1.0
    assert pw.beta(1 + math.e) == 2.0
    assert pw.beta(1 + math.e + math.e ** 2) == 3.0
    # updating times are finite and 1-based: a walk to inf never ends, and NaN passes t < 1
    for schedule in (fixed, log, pw):
        for bad in (0, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="updating times are finite and 1-based"):
                schedule.beta(bad)
    with pytest.raises(ValueError):
        CoolingSchedule.logarithmic(0.0)
    # e^delta past the largest float: the first breakpoint lies beyond every t
    for delta in (709.0, 710.0, 1000.0):
        assert CoolingSchedule.piecewise_constant(delta).beta(10) == 1.0
    assert CoolingSchedule.piecewise_constant(1000.0).beta(1e300) == 1.0


def _walked_level(delta, t):
    """The piecewise-constant level by a walk from level 1 on every call: the reference."""
    level, next_break = 0, 1.0
    while t >= next_break:
        level += 1
        next_break += math.exp(min(level * delta, LOG_FLOAT_MAX))
    return float(level)


def test_piecewise_schedule_resumes_its_walk_bit_identically():
    for delta in (1e-3, 0.3, 1.0, 2.5, 709.0, 1000.0):
        breaks, next_break = [], 1.0
        for level in range(1, 40):
            if math.isfinite(next_break):
                breaks.append(next_break)
            next_break += math.exp(min(level * delta, LOG_FLOAT_MAX))
        # at, just below and just above every breakpoint, rising, falling, rising
        near = sorted(
            t for b in breaks for t in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
            if t >= 1.0
        )
        schedule = CoolingSchedule.piecewise_constant(delta)
        for t in near + near[::-1] + near + list(range(1, 300)):
            assert schedule.beta(t) == _walked_level(delta, t), (delta, t)
        # the resumed walk is no field: equality, hash and repr are unchanged
        fresh = CoolingSchedule.piecewise_constant(delta)
        assert schedule == fresh and hash(schedule) == hash(fresh)
        assert repr(schedule) == repr(fresh) == (
            f"CoolingSchedule(kind='piecewise-constant', beta0=0.0, delta={delta!r})"
        )


def test_logarithmic_schedule_rejects_a_delta_that_makes_beta_infinite():
    for delta in (1e-320, 5e-324, LOG_FLOAT_MAX / sys.float_info.max / 2.0):
        with pytest.raises(ValueError, match="overflows"):
            CoolingSchedule.logarithmic(delta)
    # the smallest accepted deltas keep beta finite up to the largest float
    for delta in (1e-300, LOG_FLOAT_MAX / sys.float_info.max * 2.0):
        assert math.isfinite(CoolingSchedule.logarithmic(delta).beta(sys.float_info.max))
    # a piecewise-constant level is a count, so a tiny delta stays accepted
    assert CoolingSchedule.piecewise_constant(1e-320).beta(3) == 3.0


def test_piecewise_levels_track_logarithmic_when_delta_large():
    # with delta >= log 2: at each breakpoint the level leads log(t)/delta by
    # at most one unit and never lags it; between breakpoints the lag is
    # bounded by one unit as well
    for delta in (math.log(2.0), 1.0, 2.0):
        pw = CoolingSchedule.piecewise_constant(delta)
        for level in range(1, 12):
            t_level = (math.exp(level * delta) - 1.0) / (math.exp(delta) - 1.0)
            gap = level - math.log(t_level) / delta
            assert -1e-9 <= gap <= 1.0 + 1e-9
        for t in range(1, 3000):
            gap = pw.beta(t) - math.log(t) / delta
            assert abs(gap) <= 1.0 + 1e-9
