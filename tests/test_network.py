"""Graph, strategy, and closed-form rate primitives."""

import ast
import dataclasses
import hashlib
import importlib
import math
import pkgutil
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectrumshare
from spectrumshare import drm, fairness, network
from spectrumshare import (
    Instance,
    InterferenceGraph,
    Strategy,
    build_regular_graph,
    channel_load,
    graph_from_positions,
    log_interference,
    make_profile,
    noisy_br_distribution,
    replace_strategy,
    sample_noisy_br,
    success_probability,
    total_expected_rate,
    validate_profile,
)
from spectrumshare.harness import ExperimentConfig, final_population, load_preset
from spectrumshare.network import drop_in_disc

from conftest import random_drm_instance, random_drm_profile


def edges(graph):
    """The graph's edge_array as a tuple of (lower, higher) pairs."""
    return tuple(zip(*(a.tolist() for a in graph.edge_array)))


def assert_array_form(graph):
    """pairs is adjacency flattened, by user, then neighbor; edge_array is its users < neighbors part."""
    flat = tuple((n, r) for n, nbrs in enumerate(graph.adjacency) for r in nbrs)
    assert all(a.dtype == np.intp for a in graph.pairs + graph.edge_array)
    assert tuple(zip(*(a.tolist() for a in graph.pairs))) == flat
    assert edges(graph) == tuple((n, r) for n, r in flat if n < r)


def test_graph_from_edges_symmetric_sorted():
    g = InterferenceGraph.from_edges(4, [(2, 0), (1, 2), (2, 3)])
    assert g.adjacency == ((2,), (2,), (0, 1, 3), (2,))
    assert edges(g) == ((0, 2), (1, 2), (2, 3))
    assert_array_form(g)
    assert [a.tolist() for a in g.pairs] == [[0, 1, 2, 2, 2, 3], [2, 2, 0, 1, 3, 2]]
    assert g.degree(2) == 3 and g.degree(0) == 1


def test_graph_rejects_self_edge_and_asymmetry():
    with pytest.raises(ValueError, match="self-edge on user 1"):
        InterferenceGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match=re.escape("edge (0, 3) out of range for 3 users")):
        InterferenceGraph.from_edges(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=re.escape("asymmetric edge (0, 1)")):
        InterferenceGraph(2, ((1,), ()))
    with pytest.raises(ValueError, match=re.escape("adjacency[0] must be sorted and duplicate-free")):
        InterferenceGraph(3, ((2, 1), (0,), (0,)))
    with pytest.raises(ValueError, match=re.escape("adjacency[1] must be sorted and duplicate-free")):
        InterferenceGraph(2, ((1,), (0, 0)))
    with pytest.raises(ValueError, match=re.escape("adjacency[0] contains out-of-range user 2")):
        InterferenceGraph(2, ((2,), ()))
    with pytest.raises(ValueError, match="user 1 listed as its own neighbor"):
        InterferenceGraph(2, ((), (1,)))


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy((1, 0), 0.5)  # unsorted
    with pytest.raises(ValueError):
        Strategy((0, 0), 0.5)  # duplicate
    with pytest.raises(ValueError):
        Strategy((0,), 1.5)
    s = Strategy((0, 2), 0.5)
    assert s.channels == (0, 2)


def test_strategy_hash_is_the_value_hash_and_equal_plays_are_interchangeable():
    for chans, p in [((0, 2), 0.5), ((1,), 1.0), ((3,), 1), ((), 0.0), ((0, 1, 4), 1 / 3)]:
        s, twin = Strategy(chans, p), Strategy(list(chans), p)
        assert s is not twin and s == twin
        assert hash(s) == hash(twin) == hash((s.channels, s.attempt_prob))
        assert len({s, twin}) == 1 and {s: "kept"}[twin] == "kept"
        assert hash((s, twin)) == hash((twin, s))
    assert Strategy((0,), 0.5) != Strategy((0,), 0.25)
    assert Strategy((0,), 0.5) != Strategy((1,), 0.5)


def test_instance_validation():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        Instance(g, 2, 3, ((1.0, 1.0), (1.0, 1.0)), (0.5, 0.5))
    with pytest.raises(ValueError):
        Instance(g, 2, 1, ((1.0, 1.0), (1.0, 1.0)), (0.0, 0.5))
    # cap exactly 1 is allowed
    inst = Instance(g, 2, 1, ((1.0, 1.0), (1.0, 1.0)), (1.0, 0.5))
    assert inst.caps == (1.0, 0.5)


def test_allowed_mask_validation():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        Instance(
            g, 2, 2,
            ((1.0, 1.0), (1.0, 1.0)), (0.5, 0.5),
            allowed=((True, False), (True, True)),
        )
    inst = Instance(
        g, 3, 1,
        ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5),
        allowed=((True, False, True), (True, True, True)),
    )
    assert inst.allowed_channels(0) == (0, 2)
    assert inst.allowed_channels(1) == (0, 1, 2)


def test_instance_prefix_keeps_the_first_users_and_the_graph_they_induce():
    rng = np.random.default_rng(4)
    for _ in range(20):
        plain = random_drm_instance(rng)
        k, users = plain.num_channels, plain.num_users
        mask = tuple(
            tuple((rng.permutation(k) < rng.integers(plain.channels_per_user, k + 1)).tolist())
            for _ in range(users)
        )
        for inst in (plain, dataclasses.replace(plain, allowed=mask)):
            assert inst.prefix(users) is inst
            for m in range(1, users):
                cut = inst.prefix(m)
                assert (cut.num_users, cut.num_channels) == (m, k)
                assert cut.channels_per_user == inst.channels_per_user
                assert cut.utilities == inst.utilities[:m]
                assert cut.caps == inst.caps[:m]
                assert cut.allowed == (None if inst.allowed is None else mask[:m])
                assert cut.graph.adjacency == tuple(
                    tuple(r for r in nbrs if r < m) for nbrs in inst.graph.adjacency[:m]
                )
                for j in range(1, m + 1):
                    assert cut.prefix(j) == inst.prefix(j)
            assert inst.prefix(np.int64(users - 1)) is inst.prefix(users - 1)


@pytest.mark.parametrize("size", [0, -1, 4, 2.0, True, np.float64(3.0)])
def test_instance_prefix_names_a_size_out_of_range(size):
    # a float or bool size is no size: 2.0 would reach the slices, True would pass for 1
    inst = Instance(InterferenceGraph(3, ((),) * 3), 1, 1, ((1.0,),) * 3, (0.5,) * 3)
    message = f"prefix size {size} must lie in 1..3"
    if not isinstance(size, int) or isinstance(size, bool):
        message = f"prefix size must be an integer, not {size!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        inst.prefix(size)


def test_instance_arrays_hold_the_utilities_and_mask_and_refuse_writes():
    rng = np.random.default_rng(9)
    for _ in range(10):
        plain = random_drm_instance(rng)
        k, users = plain.num_channels, plain.num_users
        mask = tuple(
            tuple((rng.permutation(k) < rng.integers(plain.channels_per_user, k + 1)).tolist())
            for _ in range(users)
        )
        for inst in (plain, dataclasses.replace(plain, allowed=mask)):
            utilities, masked = inst.arrays
            assert utilities.dtype == float and np.array_equal(utilities, np.array(inst.utilities))
            if inst.allowed is None:
                assert masked is None
            else:
                assert np.array_equal(masked, ~np.array(mask))
            for m in range(1, users):
                cut_utilities, cut_masked = inst.prefix(m).arrays
                assert np.array_equal(cut_utilities, utilities[:m])
                assert cut_masked is None if masked is None else np.array_equal(cut_masked, masked[:m])
            if masked is not None:
                with pytest.raises(ValueError, match="read-only"):
                    utilities[masked] = -np.inf  # drm_initial_profile's old in-place write
            for array in (utilities, masked, *inst.graph.pairs, *inst.graph.edge_array):
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0


_ONE = InterferenceGraph(1, ((),))
_PAIR = make_profile([[0], [0]], [0.5, 0.5])
_NETWORK_INPUT_FAULTS = {
    "num_users must be nonnegative": lambda: InterferenceGraph(-1, ()),
    # counts that are no integers: each run would crash on them later, far from the cause
    "num_users must be an integer, not 2.0": lambda: InterferenceGraph(2.0, ((1,), (0,))),
    "num_users must be an integer, not True": lambda: InterferenceGraph(True, ((),)),
    "num_channels must be an integer, not 2.0": lambda: Instance(_ONE, 2.0, 1, ((1.0, 1.0),), (0.5,)),
    "num_channels must be an integer, not True": lambda: Instance(_ONE, True, 1, ((1.0,),), (0.5,)),
    "channels_per_user must be an integer, not 1.0": lambda: Instance(
        _ONE, 2, 1.0, ((1.0, 1.0),), (0.5,)
    ),
    "channels_per_user must be an integer, not True": lambda: Instance(
        _ONE, 2, True, ((1.0, 1.0),), (0.5,)
    ),
    "adjacency length must equal num_users": lambda: InterferenceGraph(2, ((),)),
    "channel indices must be nonnegative": lambda: Strategy((-1,), 0.5),
    "channel_sets and attempt_probs must have equal length": lambda: make_profile([[0]], [0.5, 0.5]),
    "num_channels must be at least 1": lambda: Instance(_ONE, 0, 1, ((),), (0.5,)),
    "an instance needs at least one user": lambda: Instance(
        InterferenceGraph(0, ()), 1, 1, (), ()
    ),
    "utilities must have one row per user": lambda: Instance(_ONE, 2, 1, (), (0.5,)),
    "utilities[0] must have num_channels entries": lambda: Instance(_ONE, 2, 1, ((1.0,),), (0.5,)),
    "utilities[0] must be finite and nonnegative": lambda: Instance(
        _ONE, 2, 1, ((1.0, -1.0),), (0.5,)
    ),
    "caps must have one entry per user": lambda: Instance(_ONE, 2, 1, ((1.0, 1.0),), ()),
    "allowed must have one row per user": lambda: Instance(
        _ONE, 2, 1, ((1.0, 1.0),), (0.5,), allowed=()
    ),
    "allowed[0] must have num_channels entries": lambda: Instance(
        _ONE, 2, 1, ((1.0, 1.0),), (0.5,), allowed=((True,),)
    ),
    "channel index -1 out of range": lambda: success_probability(
        0, -1, _PAIR, InterferenceGraph.from_edges(2, [(0, 1)])
    ),
    "channel index -2 out of range": lambda: log_interference(
        0, -2, _PAIR, InterferenceGraph.from_edges(2, [(0, 1)])
    ),
    "need at least one position": lambda: graph_from_positions(np.zeros((0, 2)), 1.0),
    # a third coordinate would be dropped silently, linking these two points at radius 1
    "positions must have shape (N, 2), not (2, 3)": lambda: graph_from_positions(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 100.0]]), 1.0
    ),
    "positions must have shape (N, 2), not (4,)": lambda: graph_from_positions(np.zeros(4), 1.0),
    "positions must have shape (N, 2), not (1, 3)": lambda: graph_from_positions([[0, 0, 0]], 1.0),
    "num_users must be at least 1": lambda: build_regular_graph(0, 0),
}


@pytest.mark.parametrize("message", sorted(_NETWORK_INPUT_FAULTS))
def test_network_input_checks_name_the_fault(message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _NETWORK_INPUT_FAULTS[message]()


def test_validate_profile_flags_wrong_set_size():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 3, 2, ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    good = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    validate_profile(good, inst)
    with pytest.raises(ValueError):
        validate_profile(make_profile([[0], [1, 2]], [0.5, 0.5]), inst)
    with pytest.raises(ValueError):
        validate_profile(make_profile([[0, 3], [1, 2]], [0.5, 0.5]), inst)


def test_success_probability_hand_value():
    # user 0 on channel 0; neighbor 1 there at 0.3, neighbor 2 elsewhere
    g = InterferenceGraph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, 2, 1, ((1.0, 1.0),) * 3, (0.5, 0.5, 0.5))
    prof = make_profile([[0], [0], [1]], [0.6, 0.3, 0.5])
    assert success_probability(0, 0, prof, g) == pytest.approx(0.7, rel=1e-15)
    assert success_probability(0, 1, prof, g) == pytest.approx(0.5, rel=1e-15)
    assert log_interference(0, 0, prof, g) == pytest.approx(-math.log(0.7), rel=1e-12)
    assert channel_load(0, prof, g) == {
        0: (1, 1.0 - 0.3, -math.log1p(-0.3)),
        1: (1, 1.0 - 0.5, -math.log1p(-0.5)),
    }
    assert total_expected_rate(0, prof, inst) == pytest.approx(0.42, rel=1e-15)


def test_total_rate_sums_selected_channels():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 3, 2, ((2.0, 3.0, 5.0),) * 2, (0.5, 0.5))
    prof = make_profile([[0, 2], [2]], [0.5, 0.4])
    # channel 0 clear, channel 2 contested by the neighbor at 0.4
    want = 2.0 * 0.5 * 1.0 + 5.0 * 0.5 * 0.6
    assert total_expected_rate(0, prof, inst) == pytest.approx(want, rel=1e-15)


_ESTIMATES = (0.5, 0.5)
_PER_USER_PRICERS = {
    "noisy_br_distribution": lambda n, prof, inst: noisy_br_distribution(n, prof, inst, 1.0),
    "sample_noisy_br": lambda n, prof, inst: sample_noisy_br(
        n, prof, inst, 1.0, np.random.default_rng(0)
    ),
    "best_fair_action": fairness.best_fair_action,
    "fairness.nep_violation": fairness.nep_violation,
    "drm.nep_violation": drm.nep_violation,
    "drm.nep_violation(estimates)": lambda n, prof, inst: drm.nep_violation(
        n, prof, inst, _ESTIMATES
    ),
    "drm.channel_scores": drm.channel_scores,
    "drm.channel_scores(estimates)": lambda n, prof, inst: drm.channel_scores(
        n, prof, inst, _ESTIMATES
    ),
    "total_expected_rate": total_expected_rate,
}


@pytest.mark.parametrize("user", [2, -1])
@pytest.mark.parametrize("name", sorted(_PER_USER_PRICERS))
def test_per_user_pricers_reject_a_user_index_out_of_range(name, user):
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (1.0, 1.0))
    prof = make_profile([[0], [1]], [0.5, 0.5])
    with pytest.raises(ValueError, match=f"user index {user} out of range"):
        _PER_USER_PRICERS[name](user, prof, inst)
    # no action table is built (and cached) for an index that is not a user
    assert user not in inst.__dict__.get("_fair_action_tables", {})


def test_success_probability_independent_of_own_attempt():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_drm_instance(rng)
        prof = random_drm_profile(inst, rng)
        user = int(rng.integers(inst.num_users))
        chan = int(rng.integers(inst.num_channels))
        v1 = success_probability(user, chan, prof, inst.graph)
        bumped = replace_strategy(
            prof, user, Strategy(prof[user].channels, 0.123)
        )
        assert success_probability(user, chan, bumped, inst.graph) == v1


def test_log_interference_additive_over_neighbors():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = random_drm_instance(rng)
        prof = random_drm_profile(inst, rng)
        for user in range(inst.num_users):
            load = channel_load(user, prof, inst.graph)
            for chan in range(inst.num_channels):
                count, clear, total = 0, 1.0, 0.0
                for r in inst.graph.adjacency[user]:
                    if chan in prof[r].channels:
                        count += 1
                        clear *= 1.0 - prof[r].attempt_prob
                        total += -math.log1p(-prof[r].attempt_prob)
                assert log_interference(user, chan, prof, inst.graph) == pytest.approx(
                    total, abs=1e-12
                )
                # one adjacency pass gives every channel's scalar loop, bit for bit
                assert load.get(chan, (0, 1.0, 0.0)) == (count, clear, total)
            assert set(load) <= set(range(inst.num_channels))


def test_geometric_graph_matches_pairwise_distances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        positions = drop_in_disc(rng, 12, 10.0)
        graph = graph_from_positions(positions, 4.0)
        assert positions.shape == (12, 2)
        assert np.all(np.hypot(positions[:, 0], positions[:, 1]) <= 10.0 + 1e-9)
        for a in range(12):
            for b in range(a + 1, 12):
                d = math.hypot(*(positions[a] - positions[b]))
                assert ((b in graph.adjacency[a]) == (d <= 4.0))


def test_graph_from_positions_threshold():
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    g = graph_from_positions(pos, 4.0)
    assert edges(g) == ((0, 1),)
    g = graph_from_positions(pos, 5.0)
    assert edges(g) == ((0, 1), (0, 2))
    assert graph_from_positions(pos.tolist(), 5.0) == g
    # a NaN radius or coordinate would compare False and isolate users silently
    with pytest.raises(ValueError, match="interference_radius"):
        graph_from_positions(np.zeros((3, 2)), math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        off = pos.copy()
        off[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            graph_from_positions(off, 5.0)


def _scalar_position_graph(positions, radius):
    """One np.hypot per pair: the reference for graph_from_positions."""
    edges = []
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if float(np.hypot(*(positions[a] - positions[b]))) <= radius:
                edges.append((a, b))
    return InterferenceGraph.from_edges(len(positions), edges)


def _induced(graph, n):
    """The graph over users 0..n-1, cut from `graph` by Instance.prefix."""
    users = graph.num_users
    return Instance(graph, 1, 1, ((1.0,),) * users, (0.5,) * users).prefix(n).graph


def test_graph_from_positions_equals_the_pair_loop():
    rng = np.random.default_rng(8)
    cases = [
        (np.array([[1.5, -2.0]]), 2.0),  # a single user
        (np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [3.0, 4.0]]), 5.0),  # exactly r apart
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), 0.0),  # duplicates, r = 0
    ]
    for _ in range(40):
        n = int(rng.integers(1, 40))
        radius = float(rng.choice([0.0, 0.5, 2.0, 30.0]))
        positions = drop_in_disc(rng, n, 5.0)
        if n > 2:
            # duplicate a point, and put a point about `radius` from another
            positions[1] = positions[0]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            positions[2] = positions[0] + radius * np.array([math.cos(angle), math.sin(angle)])
        cases.append((positions, radius))
    for positions, radius in cases:
        graph = graph_from_positions(positions, radius)
        assert graph == _scalar_position_graph(positions, radius)
    want = ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
    assert edges(graph_from_positions(cases[1][0], 5.0)) == want
    assert edges(graph_from_positions(cases[2][0], 0.0)) == ((0, 1), (2, 3))


# 0, small, about the drop region's size, wider than it, and infinite; at 1e-7
# the region is more than 2^20 radii wide, so the cell-count cap applies
PROPERTY_RADII = (0.0, 1e-7, 0.3, 2.0, 10.0, 50.0, math.inf)
# a partner put this many radii away: along an axis, on 3-4-5 diagonals, or on top
PARTNER_STEPS = ((1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6), (0.0, 0.0))


@st.composite
def point_sets(draw):
    """Up to 60 points in a 10 x 10 square, on cell-boundary lattices or not."""
    radius = draw(st.sampled_from(PROPERTY_RADII))
    unit = radius if 0.0 < radius < math.inf else 1.0
    n = draw(st.integers(1, 60))
    layout = draw(st.sampled_from(("scatter", "lattice", "coincident")))
    if layout == "scatter":
        coords = st.floats(0.0, 10.0, allow_nan=False)
        points = np.array(draw(st.lists(coords, min_size=2 * n, max_size=2 * n)))
    elif layout == "lattice":
        # multiples of the radius from the minimum corner fall on cell boundaries
        steps = draw(st.lists(st.integers(0, 8), min_size=2 * n, max_size=2 * n))
        points = unit * np.array(steps, dtype=float)
    else:
        points = np.full(2 * n, draw(st.floats(-10.0, 10.0, allow_nan=False)))
    points = points.reshape(n, 2)
    index = st.integers(0, n - 1)
    for a, b, step in draw(st.lists(st.tuples(index, index, st.sampled_from(PARTNER_STEPS)))):
        points[b] = points[a] + unit * np.array(step)
    return points + draw(st.sampled_from((0.0, 1e7, -1e7))), radius


@settings(max_examples=300, deadline=None)
@given(point_sets())
@example((np.zeros((5, 2)), 0.0))  # all points coincide: width 0, one cell
@example((np.array([[0.0, 0.0], [3.0, 4.0], [4.0, 3.0], [7.0, 0.0]]) + 1e7, 5.0))
@example((np.array([[0.0, 10.0], [1e-7, 10.0 - 1e-7], [10.0, 0.0]]), 2e-7))  # capped cells
def test_graph_from_positions_matches_the_pair_loop_on_adversarial_points(case):
    # and its prefixes: a growing population's stages are cut from its final graph
    positions, radius = case
    graph = graph_from_positions(positions, radius)
    assert graph == _scalar_position_graph(positions, radius)
    for n in {1, (len(positions) + 1) // 2, len(positions) - 1} - {0}:
        assert _induced(graph, n) == _scalar_position_graph(positions[:n], radius)


@settings(max_examples=75, deadline=None)
@given(point_sets(), st.sampled_from((2, 7, 64, network._PAIR_CHUNK)))
def test_built_graphs_pass_the_check_they_skip(case, chunk):
    # graph_from_positions and Instance.prefix build their graphs without the constructor's
    # check; rebuilding each one through the constructor runs it, and must give the same graph
    positions, radius = case
    with mock.patch.object(network, "_PAIR_CHUNK", chunk):  # pairs cross chunks
        graph = graph_from_positions(positions, radius)
    users = graph.num_users
    inst = Instance(graph, 1, 1, ((1.0,),) * users, (0.5,) * users)
    for m in range(1, users + 1):  # prefix(users) is the instance, with the built graph
        cut = inst.prefix(m).graph
        assert InterferenceGraph(cut.num_users, cut.adjacency) == cut
        assert_array_form(cut)


def test_graph_from_positions_leaves_pairs_past_the_float_range_unlinked():
    # their distances overflow to inf, beyond every finite radius, and the extent means one cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = graph_from_positions(np.array([[-1.5e308, 0.0], [1.5e308, 0.0], [1.5e308, 1.0]]), 2.0)
        assert edges(graph) == ((1, 2),)
        raw = load_preset("fig3-dynamic-drm")
        raw["instance"]["region_radius"] = 1e308
        assert edges(final_population(ExperimentConfig.from_dict(raw)).graph) == ()


def test_graph_from_positions_carries_candidates_across_chunks(monkeypatch):
    monkeypatch.setattr(network, "_PAIR_CHUNK", 3)
    rng = np.random.default_rng(5)
    for radius in (0.0, 1.0, 3.0, 30.0):  # at 30 every point is in one cell
        positions = drop_in_disc(rng, 40, 5.0)
        positions[1] = positions[0]
        graph = graph_from_positions(positions, radius)
        assert graph == _scalar_position_graph(positions, radius)


# sha256 of repr(adjacency) for 10^4 users in a disc of radius 20*sqrt(12.5) at
# interference radius 2 (mean degree about 8), drawn with seed 3
LARGE_DISC_GRAPH_DIGEST = "faf9773eb93c10e70ba9647829708782539e8b5b07323f4456f9dd27c94b5eaa"


def test_large_disc_graph_is_pinned_by_digest():
    positions = drop_in_disc(np.random.default_rng(3), 10_000, 20 * math.sqrt(12.5))
    graph = graph_from_positions(positions, 2.0)
    assert len(graph.edge_array[0]) == 39_907
    assert hashlib.sha256(repr(graph.adjacency).encode()).hexdigest() == LARGE_DISC_GRAPH_DIGEST


def test_regular_graph_degrees():
    # every admissible pair up to 24 users: the builder itself does not recheck regularity
    for num_users in range(1, 25):
        for degree in range(0, num_users, 1 if num_users % 2 == 0 else 2):
            g = build_regular_graph(num_users, degree)
            assert all(g.degree(n) == degree for n in range(num_users))
            assert_array_form(g)
    with pytest.raises(ValueError):
        build_regular_graph(5, 5)
    with pytest.raises(ValueError):
        build_regular_graph(7, 3)  # odd handshake


def test_each_public_name_is_declared_in_one_module_all():
    # A module's __all__ is the only list of its public names: no name is
    # public in two modules, and the root re-exports each one as it is.
    owners = {}
    for info in pkgutil.iter_modules(spectrumshare.__path__):
        module = importlib.import_module(f"spectrumshare.{info.name}")
        for name in getattr(module, "__all__", ()):
            owners.setdefault(name, []).append(module)
    assert [name for name, modules in owners.items() if len(modules) > 1] == []
    assert sorted(spectrumshare.__all__) == sorted(["__version__", *owners])
    for name, (module,) in owners.items():
        assert getattr(spectrumshare, name) is getattr(module, name)
    # the whole public API, so that any name added or removed shows in review
    assert sorted(spectrumshare.__all__) == [
        "CapacityError", "ConfigError", "CoolingSchedule", "DegenerateInstanceError",
        "EstimationError", "EstimatorConfig", "ExperimentConfig", "Instance",
        "InterferenceGraph", "Strategy", "StrategyProfile",
        "Trajectory", "UpdateMechanism", "__version__", "allocation_profile",
        "br_potential", "brute_force_best_response",
        "build_instance_and_events", "build_regular_graph", "channel_load",
        "cooperative_utility", "default_gibbs_instance", "delta_lower_bound",
        "drm_initial_profile", "efficiency_bound", "efficiency_sweep",
        "empirical_visit_distribution", "estimate_success_probability",
        "exact_potential", "exhaustive_drm_nep_enumeration",
        "exhaustive_fairness_nep_enumeration", "exhaustive_sum_log_rate", "gibbs_check",
        "gibbs_stationary", "graph_from_positions", "is_nep_drm", "is_nep_fairness",
        "list_presets", "load_config", "load_preset", "log_interference",
        "make_profile", "naive_expected_rate", "nbrf_initial_profile",
        "noisy_br_distribution", "replace_strategy", "run_better_response_replay",
        "run_br_drm", "run_experiment", "run_nbrf", "sample_noisy_br", "select_active",
        "simulate_naive_policy", "simulate_slot", "simulate_slots",
        "success_probability", "total_expected_rate", "validate_profile",
    ]


# numpy's transcendental functions: their SIMD kernels (AVX-512 on x86) may round otherwise
# than Python's math does, so a float they make could depend on the CPU
NUMPY_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "power", "float_power", "cbrt", "hypot", "sin", "cos", "tan", "arcsin", "arccos",
    "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
}
# (module, function, numpy name) -> why its floats do not depend on the CPU
TRANSCENDENTALS_ALLOWED = {
    ("network", "drop_in_disc", "cos"): "numpy has no SIMD kernel for float64 cos; matched "
    "math.cos on 10^6 angles with the AVX-512 kernels on",
    ("network", "drop_in_disc", "sin"): "as cos",
    ("network", "graph_from_positions", "hypot"): "numpy calls the C library's hypot, with no "
    "SIMD kernel; it is only compared with the radius, and a digest pins a 10^4-user graph",
}


def _numpy_transcendentals(node, module, where="<module>"):
    """(module, enclosing function, name) for each numpy transcendental that `node` names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _numpy_transcendentals(child, module, child.name)
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "numpy":
            yield from ((module, where, a.name) for a in child.names
                        if a.name in NUMPY_TRANSCENDENTALS)
        if (isinstance(child, ast.Attribute) and child.attr in NUMPY_TRANSCENDENTALS
                and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
            yield module, where, child.attr
        yield from _numpy_transcendentals(child, module, where)


def test_src_calls_no_numpy_transcendental_without_a_reason():
    # every output float comes from IEEE arithmetic or from math, so outputs do not depend on
    # the CPU that numpy dispatches its kernels for
    found = set()
    for path in Path(spectrumshare.__file__).parent.glob("*.py"):
        found.update(_numpy_transcendentals(ast.parse(path.read_text()), path.stem))
    assert found == set(TRANSCENDENTALS_ALLOWED)


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n+```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(tour.group(1), "README.md", "exec"), {})
