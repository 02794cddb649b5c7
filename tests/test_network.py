"""Graph, strategy, and closed-form rate primitives."""

import ast
import importlib
import inspect
import math

import numpy as np
import pytest

import spectrumshare
from spectrumshare import (
    Instance,
    InterferenceGraph,
    Strategy,
    build_regular_graph,
    channel_load,
    expected_rate_on_channel,
    graph_from_positions,
    log_interference,
    make_profile,
    replace_strategy,
    success_probability,
    total_expected_rate,
    validate_profile,
)
from spectrumshare.network import drop_in_disc

from conftest import random_drm_instance, random_drm_profile


def edges(graph):
    """The graph's edge_array as a tuple of (lower, higher) pairs."""
    return tuple(zip(*(a.tolist() for a in graph.edge_array)))


def test_graph_from_edges_symmetric_sorted():
    g = InterferenceGraph.from_edges(4, [(2, 0), (1, 2), (2, 3)])
    assert g.adjacency == ((2,), (2,), (0, 1, 3), (2,))
    assert edges(g) == ((0, 2), (1, 2), (2, 3))
    assert g.degree(2) == 3 and g.degree(0) == 1


def test_graph_rejects_self_edge_and_asymmetry():
    with pytest.raises(ValueError):
        InterferenceGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        InterferenceGraph(2, ((1,), ()))


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy((1, 0), 0.5)  # unsorted
    with pytest.raises(ValueError):
        Strategy((0, 0), 0.5)  # duplicate
    with pytest.raises(ValueError):
        Strategy((0,), 1.5)
    s = Strategy((0, 2), 0.5)
    assert s.channels == (0, 2)


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
    assert expected_rate_on_channel(0, 0, prof, inst) == pytest.approx(
        1.0 * 0.6 * 0.7, rel=1e-15
    )
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


def _scalar_position_graph(positions, radius):
    """One np.hypot per pair: the reference for graph_from_positions."""
    edges = []
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if float(np.hypot(*(positions[a] - positions[b]))) <= radius:
                edges.append((a, b))
    return InterferenceGraph.from_edges(len(positions), edges)


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


def test_regular_graph_degrees():
    for num_users, degree in [(4, 1), (8, 3), (6, 5), (10, 4)]:
        g = build_regular_graph(num_users, degree)
        assert all(g.degree(n) == degree for n in range(num_users))
    with pytest.raises(ValueError):
        build_regular_graph(5, 5)
    with pytest.raises(ValueError):
        build_regular_graph(7, 3)  # odd handshake


def test_root_exports_are_listed_in_their_modules_all():
    # Every name the package root re-exports from a module that declares
    # __all__ must be public there too.
    tree = ast.parse(inspect.getsource(spectrumshare))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"spectrumshare.{node.module}")
            public = getattr(module, "__all__", None)
            for alias in node.names:
                if alias.name in spectrumshare.__all__ and public is not None:
                    if alias.name not in public:
                        missing.append(f"{node.module}.{alias.name}")
    assert missing == []
