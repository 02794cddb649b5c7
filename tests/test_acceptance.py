"""Release gate for the library's headline guarantees.

Each test exercises one end-to-end guarantee at its stated tolerance and,
where the guarantee includes a time budget, asserts the wall clock too.
Seeds are pinned so every run checks the same ground.
"""

import hashlib
import json
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np

from spectrumshare import (
    ExperimentConfig,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    br_potential,
    build_regular_graph,
    cooperative_utility,
    default_gibbs_instance,
    efficiency_bound,
    estimate_success_probability,
    exact_potential,
    exhaustive_drm_nep_enumeration,
    gibbs_check,
    is_nep_drm,
    list_presets,
    load_config,
    make_profile,
    naive_expected_rate,
    replace_strategy,
    run_better_response_replay,
    run_br_drm,
    run_experiment,
    simulate_naive_policy,
    simulate_slot,
    simulate_slots,
    success_probability,
    total_expected_rate,
)

from conftest import (
    random_drm_instance,
    random_drm_profile,
    random_fairness_instance,
    random_fairness_profile,
)


def test_better_response_cycle_replays_exactly():
    """A fixed 4-move better-response loop replays bit for bit in under 1 s."""
    t0 = time.perf_counter()
    graph = InterferenceGraph.from_edges(2, [(0, 1)])
    instance = Instance(
        graph, 4, 2,
        ((1.0, 2.0, 1.0, 2.0), (2.0, 1.0, 2.0, 1.0)),
        (0.5, 0.5),
    )
    start = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    moves = [(0, (2, 3)), (1, (0, 3)), (0, (0, 1)), (1, (1, 2))]
    traj = run_better_response_replay(instance, start, moves)

    assert traj.termination == "cycle-detected"
    assert traj.cycle_length == 4
    assert traj.profiles[-1] == start
    # every move strictly raised the mover's own rate (the replay enforces
    # this), yet the pair of rates just swaps back and forth, bit-exact
    assert traj.rates[0] == (1.0, 1.25)
    assert traj.rates[1] == (1.25, 1.0)
    assert traj.rates[2] == (1.0, 1.25)
    assert traj.rates[3] == (1.25, 1.0)
    assert traj.rates[4] == (1.0, 1.25)
    # the audit scalar for sequential play is flat along the whole loop
    level = math.log(2.0) ** 2
    for value in traj.potentials:
        assert abs(value - level) <= 1e-12 * level
    assert time.perf_counter() - t0 < 1.0


def test_sequential_best_response_climbs_and_converges():
    """1000 random games: each strict switch raises the audit scalar and
    round-robin play stops at an equilibrium, all inside a minute."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    changes = 0
    for i in range(1000):
        instance = random_drm_instance(rng, max_users=12, max_channels=5, max_select=3)
        traj = run_br_drm(
            instance,
            UpdateMechanism.sweep_sequential(),
            max_iters=40 * instance.num_users,
            rng=np.random.default_rng(5000 + i),
        )
        assert traj.termination == "converged"
        assert is_nep_drm(traj.profiles[-1], instance).is_nep
        for j in range(1, len(traj.profiles)):
            if traj.profiles[j] != traj.profiles[j - 1]:
                changes += 1
                assert traj.potentials[j] - traj.potentials[j - 1] > 1e-12
    assert changes > 1000  # the sweep actually moved, it did not start converged
    assert time.perf_counter() - t0 < 60.0


def test_rate_and_audit_scalar_rank_channel_sets_identically():
    """Per user, the channel sets maximizing the user's own rate are exactly
    the sets maximizing the global audit scalar: 200 games, 100 profiles each."""
    rng = np.random.default_rng(7)
    checks = 0
    for _ in range(200):
        instance = random_drm_instance(rng, max_users=6, max_channels=5, max_select=3)
        options = list(
            combinations(range(instance.num_channels), instance.channels_per_user)
        )
        for _ in range(100):
            profile = random_drm_profile(instance, rng)
            for n in range(instance.num_users):
                rate_vals = []
                pot_vals = []
                for chans in options:
                    cand = replace_strategy(
                        profile, n, Strategy(chans, instance.caps[n])
                    )
                    rate_vals.append(total_expected_rate(n, cand, instance))
                    pot_vals.append(br_potential(cand, instance))
                best_rate = max(rate_vals)
                best_pot = max(pot_vals)
                by_rate = {i for i, v in enumerate(rate_vals) if v == best_rate}
                by_pot = {i for i, v in enumerate(pot_vals) if v == best_pot}
                assert by_rate == by_pot
                checks += 1
    assert checks >= 20_000


def test_unilateral_fairness_gains_match_potential_steps():
    """10^4 single-user deviations: the user's utility change equals the
    potential change to within 1e-9."""
    rng = np.random.default_rng(13)
    instance = None
    for i in range(10_000):
        if i % 40 == 0:
            instance = random_fairness_instance(rng, max_users=7)
            profile = random_fairness_profile(instance, rng, continuous=True)
        n = int(rng.integers(instance.num_users))
        new_k = int(rng.integers(instance.num_channels))
        new_p = float(rng.uniform(0.05, 0.95))
        new_action = Strategy((new_k,), new_p)
        deviated = replace_strategy(profile, n, new_action)

        gain = cooperative_utility(n, new_action, profile, instance) - \
            cooperative_utility(n, profile[n], profile, instance)
        step = exact_potential(deviated, instance) - exact_potential(profile, instance)
        assert abs(gain - step) <= 1e-9
        profile = deviated


def test_fair_attempt_probability_matches_closed_form():
    """For 0..10 same-channel neighbors, a 1e-4 grid scan and projected
    gradient ascent both land within 1e-3 of the closed-form optimum."""
    for count in range(11):
        users = count + 1
        edges = [(a, b) for a in range(users) for b in range(a + 1, users)]
        graph = InterferenceGraph.from_edges(users, edges)
        instance = Instance(
            graph, 2, 1,
            tuple((1.7, 1.0) for _ in range(users)),
            tuple(1.0 for _ in range(users)),
        )
        profile = make_profile([[0]] * users, [0.3] * users)
        target = 1.0 / (count + 1)

        def score(p: float) -> float:
            return cooperative_utility(0, Strategy((0,), p), profile, instance)

        grid = np.arange(1e-4, 1.0 + 5e-5, 1e-4)
        values = [score(float(p)) for p in grid]
        grid_best = float(grid[int(np.argmax(values))])
        assert abs(grid_best - target) <= 1e-3

        # projected gradient ascent with a numerical derivative
        p = 0.5
        h = 1e-7
        step = 0.02 / (1 + count)
        for _ in range(4000):
            lo = max(p - h, 1e-9)
            hi = min(p + h, 1.0)
            g = (score(hi) - score(lo)) / (hi - lo)
            p = min(1.0, max(1e-6, p + step * g))
        assert abs(p - target) <= 1e-3


def test_sampler_long_run_matches_enumerated_law():
    """10^6 noisy-play steps stay within 0.02 total variation of the
    enumerated stationary law, in under a minute."""
    t0 = time.perf_counter()
    report = gibbs_check(
        default_gibbs_instance(), beta=1.0, num_steps=10**6, burn_in=10**4, seed=0
    )
    assert report.tv_distance <= 0.02
    assert time.perf_counter() - t0 < 60.0


def test_annealed_fair_play_finds_optimum_on_small_preset():
    """On the 10-user preset, at least 90 of 100 trials reach the
    enumerated fairness optimum to 1e-6 by iteration 500, within 2 min."""
    t0 = time.perf_counter()
    raw = dict(load_config("fig5-small-nbrf").raw)
    raw["trials"] = 100
    raw["max_iters"] = 500
    result = run_experiment(ExperimentConfig.from_dict(raw))
    oracle = result.oracle_reference
    assert oracle is not None
    assert oracle.num_evaluated == 1024
    hits = sum(
        1
        for entry in result.manifest["per_trial"]
        if abs(entry["final_sum_log_rate"] - oracle.best_value) <= 1e-6
    )
    assert hits >= 90
    assert time.perf_counter() - t0 < 120.0


def test_equilibrium_rates_beat_scaled_random_play():
    """Every enumerated equilibrium beats the channel-oblivious baseline by
    the guaranteed factor; the baseline model is confirmed by simulation."""
    t0 = time.perf_counter()
    assert efficiency_bound(2, 1) == 2.0
    assert abs(efficiency_bound(2, 3) - 32.0 / 27.0) <= 1e-15
    assert abs(efficiency_bound(3, 5) - 3888.0 / 3125.0) <= 1e-15

    for num_channels, degree, users in ((2, 1, 4), (2, 3, 8), (3, 5, 6)):
        graph = build_regular_graph(users, degree)
        cap = num_channels / (degree + 1)
        instance = Instance(
            graph,
            num_channels,
            1,
            tuple((100.0,) * num_channels for _ in range(users)),
            tuple(cap for _ in range(users)),
        )
        eta = efficiency_bound(num_channels, degree)
        equilibria = exhaustive_drm_nep_enumeration(instance)
        assert equilibria
        for prof in equilibria:
            for n in range(users):
                rate = total_expected_rate(n, prof, instance)
                floor = eta * naive_expected_rate(n, instance, degree)
                # the guarantee is tight: the worst equilibrium meets it
                # with equality, so allow only round-off slack
                assert rate + 1e-9 >= floor

        counts = simulate_naive_policy(
            instance, cap, 10**6, np.random.default_rng(100 * num_channels + degree)
        )
        for n in range(users):
            mc = 100.0 * counts[n] / 10**6
            model = naive_expected_rate(n, instance, degree)
            assert abs(mc - model) / model <= 0.01
    assert time.perf_counter() - t0 < 120.0


def test_probabilistic_updates_reach_equilibrium_quickly():
    """With everyone updating independently at 0.3 per step, at least 199 of
    200 random games sit at equilibrium after 10*N*K steps, inside a minute."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    settled = 0
    for i in range(200):
        instance = random_drm_instance(rng, max_users=12, max_channels=5, max_select=3)
        budget = 10 * instance.num_users * instance.num_channels
        traj = run_br_drm(
            instance,
            UpdateMechanism.probabilistic(0.3),
            max_iters=budget,
            rng=np.random.default_rng(9000 + i),
        )
        if is_nep_drm(traj.profiles[-1], instance).is_nep:
            settled += 1
    assert settled >= 199
    assert time.perf_counter() - t0 < 60.0


def _bounded_degree_instance(rng: np.random.Generator) -> Instance:
    """Path-style game, degree at most 2, rates bounded away from zero."""
    users = int(rng.integers(4, 9))
    num_channels = int(rng.integers(2, 4))
    picks = int(rng.integers(1, min(num_channels, 2) + 1))
    edges = [(a, a + 1) for a in range(users - 1) if rng.random() < 0.8]
    graph = InterferenceGraph.from_edges(users, edges)
    utilities = tuple(
        tuple(float(u) for u in rng.uniform(50, 150, size=num_channels))
        for _ in range(users)
    )
    caps = tuple(float(p) for p in rng.uniform(0.4, 0.6, size=users))
    return Instance(graph, num_channels, picks, utilities, caps)


def test_slot_simulator_tracks_expected_rates():
    """20 random profiles, 10^6 slots each: every user's simulated rate is
    within 1% of the closed form; windowed estimates are unbiased to 0.01."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for i in range(20):
        instance = _bounded_degree_instance(rng)
        profile = random_drm_profile(instance, rng)
        succ, _ = simulate_slots(profile, instance, 10**6, np.random.default_rng(100 + i))
        for n in range(instance.num_users):
            exact = total_expected_rate(n, profile, instance)
            mc = sum(
                instance.utilities[n][k] * succ[n, k] / 10**6
                for k in profile[n].channels
            )
            assert abs(mc - exact) / exact <= 0.01

    # 100-slot windows: the clearance estimator's mean error stays under 0.01
    rng = np.random.default_rng(4)
    instance = _bounded_degree_instance(rng)
    profile = random_drm_profile(instance, rng)
    wrng = np.random.default_rng(77)
    sums: dict[tuple[int, int], float] = {}
    n_windows = 500
    for _ in range(n_windows):
        window = np.stack(
            [simulate_slot(profile, instance, wrng)[2] for _ in range(100)]
        )
        for n in range(instance.num_users):
            est = estimate_success_probability(n, window)
            for k in profile[n].channels:
                sums[(n, k)] = sums.get((n, k), 0.0) + est[k]
    for (n, k), total in sums.items():
        truth = success_probability(n, k, profile, instance.graph)
        assert abs(total / n_windows - truth) < 0.01
    assert time.perf_counter() - t0 < 60.0


def test_presets_reproduce_byte_identical_outputs(tmp_path):
    """Rerunning any preset with its stored seed writes byte-identical
    trajectory, aggregate, and manifest files, and their SHA-256 digests
    match the ones recorded in preset_digests.json. A change that means to
    alter a preset's outputs records the new digests there."""
    golden = json.loads((Path(__file__).parent / "preset_digests.json").read_text())
    assert sorted(golden) == list_presets()
    for name in list_presets():
        config = load_config(name)
        dir_a = tmp_path / name / "a"
        dir_b = tmp_path / name / "b"
        run_experiment(config, out_dir=dir_a)
        run_experiment(config, out_dir=dir_b)
        for fname in ("trajectory.csv", "aggregate.csv", "manifest.json"):
            data = (dir_a / fname).read_bytes()
            assert data == (dir_b / fname).read_bytes(), (name, fname)
            assert hashlib.sha256(data).hexdigest() == golden[name][fname], (
                name,
                fname,
            )
