"""Exhaustive reference searches the dynamics are measured against."""

import itertools
import math

import numpy as np
import pytest

from spectrumshare import (
    Instance,
    InterferenceGraph,
    Strategy,
    allocation_profile,
    best_response_drm,
    brute_force_best_response,
    empirical_visit_distribution,
    exact_potential,
    exhaustive_drm_nep_enumeration,
    exhaustive_fairness_nep_enumeration,
    exhaustive_sum_log_rate,
    gibbs_stationary,
    is_nep_drm,
    is_nep_fairness,
    make_profile,
)
from spectrumshare.errors import CapacityError, DegenerateInstanceError
from spectrumshare.oracle import GRID_CAPACITY, ORACLE_CAPACITY

from conftest import (
    random_drm_instance,
    random_drm_profile,
    random_fairness_instance,
)


def two_user_instance():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    return Instance(g, 2, 1, ((2.0, 1.0), (4.0, 1.0)), (0.5, 0.5))


def edgeless_instance():
    """24 isolated users on 2 channels: 2**24 profiles exceed both limits."""
    g = InterferenceGraph.from_edges(24, [])
    return Instance(g, 2, 1, ((1.0, 2.0),) * 24, (0.5,) * 24)


def test_sum_log_oracle_hand_case():
    inst = two_user_instance()
    result = exhaustive_sum_log_rate(inst)
    # splitting the channels and handing user 1 its strong channel wins:
    # rates 1*1 and 4*1, objective log 4
    assert result.best_value == pytest.approx(math.log(4.0), rel=1e-12)
    assert result.best_allocations == ((1, 0),)
    assert result.num_evaluated == 4


def test_sum_log_oracle_objective_matches_profile_potential():
    rng = np.random.default_rng(31)
    for _ in range(20):
        inst = random_fairness_instance(rng, max_users=5)
        result = exhaustive_sum_log_rate(inst)
        for alloc in result.best_allocations:
            prof = allocation_profile(alloc, inst)
            assert exact_potential(prof, inst) == pytest.approx(
                result.best_value, abs=1e-9
            )
        # no allocation beats the reported optimum
        for combo in itertools.product(
            range(inst.num_channels), repeat=inst.num_users
        ):
            prof = allocation_profile(combo, inst)
            assert exact_potential(prof, inst) <= result.best_value + 1e-9


def test_allocation_profile_sets_count_optimal_probs():
    inst = two_user_instance()
    prof = allocation_profile((0, 0), inst)
    assert prof[0] == Strategy((0,), 0.5)
    assert prof[1] == Strategy((0,), 0.5)
    prof = allocation_profile((0, 1), inst)
    assert prof[0].attempt_prob == 1.0


def test_oracle_rejects_multi_channel_and_oversize():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    multi = Instance(g, 3, 2, ((1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    with pytest.raises(ValueError):
        exhaustive_sum_log_rate(multi)
    masked = Instance(g, 2, 1, ((1.0, 1.0),) * 2, (0.5, 0.5), ((True, False), (True, True)))
    with pytest.raises(ValueError, match="takes no channel mask"):
        exhaustive_sum_log_rate(masked)
    with pytest.raises(CapacityError):
        exhaustive_sum_log_rate(edgeless_instance())


@pytest.mark.parametrize(
    "reference, limit",
    [
        (exhaustive_sum_log_rate, ORACLE_CAPACITY),
        (exhaustive_drm_nep_enumeration, ORACLE_CAPACITY),
        (exhaustive_fairness_nep_enumeration, GRID_CAPACITY),
        (lambda inst: gibbs_stationary(inst, 1.0), GRID_CAPACITY),
    ],
    ids=["sum-log", "drm-neps", "fairness-neps", "gibbs"],
)
def test_every_reference_refuses_an_oversized_space_before_building_it(
    monkeypatch, reference, limit
):
    def no_product(*args, **kwargs):
        raise AssertionError("a profile was built before the capacity check")

    monkeypatch.setattr(itertools, "product", no_product)
    message = f"^{2**24} (allocations|profiles) exceed the oracle capacity of {limit}$"
    with pytest.raises(CapacityError, match=message):
        reference(edgeless_instance())


def test_oracle_rejects_all_zero_utilities():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 2, 1, ((0.0, 0.0), (1.0, 1.0)), (0.5, 0.5))
    with pytest.raises(DegenerateInstanceError):
        exhaustive_sum_log_rate(inst)


def test_drm_nep_enumeration_hand_case():
    inst = two_user_instance()
    neps = exhaustive_drm_nep_enumeration(inst)
    got = {tuple(s.channels for s in prof) for prof in neps}
    # ties keep the incumbent, so user 0 may sit on either channel while
    # user 1 holds its strong channel 0
    assert got == {((0,), (0,)), ((1,), (0,))}
    for prof in neps:
        assert is_nep_drm(prof, inst).is_nep


def test_drm_nep_enumeration_agrees_with_checker():
    rng = np.random.default_rng(32)
    for _ in range(10):
        inst = random_drm_instance(rng, max_users=4, max_channels=3, max_select=2)
        neps = set(exhaustive_drm_nep_enumeration(inst))
        sets_per_user = [
            list(itertools.combinations(inst.allowed_channels(n),
                                        inst.channels_per_user))
            for n in range(inst.num_users)
        ]
        for combo in itertools.product(*sets_per_user):
            prof = make_profile([list(c) for c in combo], inst.caps)
            assert (prof in neps) == is_nep_drm(prof, inst).is_nep


def test_fairness_nep_enumeration_validates_members():
    rng = np.random.default_rng(33)
    for _ in range(5):
        inst = random_fairness_instance(rng, max_users=4)
        neps = exhaustive_fairness_nep_enumeration(inst)
        assert neps  # the sum-log maximizer is always one
        for prof in neps:
            assert is_nep_fairness(prof, inst).is_nep


def test_brute_force_best_response_matches_closed_form():
    rng = np.random.default_rng(34)
    for _ in range(200):
        inst = random_drm_instance(rng, max_users=6, max_channels=4)
        prof = random_drm_profile(inst, rng)
        user = int(rng.integers(inst.num_users))
        assert brute_force_best_response(user, prof, inst) == best_response_drm(
            user, prof, inst
        )


def test_brute_force_example_prefers_clear_channels():
    # one user against a fixed opponent holding channels 1 and 2 at 0.5:
    # of the four channels the clear ones (0 and 3) win
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    inst = Instance(g, 4, 2, ((1.0, 1.0, 1.0, 1.0),) * 2, (0.5, 0.5))
    prof = make_profile([[0, 1], [1, 2]], [0.5, 0.5])
    assert brute_force_best_response(0, prof, inst) == (0, 3)


def test_empirical_visit_distribution_counts_and_burn_in():
    class FakeTrajectory:
        profiles = ["a", "a", "b", "a"]

    dist = empirical_visit_distribution(FakeTrajectory())
    assert dist == {"a": 0.75, "b": 0.25}
    dist = empirical_visit_distribution(FakeTrajectory(), burn_in=2)
    assert dist == {"b": 0.5, "a": 0.5}
    with pytest.raises(ValueError):
        empirical_visit_distribution(FakeTrajectory(), burn_in=4)
