"""Metamorphic relations: how a run must change when its input changes in a known way.

Relation 1, exact in floats. Scale each user's utilities by a power of two of its own. A
user ranks and compares only its own scores. A power of two scales them, their totals and
the switching rule's slack without rounding, and activation and slot draws never read
utilities. So BR-DRM's active sets, profiles, termination, converged_at and at_nep stay the
same, in exact and estimator mode, under every mechanism and across arrivals. Each user's
rates scale by exactly its factor.
"""

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrumshare import EstimatorConfig, Instance, InterferenceGraph, UpdateMechanism, run_br_drm

MECHANISMS = {
    "backoff": UpdateMechanism.backoff(),
    "probabilistic": UpdateMechanism.probabilistic(0.6),
    "sweep": UpdateMechanism.sweep_sequential(),
}


@st.composite
def _cases(draw):
    """An instance (masks, 1-3 channels per user, zero and tied utilities), each user's
    exponent, and arrivals or None."""
    users, late = draw(st.integers(2, 7)), draw(st.integers(0, 3))
    total, channels = users + late, draw(st.integers(1, 5))
    picks = draw(st.integers(1, min(3, channels)))
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    level = st.sampled_from([0.0, 0.1, 0.3, 1.0]) | st.floats(0.1, 100.0)
    utilities = draw(st.lists(st.tuples(*[level] * channels), min_size=total, max_size=total))
    caps = draw(st.lists(st.sampled_from([0.3, 0.5, 0.9, 1.0]), min_size=total, max_size=total))
    allowed = None
    if draw(st.booleans()):
        masks = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                              min_size=total, max_size=total))
        allowed = tuple(tuple(k in row for k in range(channels)) for row in masks)
    inst = Instance(InterferenceGraph.from_edges(total, edges), channels, picks, utilities, caps,
                    allowed)
    exponents = draw(st.lists(st.integers(-8, 8), min_size=total, max_size=total))
    arrivals = [0] * users + sorted(draw(st.integers(1, 20)) for _ in range(late))
    return inst, exponents, arrivals if late else None


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=_cases(),
    mechanism=st.sampled_from(sorted(MECHANISMS)),
    estimator=st.sampled_from([None, EstimatorConfig(4, 3), EstimatorConfig(3, 5, False)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_a_users_utilities_by_a_power_of_two_scales_only_its_rates(
    case, mechanism, estimator, seed
):
    inst, exponents, arrivals = case
    scaled = dataclasses.replace(inst, utilities=tuple(
        tuple(math.ldexp(u, e) for u in row) for row, e in zip(inst.utilities, exponents)
    ))
    base, other = (
        run_br_drm(i, MECHANISMS[mechanism], estimator, 40, np.random.default_rng(seed),
                   arrivals=arrivals)
        for i in (inst, scaled)
    )
    assert other.active_sets == base.active_sets
    assert other.profiles == base.profiles
    assert (other.termination, other.converged_at) == (base.termination, base.converged_at)
    assert other.at_nep == base.at_nep
    for t, (rates, scaled_rates) in enumerate(zip(base.rates, other.rates)):
        assert scaled_rates == tuple(math.ldexp(r, e) for r, e in zip(rates, exponents)), t
