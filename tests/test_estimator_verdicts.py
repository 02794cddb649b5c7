"""Estimator-mode BR-DRM decides every user in one array pass; drm.nep_violation is its oracle.

The array pass must give, for every user at every updating time, the verdict
the scalar rule gives on the same estimates: None where it keeps its play,
and the deviation's channel set where it switches. The draws favour the
inputs where the two could part: channel masks, zero and tied utilities,
short windows (so estimates take few distinct values, and score totals tie
or differ only by rounding), several channels per user and arrivals.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    EstimatorConfig,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    drm,
)
from spectrumshare.dynamics import _BestResponse, _play

# values whose products and sums round: 0.1 + 0.2 != 0.3, 0.9 * (1/3) != 0.3
UTILITY_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.6, 0.9, 1.0)


class _OracleStep(_BestResponse):
    """BR-DRM's estimator step that checks every user's proposal after each prepare."""

    def prepare(self, t, profile, instance, rng, moved):
        follows = super().prepare(t, profile, instance, rng, moved)
        assert len(self._proposals) == instance.num_users
        for n in range(instance.num_users):
            report = drm.nep_violation(n, profile, instance, self._estimates[n])
            want = None if report is None else report.deviation.channels
            assert self._proposals[n] == want, (t, n, self._estimates[n])
        return follows


@st.composite
def _cases(draw):
    users, arrivals = draw(st.integers(2, 8)), draw(st.integers(0, 1)) * draw(st.integers(1, 3))
    total = users + arrivals
    channels = draw(st.integers(1, 6))
    picks = draw(st.integers(1, min(3, channels)))
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    utilities = draw(st.sampled_from(["constant", "levels", "spread"]))
    if utilities == "constant":
        rows = [(draw(st.sampled_from(UTILITY_LEVELS)),) * channels] * total
    else:
        level = st.sampled_from(UTILITY_LEVELS) if utilities == "levels" else st.floats(0, 100)
        rows = draw(st.lists(st.tuples(*[level] * channels), min_size=total, max_size=total))
    allowed = None
    if draw(st.booleans()):
        masks = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                              min_size=total, max_size=total))
        allowed = [tuple(k in row for k in range(channels)) for row in masks]
    caps = draw(st.lists(st.sampled_from([0.3, 0.5, 0.9, 1.0]), min_size=total, max_size=total))

    def instance(n_users):
        graph = InterferenceGraph.from_edges(n_users, [e for e in edges if e[1] < n_users])
        return Instance(graph, channels, picks, rows[:n_users], caps[:n_users],
                        None if allowed is None else allowed[:n_users])

    small = instance(users)
    start = tuple(
        Strategy(tuple(sorted(draw(st.lists(st.sampled_from(small.allowed_channels(n)),
                                            min_size=picks, max_size=picks, unique=True)))),
                 small.caps[n])
        for n in range(users)
    )
    joins = [0] * users + [draw(st.integers(1, 12))] * arrivals if arrivals else None
    return instance(total), start, joins


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=_cases(),
    window=st.integers(1, 6),
    slots=st.integers(1, 6),
    flush=st.booleans(),
    mechanism=st.sampled_from(["backoff", "probabilistic"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_verdicts_equal_the_scalar_rule(case, window, slots, flush, mechanism, seed):
    instance, start, joins = case
    mech = UpdateMechanism.backoff() if mechanism == "backoff" else (
        UpdateMechanism.probabilistic(0.7)
    )
    step = _OracleStep(EstimatorConfig(window, slots, flush_on_neighbor_update=flush))
    _play(instance, mech, np.random.default_rng(seed), 12, start, joins, step)


def test_rounding_ties_keep_and_real_gains_switch():
    # an edgeless graph: every estimate is 1.0, so the utilities alone decide
    instance = Instance(
        InterferenceGraph(4, ((),) * 4), 4, 3,
        ((0.1, 0.2, 0.3, 0.1), (1.0, 0.0, 0.6, 0.9), (0.3,) * 4, (0.0, 0.0, 0.5, 0.5)),
        (0.5,) * 4,
        allowed=((True,) * 4, (True,) * 4, (True, True, False, True), (True,) * 4),
    )
    start = tuple(Strategy(chans, 0.5) for chans in ((1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 1, 2)))
    step = _OracleStep(EstimatorConfig(3, 2))
    step.prepare(1, start, instance, np.random.default_rng(0), {})
    # user 0's best set (0, 1, 2) totals (0.1 + 0.2) + 0.3, one rounding step
    # above its current (0.2 + 0.3) + 0.1: within NEP_REL_TOL, so it keeps;
    # user 2's scores all tie; user 3's tie at the cut goes to the lower channel
    assert (0.1 + 0.2) + 0.3 > (0.2 + 0.3) + 0.1
    assert step._proposals == [None, (0, 2, 3), None, (0, 2, 3)]
