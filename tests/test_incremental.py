"""The recorder's per-user state agrees with the full sums and scans.

Both games record through one protocol. The recorder holds the current profile
and takes the loop's moves: `stage` starts a population stage and `play` one
updating time's plays, each a change of value. It queues their users and
reprices them and their neighbors only when asked: for moves, for the fairness
prices, or to record a profile not seen before; a revisit reuses the rates,
at_nep flag and object recorded for that profile. Per user it keeps a rate, a
verdict (the play the game's rule moves to, or none; checked, or unchecked until
asked for) and the game's prices: the rate game's clearance rows, the fairness
game's channel_load and priced record (load, plays, values), both renewed only
where a neighbor moved. It also counts the violators among the checked users. It prices
no potential: a trajectory reads its potentials from the game's closed form on
first read. These properties drive both games through random switch sequences,
revisits of earlier profiles and population events. They compare every entry's
rates and at_nep flag with the per-user closed-form rates and the is_nep_*
scans, its potential with the game's br_potential / exact_potential (which
catches a recorder wired to the other game's closed form), and the recorder's
state at any profile with fresh closed forms and the game's nep_violation, bit
for bit. Counted cases pin which fairness users reload and that pricing waits
for demand, and checked runs of both games that every play changes a value.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    CoolingSchedule,
    EstimatorConfig,
    ExperimentConfig,
    Instance,
    InterferenceGraph,
    Strategy,
    UpdateMechanism,
    br_potential,
    exact_potential,
    is_nep_drm,
    is_nep_fairness,
    channel_load,
    load_preset,
    make_profile,
    replace_strategy,
    run_br_drm,
    run_experiment,
    run_nbrf,
    total_expected_rate,
)
from spectrumshare import drm, dynamics, fairness
from spectrumshare.dynamics import (
    _BestResponse, _FairRecorder, _NoisyBestResponse, _play, _RateRecorder,
)
from spectrumshare.harness import build_instance_and_events
from spectrumshare.network import NO_LOAD, rate_from_load

GAMES = {
    "drm": (_RateRecorder, br_potential, is_nep_drm),
    "fairness": (_FairRecorder, exact_potential, is_nep_fairness),
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(["switch", "switch", "improve", "improve", "stay", "revisit", "event"]),
        st.integers(0, 2**31 - 1),
    ),
    max_size=30,
)


def _stage_instances(rng, game, num_stages):
    """Instances of a growing population, each an extension of the previous."""
    sizes = [int(rng.integers(2, 7))]
    for _ in range(num_stages - 1):
        sizes.append(sizes[-1] + int(rng.integers(1, 4)))
    final = sizes[-1]
    edges = [(a, b) for a in range(final) for b in range(a + 1, final) if rng.random() < 0.4]
    num_channels = int(rng.integers(2, 5))
    per_user = 1 if game == "fairness" else int(rng.integers(1, num_channels + 1))
    utilities = rng.uniform(0.5, 2.0, size=(final, num_channels))
    # zero utilities and caps of 1 reach the -inf and 0 * inf branches
    utilities[rng.random(utilities.shape) < 0.1] = 0.0
    caps = rng.choice([0.3, 0.5, 0.8, 1.0], size=final)
    return [
        Instance(
            InterferenceGraph.from_edges(n, [(a, b) for a, b in edges if b < n]),
            num_channels,
            per_user,
            tuple(tuple(row) for row in utilities[:n]),
            tuple(float(c) for c in caps[:n]),
        )
        for n in sizes
    ]


def _random_play(rng, game, user, instance):
    if game == "fairness":
        r = int(rng.integers(1, instance.graph.degree(user) + 2))
        return Strategy((int(rng.integers(instance.num_channels)),), 1.0 / r)
    chans = rng.choice(instance.num_channels, size=instance.channels_per_user, replace=False)
    return Strategy(tuple(sorted(int(k) for k in chans)), instance.caps[user])


def _assert_matches_full_checks(traj, game):
    """Every entry's potential, rates and at_nep flag are its game's closed forms and scan."""
    _, full_potential, full_check = GAMES[game]
    for i, (profile, instance) in enumerate(zip(traj.profiles, traj.instances)):
        potential = full_potential(profile, instance)
        assert traj.potentials[i] == potential or (
            math.isnan(potential) and math.isnan(traj.potentials[i])
        ), i
        rates = tuple(total_expected_rate(n, profile, instance) for n in range(len(profile)))
        assert traj.rates[i] == rates, i
        assert traj.at_nep[i] == full_check(profile, instance).is_nep, i


def _bits(x):
    return float(x).hex()


def _verdict(game, n, profile, instance):
    """User n's verdict by its game's nep_violation: the rate game's channel set at the user's
    cap (nep_violation prices it at the current attempt probability), the fairness game's
    deviation, or None."""
    report = (drm if game == "drm" else fairness).nep_violation(n, profile, instance)
    if report is None:
        return None
    if game == "drm":
        return Strategy(report.deviation.channels, instance.caps[n])
    return report.deviation


def _assert_rows_are_fresh(recorder, profile, instance):
    """The rate recorder's rows are those of `profile` on `instance`, bit for bit: each
    channel's clearance is channel_load's (NO_LOAD's where no neighbor plays it)."""
    for n in range(instance.num_users):
        load = channel_load(n, profile, instance.graph)
        for k in range(instance.num_channels):
            _, clearance, _ = load.get(k, NO_LOAD)
            assert _bits(recorder._clearance[n, k]) == _bits(clearance), (n, k)


def _assert_priced(recorder, game, profile, instance, user):
    """_assert_moves on the recorder's moves for `user` alone."""
    moves = recorder.moves((user,))
    _assert_moves(recorder, game, profile, instance, (user,), moves)


def _assert_moves(recorder, game, profile, instance, active, moves):
    """`moves`, the recorder's answer for `active` at any profile it holds (a revisit served
    from the memo, an event's before it is recorded), are the moving verdicts of the game's
    nep_violation at `profile` on `instance`, and the recorder then holds that profile's state:
    every user's rate_from_load, each checked verdict its game's nep_violation's, a violator
    count of the checked violators, and the game's prices equal to fresh closed forms (the rate
    rows; the fairness _priced record)."""
    want = {n: _verdict(game, n, profile, instance) for n in active}
    assert moves == {n: play for n, play in want.items() if play is not None}
    assert recorder.profile == profile and recorder.instance is instance
    checked = [n for n in range(instance.num_users) if n not in recorder._unchecked]
    assert set(active) <= set(checked)
    verdicts = [_verdict(game, n, profile, instance) for n in checked]
    assert [recorder._verdicts[n] for n in checked] == verdicts
    assert recorder._violators == sum(v is not None for v in verdicts)
    for n in range(instance.num_users):
        strat, load = profile[n], channel_load(n, profile, instance.graph)
        rate = rate_from_load(strat.attempt_prob, instance.utilities[n], strat.channels, load)
        assert _bits(recorder._rates[n]) == _bits(rate), n
        if game == "fairness":
            assert recorder.prices(n) == fairness._priced(n, profile, instance), n
    if game == "drm":
        _assert_rows_are_fresh(recorder, profile, instance)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), ops=OPS, game=st.sampled_from(sorted(GAMES)))
def test_recorder_and_at_nep_match_full_checks_on_random_switches(seed, ops, game):
    rng = np.random.default_rng(seed)
    stages = _stage_instances(rng, game, num_stages=3)
    recorder_class, _, full_check = GAMES[game]
    instance = stages.pop(0)
    recorder = recorder_class()
    profile = tuple(_random_play(rng, game, n, instance) for n in range(instance.num_users))
    recorder.start(profile, instance)
    _assert_priced(recorder, game, profile, instance, seed % instance.num_users)
    history = [profile]  # profiles of the current stage, for revisits
    for op, draw in ops:
        active: tuple[int, ...] = ()
        moved, revisited = profile, None
        if op == "switch":
            active = tuple(sorted({draw % instance.num_users, (draw // 7) % instance.num_users}))
            for n in active:
                moved = replace_strategy(moved, n, _random_play(rng, game, n, instance))
        elif op == "improve":
            report = full_check(profile, instance)
            if not report.is_nep:
                active = (report.violating_user,)
                moved = replace_strategy(profile, active[0], report.deviation)
        elif op == "revisit":
            # equal copies of the plays, which the recorder maps back to the recorded object
            revisited = history[draw % len(history)]
            moved = tuple(Strategy(s.channels, s.attempt_prob) for s in revisited)
        elif op == "event" and stages:
            instance = stages.pop(0)
            fresh = tuple(
                _random_play(rng, game, n, instance)
                for n in range(len(profile), instance.num_users)
            )
            moved = profile = profile + fresh
            recorder.stage(profile, instance)
            history = []
        plays = {n: play for n, play in enumerate(moved) if play != profile[n]}
        if plays:
            recorder.play(plays)
            profile = moved
        user = draw % instance.num_users
        if op == "event" and draw % 2:
            _assert_priced(recorder, game, profile, instance, user)  # before it is recorded
        recorder.record(active)
        assert recorder.profile == profile
        if revisited is not None:
            assert recorder.profile is revisited
        profile = recorder.profile
        if draw % 5:  # otherwise the queued movers carry over into the next record
            _assert_priced(recorder, game, profile, instance, user)
        history.append(profile)
    _assert_matches_full_checks(recorder.build(None, "max-iters"), game)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    graph_seed=st.integers(0, 1000),
    game=st.sampled_from(sorted(GAMES)),
    mechanism=st.sampled_from(["backoff", "probabilistic", "sweep"]),
)
def test_runs_with_population_events_match_full_checks(seed, graph_seed, game, mechanism):
    spec = {
        "kind": "geometric", "num_users": 8, "num_channels": 3,
        "channels_per_user": 1 if game == "fairness" else 2,
        "region_radius": 3.0, "interference_radius": 2.0, "graph_seed": graph_seed,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, arrivals = build_instance_and_events(
        spec, [{"at_iter": 6, "num_users": 10}, {"at_iter": 15, "num_users": 13}]
    )
    mech = {
        "backoff": UpdateMechanism.backoff(),
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    rng = np.random.default_rng(seed)
    if game == "drm":
        traj = run_br_drm(inst, mech, max_iters=60, rng=rng, arrivals=arrivals)
    else:
        traj = run_nbrf(
            inst, mech, CoolingSchedule.logarithmic(1.0), max_iters=60, rng=rng,
            freeze_beta=2.5, arrivals=arrivals,
        )
    _assert_matches_full_checks(traj, game)


class _RowCheckedRecorder(_RateRecorder):
    """The rate recorder, its state checked at every updating time whose verdicts exact BR-DRM
    plays."""

    def __init__(self):
        super().__init__()
        self.seen, self.last, self.revisits, self.calls = set(), None, 0, 0

    def moves(self, active):
        moves = super().moves(active)
        profile = self.profile
        _assert_moves(self, "drm", profile, self.instance, active, moves)
        self.calls += 1
        if profile is not self.last:
            self.revisits += id(profile) in self.seen
            self.seen.add(id(profile))
            self.last = profile
        return moves


def _row_checked_run(inst, mechanism, seed, start, arrivals):
    """An exact BR-DRM run of 14 updating times on a _RowCheckedRecorder, which must have
    answered at each of them."""
    step, recorder = _BestResponse(None), _RowCheckedRecorder()
    step.recorder = lambda: recorder
    traj = _play(inst, mechanism, np.random.default_rng(seed), 14, start, arrivals, step)
    assert recorder.calls == len(traj) - 1 > 0
    return traj, recorder


@st.composite
def _exact_cases(draw):
    """Masked instances with 1-3 channels per user, zero utilities and caps of 1.0, from
    off-cap profiles that may put a user at p = 1 or p = 0 (or -0.0), with or without arrivals."""
    users, late = draw(st.integers(2, 7)), draw(st.integers(0, 3))
    total, channels = users + late, draw(st.integers(1, 5))
    picks = draw(st.integers(1, min(3, channels)))
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    level = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.1, 4.0)
    utilities = draw(st.lists(st.tuples(*[level] * channels), min_size=total, max_size=total))
    caps = draw(st.lists(st.sampled_from([0.3, 0.45, 0.5, 0.9, 1.0]), min_size=total,
                         max_size=total))
    allowed = None
    if draw(st.booleans()):
        masks = draw(st.lists(st.sets(st.integers(0, channels - 1), min_size=picks),
                              min_size=total, max_size=total))
        allowed = tuple(tuple(k in row for k in range(channels)) for row in masks)
    inst = Instance(InterferenceGraph.from_edges(total, edges), channels, picks, utilities, caps,
                    allowed)
    start = make_profile(
        [draw(st.lists(st.sampled_from(inst.allowed_channels(n)), min_size=picks,
                       max_size=picks, unique=True)) for n in range(users)],
        [draw(st.sampled_from([caps[n], caps[n], 1.0, 0.0, -0.0, 0.7])) for n in range(users)],
    )
    arrivals = [0] * users + sorted(draw(st.integers(1, 10)) for _ in range(late))
    return inst, start, arrivals if late else None


def _order_case():
    """User 0 and its three neighbors on channel 0, these at 0.35, 0.35 and 0.45: the product of
    their 1 - p rounds otherwise when taken in the reverse of adjacency order."""
    inst = Instance(InterferenceGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 2, 1,
                    ((1.0, 1.0),) * 4, (0.5,) * 4)
    profile = make_profile([[0]] * 4, [0.5, 0.35, 0.35, 0.45])
    clears = [1.0 - play.attempt_prob for play in profile[1:]]
    assert _bits(math.prod(clears)) != _bits(math.prod(reversed(clears)))
    return inst, profile, None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=_exact_cases(),
    mechanism=st.sampled_from(["everyone", "probabilistic", "backoff", "sweep"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=_order_case(), mechanism="sweep", seed=0)
def test_exact_rows_equal_the_closed_forms_bit_for_bit(case, mechanism, seed):
    inst, start, arrivals = case
    mech = {
        "everyone": UpdateMechanism.probabilistic(1.0),  # every user moves at once: revisits
        "probabilistic": UpdateMechanism.probabilistic(0.6),
        "backoff": UpdateMechanism.backoff(),
        "sweep": UpdateMechanism.sweep_sequential(),
    }[mechanism]
    traj, _ = _row_checked_run(inst, mech, seed, start, arrivals)
    _assert_matches_full_checks(traj, "drm")


def test_exact_revisits_get_their_own_verdicts():
    # two neighbors on one channel both move to the other at every updating time, so the run
    # alternates between two profiles; each revisit is served from the memo, and its verdicts
    # must be its own, not those of the profile priced last
    inst = Instance(InterferenceGraph.from_edges(2, [(0, 1)]), 2, 1, ((1.0, 1.0),) * 2, (0.5,) * 2)
    traj, recorder = _row_checked_run(inst, UpdateMechanism.probabilistic(1.0), 0,
                                      make_profile([[0], [0]], [0.5, 0.5]), None)
    assert traj.termination == "max-iters" and len(set(map(id, traj.profiles))) == 2
    assert recorder.revisits == 12  # updating times 3..14


class _ChangeChecked:
    """A recorder mixin that asserts every play it is handed changes its user's play by value,
    as the recorder and the estimator's window flush take it to, and counts them."""

    plays = 0

    def play(self, plays):
        for n, play in plays.items():
            assert play != self.profile[n], (n, play, self.profile[n])
        self.plays += len(plays)
        super().play(plays)


@pytest.mark.parametrize("run", ["exact", "estimator", "unfrozen", "frozen"])
def test_every_play_changes_its_users_play_by_value(run):
    spec = {
        "kind": "geometric", "num_users": 8, "num_channels": 3,
        "channels_per_user": 2 if run in ("exact", "estimator") else 1,
        "region_radius": 3.0, "interference_radius": 2.0, "graph_seed": 3,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, arrivals = build_instance_and_events(spec, [{"at_iter": 6, "num_users": 10}])
    step = {
        "exact": lambda: _BestResponse(None),
        "estimator": lambda: _BestResponse(EstimatorConfig(20, 20)),
        "unfrozen": lambda: _NoisyBestResponse(CoolingSchedule.fixed(1.0), None),
        # frozen from the first updating time, so every play is a verdict
        "frozen": lambda: _NoisyBestResponse(CoolingSchedule.fixed(1.0), 1.0),
    }[run]()
    base = _RateRecorder if run in ("exact", "estimator") else _FairRecorder
    recorder = type("Checked", (_ChangeChecked, base), {})()
    step.recorder = lambda: recorder
    traj = _play(inst, UpdateMechanism.probabilistic(0.6), np.random.default_rng(2), 200, None,
                 arrivals, step)
    assert recorder.plays > 0 and traj.instances[-1] is not traj.instances[0]


def test_fair_recorder_prices_only_when_asked(monkeypatch):
    # a fixed-heat chain on a 4-user path: the sampler's memo serves most draws and most
    # switches revisit a recorded profile, so neither asks for prices
    inst = Instance(InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2, 1,
                    ((1.0, 2.0), (2.0, 1.0), (1.0, 1.5), (2.0, 2.0)), (0.5,) * 4)
    calls = {"price": 0, "table": 0}
    price, table = _FairRecorder._price, dynamics.noisy_br_table

    def counted_price(self, moved):
        calls["price"] += 1
        return price(self, moved)

    def counted_table(*args, **kwargs):
        calls["table"] += 1
        return table(*args, **kwargs)

    monkeypatch.setattr(_FairRecorder, "_price", counted_price)
    monkeypatch.setattr(dynamics, "noisy_br_table", counted_table)
    traj = run_nbrf(inst, UpdateMechanism.probabilistic(0.3), CoolingSchedule.fixed(1.0), 3000,
                    np.random.default_rng(0))
    distinct, stages = len(set(map(id, traj.profiles))), len(set(map(id, traj.instances)))
    switches = sum(traj.profiles[t] is not traj.profiles[t - 1] for t in range(1, len(traj)))
    # a recorder that repriced at every play would price once per switch
    assert distinct + calls["table"] < switches
    assert calls["price"] <= distinct + stages + calls["table"]


def test_fair_recorder_reloads_only_where_a_neighbor_moved(monkeypatch):
    # a path 0-1-2-3-4 and an isolated user 5; user 6 arrives beside 4 at the second stage
    final = Instance(
        InterferenceGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6)]),
        2, 1, ((1.0, 2.0),) * 7, (0.5,) * 7,
    )
    loaded, valued = [], []  # the users whose channel_load / action-table values were priced

    def counted_load(n, profile, graph):
        loaded.append(n)
        return channel_load(n, profile, graph)

    table_values = fairness._table_values

    def counted_values(table, load):
        valued.append(table)
        return table_values(table, load)

    monkeypatch.setattr(dynamics, "channel_load", counted_load)
    monkeypatch.setattr(fairness, "_table_values", counted_values)
    recorder = _FairRecorder()

    def follow(profile, instance, moved):
        """Stage `profile` on a new `instance`, or play its plays of the users in `moved`; record
        it and ask every user's move. Returns the recorded profile, the users that reloaded and
        those whose values were priced, and those that kept their load and priced record."""
        loads = list(getattr(recorder, "_loads", ()))
        prices = list(getattr(recorder, "_prices", ()))
        loaded.clear()
        valued.clear()
        if getattr(recorder, "instance", None) is instance:
            recorder.play({n: profile[n] for n in moved})
        else:
            recorder.stage(profile, instance)
        recorder.record(moved)
        kept = [n for n, load in enumerate(loads) if recorder._loads[n] is load]
        for n in range(len(loads)):
            assert (recorder._prices[n] is prices[n]) == (n in kept), n
        users = tuple(range(instance.num_users))
        moves = recorder.moves(users)
        tables = {id(fairness._action_table(n, instance)): n for n in users}
        priced = sorted(loaded), sorted(tables[id(table)] for table in valued)
        _assert_moves(recorder, "fairness", profile, instance, users, moves)
        return recorder.profile, priced, kept

    first = final.prefix(6)
    profile, priced, _ = follow(make_profile([[0]] * 6, [0.5] * 6), first, ())
    assert priced == ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])
    # two non-adjacent movers: only their neighbors reload, and the movers keep their prices
    moved = replace_strategy(replace_strategy(profile, 1, Strategy((1,), 0.5)), 3,
                             Strategy((1,), 0.5))
    profile, priced, kept = follow(moved, first, (1, 3))
    assert priced == ([0, 2, 4], [0, 2, 4]) and kept == [1, 3, 5]
    # two adjacent movers: both reload
    moved = replace_strategy(replace_strategy(profile, 2, Strategy((1,), 1.0 / 3)), 3,
                             Strategy((0,), 0.5))
    profile, priced, kept = follow(moved, first, (2, 3))
    assert priced == ([1, 2, 3, 4], [1, 2, 3, 4]) and kept == [0, 5]
    # a new stage: every user reloads, the isolated user and those that did not move included
    profile, priced, kept = follow(profile + (Strategy((1,), 0.5),), final, ())
    assert priced == ([0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6]) and kept == []


def test_an_annealed_run_looks_up_each_action_table_once_per_priced_record(monkeypatch):
    # the sampler (memoised on a piecewise-constant schedule) and the frozen rule both read the
    # plays from the recorder's priced record, across an arrival before and one after freezing
    calls = {"_priced": 0, "_action_table": 0}
    for name in calls:

        def counted(*args, name=name, original=getattr(fairness, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fairness, name, counted)
    spec = {
        "kind": "geometric", "num_users": 8, "num_channels": 3, "channels_per_user": 1,
        "region_radius": 3.0, "interference_radius": 2.0, "graph_seed": 0,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, arrivals = build_instance_and_events(
        spec, [{"at_iter": 8, "num_users": 10}, {"at_iter": 20, "num_users": 12}]
    )
    # beta is 1 until updating time 4, 2 until 12 and 3, frozen, from then on
    traj = run_nbrf(inst, UpdateMechanism.probabilistic(0.5),
                    CoolingSchedule.piecewise_constant(1.0), max_iters=80,
                    rng=np.random.default_rng(0), freeze_beta=3.0, arrivals=arrivals)
    assert len(set(map(id, traj.instances))) == 3
    assert 0 < calls["_action_table"] <= calls["_priced"]


def test_runs_price_no_potential_and_a_trajectory_prices_each_profile_once(monkeypatch):
    """No run (exact and estimator BR-DRM, frozen NBRF with an arrival and revisits, the
    cycle-demo replay through run_experiment) calls a potential closed form. The first read of
    `potentials` calls the game's once per distinct profile and gives every entry its closed
    form, bit for bit; a second read calls nothing."""
    calls = []
    for name in ("br_potential", "exact_potential"):

        def counted(profile, instance, name=name, closed_form=getattr(dynamics, name)):
            calls.append((name, id(profile)))
            return closed_form(profile, instance)

        monkeypatch.setattr(dynamics, name, counted)
    spec = {
        "kind": "geometric", "num_users": 8, "num_channels": 3, "channels_per_user": 2,
        "region_radius": 3.0, "interference_radius": 2.0, "graph_seed": 0,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    grown, arrivals = build_instance_and_events(spec, [{"at_iter": 6, "num_users": 10}])
    path = Instance(InterferenceGraph.from_edges(3, [(0, 1), (1, 2)]), 2, 1, ((1.0, 2.0),) * 3,
                    (0.5,) * 3)
    frozen = run_nbrf(path, UpdateMechanism.probabilistic(0.5), CoolingSchedule.logarithmic(1.0),
                      max_iters=60, rng=np.random.default_rng(0), freeze_beta=3.0,
                      arrivals=[0, 0, 8])
    ids = [id(profile) for profile in frozen.profiles]
    assert frozen.termination == "converged" and len(set(map(id, frozen.instances))) == 2
    assert any(ids[t] != ids[t - 1] and ids[t] in ids[: t - 1] for t in range(1, len(ids)))
    runs = [
        (run_br_drm(grown, UpdateMechanism.backoff(), None, 40, np.random.default_rng(1),
                    arrivals=arrivals), "br_potential"),
        (run_br_drm(grown, UpdateMechanism.backoff(), EstimatorConfig(20, 20), 40,
                    np.random.default_rng(1), arrivals=arrivals), "br_potential"),
        (frozen, "exact_potential"),
        (run_experiment(ExperimentConfig.from_dict(load_preset("cycle-demo"))).trajectories[0],
         "br_potential"),
    ]
    assert calls == []
    for traj, name in runs:
        distinct = list(dict.fromkeys(map(id, traj.profiles)))
        assert len(distinct) < len(traj)
        potentials = traj.potentials
        assert calls == [(name, key) for key in distinct]
        reference = {"br_potential": br_potential, "exact_potential": exact_potential}[name]
        assert [value.hex() for value in potentials] == [
            reference(profile, instance).hex()
            for profile, instance in zip(traj.profiles, traj.instances)
        ]
        calls.clear()
        assert traj.potentials is potentials and calls == []
