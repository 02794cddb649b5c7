"""Config validation, experiment runner, output files, presets."""

import csv
import io
import json
import math
import re
import sys

import numpy as np
import pytest

from spectrumshare import (
    ConfigError,
    CoolingSchedule,
    ExperimentConfig,
    UpdateMechanism,
    build_instance_and_events,
    default_gibbs_instance,
    delta_lower_bound,
    efficiency_bound,
    efficiency_sweep,
    gibbs_check,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
    run_nbrf,
)
from spectrumshare import dynamics, harness
from spectrumshare.errors import CapacityError
from spectrumshare.harness import _trial_rng

BASE = {
    "algorithm": "br-drm",
    "instance": {
        "kind": "explicit",
        "num_users": 2,
        "num_channels": 2,
        "channels_per_user": 1,
        "edges": [[0, 1]],
        "utilities": {"kind": "explicit", "values": [[2.0, 1.0], [4.0, 1.0]]},
        "caps": {"kind": "explicit", "values": [0.5, 0.5]},
    },
}


def cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_domain_errors_surface_before_any_trial(monkeypatch):
    """Instances outside the fairness game or the oracle fail before a trial runs."""

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_br_drm", no_trials)
    monkeypatch.setattr(harness, "run_nbrf", no_trials)
    too_big = dict(load_preset("fig3-dynamic-drm"), oracle_reference=True)  # 8^40 allocations
    with pytest.raises(CapacityError):
        run_experiment(ExperimentConfig.from_dict(too_big))
    for preset, message in (
        ("fig2-small-drm", "the fairness game requires channels_per_user == 1"),
        ("fig5-small-nbrf", "channels_per_user must be 1 for nbrf"),
    ):
        raw = load_preset(preset)
        raw["instance"]["channels_per_user"] = 2
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_dict(raw))
    with pytest.raises(ConfigError, match="the fairness game requires channels_per_user == 1"):
        gibbs_check(build_instance_and_events(load_preset("cycle-demo")["instance"])[0], 1.0, 10, 0)
    # the sum-log oracle would otherwise report allocations on masked channels
    masked = dict(load_preset("fig2-small-drm"), oracle_reference=True)
    masked["instance"]["allowed"] = [[1, 0]] * masked["instance"]["num_users"]
    with pytest.raises(ConfigError, match=r"config.instance: .*takes no channel mask"):
        run_experiment(ExperimentConfig.from_dict(masked))


def test_config_defaults():
    c = cfg()
    assert c.trials == 1 and c.max_iters == 200 and c.seed == 0
    assert c.mechanism.kind == "backoff"
    assert c.estimator is None and c.schedule is None


def test_config_rejections():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"instance": BASE["instance"]})
    with pytest.raises(ConfigError):
        cfg(algorithm="gradient-descent")
    with pytest.raises(ConfigError):
        cfg(trials=0)
    with pytest.raises(ConfigError):
        cfg(trials=True)  # bools are not trial counts
    with pytest.raises(ConfigError):
        cfg(algorithm="nbrf")  # schedule missing
    with pytest.raises(ConfigError):
        cfg(
            algorithm="nbrf",
            schedule={"kind": "logarithmic", "delta": 1.0},
            estimator={"kind": "windowed"},
        )
    with pytest.raises(ConfigError):
        cfg(algorithm="better-response-replay")  # replay missing
    with pytest.raises(ConfigError, match=r"update_probs\[0\]"):
        cfg(mechanism={"kind": "probabilistic", "update_probs": [None, 0.5]})
    # a per-user list must cover the final population, before any trial runs
    for probs in ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]):
        with pytest.raises(ConfigError, match="update_probs must list 1 or 2 entries"):
            run_experiment(cfg(mechanism={"kind": "probabilistic", "update_probs": probs}))
    # keys the chosen algorithm would silently ignore are rejected
    events = [{"at_iter": 5, "num_users": 3}]
    with pytest.raises(ConfigError, match="events applies only to br-drm and nbrf"):
        cfg(algorithm="naive", events=events)
    with pytest.raises(ConfigError, match="estimator applies only to br-drm"):
        cfg(algorithm="naive", estimator={"kind": "windowed"})
    for key, value in (("events", events), ("estimator", {"kind": "windowed"})):
        with pytest.raises(ConfigError, match=f"{key} applies only to br-drm"):
            ExperimentConfig.from_dict(dict(load_preset("cycle-demo"), **{key: value}))
    with pytest.raises(ConfigError, match="schedule applies only to nbrf"):
        cfg(schedule={"kind": "logarithmic", "delta": 1.0})
    with pytest.raises(ConfigError, match="freeze_beta applies only to nbrf"):
        cfg(freeze_beta=5.5)
    with pytest.raises(ConfigError, match="mechanism applies only to br-drm and nbrf"):
        cfg(algorithm="naive", mechanism={"kind": "sweep-sequential"})
    with pytest.raises(ConfigError, match="naive applies only to naive"):
        cfg(naive={"num_slots": 100})
    with pytest.raises(ConfigError, match="replay applies only to better-response-replay"):
        cfg(algorithm="naive", replay=load_preset("cycle-demo")["replay"])
    assert cfg(algorithm="naive", events=[]).events_spec == ()
    replay = load_preset("cycle-demo")
    replay["replay"]["initial_attempt_probs"] = 0.5
    with pytest.raises(ConfigError, match="config.replay"):
        run_experiment(ExperimentConfig.from_dict(replay))
    # a NaN radius would otherwise build an edgeless graph; json reads NaN and
    # Infinity, and an infinite backoff bound makes every draw inf, so the lower
    # index always wins, while a NaN freeze_beta never freezes
    geometric = load_preset("fig3-dynamic-drm")["instance"]
    fair = load_preset("fig5-small-nbrf")
    instance, _ = build_instance_and_events(fair["instance"])
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("region_radius", "interference_radius"):
            with pytest.raises(ConfigError, match="radii must be positive and finite"):
                build_instance_and_events(dict(geometric, **{key: bad}))
        with pytest.raises(ConfigError, match="backoff_bound must be positive and finite"):
            cfg(mechanism={"kind": "backoff", "bound": bad})
        with pytest.raises(ConfigError, match=re.escape("config.freeze_beta must be finite")):
            ExperimentConfig.from_dict(dict(fair, freeze_beta=bad))
        with pytest.raises(ValueError, match="freeze_beta must be finite"):
            run_nbrf(instance, UpdateMechanism.backoff(), CoolingSchedule.fixed(1.0),
                     freeze_beta=bad)
    assert ExperimentConfig.from_dict(dict(fair, freeze_beta=None)).freeze_beta is None
    naive = json.loads(json.dumps(BASE))
    naive["instance"]["utilities"] = {"kind": "constant", "value": 1.0}
    naive.update(algorithm="naive", naive={"attempt_prob": 1.5, "num_slots": 10})
    with pytest.raises(ConfigError, match=r"naive.attempt_prob must lie in \[0, 1\]"):
        run_experiment(ExperimentConfig.from_dict(naive))
    with pytest.raises(ConfigError, match="per-user constant utilities"):
        run_experiment(cfg(algorithm="naive", naive={"num_slots": 10}))
    with pytest.raises(ConfigError, match="update_prob or update_probs, not both"):
        cfg(mechanism={"kind": "probabilistic", "update_prob": 0.5, "update_probs": [0.5]})
    with pytest.raises(ConfigError, match="update_probs must have 1 or more entries"):
        cfg(mechanism={"kind": "probabilistic", "update_probs": []})
    with pytest.raises(ConfigError, match=r"edges\[1\] must be a list of 2 entries"):
        build_instance_and_events(dict(BASE["instance"], edges=[[0, 1], [0, 1, 1]]))
    with pytest.raises(ConfigError, match="events requires a geometric instance"):
        build_instance_and_events(BASE["instance"], [{"at_iter": 5, "num_users": 3}])
    instance_faults = (
        ("utilities", {"kind": "uniform", "low": 2.0, "high": 2.0}, "utilities.high must exceed"),
        ("utilities", {"kind": "explicit", "values": [[1.0, 1.0]]}, "must be a 2 x 2 matrix"),
        ("utilities", {"kind": "explicit", "values": [[1.0], [1.0]]}, "must be a 2 x 2 matrix"),
        ("caps", {"kind": "explicit", "values": [0.5]}, "caps.values must list 2 entries"),
    )
    for key, section, message in instance_faults:
        with pytest.raises(ConfigError, match=message):
            build_instance_and_events(dict(BASE["instance"], **{key: section}))
    with pytest.raises(ConfigError, match="trials must be 1 for better-response-replay"):
        ExperimentConfig.from_dict(dict(load_preset("cycle-demo"), trials=2))
    replay = load_preset("cycle-demo")
    replay["replay"]["initial_channel_sets"].pop()
    with pytest.raises(ConfigError, match="initial profile must cover every user"):
        run_experiment(ExperimentConfig.from_dict(replay))
    replay = load_preset("cycle-demo")
    replay["replay"]["moves"].insert(1, replay["replay"]["moves"][0])  # a repeat gains nothing
    with pytest.raises(ConfigError, match="move 2: .* does not strictly improve"):
        run_experiment(ExperimentConfig.from_dict(replay))


def test_allowed_mask_parsing_and_scope():
    instance = dict(BASE["instance"], allowed=[[0, 1], [True, False]])
    inst, _ = build_instance_and_events(instance)
    assert inst.allowed == ((False, True), (True, False))
    for bad in (
        [[0, 1], [2, 0]],  # not 0/1
        [[0, 1], [1.0, 0]],  # floats are not mask entries
        [[0, 1], ["1", 0]],
        [[0, 1], [1]],  # one entry per channel
        [[0, 1], 1],
        [[0, 1]],  # one row per user
    ):
        with pytest.raises(ConfigError, match="0/1"):
            build_instance_and_events(dict(instance, allowed=bad))
    assert cfg(instance=instance).instance_spec["allowed"] == [[0, 1], [True, False]]
    # the fairness game and the baselines ignore the mask, so they reject it
    with pytest.raises(ConfigError, match="allowed applies only to br-drm"):
        cfg(
            algorithm="nbrf",
            schedule={"kind": "logarithmic", "delta": 1.0},
            instance=instance,
        )
    with pytest.raises(ConfigError, match="allowed applies only to br-drm"):
        cfg(algorithm="naive", instance=instance)


def test_build_mechanism_and_schedule_and_estimator():
    m = cfg(mechanism={"kind": "probabilistic", "update_prob": 0.3}).mechanism
    assert m.kind == "probabilistic"
    with pytest.raises(ConfigError):
        cfg(mechanism={"kind": "wat"})
    nbrf = {"algorithm": "nbrf", "estimator": None}
    s = cfg(**nbrf, schedule={"kind": "fixed-beta", "beta": 2.0}).schedule
    assert s.beta(10) == 2.0
    with pytest.raises(ConfigError):
        cfg(**nbrf, schedule={"kind": "logarithmic", "delta": -1.0})
    assert cfg(estimator=None).estimator is None
    assert cfg(estimator={"kind": "exact"}).estimator is None
    est = cfg(estimator={"kind": "windowed", "window": 50}).estimator
    assert est.window == 50


def test_config_rejects_a_logarithmic_delta_that_makes_beta_infinite():
    nbrf = {"algorithm": "nbrf", "estimator": None}
    with pytest.raises(ConfigError, match="config.schedule: delta is too small"):
        cfg(**nbrf, schedule={"kind": "logarithmic", "delta": 1e-320})
    assert cfg(**nbrf, schedule={"kind": "logarithmic", "delta": 1e-300}).schedule.delta == 1e-300
    pw = cfg(**nbrf, schedule={"kind": "piecewise-constant", "delta": 1000}).schedule
    assert pw.beta(1e300) == 1.0


def test_config_rejects_unknown_keys_and_mistyped_values():
    """Each case is a ConfigError naming the key's path."""
    fig2 = load_preset("fig2-small-drm")
    for overrides, path in (
        ({"oracle_reference": "false"}, "config.oracle_reference"),
        (
            {"estimator": dict(fig2["estimator"], flush_on_neighbor_update="false")},
            "config.estimator.flush_on_neighbor_update",
        ),
        ({"max_iter": 5}, "config.max_iter"),
        ({"estimator": {"windw": 5}}, "config.estimator.windw"),
        ({"mechanism": {"kind": "backoff", "update_prob": 0.3}}, "config.mechanism.update_prob"),
        ({"mechanism": {"kind": "probabilistic", "update_probs": None}}, "config.mechanism.update_probs"),
        ({"trials": None}, "config.trials"),
        ({"mechanism": None}, "config.mechanism"),
        ({"events": None}, "config.events"),
    ):
        with pytest.raises(ConfigError, match=re.escape(path)):
            ExperimentConfig.from_dict(dict(fig2, **overrides))
    explicit = BASE["instance"]
    for overrides, path in (
        ({"edges": [[0, 1.7]]}, "config.instance.edges[0][1]"),
        (
            {"utilities": {"kind": "explicit", "values": [["2", 1.0], [4.0, 1.0]]}},
            "config.instance.utilities.values[0][0]",
        ),
        ({"caps": {"kind": "explicit", "values": [0.5, "abc"]}}, "config.instance.caps.values[1]"),
        # a bad entry equal to a good one before it (True == 1) is named at its own index
        ({"caps": {"kind": "explicit", "values": [1, True]}}, "config.instance.caps.values[1]"),
        ({"edges": [[1, 0], [True, 0]]}, "config.instance.edges[1][0]"),
        ({"degree": 2}, "config.instance.degree"),
    ):
        with pytest.raises(ConfigError, match=re.escape(path)):
            build_instance_and_events(dict(explicit, **overrides))
    # null reads as absent where a key's default is None
    assert cfg(estimator=None, schedule=None, freeze_beta=None, replay=None, naive=None).estimator is None
    assert build_instance_and_events(dict(explicit, allowed=None))[0].allowed is None
    naive = cfg(algorithm="naive", naive={"attempt_prob": None, "num_slots": 10})
    assert naive.naive_spec["attempt_prob"] is None
    replay = load_preset("cycle-demo")
    replay["replay"]["initial_attempt_probs"] = None
    traj = run_experiment(ExperimentConfig.from_dict(replay)).trajectories[0]
    assert traj.termination == "cycle-detected"


def test_geometric_instance_reproducible_and_radius_honored():
    spec = {
        "kind": "geometric",
        "num_users": 10,
        "num_channels": 2,
        "channels_per_user": 1,
        "region_radius": 10.0,
        "interference_radius": 5.0,
        "graph_seed": 12,
        "utilities": {"kind": "constant", "value": 100.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    a, _ = build_instance_and_events(spec)
    b, _ = build_instance_and_events(spec)
    assert a.graph.adjacency == b.graph.adjacency
    assert a.utilities == b.utilities
    spec2 = dict(spec, graph_seed=13)
    c, _ = build_instance_and_events(spec2)
    assert c.graph.adjacency != a.graph.adjacency


def test_dynamic_stage_specs_validated():
    spec = {
        "kind": "geometric",
        "num_users": 6,
        "num_channels": 2,
        "channels_per_user": 1,
        "region_radius": 10.0,
        "interference_radius": 4.0,
        "graph_seed": 3,
        "utilities": {"kind": "uniform", "low": 50.0, "high": 150.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    events = [{"at_iter": 10, "num_users": 8}, {"at_iter": 20, "num_users": 9}]
    inst, evs = build_instance_and_events(spec, events)
    assert inst.num_users == 6
    assert [e.at_iter for e in evs] == [10, 20]
    assert [e.instance.num_users for e in evs] == [8, 9]
    # prefix consistency across stages
    assert evs[1].instance.utilities[:8] == evs[0].instance.utilities
    with pytest.raises(ConfigError):
        build_instance_and_events(spec, [{"at_iter": 10, "num_users": 5}])
    with pytest.raises(ConfigError):
        build_instance_and_events(
            spec,
            [{"at_iter": 20, "num_users": 8}, {"at_iter": 10, "num_users": 9}],
        )


def test_per_user_update_probs_cover_the_final_population():
    raw = {
        "algorithm": "br-drm",
        "max_iters": 30,
        "instance": {
            "kind": "geometric",
            "num_users": 5,
            "num_channels": 2,
            "region_radius": 4.0,
            "interference_radius": 3.0,
            "graph_seed": 2,
            "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
            "caps": {"kind": "constant", "value": 0.5},
        },
        "events": [{"at_iter": 6, "num_users": 9}],
        # the first five users update every time; each stage uses its prefix
        "mechanism": {"kind": "probabilistic", "update_probs": [1.0] * 5 + [0.5] * 4},
    }
    traj = run_experiment(ExperimentConfig.from_dict(raw)).trajectories[0]
    assert len(traj) > 7
    assert [len(p) for p in traj.profiles[5:7]] == [5, 9]
    for step in range(1, len(traj)):
        active = traj.active_sets[step]
        assert set(range(5)) <= set(active)
        assert max(active) < (5 if step < 6 else 9)
    assert any(max(a) >= 5 for a in traj.active_sets[6:])
    for probs in ([1.0] * 5, [1.0] * 10):
        raw["mechanism"]["update_probs"] = probs
        with pytest.raises(ConfigError, match="update_probs must list 1 or 9 entries"):
            run_experiment(ExperimentConfig.from_dict(raw))


def _compensated_sum(values, start=0):
    """Python 3.12's sum(): exact for integers, Neumaier-compensated for floats."""
    items = list(values)
    if not items or not all(isinstance(v, float) for v in items):
        return sum(items, start)
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def _float_sum_outputs(tmp_path):
    naive = json.loads(json.dumps(BASE))
    naive.update(algorithm="naive", trials=3, naive={"num_slots": 500})
    naive["instance"]["utilities"] = {"kind": "explicit", "values": [[2.0, 2.0], [4.0, 4.0]]}
    configs = {name: load_preset(name) for name in list_presets()}
    configs["naive"] = naive
    outputs = []
    for name, raw in configs.items():
        if raw["algorithm"] != "better-response-replay":
            raw.update(trials=2, max_iters=min(raw.get("max_iters", 200), 120))
        out = tmp_path / name
        run_experiment(ExperimentConfig.from_dict(raw), out_dir=out)
        files = ("trajectory.csv", "aggregate.csv", "manifest.json")
        outputs.append({f: (out / f).read_bytes() for f in files})
    outputs.append(gibbs_check(default_gibbs_instance(), 1.0, 600, 100, seed=3).tv_distance)
    outputs.append(efficiency_sweep([2], [3], trials=2, seed=0))
    return outputs


def test_outputs_do_not_depend_on_the_interpreters_float_sum(tmp_path, monkeypatch):
    """Outputs stay byte-identical when sum() compensates float rounding, as
    it does from Python 3.12 on."""
    plain = _float_sum_outputs(tmp_path / "plain")
    for name, module in list(sys.modules.items()):
        if name == "spectrumshare" or name.startswith("spectrumshare."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert _float_sum_outputs(tmp_path / "compensated") == plain


def test_trial_rng_rule():
    a = _trial_rng(0, 1).random(4)
    b = _trial_rng(0, 1).random(4)
    c = _trial_rng(0, 2).random(4)
    d = _trial_rng(1, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_convergence_reads_the_recorded_equilibrium_flag(monkeypatch):
    """Exact BR-DRM and frozen NBRF converge on the recorder's at_nep flag,
    so runs end the same when dynamics' is_nep_* scans cannot be called."""
    exact = {k: v for k, v in load_preset("fig2-small-drm").items() if k != "estimator"}
    configs = [ExperimentConfig.from_dict(raw) for raw in (exact, load_preset("fig5-small-nbrf"))]
    expected = [run_experiment(config) for config in configs]

    def refuse(*args):
        raise AssertionError("convergence must read the recorded at_nep flag")

    monkeypatch.setattr(dynamics, "is_nep_drm", refuse)
    monkeypatch.setattr(dynamics, "is_nep_fairness", refuse)
    for config, before in zip(configs, expected):
        after = run_experiment(config)
        assert after.manifest == before.manifest
        assert [t.at_nep for t in after.trajectories] == [t.at_nep for t in before.trajectories]
        assert {trial["termination"] for trial in after.manifest["per_trial"]} == {"converged"}


def test_presets_all_load():
    names = list_presets()
    assert set(names) == {
        "cycle-demo",
        "fig2-small-drm",
        "fig2-small-drm-sparse",
        "fig3-dynamic-drm",
        "fig5-small-nbrf",
        "fig5-small-nbrf-sparse",
        "fig6-dynamic-nbrf",
    }
    for name in names:
        config = ExperimentConfig.from_dict(load_preset(name))
        assert config.trials >= 1
    with pytest.raises(ConfigError):
        load_preset("fig9-missing")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE))
    config = load_config(path)
    assert config.algorithm == "br-drm"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_experiment_writes_schema_conformant_files(tmp_path):
    config = cfg(trials=2, max_iters=30, oracle_reference=True)
    result = run_experiment(config, out_dir=tmp_path)
    assert (tmp_path / "trajectory.csv").is_file()
    assert (tmp_path / "aggregate.csv").is_file()
    assert (tmp_path / "manifest.json").is_file()

    with open(tmp_path / "trajectory.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "trial", "iter", "user", "channel_set", "attempt_prob", "expected_rate",
    ]
    trials_seen = {row[0] for row in rows[1:]}
    assert trials_seen == {"0", "1"}
    for row in rows[1:3]:
        assert "|" not in row[3] or all(p.isdigit() for p in row[3].split("|"))
        float(row[4]); float(row[5])

    with open(tmp_path / "aggregate.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iter", "mean_rate", "mean_sum_log_rate", "frac_at_nep"]
    last = rows[-1]
    assert float(last[3]) == 1.0  # a 2-user game settles fast

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["root_seed"] == 0
    assert len(manifest["per_trial"]) == 2
    oref = manifest["oracle_reference"]
    assert oref["search_size"] >= 1
    assert math.isfinite(oref["optimum_sum_log_rate"])
    assert isinstance(oref["optimizer"], list)
    assert "seed_rule" in manifest
    assert result.oracle_reference is not None


def test_run_experiment_multi_channel_sets_use_pipes(tmp_path):
    config = ExperimentConfig.from_dict({
        "algorithm": "br-drm",
        "trials": 1,
        "max_iters": 10,
        "instance": {
            "kind": "explicit",
            "num_users": 2,
            "num_channels": 4,
            "channels_per_user": 2,
            "edges": [[0, 1]],
            "utilities": {
                "kind": "explicit",
                "values": [[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]],
            },
            "caps": {"kind": "explicit", "values": [0.5, 0.5]},
        },
    })
    run_experiment(config, out_dir=tmp_path)
    with open(tmp_path / "trajectory.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert any("|" in row[3] for row in rows[1:])


def test_delta_mode_is_priced_on_the_final_population():
    # fig6 grows from 40 to 50 users: the 40-user bound is 210.30, the 50-user one 262.87
    raw = dict(load_preset("fig6-dynamic-nbrf"), trials=1, max_iters=1)
    instance, events = build_instance_and_events(raw["instance"], raw["events"])
    assert delta_lower_bound(instance) < 230 < delta_lower_bound(events[-1].instance) < 263
    for delta, mode in ((230.0, "heuristic"), (263.0, "sufficient")):
        raw["schedule"] = {"kind": "logarithmic", "delta": delta}
        manifest = run_experiment(ExperimentConfig.from_dict(raw)).manifest
        assert (manifest["delta_mode"], manifest["num_users_final"]) == (mode, 50)


def test_delta_mode_is_heuristic_where_no_bound_exists():
    # a zero utility leaves delta_lower_bound undefined, however large delta is
    utilities = {"kind": "explicit", "values": [[0.0, 1.0], [4.0, 1.0]]}
    config = cfg(
        algorithm="nbrf", max_iters=5, schedule={"kind": "logarithmic", "delta": 1e9},
        instance=dict(BASE["instance"], utilities=utilities),
    )
    assert run_experiment(config).manifest["delta_mode"] == "heuristic"


_GEOMETRIC = load_preset("fig5-small-nbrf")["instance"]
_HARNESS_INPUT_FAULTS = {
    "config.events[0] must be an object": lambda: build_instance_and_events(_GEOMETRIC, [5]),
    "config must be a JSON object": lambda: ExperimentConfig.from_dict([]),
    "config.instance: utilities[0] must be finite and nonnegative": lambda: (
        build_instance_and_events(dict(_GEOMETRIC, utilities={"kind": "constant", "value": -1.0}))
    ),
    "burn_in must be nonnegative": lambda: gibbs_check(default_gibbs_instance(), 1.0, 10, -1),
}


@pytest.mark.parametrize("message", sorted(_HARNESS_INPUT_FAULTS))
def test_harness_input_checks_name_the_fault(message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _HARNESS_INPUT_FAULTS[message]()


def test_run_experiment_cycle_demo_manifest():
    raw = load_preset("cycle-demo")
    result = run_experiment(ExperimentConfig.from_dict(raw))
    per_trial = result.manifest["per_trial"][0]
    assert per_trial["termination"] == "cycle-detected"
    assert per_trial["cycle_length"] == 4


def test_run_experiment_naive_baseline(tmp_path):
    config = ExperimentConfig.from_dict({
        "algorithm": "naive",
        "trials": 3,
        "instance": {
            "kind": "regular",
            "num_users": 8,
            "degree": 3,
            "num_channels": 2,
            "channels_per_user": 1,
            "utilities": {"kind": "constant", "value": 100.0},
            "caps": {"kind": "constant", "value": 0.5},
        },
        "naive": {"num_slots": 20000},
    })
    result = run_experiment(config, out_dir=tmp_path)
    with open(tmp_path / "aggregate.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2  # header plus the single summary row
    assert math.isnan(float(rows[1][3]))
    want = 100.0 * 0.5 * 0.75 ** 3
    assert float(rows[1][1]) == pytest.approx(want, rel=0.05)
    assert result.naive_rates is not None


def _csv_writer_trajectory(result):
    """trajectory.csv as one csv.writer row per (trial, step, user): the reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["trial", "iter", "user", "channel_set", "attempt_prob", "expected_rate"])
    if result.naive_rates is not None:
        for trial, rates in enumerate(result.naive_rates):
            for user, rate in enumerate(rates):
                writer.writerow([trial, 0, user, "", "", f"{rate:.17g}"])
        return out.getvalue()
    for trial, traj in enumerate(result.trajectories):
        for index, (profile, rates) in enumerate(zip(traj.profiles, traj.rates)):
            for user, strat in enumerate(profile):
                writer.writerow([
                    trial, index, user, "|".join(str(k) for k in strat.channels),
                    f"{strat.attempt_prob:.17g}", f"{rates[user]:.17g}",
                ])
    return out.getvalue()


def _csv_writer_aggregate(result):
    """aggregate.csv as one csv.writer row per iteration: the reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ["iter", "mean_rate", "mean_sum_log_rate", "frac_at_nep"]
    writer.writerow(columns)
    for row in result.aggregate_rows:
        writer.writerow([row["iter"]] + [f"{row[c]:.17g}" for c in columns[1:]])
    return out.getvalue()


def test_trajectory_csv_equals_the_csv_writer_rows(tmp_path):
    grown = {
        "algorithm": "br-drm", "trials": 2, "max_iters": 40, "seed": 3,
        "instance": {
            "kind": "geometric", "num_users": 12, "num_channels": 4,
            "channels_per_user": 2, "region_radius": 4.0, "interference_radius": 2.0,
            "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
            "caps": {"kind": "constant", "value": 0.4},
        },
        "events": [{"at_iter": 10, "num_users": 16}],
    }
    fair = load_preset("fig5-small-nbrf")
    fair.update(trials=2, max_iters=60, oracle_reference=False)
    naive = {
        "algorithm": "naive", "trials": 2,
        "instance": {
            "kind": "regular", "num_users": 6, "degree": 2, "num_channels": 3,
            "utilities": {"kind": "constant", "value": 10.0},
            "caps": {"kind": "constant", "value": 0.5},
        },
        "naive": {"num_slots": 500},
    }
    results = []
    for i, raw in enumerate((grown, fair, naive)):
        results.append(run_experiment(ExperimentConfig.from_dict(raw), out_dir=tmp_path / str(i)))
        written = (tmp_path / str(i) / "trajectory.csv").read_bytes()
        assert written == _csv_writer_trajectory(results[-1]).encode()
        written = (tmp_path / str(i) / "aggregate.csv").read_bytes()
        assert written == _csv_writer_aggregate(results[-1]).encode()
    traj = results[0].trajectories[1]
    # the population grows mid-trial, and a user keeps its Strategy object
    # while its rate moves because a neighbor switched
    assert len(traj.profiles[0]) == 12 and len(traj.profiles[-1]) == 16
    steps = list(zip(traj.profiles, traj.rates))
    assert any(
        before[n] is after[n] and r0[n] != r1[n]
        for (before, r0), (after, r1) in zip(steps, steps[1:])
        for n in range(len(before))
    )


def test_byte_identical_reruns_quick(tmp_path):
    config = cfg(trials=2, max_iters=25)
    for sub in ("a", "b"):
        run_experiment(config, out_dir=tmp_path / sub)
    for name in ("trajectory.csv", "aggregate.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_gibbs_check_small_run():
    report = gibbs_check(default_gibbs_instance(), 1.0, 4000, 500, seed=1)
    assert 0.0 <= report.tv_distance <= 1.0
    assert report.tv_distance < 0.2  # loose: short chain, exact law
    with pytest.raises(ConfigError):
        gibbs_check(default_gibbs_instance(), 1.0, 0, 0)


def test_gibbs_check_refuses_an_oversized_law_before_running_the_chain(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran before the law was enumerated")

    monkeypatch.setattr(harness, "run_nbrf", no_chain)
    instance, _ = build_instance_and_events(load_config("fig6-dynamic-nbrf").instance_spec, [])
    with pytest.raises(CapacityError):
        gibbs_check(instance, 1.0, 100, 0)


def test_efficiency_sweep_table():
    # isolated users at cap 1: the equilibrium and the naive policy both get
    # the full utility, and the bound is 1 (0.0 ** 0 == 1.0)
    (row,) = efficiency_sweep([1], [0], trials=2, seed=0)
    assert row["eta"] == row["min_ratio"] == row["mean_ratio"] == 1.0
    rows = efficiency_sweep([2], [1, 2, 3], trials=2, seed=0)
    by_degree = {row["degree"]: row for row in rows}
    assert by_degree[1]["eta"] == pytest.approx(efficiency_bound(2, 1), rel=1e-12)
    assert by_degree[1]["min_ratio"] >= by_degree[1]["eta"] - 1e-9
    assert by_degree[3]["min_ratio"] >= by_degree[3]["eta"] - 1e-9
    # degree 2 leaves (degree+1) % num_channels != 0: a note row, no numbers
    assert "note" in by_degree[2]
    assert "eta" not in by_degree[2] or by_degree[2].get("eta") is None
