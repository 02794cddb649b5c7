"""Config validation, experiment runner, output files, presets."""

import csv
import json
import math

import numpy as np
import pytest

from spectrumshare import (
    ConfigError,
    ExperimentConfig,
    build_instance_and_events,
    build_mechanism,
    build_schedule,
    default_gibbs_instance,
    efficiency_bound,
    efficiency_sweep,
    gibbs_check,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
)
from spectrumshare.harness import _trial_rng, build_estimator

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
    m = build_mechanism({"kind": "probabilistic", "update_prob": 0.3})
    assert m.kind == "probabilistic"
    with pytest.raises(ConfigError):
        build_mechanism({"kind": "wat"})
    s = build_schedule({"kind": "fixed-beta", "beta": 2.0})
    assert s.beta(10) == 2.0
    with pytest.raises(ConfigError):
        build_schedule({"kind": "logarithmic", "delta": -1.0})
    assert build_estimator(None) is None
    assert build_estimator({"kind": "exact"}) is None
    est = build_estimator({"kind": "windowed", "window": 50})
    assert est.window == 50


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


def test_trial_rng_rule():
    a = _trial_rng(0, 1).random(4)
    b = _trial_rng(0, 1).random(4)
    c = _trial_rng(0, 2).random(4)
    d = _trial_rng(1, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


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


def test_efficiency_sweep_table():
    rows = efficiency_sweep([2], [1, 2, 3], trials=2, seed=0, max_iters=200)
    by_degree = {row["degree"]: row for row in rows}
    assert by_degree[1]["eta"] == pytest.approx(efficiency_bound(2, 1), rel=1e-12)
    assert by_degree[1]["min_ratio"] >= by_degree[1]["eta"] - 1e-9
    assert by_degree[3]["min_ratio"] >= by_degree[3]["eta"] - 1e-9
    # degree 2 leaves (degree+1) % num_channels != 0: a note row, no numbers
    assert "note" in by_degree[2]
    assert "eta" not in by_degree[2] or by_degree[2].get("eta") is None
