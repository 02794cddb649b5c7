"""End-to-end checks for the command line entry point."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from spectrumshare import load_config, load_preset, run_experiment
from spectrumshare.cli import _build_parser, _run_config, main


def test_readme_cli_lines_parse_and_their_run_configs_check():
    # parses every README example and checks each run line's config, running nothing
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "spectrumshare" for words in lines)
    parser = _build_parser()
    for words in lines:
        args = parser.parse_args(words[1:])
        if args.command == "run":
            _run_config(args)


def test_run_preset_to_directory(tmp_path, capsys):
    # every trial of the sparse preset converges at updating time 11
    runs = (("cycle-demo", "cycle-detected"), ("fig2-small-drm-sparse", "converged at step 11"))
    for preset, summary in runs:
        out = tmp_path / preset
        code = main(["run", "--config", preset, "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert summary in captured.out
        for name in ("trajectory.csv", "aggregate.csv", "manifest.json"):
            assert (out / name).is_file()


def test_run_overrides_seed_trials_and_iters(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            "fig5-small-nbrf",
            "--seed",
            "7",
            "--trials",
            "2",
            "--max-iters",
            "40",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["root_seed"] == 7
    assert len(manifest["per_trial"]) == 2
    assert manifest["per_trial"][0]["seed_sequence"] == [7, 0]


def test_run_unknown_preset_exits_2(capsys):
    code = main(["run", "--config", "no-such-preset"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    probs = load_preset("fig5-small-nbrf")
    probs["mechanism"] = {"kind": "probabilistic", "update_probs": [None, 0.5]}
    replay = load_preset("cycle-demo")
    replay["replay"]["initial_attempt_probs"] = 0.5
    short = load_preset("fig6-dynamic-nbrf")
    short["mechanism"] = {"kind": "probabilistic", "update_probs": [0.5] * 40}
    nan_radius = load_preset("fig3-dynamic-drm")
    nan_radius["instance"]["interference_radius"] = math.nan
    eager = load_preset("fig2-small-drm")
    eager["instance"]["utilities"] = {"kind": "constant", "value": 1.0}
    eager.update(algorithm="naive", naive={"attempt_prob": 1.5, "num_slots": 10})
    for key in ("estimator", "mechanism"):
        eager.pop(key, None)
    word = load_preset("fig2-small-drm")
    word["instance"]["utilities"] = {"kind": "explicit", "values": [["abc", 1.0]] * 10}
    # instances outside the fairness game or the oracle
    fair_pairs, oracle_pairs = load_preset("fig5-small-nbrf"), load_preset("fig2-small-drm")
    for raw in (fair_pairs, oracle_pairs):
        raw["instance"]["channels_per_user"] = 2
    no_probs = load_preset("fig5-small-nbrf")
    no_probs["mechanism"] = {"kind": "probabilistic", "update_probs": []}
    triple = load_preset("cycle-demo")
    triple["instance"]["edges"] = [[0, 1, 1]]
    naive = load_preset("fig2-small-drm")
    naive["instance"]["utilities"] = {"kind": "uniform"}
    naive.update(algorithm="naive", naive={"num_slots": 10}, oracle_reference=False)
    for key in ("estimator", "mechanism"):
        naive.pop(key)
    faults = (probs, replay, short, nan_radius, eager, word)
    for raw in faults + (fair_pairs, oracle_pairs, no_probs, triple, naive):
        bad.write_text(json.dumps(raw))
        code = main(["run", "--config", str(bad)])
        assert code == 2
        assert "error: config" in capsys.readouterr().err
    bad.write_text(json.dumps(dict(load_preset("fig3-dynamic-drm"), oracle_reference=True)))
    assert main(["run", "--config", str(bad)]) == 2
    assert "exceed the oracle capacity" in capsys.readouterr().err


def test_run_negative_seed_exits_2(capsys):
    # the overrides are checked by the config's key table, which names the key
    for flag, value, key in (
        ("--seed", "-1", "config.seed"),
        ("--trials", "0", "config.trials"),
        ("--max-iters", "-1", "config.max_iters"),
    ):
        assert main(["run", "--config", "cycle-demo", flag, value]) == 2
        assert f"error: {key} must be at least" in capsys.readouterr().err


def test_a_preset_name_means_the_packaged_preset_beside_a_file_of_that_name(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for name in ("fig2-small-drm", "fig5-small-nbrf-sparse"):
        (tmp_path / name).write_text("{not json")
    for argv in (
        ["run", "--config", "fig2-small-drm", "--trials", "1", "--max-iters", "3"],
        ["oracle", "--config", "fig2-small-drm"],
        ["gibbs-check", "--config", "fig5-small-nbrf-sparse", "--steps", "300"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    # a path spelled with a directory reads the file
    assert main(["run", "--config", "./fig2-small-drm"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_run_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    code = main(["run", "--config", "cycle-demo", "--out", str(blocker / "sub")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_payload(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--config", "fig5-small-nbrf", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "optimum_sum_log_rate",
        "optimizer",
        "num_optimizers",
        "search_size",
    }
    assert math.isfinite(payload["optimum_sum_log_rate"])
    assert payload["search_size"] == 2 ** 10
    assert payload["num_optimizers"] >= 1
    assert len(payload["optimizer"]) == 10
    capsys.readouterr()

    # without --out the same JSON goes to stdout
    code = main(["oracle", "--config", "fig5-small-nbrf"])
    assert code == 0
    streamed = json.loads(capsys.readouterr().out)
    assert streamed == payload


def test_oracle_of_a_growing_population_prices_its_final_stage(tmp_path, capsys):
    # the 10-user preset grows to 12 users at iteration 100; no profile beats the optimum
    raw = dict(load_preset("fig5-small-nbrf"), trials=2,
               events=[{"at_iter": 100, "num_users": 12}])
    path = tmp_path / "growing.json"
    path.write_text(json.dumps(raw))
    manifest = run_experiment(load_config(str(path))).manifest
    oref = manifest["oracle_reference"]
    assert manifest["num_users_final"] == 12
    assert len(oref["optimizer"]) == 12
    assert oref["search_size"] == 2 ** 12
    for entry in manifest["per_trial"]:
        assert entry["final_sum_log_rate"] <= oref["optimum_sum_log_rate"] + 1e-9
    code = main(["oracle", "--config", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == dict(oref, num_optimizers=payload["num_optimizers"])


def test_cycle_demo_prints_cycle(tmp_path, monkeypatch, capsys):
    # the packaged preset, not a file of that name in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle-demo").write_text("{not json")
    for flags in ([], ["--out", "out"]):
        code = main(["cycle-demo", *flags])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycle of length 4" in out
        assert "strictly improving" in out
    assert "wrote trajectory.csv, aggregate.csv, manifest.json to out" in out
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "spectrumshare", "cycle-demo"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "cycle of length 4" in done.stdout


def test_efficiency_table(tmp_path, capsys):
    out = tmp_path / "eff.csv"
    code = main(
        [
            "efficiency",
            "--channels",
            "2",
            "--degrees",
            "1,2,3",
            "--trials",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_degree = {int(r["degree"]): r for r in rows}
    assert float(by_degree[1]["eta"]) == 2.0
    assert float(by_degree[1]["min_ratio"]) >= 1.0
    # degree 2 with 2 channels has no guarantee; the row carries a note instead
    assert by_degree[2]["eta"] == ""
    assert by_degree[2]["note"] != ""
    assert float(by_degree[3]["eta"]) == 32.0 / 27.0


def test_efficiency_rejects_garbage_lists(capsys):
    for flags, message in (
        (["--channels", "2,x"], "comma-separated"),
        (["--channels", ","], "must be nonempty"),
    ):
        code = main(["efficiency", *flags, "--degrees", "1"])
        assert code == 2
        assert message in capsys.readouterr().err
    code = main(["efficiency", "--trials", "0"])
    assert code == 2
    assert "config.trials must be at least 1" in capsys.readouterr().err
    code = main(["efficiency", "--seed", "-1"])
    assert code == 2
    assert "config.seed must be at least 0" in capsys.readouterr().err
    for flags in (["--channels", "0"], ["--channels", "2,-1"], ["--degrees", "-1"]):
        assert main(["efficiency", *flags, "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "channel counts must be at least 1 and degrees nonnegative" in err
        assert "Traceback" not in err


def test_gibbs_check_smoke(tmp_path, capsys):
    code = main(["gibbs-check", "--steps", "3000", "--burn-in", "200", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "total-variation" in out
    assert "beta 1" in out
    for flags in (["--beta", "-1"], ["--update-prob", "0"], ["--steps", "0"], ["--seed", "-1"]):
        assert main(["gibbs-check", *flags]) == 2
        assert "error:" in capsys.readouterr().err
    # a config's instance replaces the two-user demo: a growing population's final stage,
    # 5 users whose 6,912 profiles fit the enumeration
    growing = dict(load_preset("fig5-small-nbrf"), events=[{"at_iter": 10, "num_users": 5}])
    growing["instance"] = {
        "kind": "geometric", "num_users": 3, "num_channels": 2, "channels_per_user": 1,
        "region_radius": 2.0, "interference_radius": 2.0, "graph_seed": 1,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 1.0},
    }
    path = tmp_path / "growing.json"
    path.write_text(json.dumps(growing))
    for config, users in (("fig5-small-nbrf-sparse", 10), (str(path), 5)):
        assert main(["gibbs-check", "--config", config, "--steps", "300"]) == 0
        out = capsys.readouterr().out
        assert "total-variation" in out
        profiles = [line for line in out.splitlines() if line.startswith("  (ch ")]
        assert profiles and all(line.count("(ch ") == users for line in profiles)
    # two channels per user lie outside the fairness game and the oracle
    for command, message in (
        ("gibbs-check", "error: the fairness game requires channels_per_user == 1"),
        ("oracle", "error: config.instance: the fairness game requires channels_per_user == 1"),
    ):
        assert main([command, "--config", "cycle-demo"]) == 2
        assert message in capsys.readouterr().err


def test_piecewise_schedule_past_the_float_range_runs(tmp_path, capsys):
    raw = load_preset("fig5-small-nbrf")
    raw.update(schedule={"kind": "piecewise-constant", "delta": 1000}, trials=1, max_iters=20)
    raw["oracle_reference"] = False
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 0
    assert "trial 0:" in capsys.readouterr().out
