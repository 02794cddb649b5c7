"""End-to-end checks for the command line entry point."""

import csv
import json
import math

from spectrumshare import load_preset
from spectrumshare.cli import main


def test_run_preset_to_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", "cycle-demo", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "cycle-detected" in captured.out
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
    code = main(["run", "--config", "cycle-demo", "--seed", "-1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_cycle_demo_prints_cycle(capsys):
    code = main(["cycle-demo"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycle of length 4" in out
    assert "strictly improving" in out


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
    code = main(["efficiency", "--channels", "2,x", "--degrees", "1"])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err
    code = main(["efficiency", "--trials", "0"])
    assert code == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    code = main(["efficiency", "--seed", "-1"])
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    for flags in (["--channels", "0"], ["--channels", "2,-1"], ["--degrees", "-1"]):
        assert main(["efficiency", *flags, "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "channel counts must be at least 1 and degrees nonnegative" in err
        assert "Traceback" not in err


def test_gibbs_check_smoke(capsys):
    code = main(["gibbs-check", "--steps", "3000", "--burn-in", "200", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "total-variation" in out
    assert "beta 1" in out
    for flags in (["--beta", "-1"], ["--update-prob", "0"], ["--steps", "0"], ["--seed", "-1"]):
        assert main(["gibbs-check", *flags]) == 2
        assert "error:" in capsys.readouterr().err
    # a preset's instance replaces the two-user demo
    assert main(["gibbs-check", "--config", "fig5-small-nbrf-sparse", "--steps", "300"]) == 0
    assert "total-variation" in capsys.readouterr().out
    # two channels per user lie outside the fairness game and the oracle
    for command, message in (
        ("gibbs-check", "error: the fairness game requires channels_per_user == 1"),
        ("oracle", "error: config.instance: oracle requires single-channel selection"),
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
