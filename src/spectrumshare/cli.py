"""Command-line front end: run experiments, oracles, and diagnostic checks."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import CapacityError, ConfigError
from .harness import (
    ExperimentConfig,
    default_gibbs_instance,
    efficiency_sweep,
    final_population,
    gibbs_check,
    list_presets,
    load_config,
    load_preset,
    oracle_optimum,
    oracle_summary,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrumshare",
        description=(
            "Distributed channel selection on interference graphs: "
            "best-response rate maximization and noisy-best-response fairness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config or preset")
    run_p.add_argument(
        "--config",
        required=True,
        help=f"config JSON path or preset name ({', '.join(list_presets())})",
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the root seed")
    run_p.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
    run_p.add_argument("--trials", type=int, default=None, help="override trial count")
    run_p.add_argument(
        "--max-iters", type=int, default=None, help="override the iteration budget"
    )

    oracle_p = sub.add_parser(
        "oracle", help="exhaustive sum-log-rate optimum for a config's final population"
    )
    oracle_p.add_argument("--config", required=True, help="config JSON path or preset name")
    oracle_p.add_argument("--out", default=None, help="write the result JSON here")

    eff_p = sub.add_parser(
        "efficiency", help="equilibrium-vs-naive ratio table on regular networks"
    )
    eff_p.add_argument(
        "--channels", default="2,3", help="comma-separated channel counts (default 2,3)"
    )
    eff_p.add_argument(
        "--degrees", default="1,3,5", help="comma-separated degrees (default 1,3,5)"
    )
    eff_p.add_argument("--trials", type=int, default=3)
    eff_p.add_argument("--seed", type=int, default=0)
    eff_p.add_argument("--out", default=None, help="write the table as CSV here")

    cycle_p = sub.add_parser(
        "cycle-demo", help="replay the scripted better-response cycle"
    )
    cycle_p.add_argument("--out", default=None, help="directory for CSV/JSON outputs")

    gibbs_p = sub.add_parser(
        "gibbs-check", help="fixed-heat chain vs enumerated stationary distribution"
    )
    gibbs_p.add_argument("--beta", type=float, default=1.0)
    gibbs_p.add_argument("--steps", type=int, default=100_000)
    gibbs_p.add_argument("--burn-in", type=int, default=1_000)
    gibbs_p.add_argument("--update-prob", type=float, default=0.3)
    gibbs_p.add_argument("--seed", type=int, default=0)
    gibbs_p.add_argument(
        "--config",
        default=None,
        help="optional config whose final population replaces the built-in two-user demo",
    )
    return parser


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """The `run` command's config with its overrides, checked by the key table."""
    raw = dict(load_config(args.config).raw)
    for key in ("seed", "trials", "max_iters"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = run_experiment(config, out_dir=args.out)
    for entry in result.manifest["per_trial"]:
        bits = [f"trial {entry['trial']}:"]
        if "termination" in entry:
            bits.append(entry["termination"])
            if entry.get("converged_at") is not None:
                bits.append(f"at step {entry['converged_at']}")
            if entry.get("cycle_length") is not None:
                bits.append(f"(cycle length {entry['cycle_length']})")
        bits.append(f"mean rate {entry['final_mean_rate']:.6g}")
        bits.append(f"sum log rate {entry['final_sum_log_rate']:.6g}")
        print(" ".join(bits))
    last = result.aggregate_rows[-1]
    print(
        f"aggregate over {config.trials} trial(s): mean rate {last['mean_rate']:.6g}, "
        f"mean sum log rate {last['mean_sum_log_rate']:.6g}"
    )
    if result.oracle_reference is not None:
        print(
            f"oracle optimum sum log rate {result.oracle_reference.best_value:.6g} "
            f"over {result.oracle_reference.num_evaluated} allocations"
        )
    if args.out is not None:
        print(f"wrote trajectory.csv, aggregate.csv, manifest.json to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    result = oracle_optimum(final_population(load_config(args.config)))
    payload = dict(oracle_summary(result), num_optimizers=len(result.best_allocations))
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    try:
        channels = [int(x) for x in args.channels.split(",") if x.strip()]
        degrees = [int(x) for x in args.degrees.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--channels/--degrees must be comma-separated integers: {exc}")
    if not channels or not degrees:
        raise ConfigError("--channels and --degrees must be nonempty")
    rows = efficiency_sweep(channels, degrees, trials=args.trials, seed=args.seed)
    columns = ("eta", "min_ratio", "mean_ratio")  # None on an inadmissible row

    def cells(row: dict, spec: str) -> list[str]:
        ratios = ("" if row[key] is None else format(row[key], spec) for key in columns)
        return [str(row["num_channels"]), str(row["degree"]), *ratios]

    print(" ".join(f"{h:>10}" for h in ("channels", "degree", *columns)) + "  note")
    for row in rows:
        line = " ".join(f"{cell or '-':>10}" for cell in cells(row, ".6f"))
        print(f"{line}  {row['note']}".rstrip())
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["channels", "degree", *columns, "note"])
            writer.writerows(cells(row, ".17g") + [row["note"]] for row in rows)
        print(f"wrote {args.out}")
    return 0


def _cmd_cycle_demo(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_dict(load_preset("cycle-demo"))
    result = run_experiment(config, out_dir=args.out)
    traj = result.trajectories[0]
    assert traj is not None
    print("step  mover  profile                         rates")
    for index, (active, profile, rates) in enumerate(
        zip(traj.active_sets, traj.profiles, traj.rates)
    ):
        mover = str(active[0]) if active else "-"
        profile_txt = "  ".join(
            "{" + ",".join(str(k) for k in strat.channels) + "}" for strat in profile
        )
        rates_txt = ", ".join(f"{r:.4g}" for r in rates)
        print(f"{index:>4}  {mover:>5}  {profile_txt:<30}  {rates_txt}")
    print(
        f"profile revisited: cycle of length {traj.cycle_length} "
        f"despite every move strictly improving the mover's rate"
    )
    if args.out is not None:
        print(f"wrote trajectory.csv, aggregate.csv, manifest.json to {args.out}")
    return 0


def _cmd_gibbs_check(args: argparse.Namespace) -> int:
    instance = default_gibbs_instance()
    if args.config is not None:
        instance = final_population(load_config(args.config))
    report = gibbs_check(
        instance,
        beta=args.beta,
        num_steps=args.steps,
        burn_in=args.burn_in,
        update_prob=args.update_prob,
        seed=args.seed,
    )
    print(
        f"beta {report.beta:g}, {report.num_steps} steps after {report.burn_in} burn-in"
    )
    print(f"total-variation distance to the enumerated stationary law: {report.tv_distance:.5f}")
    ranked = sorted(report.stationary.items(), key=lambda kv: -kv[1])[:8]
    print("top stationary profiles (stationary vs empirical):")
    for profile, prob in ranked:
        txt = "  ".join(
            f"(ch {strat.channels[0]}, p {strat.attempt_prob:.3g})" for strat in profile
        )
        print(f"  {txt}: {prob:.5f} vs {report.empirical.get(profile, 0.0):.5f}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "oracle": _cmd_oracle,
    "efficiency": _cmd_efficiency,
    "cycle-demo": _cmd_cycle_demo,
    "gibbs-check": _cmd_gibbs_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # ConfigError subclasses ValueError, and CapacityError RuntimeError
        return 2 if isinstance(exc, (ConfigError, CapacityError)) else 1


if __name__ == "__main__":
    sys.exit(main())
