"""Command-line front end: run experiments, oracles, and diagnostic checks."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import CapacityError, ConfigError
from .harness import (
    ExperimentConfig,
    build_instance_and_events,
    default_gibbs_instance,
    efficiency_sweep,
    gibbs_check,
    list_presets,
    load_config,
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
        help="optional config whose instance replaces the built-in two-user demo",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    raw = dict(config.raw)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.max_iters is not None:
        raw["max_iters"] = args.max_iters
    config = ExperimentConfig.from_dict(raw)
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
    config = load_config(args.config)
    instance, events = build_instance_and_events(
        config.instance_spec, config.events_spec
    )
    result = oracle_optimum(events[-1].instance if events else instance)
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
    header = ["channels", "degree", "eta", "min_ratio", "mean_ratio", "note"]
    print(" ".join(f"{h:>10}" for h in header[:5]) + "  note")
    for row in rows:
        if row["eta"] is None:
            print(
                f"{row['num_channels']:>10} {row['degree']:>10} "
                + " ".join(f"{'-':>10}" for _ in range(3))
                + f"  {row['note']}"
            )
        else:
            print(
                f"{row['num_channels']:>10} {row['degree']:>10} "
                f"{row['eta']:>10.6f} {row['min_ratio']:>10.6f} "
                f"{row['mean_ratio']:>10.6f}"
            )
    if args.out is not None:
        import csv as _csv

        with open(args.out, "w", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [
                        row["num_channels"],
                        row["degree"],
                        "" if row["eta"] is None else f"{row['eta']:.17g}",
                        "" if row["min_ratio"] is None else f"{row['min_ratio']:.17g}",
                        "" if row["mean_ratio"] is None else f"{row['mean_ratio']:.17g}",
                        row["note"],
                    ]
                )
        print(f"wrote {args.out}")
    return 0


def _cmd_cycle_demo(args: argparse.Namespace) -> int:
    config = load_config("cycle-demo")
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
    if traj.termination == "cycle-detected":
        print(
            f"profile revisited: cycle of length {traj.cycle_length} "
            f"despite every move strictly improving the mover's rate"
        )
    else:
        print(f"termination: {traj.termination}")
    if args.out is not None:
        print(f"wrote trajectory.csv, aggregate.csv, manifest.json to {args.out}")
    return 0


def _cmd_gibbs_check(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = load_config(args.config)
        instance, _ = build_instance_and_events(
            config.instance_spec, config.events_spec
        )
    else:
        instance = default_gibbs_instance()
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
    except (ConfigError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
