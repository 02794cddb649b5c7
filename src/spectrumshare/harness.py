"""Experiment configuration, batch orchestration, and result serialization.

Configs are single JSON documents (checked-in presets or user files). A run
executes `trials` independently seeded trials of one algorithm on one
instance, writes a combined trajectory CSV, an aggregate CSV of the
per-iteration means, and a manifest JSON capturing everything needed to
reproduce the outputs byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__, fairness
# is_nep_drm and is_nep_fairness are unused; perfbench/tracing.py patches them
from .drm import efficiency_bound, is_nep_drm, naive_expected_rate
from .dynamics import (
    EstimatorConfig,
    Trajectory,
    UpdateMechanism,
    run_better_response_replay,
    run_br_drm,
    run_nbrf,
    simulate_naive_policy,
)
from .errors import ConfigError
from .fairness import CoolingSchedule, delta_lower_bound, is_nep_fairness, sum_log_rate
from .network import (
    Instance,
    InterferenceGraph,
    StrategyProfile,
    build_regular_graph,
    drop_in_disc,
    graph_from_positions,
    left_sum,
    make_profile,
)
from .oracle import (
    OracleResult,
    empirical_visit_distribution,
    exhaustive_sum_log_rate,
    gibbs_stationary,
)

__all__ = [
    "ExperimentConfig",
    "build_instance_and_events",
    "run_experiment",
    "gibbs_check",
    "default_gibbs_instance",
    "efficiency_sweep",
    "load_config",
    "load_preset",
    "list_presets",
]

REQUIRED = object()  # the default of a key that must be given


class Key(NamedTuple):
    """One row of the key table.

    `type` is the value's JSON type: int, float (any number), bool, str, dict
    or list, where a bool is not a number; a tuple of strings, one of which
    the value must be; `[t]` for a list of t; or `[t, u, ...]` for a list of
    exactly those entries. A default of None reads null as absent; every
    other key rejects null. `minimum` bounds an integer, or for a list its
    length. A key listing `kinds` or `algorithms` is read only under those,
    and elsewhere it is an error to give it.
    """

    type: Any
    default: Any = REQUIRED
    minimum: Optional[int] = None
    kinds: tuple[str, ...] = ()
    algorithms: tuple[str, ...] = ()


# Every config key, by section: the reference for the config format. Each
# entry of `events` is an "event" section. A section with kinds lists `kind`
# first, since its other keys are read by kind.
KEYS: dict[str, dict[str, Key]] = {
    "config": {
        "algorithm": Key(("br-drm", "nbrf", "naive", "better-response-replay")),
        "trials": Key(int, 1, 1),
        "max_iters": Key(int, 200, 0),
        "seed": Key(int, 0, 0),
        "label": Key(str, ""),
        "instance": Key(dict),
        "mechanism": Key(dict, {"kind": "backoff"}, algorithms=("br-drm", "nbrf")),
        "estimator": Key(dict, None, algorithms=("br-drm",)),
        "schedule": Key(dict, REQUIRED, algorithms=("nbrf",)),
        "freeze_beta": Key(float, None, algorithms=("nbrf",)),
        "events": Key(list, [], algorithms=("br-drm", "nbrf")),
        "replay": Key(dict, REQUIRED, algorithms=("better-response-replay",)),
        "naive": Key(dict, None, algorithms=("naive",)),
        "oracle_reference": Key(bool, False),
    },
    "instance": {
        "kind": Key(("geometric", "regular", "explicit")),
        "num_users": Key(int, REQUIRED, 1),
        "num_channels": Key(int, REQUIRED, 1),
        "channels_per_user": Key(int, 1, 1),
        "graph_seed": Key(int, 0, 0),
        "region_radius": Key(float, 10.0, kinds=("geometric",)),
        "interference_radius": Key(float, 2.0, kinds=("geometric",)),
        "degree": Key(int, REQUIRED, 0, kinds=("regular",)),
        "edges": Key([[int, int]], [], kinds=("explicit",)),
        "utilities": Key(dict),
        "caps": Key(dict),
        "allowed": Key(list, None, algorithms=("br-drm",)),
    },
    "utilities": {
        "kind": Key(("constant", "uniform", "explicit")),
        "value": Key(float, kinds=("constant",)),
        "low": Key(float, 0.0, kinds=("uniform",)),
        "high": Key(float, 1.0, kinds=("uniform",)),
        "values": Key([[float]], kinds=("explicit",)),
    },
    "caps": {
        "kind": Key(("constant", "explicit")),
        "value": Key(float, kinds=("constant",)),
        "values": Key([float], kinds=("explicit",)),
    },
    "event": {"at_iter": Key(int, REQUIRED, 1), "num_users": Key(int, REQUIRED, 1)},
    "mechanism": {
        "kind": Key(("backoff", "probabilistic", "sweep-sequential")),
        "bound": Key(float, 1.0, kinds=("backoff",)),
        "update_prob": Key(float, 0.5, kinds=("probabilistic",)),
        "update_probs": Key([float], (), 1, kinds=("probabilistic",)),
    },
    "estimator": {
        "kind": Key(("windowed", "exact"), "windowed"),
        "window": Key(int, 100, 1, kinds=("windowed",)),
        "slots_per_update": Key(int, 100, 1, kinds=("windowed",)),
        "flush_on_neighbor_update": Key(bool, True, kinds=("windowed",)),
    },
    "schedule": {
        "kind": Key(("fixed-beta", "logarithmic", "piecewise-constant")),
        "beta": Key(float, kinds=("fixed-beta",)),
        "delta": Key(float, 1.0, kinds=("logarithmic", "piecewise-constant")),
    },
    "replay": {
        "initial_channel_sets": Key([[int]]),
        "initial_attempt_probs": Key([float], None),
        "moves": Key([[int, [int]]]),
    },
    "naive": {"num_slots": Key(int, 100_000, 1), "attempt_prob": Key(float, None)},
}

# What each mechanism, estimator and schedule kind builds from its checked keys
_BUILD = {
    "backoff": lambda s: UpdateMechanism.backoff(s["bound"]),
    "probabilistic": lambda s: UpdateMechanism.probabilistic(s["update_probs"] or s["update_prob"]),
    "sweep-sequential": lambda s: UpdateMechanism.sweep_sequential(),
    "windowed": lambda s: EstimatorConfig(
        s["window"], s["slots_per_update"], s["flush_on_neighbor_update"]
    ),
    "exact": lambda s: None,
    "fixed-beta": lambda s: CoolingSchedule.fixed(s["beta"]),
    "logarithmic": lambda s: CoolingSchedule.logarithmic(s["delta"]),
    "piecewise-constant": lambda s: CoolingSchedule.piecewise_constant(s["delta"]),
}

_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    list: ((list,), "a list"),
}


def _misfit(value: Any, form: Any) -> Optional[str]:
    """None if `value` has the table type `form`, else where the fault is and what is expected."""
    if type(form) is type:
        return None if type(value) in _JSON_TYPES[form][0] else f" must be {_JSON_TYPES[form][1]}"
    if type(form) is tuple:
        return None if value in form else f" must be one of {', '.join(form)}"
    if type(value) is not list:
        return " must be a list"
    exact = len(form) > 1  # exactly these entries
    if exact and len(value) != len(form):
        return f" must be a list of {len(form)} entries"
    for i, item in enumerate(value):
        fault = _misfit(item, form[i] if exact else form[0])
        if fault is not None:
            return f"[{i}]{fault}"
    return None


def _only(path: str, readers: Sequence[str]) -> ConfigError:
    return ConfigError(f"{path} applies only to {' and '.join(readers)}")


def _read(spec: Any, section: str, path: str, algorithm: Optional[str] = None) -> dict:
    """Check one config section against its key table and fill in defaults.

    Returns every key of the section, float keys as floats; a key that the
    section's kind (or `algorithm`, when given) does not read is None.
    Unknown keys, values of the wrong JSON type, missing required keys and
    keys given where nothing reads them are ConfigErrors naming the key's path.
    """
    if type(spec) is not dict:
        raise ConfigError(f"{path} must be an object")
    keys = KEYS[section]
    for key in spec:
        if key not in keys:
            raise ConfigError(f"{path}.{key} is not a recognized key")
    values: dict[str, Any] = {}
    for key, (form, default, minimum, kinds, algorithms) in keys.items():
        value = spec.get(key)
        if (kinds and values["kind"] not in kinds) or (
            algorithms and algorithm is not None and algorithm not in algorithms
        ):
            if value not in (None, []):
                raise _only(f"{path}.{key}", kinds or algorithms)
            values[key] = None
        elif value is None and (default is None or key not in spec):
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key} is required")
            values[key] = default
        elif (fault := _misfit(value, form)) is not None:
            raise ConfigError(f"{path}.{key}{fault}")
        elif minimum is not None and type(value) is list and len(value) < minimum:
            raise ConfigError(f"{path}.{key} must have {minimum} or more entries")
        elif minimum is not None and type(value) is int and value < minimum:
            raise ConfigError(f"{path}.{key} must be at least {minimum}")
        else:
            values[key] = float(value) if form is float else value
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; `raw` keeps the original JSON document.

    The instance and events sections are read by build_instance_and_events.
    `replay_spec` and `naive_spec` hold their sections' checked values.
    """

    algorithm: str
    trials: int
    max_iters: int
    seed: int
    instance_spec: dict
    mechanism: Optional[UpdateMechanism]
    estimator: Optional[EstimatorConfig]
    schedule: Optional[CoolingSchedule]
    freeze_beta: Optional[float]
    events_spec: tuple[dict, ...]
    replay_spec: Optional[dict]
    naive_spec: Optional[dict]
    oracle_reference: bool
    label: str
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if type(raw) is not dict:
            raise ConfigError("config must be a JSON object")
        top = _read(raw, "config", "config", raw.get("algorithm"))
        algorithm = top["algorithm"]
        allowed_by = KEYS["instance"]["allowed"].algorithms
        if top["instance"].get("allowed") is not None and algorithm not in allowed_by:
            raise _only("config.instance.allowed", allowed_by)
        if top["freeze_beta"] is not None and not math.isfinite(top["freeze_beta"]):
            raise ConfigError("config.freeze_beta must be finite; null never freezes")
        if algorithm == "better-response-replay" and top["trials"] != 1:
            raise ConfigError("config.trials must be 1 for better-response-replay")
        mechanism = top["mechanism"] or {}
        if "update_prob" in mechanism and mechanism.get("update_probs"):
            raise ConfigError("config.mechanism takes update_prob or update_probs, not both")
        built = {}
        for section in ("mechanism", "estimator", "schedule"):
            built[section] = None
            if top[section] is not None:
                spec = _read(top[section], section, f"config.{section}")
                try:
                    built[section] = _BUILD[spec["kind"]](spec)
                except ValueError as exc:
                    raise ConfigError(f"config.{section}: {exc}") from exc
        replay = naive = None
        if top["replay"] is not None:
            replay = _read(top["replay"], "replay", "config.replay")
        if algorithm == "naive":
            naive = _read(top["naive"] or {}, "naive", "config.naive")
            if naive["attempt_prob"] is not None and not 0.0 <= naive["attempt_prob"] <= 1.0:
                raise ConfigError("config.naive.attempt_prob must lie in [0, 1]")
        return cls(
            algorithm=algorithm,
            trials=top["trials"],
            max_iters=top["max_iters"],
            seed=top["seed"],
            instance_spec=top["instance"],
            mechanism=built["mechanism"],
            estimator=built["estimator"],
            schedule=built["schedule"],
            freeze_beta=top["freeze_beta"],
            events_spec=tuple(top["events"] or ()),
            replay_spec=replay,
            naive_spec=naive,
            oracle_reference=top["oracle_reference"],
            label=top["label"],
            raw=raw,
        )


def build_instance_and_events(
    instance_spec: dict, events_spec: Sequence[dict] = ()
) -> tuple[Instance, Optional[tuple[int, ...]]]:
    """The config's whole population and each user's arrival time (None without events).

    The generator RNG is seeded by instance.graph_seed alone, so the instance
    is identical across trials; trial seeds only drive the dynamics. The
    population is built once: users present from the start arrive at 0, and
    each event's newcomers at its at_iter, which the learning driver turns
    into stages that are prefixes of the population (Instance.prefix).
    """
    path = "config.instance"
    spec = _read(instance_spec, "instance", path)
    kind, num_channels = spec["kind"], spec["num_channels"]
    arrivals = [0] * spec["num_users"]
    for i, event in enumerate(events_spec):
        epath = f"config.events[{i}]"
        event = _read(event, "event", epath)
        at_iter, stage_users = event["at_iter"], event["num_users"]
        if stage_users <= len(arrivals):
            raise ConfigError(f"{epath}.num_users must exceed the previous stage")
        if i and at_iter <= arrivals[-1]:
            raise ConfigError(f"{epath}.at_iter must exceed the previous event")
        arrivals += [at_iter] * (stage_users - len(arrivals))
    final_users = len(arrivals)
    if events_spec and kind != "geometric":
        raise ConfigError("config.events requires a geometric instance")
    utility_spec = _read(spec["utilities"], "utilities", f"{path}.utilities")
    cap_spec = _read(spec["caps"], "caps", f"{path}.caps")

    # seeded only when something draws from it: positions, then utilities
    rng = None
    if kind == "geometric" or utility_spec["kind"] == "uniform":
        rng = np.random.default_rng(spec["graph_seed"])
    if kind == "geometric":
        region, reach = spec["region_radius"], spec["interference_radius"]
        if not (0 < region < math.inf and 0 < reach < math.inf):
            raise ConfigError(f"{path} radii must be positive and finite")
        positions = drop_in_disc(rng, final_users, region)

    utilities = utility_spec["values"]
    if utility_spec["kind"] == "constant":
        utilities = ((utility_spec["value"],) * num_channels,) * final_users
    elif utility_spec["kind"] == "uniform":
        low, high = utility_spec["low"], utility_spec["high"]
        if not high > low:
            raise ConfigError(f"{path}.utilities.high must exceed {path}.utilities.low")
        utilities = rng.uniform(low, high, size=(final_users, num_channels)).tolist()
    caps = cap_spec["values"]
    if cap_spec["kind"] == "constant":
        caps = (cap_spec["value"],) * final_users
    allowed = spec["allowed"]
    if allowed is not None and (
        len(allowed) != final_users
        or any(
            not isinstance(row, list)
            or len(row) != num_channels
            or any(type(b) not in (bool, int) or b not in (0, 1) for b in row)
            for row in allowed
        )
    ):
        raise ConfigError(
            f"{path}.allowed must be a {final_users} x {num_channels} "
            "mask of true/false or 0/1 entries"
        )
    # graph builders and Instance both report bad specs as ValueError
    try:
        if kind == "geometric":
            graph = graph_from_positions(positions, reach)
        elif kind == "regular":
            graph = build_regular_graph(final_users, spec["degree"])
        else:
            graph = InterferenceGraph.from_edges(final_users, spec["edges"])
        final = Instance(graph, num_channels, spec["channels_per_user"], utilities, caps, allowed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return final, tuple(arrivals) if events_spec else None


@dataclass
class ExperimentResult:
    """Everything a run produced, before and after serialization."""

    config: ExperimentConfig
    instance: Instance
    trajectories: list[Optional[Trajectory]]
    naive_rates: Optional[list[tuple[float, ...]]]
    aggregate_rows: list[dict]
    manifest: dict
    oracle_reference: Optional[OracleResult]


def _trial_rng(root_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, trial]))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _channel_set_str(channels: Sequence[int]) -> str:
    return "|".join(str(k) for k in channels)


def _trial_runner(
    config: ExperimentConfig, instance: Instance, arrivals: Optional[tuple[int, ...]]
) -> Callable[[np.random.Generator], Any]:
    """One trial as a function of its generator; the setup all trials share runs once.

    A naive trial returns per-user rates; every other trial a Trajectory.
    """
    if config.algorithm == "naive":
        num_slots, attempt = config.naive_spec["num_slots"], config.naive_spec["attempt_prob"]
        if attempt is None:
            attempt = min(1.0, instance.num_channels / (instance.graph.max_degree + 1))
        if any(u != row[0] for row in instance.utilities for u in row):
            raise ConfigError("config: the naive algorithm needs per-user constant utilities")

        def naive_trial(rng: np.random.Generator) -> tuple[float, ...]:
            successes = simulate_naive_policy(instance, attempt, num_slots, rng)
            return tuple(
                instance.utilities[n][0] * successes[n] / num_slots
                for n in range(instance.num_users)
            )

        return naive_trial
    if config.algorithm == "better-response-replay":
        spec = config.replay_spec
        sets = [tuple(row) for row in spec["initial_channel_sets"]]
        probs = spec["initial_attempt_probs"]
        if probs is None:
            probs = instance.caps
        if len(sets) != instance.num_users or len(probs) != instance.num_users:
            raise ConfigError("config.replay initial profile must cover every user")
        moves = [(user, tuple(channels)) for user, channels in spec["moves"]]

        def replay_trial(rng: np.random.Generator) -> Trajectory:
            try:
                return run_better_response_replay(instance, make_profile(sets, probs), moves)
            except ValueError as exc:
                raise ConfigError(f"config.replay: {exc}") from exc

        return replay_trial
    if config.algorithm == "br-drm":
        return lambda rng: run_br_drm(
            instance, config.mechanism, config.estimator, config.max_iters, rng, arrivals=arrivals
        )
    try:
        fairness._require_single_channel(instance)
    except ValueError as exc:
        raise ConfigError(f"config.instance: {exc}") from exc
    return lambda rng: run_nbrf(
        instance,
        config.mechanism,
        config.schedule,
        config.max_iters,
        rng,
        freeze_beta=config.freeze_beta,
        arrivals=arrivals,
    )


def _aggregate(trajectories: list[Trajectory]) -> list[dict]:
    """Per-iteration means across trials; shorter trials hold their final state."""
    num_iters = max(len(t) for t in trajectories)
    # a trajectory repeats one rates tuple while its profile stands still
    last_rates: list[Optional[tuple[float, ...]]] = [None] * len(trajectories)
    last_terms: list[tuple[float, float]] = [(0.0, 0.0)] * len(trajectories)
    rows = []
    for it in range(num_iters):
        rate_means = []
        sum_logs = []
        nep_flags = []
        for j, traj in enumerate(trajectories):
            idx = min(it, len(traj) - 1)
            rates = traj.rates[idx]
            if rates is not last_rates[j]:
                last_rates[j] = rates
                last_terms[j] = (left_sum(rates) / len(rates), sum_log_rate(rates))
            rate_means.append(last_terms[j][0])
            sum_logs.append(last_terms[j][1])
            nep_flags.append(traj.at_nep[idx])
        rows.append(
            {
                "iter": it,
                "mean_rate": left_sum(rate_means) / len(rate_means),
                "mean_sum_log_rate": left_sum(sum_logs) / len(sum_logs),
                "frac_at_nep": sum(nep_flags) / len(nep_flags),
            }
        )
    return rows


def run_experiment(
    config: ExperimentConfig, out_dir: Optional[Union[str, Path]] = None
) -> ExperimentResult:
    """Run all trials serially with per-trial seeds and optionally write outputs.

    Trial j uses a generator seeded from the sequence [root seed, j], so any
    trial can be reproduced in isolation. Output files never contain
    timestamps or absolute paths; identical configs produce identical bytes.
    """
    instance, arrivals = build_instance_and_events(config.instance_spec, config.events_spec)
    users = instance.num_users
    if config.mechanism is not None and len(config.mechanism.update_probs) not in (1, users):
        raise ConfigError(f"config.mechanism.update_probs must list 1 or {users} entries")
    run_trial = _trial_runner(config, instance, arrivals)
    # before the trials: an instance the oracle cannot take fails the run up front
    oracle_ref = oracle_optimum(instance) if config.oracle_reference else None
    outcomes = [run_trial(_trial_rng(config.seed, trial)) for trial in range(config.trials)]
    trajectories: list[Optional[Trajectory]] = outcomes
    naive_rates: Optional[list[tuple[float, ...]]] = None
    if config.algorithm == "naive":
        trajectories, naive_rates = [None] * config.trials, outcomes
        mean_rates = [left_sum(col) / len(col) for col in zip(*naive_rates)]
        aggregate_rows = [
            {
                "iter": 0,
                "mean_rate": left_sum(mean_rates) / len(mean_rates),
                "mean_sum_log_rate": (
                    left_sum(sum_log_rate(rates) for rates in naive_rates)
                    / len(naive_rates)
                ),
                "frac_at_nep": math.nan,
            }
        ]
    else:
        aggregate_rows = _aggregate(trajectories)

    manifest = _build_manifest(config, instance, trajectories, naive_rates, oracle_ref)
    result = ExperimentResult(
        config=config,
        instance=instance,
        trajectories=trajectories,
        naive_rates=naive_rates,
        aggregate_rows=aggregate_rows,
        manifest=manifest,
        oracle_reference=oracle_ref,
    )
    if out_dir is not None:
        _write_outputs(result, Path(out_dir))
    return result


def final_population(config: ExperimentConfig) -> Instance:
    """The config's instance after its last population event."""
    return build_instance_and_events(config.instance_spec, config.events_spec)[0]


def oracle_optimum(instance: Instance) -> OracleResult:
    """exhaustive_sum_log_rate; an instance outside its domain is a ConfigError."""
    try:
        return exhaustive_sum_log_rate(instance)
    except ValueError as exc:  # more than one channel per user, or no ranking possible
        raise ConfigError(f"config.instance: {exc}") from exc


def oracle_summary(result: OracleResult) -> dict:
    """The optimum, its first optimizer and the search size, as a manifest or CLI reports them."""
    return {
        "optimum_sum_log_rate": result.best_value,
        "optimizer": list(result.best_allocations[0]),
        "search_size": result.num_evaluated,
    }


def _build_manifest(
    config: ExperimentConfig,
    final: Instance,
    trajectories: list[Optional[Trajectory]],
    naive_rates: Optional[list[tuple[float, ...]]],
    oracle_ref: Optional[OracleResult],
) -> dict:
    per_trial = []
    for trial in range(config.trials):
        entry: dict[str, Any] = {"trial": trial, "seed_sequence": [config.seed, trial]}
        traj = trajectories[trial]
        if traj is None:
            assert naive_rates is not None
            rates = naive_rates[trial]
        else:
            rates = traj.rates[-1]
            entry.update(
                {
                    "steps": len(traj) - 1,
                    "termination": traj.termination,
                    "converged_at": traj.converged_at,
                    "cycle_length": traj.cycle_length,
                }
            )
        entry["final_mean_rate"] = left_sum(rates) / len(rates)
        entry["final_sum_log_rate"] = sum_log_rate(rates)
        per_trial.append(entry)
    delta_mode = None
    # only nbrf reads a schedule
    if config.schedule is not None and config.schedule.kind != "fixed-beta":
        try:
            bound = delta_lower_bound(final)
            delta_mode = "sufficient" if config.schedule.delta >= bound else "heuristic"
        except ValueError:
            delta_mode = "heuristic"
    manifest: dict[str, Any] = {
        "algorithm": config.algorithm,
        "config": config.raw,
        "delta_mode": delta_mode,
        "label": config.label,
        "num_users_final": final.num_users,
        "package_version": __version__,
        "per_trial": per_trial,
        "root_seed": config.seed,
        "seed_rule": "trial j uses numpy default_rng(SeedSequence([root_seed, j]))",
        "trials": config.trials,
    }
    if oracle_ref is not None:
        manifest["oracle_reference"] = oracle_summary(oracle_ref)
    return manifest


def _write_step(fh, head: str, tails: list[str]) -> None:
    fh.write(head + ("\n" + head).join(tails) + "\n")


def _write_trajectory(fh, trial: int, traj: Trajectory) -> None:
    """One trial's rows: `trial,iter,` then a per-user tail.

    A user's tail `user,channel_set,attempt_prob,rate` is reformatted only
    when its Strategy object or its rate differs from the previous step. No
    field holds a comma, quote or newline, so these are csv.writer's bytes.
    """
    tails: list[str] = []
    last_profile: StrategyProfile = ()
    last_rates: tuple[float, ...] = ()
    for index, (profile, rates) in enumerate(zip(traj.profiles, traj.rates)):
        if profile is not last_profile or rates is not last_rates:
            for user, strat in enumerate(profile):
                if (
                    user < len(last_profile)
                    and strat is last_profile[user]
                    and rates[user] == last_rates[user]
                ):
                    continue
                tail = (
                    f"{user},{_channel_set_str(strat.channels)},"
                    f"{_fmt(strat.attempt_prob)},{_fmt(rates[user])}"
                )
                if user < len(tails):
                    tails[user] = tail
                else:
                    tails.append(tail)
            last_profile, last_rates = profile, rates
        _write_step(fh, f"{trial},{index},", tails)


def _write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = result.config
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        fh.write("trial,iter,user,channel_set,attempt_prob,expected_rate\n")
        if config.algorithm == "naive":
            assert result.naive_rates is not None
            for trial, rates in enumerate(result.naive_rates):
                tails = [f"{user},,,{_fmt(rate)}" for user, rate in enumerate(rates)]
                _write_step(fh, f"{trial},0,", tails)
        else:
            for trial, traj in enumerate(result.trajectories):
                assert traj is not None
                _write_trajectory(fh, trial, traj)
    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        columns = ("iter", "mean_rate", "mean_sum_log_rate", "frac_at_nep")
        fh.write(",".join(columns) + "\n")
        for row in result.aggregate_rows:
            fh.write(",".join(_fmt(row[column]) for column in columns) + "\n")
    with open(out_dir / "manifest.json", "w", newline="") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class GibbsCheckReport:
    """Empirical-vs-enumerated stationary comparison for a fixed-heat chain."""

    tv_distance: float
    beta: float
    num_steps: int
    burn_in: int
    empirical: dict[StrategyProfile, float]
    stationary: dict[StrategyProfile, float]


def gibbs_check(
    instance: Instance,
    beta: float,
    num_steps: int,
    burn_in: int,
    update_prob: float = 0.3,
    seed: int = 0,
) -> GibbsCheckReport:
    """Run a fixed-heat chain and measure its distance to the enumerated law."""
    if num_steps < 1:
        raise ConfigError("gibbs check needs at least one post-burn-in step")
    if burn_in < 0:
        raise ConfigError("burn_in must be nonnegative")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    try:
        mechanism = UpdateMechanism.probabilistic(update_prob)
        schedule = CoolingSchedule.fixed(beta)
        # enumerate first: an instance too large or outside the game raises before the chain runs
        stationary = gibbs_stationary(instance, beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rng = _trial_rng(seed, 0)
    trajectory = run_nbrf(
        instance, mechanism, schedule, max_iters=burn_in + num_steps, rng=rng
    )
    # entry 0 is the initial snapshot; drop it along with the burn-in steps
    empirical = empirical_visit_distribution(trajectory, burn_in=burn_in + 1)
    support = set(empirical) | set(stationary)
    tv = 0.5 * left_sum(
        abs(empirical.get(p, 0.0) - stationary.get(p, 0.0)) for p in support
    )
    return GibbsCheckReport(tv, beta, num_steps, burn_in, empirical, stationary)


def default_gibbs_instance() -> Instance:
    """Two adjacent users, two channels; small enough to enumerate exactly."""
    return Instance(
        graph=InterferenceGraph.from_edges(2, [(0, 1)]),
        num_channels=2,
        channels_per_user=1,
        utilities=((1.0, 2.0), (2.0, 1.0)),
        caps=(0.5, 0.5),
    )


def efficiency_sweep(
    channel_counts: Sequence[int], degrees: Sequence[int], trials: int = 3, seed: int = 0
) -> list[dict]:
    """Equilibrium-vs-naive rate ratios on regular networks.

    Each admissible (channels, degree) pair runs as a br-drm config on a
    `regular` instance of 2(degree+1) users with equal utilities and caps
    channels/(degree+1), through run_experiment; its row holds the final
    per-user rates over the closed-form naive rate, and the guaranteed bound.
    Inadmissible pairs get a note row instead.
    """
    base = {"algorithm": "br-drm", "trials": trials, "seed": seed}
    _read(dict(base, instance={}), "config", "config", "br-drm")  # even if no pair runs
    if min(channel_counts, default=1) < 1 or min(degrees, default=0) < 0:
        raise ConfigError("channel counts must be at least 1 and degrees nonnegative")
    rows = []
    for num_channels in channel_counts:
        for degree in degrees:
            row: dict[str, Any] = {
                "num_channels": num_channels,
                "degree": degree,
                "eta": None,
                "min_ratio": None,
                "mean_ratio": None,
                "note": "",
            }
            group = degree + 1
            if group % num_channels != 0:
                row["note"] = (
                    f"inadmissible: degree+1 = {group} is not a multiple of "
                    f"{num_channels} channels"
                )
                rows.append(row)
                continue
            config = ExperimentConfig.from_dict(
                dict(
                    base,
                    max_iters=500,  # at seed 0, 4 channels at degree 23 take 398 steps
                    instance={
                        "kind": "regular",
                        "num_users": 2 * group,
                        "degree": degree,
                        "num_channels": num_channels,
                        "utilities": {"kind": "constant", "value": 1.0},
                        "caps": {"kind": "constant", "value": num_channels / group},
                    },
                )
            )
            result = run_experiment(config)
            naive = naive_expected_rate(0, result.instance, degree)
            ratios = [r / naive for traj in result.trajectories for r in traj.rates[-1]]
            row["eta"] = efficiency_bound(num_channels, degree)
            row["min_ratio"] = min(ratios)
            row["mean_ratio"] = left_sum(ratios) / len(ratios)
            rows.append(row)
    return rows


def _preset_root():
    return resources.files("spectrumshare") / "presets"


def list_presets() -> list[str]:
    return sorted(
        entry.name[: -len(".json")]
        for entry in _preset_root().iterdir()
        if entry.name.endswith(".json")
    )


def load_preset(name: str) -> dict:
    entry = _preset_root() / f"{name}.json"
    if not entry.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    return json.loads(entry.read_text())


def load_config(path_or_preset: Union[str, Path]) -> ExperimentConfig:
    """Load a config from a preset name or a JSON file path.

    A str naming a preset is always the packaged preset, even beside a file
    of that name; `./name` reads the file. Any other argument that is no
    file is reported as an unknown preset.
    """
    path = Path(path_or_preset)
    if path_or_preset in list_presets() or not path.is_file():
        return ExperimentConfig.from_dict(load_preset(str(path_or_preset)))
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)
