"""Experiment configuration, batch orchestration, and result serialization.

Configs are single JSON documents (checked-in presets or user files). A run
executes `trials` independently seeded trials of one algorithm on one
instance, writes a combined trajectory CSV, an aggregate CSV of the
per-iteration means, and a manifest JSON capturing everything needed to
reproduce the outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from . import __version__
from .drm import efficiency_bound, is_nep_drm, naive_expected_rate
from .dynamics import (
    EstimatorConfig,
    PopulationEvent,
    Trajectory,
    UpdateMechanism,
    run_better_response_replay,
    run_br_drm,
    run_nbrf,
    simulate_naive_policy,
)
from .errors import ConfigError
from .fairness import CoolingSchedule, delta_lower_bound, gibbs_stationary, is_nep_fairness
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
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "GibbsCheckReport",
    "build_instance_and_events",
    "run_experiment",
    "gibbs_check",
    "default_gibbs_instance",
    "efficiency_sweep",
    "load_config",
    "load_preset",
    "list_presets",
]

# The optional config keys each algorithm reads. It would silently ignore the
# others, so it rejects them instead.
ALGORITHM_KEYS = {
    "br-drm": ("estimator", "events", "instance.allowed", "mechanism"),
    "nbrf": ("events", "mechanism", "schedule", "freeze_beta"),
    "naive": ("naive",),
    "better-response-replay": ("replay",),
}


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key} is required")
    return mapping[key]


def _as_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be at least {minimum}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description; `raw` keeps the original JSON document."""

    algorithm: str
    trials: int
    max_iters: int
    seed: int
    instance_spec: dict
    mechanism: UpdateMechanism
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
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        algorithm = _require(raw, "algorithm", "config")
        if algorithm not in ALGORITHM_KEYS:
            raise ConfigError(
                f"config.algorithm must be one of {', '.join(ALGORITHM_KEYS)}"
            )
        trials = _as_int(raw.get("trials", 1), "config.trials", minimum=1)
        max_iters = _as_int(raw.get("max_iters", 200), "config.max_iters", minimum=0)
        seed = _as_int(raw.get("seed", 0), "config.seed", minimum=0)
        instance_spec = _require(raw, "instance", "config")
        if not isinstance(instance_spec, dict):
            raise ConfigError("config.instance must be an object")
        mechanism = build_mechanism(raw.get("mechanism", {"kind": "backoff"}))
        estimator = build_estimator(raw.get("estimator"))
        schedule = (
            build_schedule(raw["schedule"]) if raw.get("schedule") is not None else None
        )
        freeze_beta = (
            _as_float(raw["freeze_beta"], "config.freeze_beta")
            if raw.get("freeze_beta") is not None
            else None
        )
        events_spec = raw.get("events", [])
        if not isinstance(events_spec, list):
            raise ConfigError("config.events must be a list")
        replay_spec = raw.get("replay")
        naive_spec = raw.get("naive")
        if algorithm == "nbrf" and schedule is None:
            raise ConfigError("config.schedule is required for the nbrf algorithm")
        for key in sorted(set().union(*ALGORITHM_KEYS.values())):
            value = instance_spec.get("allowed") if key == "instance.allowed" else raw.get(key)
            if value not in (None, []) and key not in ALGORITHM_KEYS[algorithm]:
                readers = [a for a, keys in ALGORITHM_KEYS.items() if key in keys]
                raise ConfigError(f"config.{key} applies only to {' and '.join(readers)}")
        if algorithm == "better-response-replay":
            if replay_spec is None:
                raise ConfigError("config.replay is required for better-response-replay")
            if trials != 1:
                raise ConfigError("config.trials must be 1 for better-response-replay")
        return cls(
            algorithm=algorithm,
            trials=trials,
            max_iters=max_iters,
            seed=seed,
            instance_spec=instance_spec,
            mechanism=mechanism,
            estimator=estimator,
            schedule=schedule,
            freeze_beta=freeze_beta,
            events_spec=tuple(events_spec),
            replay_spec=replay_spec,
            naive_spec=naive_spec,
            oracle_reference=bool(raw.get("oracle_reference", False)),
            label=str(raw.get("label", "")),
            raw=raw,
        )


def build_mechanism(spec: dict) -> UpdateMechanism:
    if not isinstance(spec, dict):
        raise ConfigError("config.mechanism must be an object")
    kind = _require(spec, "kind", "config.mechanism")
    try:
        if kind == "backoff":
            return UpdateMechanism.backoff(
                _as_float(spec.get("bound", 1.0), "config.mechanism.bound")
            )
        if kind == "probabilistic":
            if "update_probs" in spec:
                probs = spec["update_probs"]
                if not isinstance(probs, list) or not probs:
                    raise ConfigError(
                        "config.mechanism.update_probs must be a nonempty list"
                    )
                return UpdateMechanism.probabilistic(
                    [
                        _as_float(q, f"config.mechanism.update_probs[{i}]")
                        for i, q in enumerate(probs)
                    ]
                )
            return UpdateMechanism.probabilistic(
                _as_float(spec.get("update_prob", 0.5), "config.mechanism.update_prob")
            )
        if kind == "sweep-sequential":
            return UpdateMechanism.sweep_sequential()
    except ValueError as exc:
        raise ConfigError(f"config.mechanism: {exc}") from exc
    raise ConfigError(f"config.mechanism.kind {kind!r} is not recognized")


def build_estimator(spec: Optional[dict]) -> Optional[EstimatorConfig]:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("config.estimator must be an object")
    kind = spec.get("kind", "windowed")
    if kind == "exact":
        return None
    if kind != "windowed":
        raise ConfigError(f"config.estimator.kind {kind!r} is not recognized")
    try:
        return EstimatorConfig(
            window=_as_int(spec.get("window", 100), "config.estimator.window", 1),
            slots_per_update=_as_int(
                spec.get("slots_per_update", 100), "config.estimator.slots_per_update", 1
            ),
            flush_on_neighbor_update=bool(spec.get("flush_on_neighbor_update", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"config.estimator: {exc}") from exc


def build_schedule(spec: dict) -> CoolingSchedule:
    if not isinstance(spec, dict):
        raise ConfigError("config.schedule must be an object")
    kind = _require(spec, "kind", "config.schedule")
    try:
        if kind == "fixed-beta":
            return CoolingSchedule.fixed(_as_float(_require(spec, "beta", "config.schedule"), "config.schedule.beta"))
        if kind == "logarithmic":
            return CoolingSchedule.logarithmic(
                _as_float(spec.get("delta", 1.0), "config.schedule.delta")
            )
        if kind == "piecewise-constant":
            return CoolingSchedule.piecewise_constant(
                _as_float(spec.get("delta", 1.0), "config.schedule.delta")
            )
    except ValueError as exc:
        raise ConfigError(f"config.schedule: {exc}") from exc
    raise ConfigError(f"config.schedule.kind {kind!r} is not recognized")


def _build_utilities(
    spec: Any, num_users: int, num_channels: int, rng: np.random.Generator
) -> tuple[tuple[float, ...], ...]:
    path = "config.instance.utilities"
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be an object")
    kind = _require(spec, "kind", path)
    if kind == "constant":
        value = _as_float(_require(spec, "value", path), f"{path}.value")
        return tuple((value,) * num_channels for _ in range(num_users))
    if kind == "uniform":
        low = _as_float(spec.get("low", 0.0), f"{path}.low")
        high = _as_float(spec.get("high", 1.0), f"{path}.high")
        if not high > low:
            raise ConfigError(f"{path}.high must exceed {path}.low")
        draws = rng.uniform(low, high, size=(num_users, num_channels))
        return tuple(tuple(float(x) for x in row) for row in draws)
    if kind == "explicit":
        values = _require(spec, "values", path)
        if (
            not isinstance(values, list)
            or len(values) != num_users
            or any(not isinstance(row, list) or len(row) != num_channels for row in values)
        ):
            raise ConfigError(
                f"{path}.values must be a {num_users} x {num_channels} matrix"
            )
        return tuple(tuple(float(x) for x in row) for row in values)
    raise ConfigError(f"{path}.kind {kind!r} is not recognized")


def _build_caps(spec: Any, num_users: int) -> tuple[float, ...]:
    path = "config.instance.caps"
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be an object")
    kind = _require(spec, "kind", path)
    if kind == "constant":
        value = _as_float(_require(spec, "value", path), f"{path}.value")
        return (value,) * num_users
    if kind == "explicit":
        values = _require(spec, "values", path)
        if not isinstance(values, list) or len(values) != num_users:
            raise ConfigError(f"{path}.values must list {num_users} entries")
        return tuple(float(x) for x in values)
    raise ConfigError(f"{path}.kind {kind!r} is not recognized")


def build_instance_and_events(
    instance_spec: dict, events_spec: Sequence[dict] = ()
) -> tuple[Instance, tuple[PopulationEvent, ...]]:
    """Materialize the instance (and any population events) from config specs.

    The generator RNG is seeded by instance.graph_seed alone, so the instance
    is identical across trials; trial seeds only drive the dynamics. With
    population events, positions and utilities for the final population are
    drawn up front and earlier stages use prefixes, which keeps each stage an
    extension of the previous one.
    """
    path = "config.instance"
    kind = _require(instance_spec, "kind", path)
    num_users = _as_int(_require(instance_spec, "num_users", path), f"{path}.num_users", 1)
    num_channels = _as_int(
        _require(instance_spec, "num_channels", path), f"{path}.num_channels", 1
    )
    channels_per_user = _as_int(
        instance_spec.get("channels_per_user", 1), f"{path}.channels_per_user", 1
    )
    graph_seed = _as_int(instance_spec.get("graph_seed", 0), f"{path}.graph_seed", 0)

    stages = [num_users]
    event_iters = []
    for i, event in enumerate(events_spec):
        epath = f"config.events[{i}]"
        if not isinstance(event, dict):
            raise ConfigError(f"{epath} must be an object")
        at_iter = _as_int(_require(event, "at_iter", epath), f"{epath}.at_iter", 1)
        stage_users = _as_int(
            _require(event, "num_users", epath), f"{epath}.num_users", 1
        )
        if stage_users <= stages[-1]:
            raise ConfigError(f"{epath}.num_users must exceed the previous stage")
        if event_iters and at_iter <= event_iters[-1]:
            raise ConfigError(f"{epath}.at_iter must exceed the previous event")
        stages.append(stage_users)
        event_iters.append(at_iter)
    final_users = stages[-1]
    if events_spec and kind != "geometric":
        raise ConfigError("config.events requires a geometric instance")

    rng = np.random.default_rng(graph_seed)
    if kind == "geometric":
        region = _as_float(
            instance_spec.get("region_radius", 10.0), f"{path}.region_radius"
        )
        reach = _as_float(
            instance_spec.get("interference_radius", 2.0), f"{path}.interference_radius"
        )
        if not (0 < region < math.inf and 0 < reach < math.inf):
            raise ConfigError(f"{path} radii must be positive and finite")
        positions = drop_in_disc(rng, final_users, region)

        def stage_graph(n: int) -> InterferenceGraph:
            return graph_from_positions(positions[:n], reach)

    elif kind == "regular":
        degree = _as_int(_require(instance_spec, "degree", path), f"{path}.degree", 0)

        def stage_graph(n: int) -> InterferenceGraph:
            return build_regular_graph(n, degree)

    elif kind == "explicit":
        edges_raw = instance_spec.get("edges", [])
        if not isinstance(edges_raw, list):
            raise ConfigError(f"{path}.edges must be a list of pairs")
        try:
            edges = [(int(a), int(b)) for a, b in edges_raw]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.edges must be a list of pairs") from exc

        def stage_graph(n: int) -> InterferenceGraph:
            return InterferenceGraph.from_edges(n, edges)

    else:
        raise ConfigError(f"{path}.kind {kind!r} is not recognized")

    utilities = _build_utilities(
        _require(instance_spec, "utilities", path), final_users, num_channels, rng
    )
    caps = _build_caps(_require(instance_spec, "caps", path), final_users)
    allowed = instance_spec.get("allowed")
    if allowed is not None and (
        not isinstance(allowed, list)
        or len(allowed) != final_users
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

    def stage_instance(n: int) -> Instance:
        # graph builders and Instance both report bad specs as ValueError
        try:
            return Instance(
                graph=stage_graph(n),
                num_channels=num_channels,
                channels_per_user=channels_per_user,
                utilities=utilities[:n],
                caps=caps[:n],
                allowed=allowed[:n] if allowed is not None else None,
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    initial = stage_instance(num_users)
    events = tuple(
        PopulationEvent(at_iter, stage_instance(n))
        for at_iter, n in zip(event_iters, stages[1:])
    )
    return initial, events


def _build_replay(
    spec: dict, instance: Instance
) -> tuple[StrategyProfile, list[tuple[int, tuple[int, ...]]]]:
    path = "config.replay"
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must be an object")
    sets = _require(spec, "initial_channel_sets", path)
    probs = spec.get("initial_attempt_probs")
    if probs is None:
        probs = list(instance.caps)
    if (
        not isinstance(sets, list)
        or not isinstance(probs, list)
        or len(sets) != instance.num_users
        or len(probs) != instance.num_users
    ):
        raise ConfigError(f"{path} initial profile must cover every user")
    try:
        profile = make_profile(
            [tuple(int(k) for k in row) for row in sets],
            [float(p) for p in probs],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    moves_raw = _require(spec, "moves", path)
    if not isinstance(moves_raw, list):
        raise ConfigError(f"{path}.moves must be a list")
    moves = []
    for i, move in enumerate(moves_raw):
        try:
            user, channels = move
            moves.append((int(user), tuple(int(k) for k in channels)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}.moves[{i}] must be [user, [channels...]]"
            ) from exc
    return profile, moves


@dataclass
class ExperimentResult:
    """Everything a run produced, before and after serialization."""

    config: ExperimentConfig
    instance: Instance
    events: tuple[PopulationEvent, ...]
    trajectories: list[Optional[Trajectory]]
    naive_rates: Optional[list[tuple[float, ...]]]
    aggregate_rows: list[dict]
    manifest: dict
    oracle_reference: Optional[OracleResult]


def _trial_rng(root_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, trial]))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sum_log_rate(rates: Sequence[float]) -> float:
    return left_sum(math.log(r) if r > 0 else -math.inf for r in rates)


def _channel_set_str(channels: Sequence[int]) -> str:
    return "|".join(str(k) for k in channels)


def _naive_trial_rates(
    config: ExperimentConfig, instance: Instance, rng: np.random.Generator
) -> tuple[float, ...]:
    spec = config.naive_spec or {}
    num_slots = _as_int(spec.get("num_slots", 100_000), "config.naive.num_slots", 1)
    attempt = spec.get("attempt_prob")
    if attempt is None:
        max_degree = max(
            instance.graph.degree(n) for n in range(instance.num_users)
        )
        attempt = min(1.0, instance.num_channels / (max_degree + 1))
    attempt = _as_float(attempt, "config.naive.attempt_prob")
    if not 0.0 <= attempt <= 1.0:
        raise ConfigError("config.naive.attempt_prob must lie in [0, 1]")
    for n in range(instance.num_users):
        row = instance.utilities[n]
        if any(u != row[0] for u in row):
            raise ConfigError(
                "config: the naive algorithm needs per-user constant utilities"
            )
    successes = simulate_naive_policy(instance, attempt, num_slots, rng)
    return tuple(
        instance.utilities[n][0] * successes[n] / num_slots
        for n in range(instance.num_users)
    )


def _run_trial(
    config: ExperimentConfig,
    instance: Instance,
    events: tuple[PopulationEvent, ...],
    rng: np.random.Generator,
) -> Trajectory:
    if config.algorithm == "better-response-replay":
        profile, moves = _build_replay(config.replay_spec, instance)
        try:
            return run_better_response_replay(instance, profile, moves)
        except ValueError as exc:
            raise ConfigError(f"config.replay: {exc}") from exc
    if config.algorithm == "br-drm":
        return run_br_drm(
            instance,
            config.mechanism,
            config.estimator,
            config.max_iters,
            rng,
            events=events,
        )
    return run_nbrf(
        instance,
        config.mechanism,
        config.schedule,
        config.max_iters,
        rng,
        freeze_beta=config.freeze_beta,
        events=events,
    )


def _is_nep_for(profile: StrategyProfile, instance: Instance, algorithm: str) -> bool:
    if algorithm == "nbrf":
        return is_nep_fairness(profile, instance).is_nep
    return is_nep_drm(profile, instance).is_nep


def _aggregate(
    config: ExperimentConfig,
    trajectories: list[Trajectory],
) -> list[dict]:
    """Per-iteration means across trials; shorter trials hold their final state."""
    num_iters = max(len(t) for t in trajectories)
    # Keyed by object identity, which hashes no strategy: a trajectory interns
    # its profiles, holds every profile and instance it recorded, and repeats
    # one rates tuple while its profile stands still.
    nep_cache: dict[tuple[int, int], bool] = {}
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
                last_terms[j] = (left_sum(rates) / len(rates), _sum_log_rate(rates))
            rate_means.append(last_terms[j][0])
            sum_logs.append(last_terms[j][1])
            profile = traj.profiles[idx]
            instance = traj.instances[idx]
            key = (id(profile), id(instance))
            flag = nep_cache.get(key)
            if flag is None:
                flag = nep_cache[key] = _is_nep_for(profile, instance, config.algorithm)
            nep_flags.append(flag)
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
    instance, events = build_instance_and_events(
        config.instance_spec, config.events_spec
    )
    final_users = (events[-1].instance if events else instance).num_users
    if len(config.mechanism.update_probs) not in (1, final_users):
        raise ConfigError(f"config.mechanism.update_probs must list 1 or {final_users} entries")
    trajectories: list[Optional[Trajectory]] = []
    naive_rates: Optional[list[tuple[float, ...]]] = (
        [] if config.algorithm == "naive" else None
    )
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        if naive_rates is not None:
            naive_rates.append(_naive_trial_rates(config, instance, rng))
            trajectories.append(None)
        else:
            trajectories.append(_run_trial(config, instance, events, rng))

    oracle_ref: Optional[OracleResult] = None
    if config.oracle_reference:
        oracle_ref = exhaustive_sum_log_rate(instance)

    if config.algorithm == "naive":
        assert naive_rates is not None
        rate_matrix = list(zip(*naive_rates))
        mean_rates = [left_sum(col) / len(col) for col in rate_matrix]
        aggregate_rows = [
            {
                "iter": 0,
                "mean_rate": left_sum(mean_rates) / len(mean_rates),
                "mean_sum_log_rate": (
                    left_sum(_sum_log_rate(rates) for rates in naive_rates)
                    / len(naive_rates)
                ),
                "frac_at_nep": math.nan,
            }
        ]
    else:
        aggregate_rows = _aggregate(config, trajectories)

    manifest = _build_manifest(
        config, instance, trajectories, naive_rates, oracle_ref
    )
    result = ExperimentResult(
        config=config,
        instance=instance,
        events=events,
        trajectories=trajectories,
        naive_rates=naive_rates,
        aggregate_rows=aggregate_rows,
        manifest=manifest,
        oracle_reference=oracle_ref,
    )
    if out_dir is not None:
        _write_outputs(result, Path(out_dir))
    return result


def _build_manifest(
    config: ExperimentConfig,
    instance: Instance,
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
        entry["final_sum_log_rate"] = _sum_log_rate(rates)
        per_trial.append(entry)
    delta_mode = None
    if config.algorithm == "nbrf" and config.schedule is not None:
        if config.schedule.kind in ("logarithmic", "piecewise-constant"):
            try:
                bound = delta_lower_bound(instance)
                delta_mode = (
                    "sufficient" if config.schedule.delta >= bound else "heuristic"
                )
            except ValueError:
                delta_mode = "heuristic"
    manifest: dict[str, Any] = {
        "algorithm": config.algorithm,
        "config": config.raw,
        "delta_mode": delta_mode,
        "label": config.label,
        "num_users_final": instance.num_users
        if not config.events_spec
        else max(e["num_users"] for e in config.events_spec),
        "package_version": __version__,
        "per_trial": per_trial,
        "root_seed": config.seed,
        "seed_rule": "trial j uses numpy default_rng(SeedSequence([root_seed, j]))",
        "trials": config.trials,
    }
    if oracle_ref is not None:
        manifest["oracle_reference"] = {
            "optimum_sum_log_rate": oracle_ref.best_value,
            "optimizer": list(oracle_ref.best_allocations[0]),
            "search_size": oracle_ref.num_evaluated,
        }
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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "mean_rate", "mean_sum_log_rate", "frac_at_nep"])
        for row in result.aggregate_rows:
            writer.writerow(
                [
                    row["iter"],
                    _fmt(row["mean_rate"]),
                    _fmt(row["mean_sum_log_rate"]),
                    _fmt(row["frac_at_nep"]),
                ]
            )
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
    try:
        mechanism = UpdateMechanism.probabilistic(update_prob)
        schedule = CoolingSchedule.fixed(beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rng = _trial_rng(seed, 0)
    trajectory = run_nbrf(
        instance, mechanism, schedule, max_iters=burn_in + num_steps, rng=rng
    )
    # entry 0 is the initial snapshot; drop it along with the burn-in steps
    empirical = empirical_visit_distribution(trajectory, burn_in=burn_in + 1)
    stationary = gibbs_stationary(instance, beta)
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
    channel_counts: Sequence[int],
    degrees: Sequence[int],
    trials: int = 3,
    seed: int = 0,
    max_iters: int = 500,
) -> list[dict]:
    """Equilibrium-vs-naive rate ratios on regular networks.

    For each admissible (channels, degree) pair: a regular instance with
    equal utilities and caps channels/(degree+1), best-response runs from
    `trials` seeds, per-user ratios against the closed-form naive rate, and
    the guaranteed bound. Inadmissible pairs get a note row instead.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
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
            num_users = 2 * group
            try:
                graph = build_regular_graph(num_users, degree)
            except ValueError as exc:
                row["note"] = f"inadmissible: {exc}"
                rows.append(row)
                continue
            cap = num_channels / group
            instance = Instance(
                graph=graph,
                num_channels=num_channels,
                channels_per_user=1,
                utilities=tuple((1.0,) * num_channels for _ in range(num_users)),
                caps=(cap,) * num_users,
            )
            eta = efficiency_bound(num_channels, degree)
            naive = naive_expected_rate(0, instance, degree)
            ratios = []
            for trial in range(trials):
                rng = _trial_rng(seed, trial)
                traj = run_br_drm(
                    instance,
                    UpdateMechanism.backoff(),
                    None,
                    max_iters,
                    rng,
                )
                ratios.extend(r / naive for r in traj.rates[-1])
            row["eta"] = eta
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
    """Load a config from a JSON file path or a named built-in preset."""
    path = Path(path_or_preset)
    if path.is_file():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    else:
        raw = load_preset(str(path_or_preset))
    return ExperimentConfig.from_dict(raw)
