"""Workload inputs, one timed operation per workload, and its output checks.

Every input is generated here from the workload seed; the program only ever
sees the generated config (or instance). The seed drives the dynamics: it is
the experiment's root seed, or the Gibbs chain's seed. Instances stay fixed,
so runs with different seeds do the same kind and amount of work.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from spectrumshare import harness
from spectrumshare.drm import is_nep_drm
from spectrumshare.fairness import is_nep_fairness

DEFAULT_SEED = 0
OUTPUT_FILES = ("trajectory.csv", "aggregate.csv", "manifest.json")
# Gibbs check: 50k post-burn-in steps on 576 joint profiles land at TV 0.03 to
# 0.05 over seeds 0-9; a sampler whose law drifts from the Gibbs measure
# lands far outside.
GIBBS_TV_TOLERANCE = 0.08
# A sum of floats that an exact-mode switch raises may lose a few ulps.
POTENTIAL_SLACK = 1e-9


def fig3_dynamic_drm(seed: int) -> dict:
    """The fig3-dynamic-drm preset with one trial: estimator-driven BR-DRM."""
    return {
        "label": "growing-population rate maximization, two mixed attempt-probability classes",
        "algorithm": "br-drm",
        "trials": 1,
        "max_iters": 300,
        "seed": seed,
        "instance": {
            "kind": "geometric",
            "num_users": 40,
            "num_channels": 8,
            "channels_per_user": 1,
            "region_radius": 10.0,
            "interference_radius": 2.0,
            "graph_seed": 7,
            "utilities": {"kind": "constant", "value": 100.0},
            "caps": {"kind": "explicit", "values": [0.7, 0.3] * 30},
        },
        "mechanism": {"kind": "backoff", "bound": 1.0},
        "estimator": {
            "kind": "windowed",
            "window": 100,
            "slots_per_update": 100,
            "flush_on_neighbor_update": True,
        },
        "events": [{"at_iter": 100, "num_users": 48}, {"at_iter": 200, "num_users": 60}],
    }


def fig6_dynamic_nbrf(seed: int) -> dict:
    """The fig6-dynamic-nbrf preset: annealed NBRF, then frozen; three trials.

    How much work one trial does depends on its seed (about 10% over seeds
    1-5); the preset's three trials average that out across runs.
    """
    return {
        "label": "growing-population fairness annealing",
        "algorithm": "nbrf",
        "trials": 3,
        "max_iters": 600,
        "seed": seed,
        "instance": {
            "kind": "geometric",
            "num_users": 40,
            "num_channels": 5,
            "channels_per_user": 1,
            "region_radius": 10.0,
            "interference_radius": 2.0,
            "graph_seed": 11,
            "utilities": {"kind": "constant", "value": 100.0},
            "caps": {"kind": "constant", "value": 0.5},
        },
        "mechanism": {"kind": "backoff", "bound": 1.0},
        "schedule": {"kind": "logarithmic", "delta": 1.0},
        "freeze_beta": 5.5,
        "events": [{"at_iter": 200, "num_users": 45}, {"at_iter": 400, "num_users": 50}],
    }


def large_exact_drm(seed: int) -> dict:
    """800 users at mean degree ~8, exact clearances; converges in ~900 steps."""
    return {
        "label": "large geometric rate maximization, exact clearances",
        "algorithm": "br-drm",
        "trials": 1,
        "max_iters": 3000,
        "seed": seed,
        "instance": {
            "kind": "geometric",
            "num_users": 800,
            "num_channels": 8,
            "channels_per_user": 1,
            "region_radius": 20.0,
            "interference_radius": 2.0,
            "graph_seed": 3,
            "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
            "caps": {"kind": "constant", "value": 0.4},
        },
        "mechanism": {"kind": "backoff", "bound": 1.0},
    }


def path_instance_spec() -> dict:
    """Four users on a path, two channels: 576 joint profiles to enumerate."""
    return {
        "kind": "explicit",
        "num_users": 4,
        "num_channels": 2,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "utilities": {"kind": "explicit", "values": [[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]]},
        "caps": {"kind": "constant", "value": 0.5},
    }


GIBBS_ARGS = {"beta": 1.0, "num_steps": 50_000, "burn_in": 1_000, "update_prob": 0.3}


@dataclass
class OpResult:
    seconds: float
    steps: int
    digests: dict[str, str]
    output_bytes: int
    problems: list[str]
    started: float  # time.perf_counter() when the timed call began


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    make_config: Optional[Callable[[int], dict]]  # None: the Gibbs check

    def setup_once(self, seed: int):
        """Config validation plus instance build, as a run does before its trials."""
        if self.make_config is None:
            return self.prepare(seed)
        config = harness.ExperimentConfig.from_dict(self.make_config(seed))
        return harness.build_instance_and_events(config.instance_spec, config.events_spec)

    def prepare(self, seed: int):
        """Untimed inputs of one operation."""
        if self.make_config is None:
            return harness.build_instance_and_events(path_instance_spec())[0]
        return self.make_config(seed)

    def run_once(self, inputs, seed: int, out_dir: Path) -> OpResult:
        if self.make_config is None:
            return _gibbs_op(inputs, seed)
        return _experiment_op(inputs, out_dir)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _experiment_op(raw: dict, out_dir: Path) -> OpResult:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = time.perf_counter()
    config = harness.ExperimentConfig.from_dict(raw)
    result = harness.run_experiment(config, out_dir)
    seconds = time.perf_counter() - start
    digests = {name: _sha256(out_dir / name) for name in OUTPUT_FILES}
    output_bytes = sum((out_dir / name).stat().st_size for name in OUTPUT_FILES)
    problems = []
    exact = config.estimator is None
    for trial, traj in enumerate(result.trajectories):
        if exact and traj.termination == "converged":
            profile, instance = traj.profiles[-1], traj.instances[-1]
            if config.algorithm == "nbrf":
                ok = is_nep_fairness(profile, instance).is_nep
            else:
                ok = is_nep_drm(profile, instance).is_nep
            if not ok:
                problems.append(f"trial {trial} reports converged off equilibrium")
        if exact and config.algorithm == "br-drm" and config.mechanism.kind == "backoff":
            for t, (a, b) in enumerate(zip(traj.potentials, traj.potentials[1:]), start=1):
                if b < a - POTENTIAL_SLACK * max(1.0, abs(a)):
                    problems.append(f"trial {trial}: br_potential fell at step {t}")
                    break
    steps = sum(len(traj) - 1 for traj in result.trajectories)
    return OpResult(seconds, steps, digests, output_bytes, problems, start)


def _gibbs_digest(report) -> str:
    lines = [f"tv {report.tv_distance!r}"]
    for profile, prob in sorted(
        report.empirical.items(),
        key=lambda kv: [(s.channels, s.attempt_prob) for s in kv[0]],
    ):
        key = " ".join(f"{s.channels[0]}:{s.attempt_prob!r}" for s in profile)
        lines.append(f"{key} {prob!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _gibbs_op(instance, seed: int) -> OpResult:
    start = time.perf_counter()
    report = harness.gibbs_check(instance, seed=seed, **GIBBS_ARGS)
    seconds = time.perf_counter() - start
    problems = []
    if not report.tv_distance <= GIBBS_TV_TOLERANCE:
        problems.append(
            f"TV distance {report.tv_distance:.4f} exceeds {GIBBS_TV_TOLERANCE}"
        )
    if not math.isclose(sum(report.empirical.values()), 1.0, rel_tol=1e-9):
        problems.append("empirical visit frequencies do not sum to 1")
    steps = report.num_steps + report.burn_in
    return OpResult(seconds, steps, {"report": _gibbs_digest(report)}, 0, problems, start)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("drm-window", fig3_dynamic_drm),
        Workload("nbrf-anneal", fig6_dynamic_nbrf),
        Workload("drm-exact-large", large_exact_drm),
        Workload("nbrf-fixed-heat", None),
    )
}
