"""The pinned runs and their golden store, tests/golden.json.

    python tests/golden.py

reruns every registered run and every preset from the checkout and rewrites
the store: one line per field, keyed "<run> <field>" (a preset's trials
"<preset> trial <j> <field>") and sorted, so each line of its `git diff`
names the run that moved and how. Run it only in a change that means to
alter outputs, and paste that diff into CHANGES.md.
"""

import copy
import hashlib
import json
import math
import sys
import tempfile
from contextlib import nullcontext
from functools import partial
from pathlib import Path

if __name__ == "__main__":  # the checkout's package, not an installed one
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from spectrumshare import (
    CoolingSchedule,
    EstimatorConfig,
    ExperimentConfig,
    Instance,
    InterferenceGraph,
    UpdateMechanism,
    list_presets,
    load_preset,
    run_br_drm,
    run_experiment,
    run_nbrf,
)
from spectrumshare import dynamics
from spectrumshare.harness import build_instance_and_events

STORE = Path(__file__).with_name("golden.json")
OUTPUTS = ("trajectory.csv", "aggregate.csv", "manifest.json")


def fingerprint(traj):
    """A trajectory's SHA-256 and its readable lines.

    The digest covers termination, converged_at, the active sets, and every
    entry's plays, potential and rates. Floats are written by float.hex and
    summed by math.fsum, so the lines read the same on every Python and numpy.
    """
    digest = hashlib.sha256(f"{traj.termination} {traj.converged_at}".encode())
    digest.update(repr(traj.active_sets).encode())
    stages, switches, last_switch = [], 0, None
    previous, last = traj.profiles[0], None
    entries = zip(traj.profiles, traj.potentials, traj.rates)
    for t, (profile, potential, rates) in enumerate(entries):
        # a profile that stands still repeats its bytes
        if last != (id(profile), potential, id(rates)):
            last = (id(profile), potential, id(rates))
            chunk = repr([(s.channels, s.attempt_prob) for s in profile]) + potential.hex()
            chunk = (chunk + repr([r.hex() for r in rates])).encode()
        digest.update(chunk)
        if t and traj.instances[t] is not traj.instances[t - 1]:
            stages.append(_channel_sets(previous))
        moved = 0 if profile is previous else sum(a != b for a, b in zip(previous, profile))
        if moved:
            switches, last_switch = switches + moved, t
        previous = profile
    rates = traj.rates[-1]
    return {
        "sha256": digest.hexdigest(),
        "steps": len(traj) - 1,
        "termination": traj.termination,
        "converged_at": traj.converged_at,
        "final_users": len(rates),
        "switches": switches,
        "last_switch": last_switch,
        **{f"stage {i}": sets for i, sets in enumerate([*stages, _channel_sets(previous)])},
        "final_potential": traj.potentials[-1].hex(),
        "final_mean_rate": (math.fsum(rates) / len(rates)).hex(),
    }


def _channel_sets(profile):
    return " ".join("|".join(map(str, s.channels)) for s in profile)


def rng_digest(rng):
    return hashlib.sha256(json.dumps(rng.bit_generator.state, sort_keys=True).encode()).hexdigest()


def _named(prefix, fields):
    return {f"{prefix} {key}": value for key, value in fields.items()}


def preset_entry(name, out_dir):
    """Run preset `name` into out_dir; its lines: the outputs' digests, the trials' fingerprints."""
    result = run_experiment(ExperimentConfig.from_dict(load_preset(name)), out_dir=out_dir)
    lines = {
        f"{name} {f}": hashlib.sha256((Path(out_dir) / f).read_bytes()).hexdigest() for f in OUTPUTS
    }
    for trial, traj in enumerate(result.trajectories):
        lines.update(_named(f"{name} trial {trial}", fingerprint(traj)))
    return lines


# Every preset runs window == slots_per_update == 100 with flushing, so the
# presets miss partial windows, windows shorter than one batch, and windows
# that outlive a neighbor's switch. These runs pin those.
def _window_shape(window, slots, flush, rng):
    spec = {
        "kind": "geometric", "num_users": 14, "num_channels": 4,
        "channels_per_user": 2, "region_radius": 4.0, "interference_radius": 2.0,
        "graph_seed": 3,
        "utilities": {"kind": "uniform", "low": 50.0, "high": 150.0},
        "caps": {"kind": "explicit", "values": [0.7, 0.3] * 9},
    }
    inst, arrivals = build_instance_and_events(spec, [{"at_iter": 25, "num_users": 18}])
    return run_br_drm(
        inst, UpdateMechanism.backoff(),
        EstimatorConfig(window, slots, flush_on_neighbor_update=flush),
        max_iters=60, rng=rng, arrivals=arrivals,
    )


# An estimator run with a channel mask, two channels per user, equal utilities
# (so every ranking is decided by the estimates and their ties) and a mid-run
# population event; every other estimator pin runs unmasked.
def _masked_estimator(rng):
    spec = {
        "kind": "geometric", "num_users": 16, "num_channels": 5,
        "channels_per_user": 2, "region_radius": 4.0, "interference_radius": 2.0,
        "graph_seed": 7,
        "utilities": {"kind": "constant", "value": 100.0},
        "caps": {"kind": "explicit", "values": [0.6, 0.3, 0.45] * 7},
        "allowed": [[(n + k) % 4 != 0 for k in range(5)] for n in range(21)],
    }
    inst, arrivals = build_instance_and_events(spec, [{"at_iter": 30, "num_users": 21}])
    return run_br_drm(
        inst, UpdateMechanism.backoff(), EstimatorConfig(window=40, slots_per_update=20),
        max_iters=70, rng=rng, arrivals=arrivals,
    )


_MECHANISMS = {
    "backoff": UpdateMechanism.backoff(),
    "probabilistic": UpdateMechanism.probabilistic(0.9),
    "sweep": UpdateMechanism.sweep_sequential(),
}


# Exact-mode runs in which users whose verdicts keep their plays are active
# again and again: users with no improving switch under backoff, neighbors
# that switch together under probabilistic 0.9, a round-robin sweep, and a
# mid-run population event with two channels per user and a channel mask.
def _exact_case(name):
    spec = {
        "kind": "geometric", "num_users": 40, "num_channels": 5,
        "channels_per_user": 1, "region_radius": 6.0, "interference_radius": 2.0,
        "graph_seed": 5,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
    }
    events_spec = []
    mechanism = _MECHANISMS["backoff" if name == "event-masked" else name]
    if name == "event-masked":
        spec.update(num_users=30, num_channels=4, channels_per_user=2)
        spec["allowed"] = [[(n + k) % 3 != 0 for k in range(4)] for n in range(42)]
        events_spec = [{"at_iter": 40, "num_users": 42}]
    final = events_spec[-1]["num_users"] if events_spec else spec["num_users"]
    spec["caps"] = {"kind": "explicit", "values": [(0.6, 0.3, 0.45)[n % 3] for n in range(final)]}
    inst, arrivals = build_instance_and_events(spec, events_spec)
    return inst, arrivals, mechanism


def _exact(name, rng):
    inst, arrivals, mechanism = _exact_case(name)
    return run_br_drm(inst, mechanism, max_iters=150, rng=rng, arrivals=arrivals)


def _estimator_event(rng):
    inst, arrivals, _ = _exact_case("event-masked")
    return run_br_drm(
        inst, UpdateMechanism.probabilistic(0.4), EstimatorConfig(window=30, slots_per_update=12),
        max_iters=70, rng=rng, arrivals=arrivals,
    )


# Annealed NBRF on 30 users that gain six, under each mechanism.
# "frozen-nbrf": beta = log t reaches 3 at updating time 21, and the users
# arrive at 45, inside the frozen phase; frozen users play their sticky best
# action. "piecewise-nbrf": beta holds for whole levels, so the sampler's memo
# hits; level 3 spans updating times 26-115, the users arrive at 40 inside it,
# and the run freezes at 116 (beta 4).
_ANNEALED = {  # interference radius, arrival, schedule, max_iters, freeze_beta
    "frozen-nbrf": (2.0, 45, CoolingSchedule.logarithmic(1.0), 300, 3.0),
    "piecewise-nbrf": (1.5, 40, CoolingSchedule.piecewise_constant(1.5), 400, 4.0),
}


def _annealed_nbrf(kind, name, rng):
    radius, arrival, schedule, max_iters, freeze_beta = _ANNEALED[kind]
    spec = {
        "kind": "geometric", "num_users": 30, "num_channels": 4,
        "channels_per_user": 1, "region_radius": 5.0, "interference_radius": radius,
        "graph_seed": 9,
        "utilities": {"kind": "uniform", "low": 1.0, "high": 2.0},
        "caps": {"kind": "constant", "value": 0.5},
    }
    inst, arrivals = build_instance_and_events(spec, [{"at_iter": arrival, "num_users": 36}])
    return run_nbrf(
        inst, _MECHANISMS[name], schedule, max_iters=max_iters, rng=rng,
        freeze_beta=freeze_beta, arrivals=arrivals,
    )


def _path(users):
    graph = InterferenceGraph.from_edges(users, [(n, n + 1) for n in range(users - 1)])
    return Instance(graph, 2, 1, tuple((1.0 + n % 3, 2.0) for n in range(users)), (1.0,) * users)


class _Stop(Exception):
    pass


class _StoppingNBRF(dynamics._NoisyBestResponse):
    """NBRF's step that raises after the first sampler draw of updating time `stop`, or records
    the generator state there and goes on."""

    def __init__(self, stop, raises):
        super().__init__(CoolingSchedule.fixed(1.0), None)
        self.stop, self.raises, self.t, self.state = stop, raises, 0, None

    def prepare(self, t, profile, instance, rng, moved):
        self.t = t
        return super().prepare(t, profile, instance, rng, moved)

    def decide(self, n, profile, instance, rng, recorder):
        play = super().decide(n, profile, instance, rng, recorder)
        if self.t == self.stop and self.state is None:
            if self.raises:
                raise _Stop
            self.state = copy.deepcopy(rng).bit_generator.state
        return play


def stopped_run(rng, step):
    """Fixed-heat NBRF on a 5-user path under `step`, a _StoppingNBRF at updating time 137."""
    mechanism = UpdateMechanism.probabilistic(0.5)
    with pytest.raises(_Stop) if step.raises else nullcontext():
        dynamics._play(_path(5), mechanism, rng, 300, None, None, step)


# name: (seed, run on a generator of that seed). An entry pins the run's
# trajectory and the caller's generator after it, which a run leaves where its
# own draws end, whatever it does inside: slot batches, activations and sampler
# draws, across population events, and when it raises.
RUNS = {
    **{
        f"window/{w}-{s}-{f}": (11, partial(_window_shape, w, s, f))
        for w, s, f in ((70, 30, True), (50, 80, True), (100, 100, False))
    },
    "masked-estimator": (5, _masked_estimator),
    **{
        f"exact/{name}": (17, partial(_exact, name))
        for name in ("backoff", "probabilistic", "sweep", "event-masked")
    },
    **{
        f"frozen-nbrf/{name}": (23, partial(_annealed_nbrf, "frozen-nbrf", name))
        for name in _MECHANISMS
    },
    **{
        f"piecewise-nbrf/{name}": (29, partial(_annealed_nbrf, "piecewise-nbrf", name))
        for name in ("backoff", "sweep")
    },
    "caller-rng/drm-exact-backoff": (31, partial(_exact, "backoff")),
    "caller-rng/drm-estimator-event": (31, _estimator_event),
    "caller-rng/nbrf-fixed-probabilistic": (31, lambda rng: run_nbrf(
        _path(5), UpdateMechanism.probabilistic(0.5), CoolingSchedule.fixed(1.0),
        max_iters=400, rng=rng,
    )),
    "caller-rng/nbrf-log-backoff-event": (31, lambda rng: run_nbrf(
        _path(9), UpdateMechanism.backoff(), CoolingSchedule.logarithmic(1.0), max_iters=200,
        rng=rng, freeze_beta=4.0, arrivals=[0] * 6 + [60] * 3,
    )),
    "stopped-run": (37, lambda rng: stopped_run(rng, _StoppingNBRF(137, raises=True))),
}


def cases(group):
    """The names after `group/` of the registered runs in that group, sorted."""
    return sorted(name[len(group) + 1 :] for name in RUNS if name.startswith(group + "/"))


def entry(name):
    """The store lines of a registered run or a preset, as the checkout computes them."""
    if name not in RUNS:
        with tempfile.TemporaryDirectory() as out_dir:
            return preset_entry(name, out_dir)
    seed, run = RUNS[name]
    rng = np.random.default_rng(seed)
    traj = run(rng)
    fields = {} if traj is None else fingerprint(traj)  # the stopped run has no trajectory
    return _named(name, dict(fields, rng_state=rng_digest(rng)))


def load():
    return json.loads(STORE.read_text())


def stored(name):
    """The store's lines for a registered run or a preset."""
    return {key: value for key, value in load().items() if key.split(" ")[0] == name}


def main() -> int:
    names = [*RUNS, *list_presets()]
    store = {key: value for name in names for key, value in entry(name).items()}
    STORE.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(names)} runs and presets, {len(store)} lines, to {STORE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
