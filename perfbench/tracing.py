"""Span tracing at spectrumshare's module boundaries, installed from outside.

The tracer replaces the module attributes that one module of the package looks
up in another (harness -> dynamics.run_br_drm, dynamics -> fairness.
sample_noisy_br, ...) with timing wrappers, and `uninstall` puts every
original back. Nothing under src/ changes.

Two kinds of wrapper exist. A *span* records name, start, end, parent span and
trial id for every call; it wraps the phase-level functions (experiment, trial
loop, instance build, equilibrium checks, enumeration). A *call* wrapper only
adds to a per-function count and total, because the functions it wraps
(clearance formulas, fair utility, sampler, slot simulator, activation) run
hundreds of thousands of times per experiment and a span each would cost more
memory than the run itself. The time of the outermost call under a span is
charged to that span, so self time stays exact: a span's duration minus its
child spans minus its outermost calls.

The package is single-threaded and has no queues, so no layer waits; the
tracer measures busy time and counts only.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from spectrumshare import drm, dynamics, fairness, harness
from spectrumshare.errors import DegenerateInstanceError

ROOT, LOOP, SPAN, CALL = "root", "loop", "span", "call"

# (module, attribute the caller looks up, wrapper kind)
PATCHES = (
    (harness, "run_experiment", ROOT),
    (harness, "gibbs_check", ROOT),
    (harness, "build_instance_and_events", SPAN),
    (harness, "graph_from_positions", SPAN),
    (harness, "run_br_drm", LOOP),
    (harness, "run_nbrf", LOOP),
    (harness, "is_nep_drm", SPAN),
    (harness, "is_nep_fairness", SPAN),
    (harness, "gibbs_stationary", SPAN),
    (harness, "empirical_visit_distribution", SPAN),
    (dynamics, "is_nep_drm", SPAN),
    (dynamics, "is_nep_fairness", SPAN),
    (dynamics, "simulate_slot", CALL),
    (dynamics, "select_active", CALL),
    (dynamics, "br_potential", CALL),
    (dynamics, "exact_potential", CALL),
    (dynamics, "sample_noisy_br", CALL),
    (dynamics, "noisy_br_distribution", CALL),
    (dynamics, "cooperative_utility", CALL),
    (dynamics, "success_probability", CALL),
    (fairness, "noisy_br_distribution", CALL),
    (fairness, "cooperative_utility", CALL),
    (fairness, "log_interference", CALL),
    (drm, "success_probability", CALL),
    (drm, "log_interference", CALL),
)

# Degenerate draws are counted where they leave the sampler for dynamics.
SAMPLER_EXITS = ("dynamics.sample_noisy_br", "dynamics.noisy_br_distribution")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trial: Optional[int]
    call_time: float = 0.0  # time of the outermost calls made directly under it


@dataclass
class Op:
    """Everything traced during one root call (one experiment or Gibbs check)."""

    spans: list[Span] = field(default_factory=list)
    calls: dict[str, list] = field(default_factory=dict)  # name -> [count, seconds]
    degenerate: int = 0
    loops: list[tuple] = field(default_factory=list)  # (fn, args, kwargs, trajectory)
    result: Any = None
    next_trial: int = 0


class Tracer:
    """Wraps the PATCHES while installed; one `Op` per root call."""

    def __init__(self):
        self.ops: list[Op] = []
        self._op: Optional[Op] = None
        self._open: list[int] = []
        self._call_depth = 0
        self._trial: Optional[int] = None
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, kind in PATCHES:
            original = getattr(module, attr)
            name = f"{_short(module)}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, getattr(self, f"_wrap_{kind}")(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _begin(self, name: str) -> Span:
        # Spans wrap phase functions, which no call-wrapped function reaches,
        # so a span never opens inside a call.
        op = self._op
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self._trial)
        op.spans.append(span)
        self._open.append(len(op.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap_root(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._op is not None:
                return fn(*args, **kwargs)
            self._op = Op()
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
                self.ops.append(self._op)
                self._op = None
            self.ops[-1].result = result
            return result

        return wrapper

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return wrapper

    def _wrap_loop(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            self._trial, op.next_trial = op.next_trial, op.next_trial + 1
            span = self._begin(name)
            try:
                trajectory = fn(*args, **kwargs)
            finally:
                self._end(span)
                self._trial = None
            op.loops.append((fn, args, kwargs, trajectory))
            return trajectory

        return wrapper

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        counts_degenerate = name in SAMPLER_EXITS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            self._call_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except DegenerateInstanceError:
                if counts_degenerate:
                    op.degenerate += 1
                raise
            finally:
                elapsed = clock() - start
                self._call_depth -= 1
                totals = op.calls.get(name)
                if totals is None:
                    totals = op.calls[name] = [0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                if self._call_depth == 0 and self._open:
                    op.spans[self._open[-1]].call_time += elapsed

        return wrapper


def self_times(op: Op) -> list[float]:
    """Each span's duration minus its child spans and its outermost calls."""
    covered = [span.call_time for span in op.spans]
    for span in op.spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(op.spans, covered)]


def _trajectory_counts(fn: Callable, args: tuple, kwargs: dict, traj) -> dict:
    """Activations, switches and sampler draws requested, read from a trajectory."""
    activations = sum(len(active) for active in traj.active_sets)
    switches = 0
    for before, after in zip(traj.profiles, traj.profiles[1:]):
        if before is not after:
            switches += sum(1 for old, new in zip(before, after) if old != new)
    draws = 0
    bound = inspect.signature(fn).bind(*args, **kwargs)
    if "schedule" in bound.arguments:
        # NBRF: every active user asks the sampler for a draw until beta(t)
        # reaches freeze_beta, after which it plays its best action outright.
        schedule = bound.arguments["schedule"]
        freeze = bound.arguments.get("freeze_beta")
        for t, active in enumerate(traj.active_sets[1:], start=1):
            if freeze is None or schedule.beta(t) < freeze:
                draws += len(active)
    return {"activations": activations, "switches": switches, "draws": draws}


def layer_metrics(op: Op) -> dict[str, float]:
    """Per-layer numbers for one traced experiment; README.md defines each."""
    own = self_times(op)
    durations: dict[str, float] = {}
    counts: dict[str, int] = {}
    selfs: dict[str, float] = {}
    harness_nep_s = 0.0
    harness_nep_calls = 0
    for span, own_s in zip(op.spans, own):
        d = span.end - span.start
        durations[span.name] = durations.get(span.name, 0.0) + d
        counts[span.name] = counts.get(span.name, 0) + 1
        selfs[span.name] = selfs.get(span.name, 0.0) + own_s
        if span.name.startswith("harness.is_nep") and span.parent == 0:
            harness_nep_s += d
            harness_nep_calls += 1

    def dur(*names):
        return sum(durations.get(n, 0.0) for n in names)

    def num(*names):
        return sum(counts.get(n, 0) for n in names)

    def call_s(*names):
        return sum(op.calls.get(n, (0, 0.0))[1] for n in names)

    def call_n(*names):
        return sum(op.calls.get(n, (0, 0.0))[0] for n in names)

    traj = {"activations": 0, "switches": 0, "draws": 0}
    for loop in op.loops:
        for key, value in _trajectory_counts(*loop).items():
            traj[key] += value

    lookups = 0
    if op.spans[0].name == "harness.run_experiment" and op.result is not None:
        lookups = len(op.result.aggregate_rows) * len(op.result.trajectories)
    clearance = (
        "dynamics.success_probability",
        "drm.success_probability",
        "drm.log_interference",
        "fairness.log_interference",
    )
    sampler = ("dynamics.sample_noisy_br", "dynamics.noisy_br_distribution")
    distributions = call_n("dynamics.noisy_br_distribution", "fairness.noisy_br_distribution")
    return {
        "dynamics.slot_sim_s": call_s("dynamics.simulate_slot"),
        "dynamics.slots": call_n("dynamics.simulate_slot"),
        "dynamics.loop_self_s": selfs.get("harness.run_br_drm", 0.0)
        + selfs.get("harness.run_nbrf", 0.0),
        "dynamics.activation_s": call_s("dynamics.select_active"),
        "dynamics.activations": traj["activations"],
        "dynamics.switch_ratio": traj["switches"] / traj["activations"]
        if traj["activations"]
        else 0.0,
        "network.graph_build_s": dur("harness.graph_from_positions"),
        "network.clearance_calls": call_n(*clearance),
        "network.clearance_s": call_s(*clearance),
        "drm.nep_check_s": dur("dynamics.is_nep_drm"),
        "drm.nep_checks": num("dynamics.is_nep_drm"),
        "drm.potential_s": call_s("dynamics.br_potential"),
        "fairness.sample_s": call_s(*sampler),
        "fairness.samples": call_n(*sampler),
        "fairness.utility_s": call_s("dynamics.cooperative_utility", "fairness.cooperative_utility"),
        "fairness.utility_calls": call_n("dynamics.cooperative_utility", "fairness.cooperative_utility"),
        "fairness.draws": traj["draws"],
        "fairness.cond_cache_hit_ratio": 1.0 - distributions / traj["draws"]
        if traj["draws"]
        else 0.0,
        "fairness.degenerate_draws": op.degenerate,
        "fairness.nep_check_s": dur("dynamics.is_nep_fairness"),
        "fairness.potential_s": call_s("dynamics.exact_potential"),
        "fairness.gibbs_enum_s": dur("harness.gibbs_stationary"),
        "oracle.visit_dist_s": dur("harness.empirical_visit_distribution"),
        "harness.build_s": dur("harness.build_instance_and_events"),
        "harness.nep_check_s": harness_nep_s,
        "harness.nep_checks": harness_nep_calls,
        "harness.nep_cache_hit_ratio": (lookups - harness_nep_calls) / lookups
        if lookups
        else 0.0,
        "harness.self_s": own[0],
    }


def child_spans(op: Op) -> dict[str, float]:
    """Total duration of the spans directly under the root, by name."""
    totals: dict[str, float] = {}
    for span in op.spans[1:]:
        if span.parent == 0:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    return totals


def spans_document(tracer: Tracer) -> dict:
    """The recorded spans and call totals, times relative to the first span."""
    origin = min((op.spans[0].start for op in tracer.ops), default=0.0)
    ops = []
    for op in tracer.ops:
        ops.append(
            {
                "spans": [
                    {
                        "name": s.name,
                        "start": s.start - origin,
                        "end": s.end - origin,
                        "parent": s.parent,
                        "trial": s.trial,
                        "self_s": own,
                    }
                    for s, own in zip(op.spans, self_times(op))
                ],
                "calls": {name: {"count": c, "seconds": t} for name, (c, t) in sorted(op.calls.items())},
                "degenerate_draws": op.degenerate,
            }
        )
    return {"ops": ops}
