"""Benchmark for spectrumshare: one command, four workloads, traced layers.

    python3 perfbench/run.py --workload drm-window --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

`--trace 0` measures the end-to-end metrics with tracing off: cold set-up
time, then whole experiments (config to outputs written) repeated for
`--seconds`, each one checked. `--trace 1` runs an untraced pass and then a
separately traced pass of the same inputs and reports the per-layer metrics;
its spans go to perfbench/out/. `--workload all` (or a comma-separated list)
runs each workload in a fresh process, untraced and traced, and prints one
table. The last line of standard output is the JSON result.

Run from a checkout: the package is imported from the checkout's src/, never
from an installed copy.
"""

from __future__ import annotations

import os

# simulate_slot's float32 matmul goes to OpenBLAS, which would otherwise start
# one thread per core; pin before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 175
# Set-ups are timed between experiments, for this share of the previous
# experiment's time, so that they sample the same stretch of machine time.
SETUP_SHARE = 0.1
# At most this many set-ups after one experiment: enough for a steady median,
# and few enough that their bookkeeping does not show in peak_rss_mb.
MAX_SETUPS = 50


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "spectrumshare" / "__init__.py").is_file():
        _fail(f"no spectrumshare package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spectrumshare

    if SRC not in Path(spectrumshare.__file__).resolve().parents:
        _fail(f"imported spectrumshare from {spectrumshare.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join(
            str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")
        ),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class Pass:
    """Repeated operations of one workload with checks; optionally traced.

    `golden` holds the digests every operation must reproduce, or None when
    the seed has no committed digests.
    """

    def __init__(self, workload, seed: int, golden):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.reference = None  # digests every repeat in this run must reproduce
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[tuple[float, float]] = []  # (perf_counter start, seconds)

    def run(self, seconds: float, min_ops: int, tracer=None, time_setup=False) -> list:
        """Repeat the operation while the next one should end within `seconds`.

        With `time_setup`, each operation is followed by cold set-ups for
        SETUP_SHARE of its time, counted against `seconds`.
        """
        inputs = self.workload.prepare(self.seed)
        out_dir = OUT / f"{self.workload.name}-{os.getpid()}"
        done = []
        start = time.perf_counter()
        try:
            while len(done) < min_ops or (
                time.perf_counter() - start
                + statistics.median(op.seconds for op in done)
                <= seconds
            ):
                self.attempted += 1
                try:
                    if tracer is not None:
                        with tracer:
                            op = self.workload.run_once(inputs, self.seed, out_dir)
                    else:
                        op = self.workload.run_once(inputs, self.seed, out_dir)
                except Exception as exc:  # the workload raised: count it, stop this pass
                    traceback.print_exc()
                    self.failed += 1
                    self.problems.append(f"raised {type(exc).__name__}: {exc}")
                    break
                problems = list(op.problems)
                if self.reference is None:
                    self.reference = op.digests
                elif op.digests != self.reference:
                    problems.append("outputs differ from the first repeat of this run")
                if self.golden is not None and op.digests != self.golden:
                    problems.append("outputs differ from the golden digests")
                if problems:
                    self.failed += 1
                    self.problems.extend(problems)
                done.append(op)
                if time_setup:
                    self.setups += time_setups(
                        self.workload, self.seed, SETUP_SHARE * op.seconds
                    )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return done


def time_setups(workload, seed: int, budget: float) -> list[tuple[float, float]]:
    """Cold set-ups (config validation and instance build), at least one."""
    times: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not times or (
        len(times) < MAX_SETUPS and time.perf_counter() - start + times[-1][1] <= budget
    ):
        t0 = time.perf_counter()
        workload.setup_once(seed)
        times.append((t0, time.perf_counter() - t0))
    return times


def _describe(values: list[float], unit: str) -> str:
    # Highest percentile with at least ten samples beyond it: p90 needs 100.
    tail = "no tail percentile (p90 needs >= 100 samples)"
    if len(values) >= 100:
        tail = f"p90 {statistics.quantiles(values, n=10)[-1]:.6g} {unit}"
    return (f"min {min(values):.6g} {unit}, median {statistics.median(values):.6g} {unit}, "
            f"n={len(values)}, {tail}")


def run_untraced(workload, seed: int, seconds: float, golden) -> tuple[dict, Pass]:
    from speed import SpeedProbe

    pas = Pass(workload, seed, golden)
    # Times are reference seconds (speed.py): wall time scaled by the host's
    # speed meanwhile, which on a shared host changes up to 2x over seconds.
    with SpeedProbe() as probe:
        ops = pas.run(seconds, min_ops=2, time_setup=True)
    wall = [op.seconds for op in ops] or [float("nan")]
    setup_wall = [s for _, s in pas.setups] or [float("nan")]
    run_times = [probe.ref_seconds(op.started, op.seconds) for op in ops] or [float("nan")]
    setup = [probe.ref_seconds(t0, s) for t0, s in pas.setups] or [float("nan")]
    run_s = statistics.median(run_times)
    steps = ops[0].steps if ops else 0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setup),
        "steps_per_s": steps / run_s,
        "peak_rss_mb": rss_mb,
    }
    failed_frac = pas.failed / pas.attempted
    print(f"{workload.name} seed {seed}, tracing off; times in reference seconds (perfbench/speed.py)")
    print(f"  {'run_s':<14} {run_s:.6g} s: median experiment; {_describe(run_times, 's')}")
    print(f"  {'':<14} wall clock: {_describe(wall, 's')}")
    print(f"  {'setup_s':<14} {metrics['setup_s']:.6g} s: median set-up; {_describe(setup, 's')}")
    print(f"  {'':<14} wall clock: {_describe(setup_wall, 's')}")
    print(f"  {'steps_per_s':<14} {metrics['steps_per_s']:.6g} 1/s  ({steps} updating times per experiment / run_s)")
    print(f"  {'peak_rss_mb':<14} {rss_mb:.6g} MB  (this process)")
    print(f"  {'failed_frac':<14} {failed_frac:.6g}  ({pas.failed} of {pas.attempted} operations)")
    return metrics, pas


def _median(values):
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # counts stay whole numbers
    return statistics.median(values)


def run_traced(workload, seed: int, seconds: float, golden) -> tuple[dict, Pass]:
    from tracing import Tracer, child_spans, layer_metrics, spans_document

    pas = Pass(workload, seed, golden)
    plain = pas.run(seconds / 2, min_ops=1)
    tracer = Tracer()
    traced = pas.run(seconds / 2, min_ops=1, tracer=tracer)
    metrics = {}
    per_op = [layer_metrics(op) for op in tracer.ops]
    for name in per_op[0] if per_op else ():
        metrics[name] = _median(op[name] for op in per_op)
    if traced:
        metrics["harness.output_bytes"] = _median(op.output_bytes for op in traced)
    if plain and traced:
        traced_s = min(op.seconds for op in traced)
        metrics["trace.overhead_s"] = traced_s - min(op.seconds for op in plain)
    OUT.mkdir(parents=True, exist_ok=True)
    doc = spans_document(tracer)
    doc.update(workload=workload.name, seed=seed, environment=environment())
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps(doc))
    print(f"{workload.name} seed {seed}, traced pass: {len(traced)} experiments "
          f"(and {len(plain)} untraced before it); spans in {trace_path.relative_to(ROOT)}")
    print("  no layer waits: one thread and no queues, so every time below is busy time")
    roots = [op.spans[0].end - op.spans[0].start for op in tracer.ops]
    root_s = statistics.median(roots) if roots else float("nan")
    for name in sorted(metrics):
        share = ""
        if unit_of(name) == "s" and not name.startswith("trace."):
            share = f"  ({metrics[name] / root_s:.1%} of the traced experiment)"
        print(f"  {name:<30} {metrics[name]:.6g} {unit_of(name)}{share}")
    shares: dict[str, list] = {}
    for op, root in zip(tracer.ops, roots):
        for name, seconds in child_spans(op).items():
            shares.setdefault(name, []).append(seconds / root)
    print("  spans directly under the experiment, median share of its duration:")
    for name, values in sorted(shares.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"    {name:<36} {statistics.median(values):.1%}")
    return metrics, pas


def result_line(spec: dict, trace: bool, metrics: dict, pas: Pass) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is not None and value != value:  # NaN: nothing completed
            value = None
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    ok = pas.failed == 0 and all(v["value"] is not None for v in out.values())
    return {"correct": ok, "attempted": pas.attempted, "failed": pas.failed, "metrics": out}


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    from workloads import DEFAULT_SEED

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("environment: " + json.dumps(environment()))
    golden = None
    if seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload.name]
    runner = run_traced if trace else run_untraced
    metrics, pas = runner(workload, seed, seconds, golden)
    for problem in pas.problems[:10]:
        print(f"  problem: {problem}")
    line = result_line(spec, trace, metrics, pas)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_many(names: list[str], seed: int, seconds: float) -> int:
    """Each workload in its own fresh process, untraced then traced."""
    rows = {}
    attempted = failed = 0
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                lines = proc.stdout.strip().splitlines()
                line = json.loads(lines[-1]) if lines else None
            except subprocess.TimeoutExpired:
                print(f"{name}: timed out after {CHILD_TIMEOUT_S} s")
                line = None
            except json.JSONDecodeError:
                line = None
            if not isinstance(line, dict) or "metrics" not in line:
                print(f"{name} trace={trace}: no result")
                attempted += 1
                failed += 1
                rows[(name, trace)] = None
                continue
            attempted += line["attempted"]
            failed += line["failed"]
            rows[(name, trace)] = line
    print()
    print(f"{'workload':<16} {'run_s':>9} {'setup_s':>9} {'steps/s':>10} {'rss_mb':>8} {'failed_frac':>11}")
    for name in names:
        line = rows.get((name, 0))
        if line is None:
            print(f"{name:<16} {'failed':>9}")
            continue
        cells = [
            "-" if line["metrics"][k]["value"] is None else f"{line['metrics'][k]['value']:.5g}"
            for k in ("run_s", "setup_s", "steps_per_s", "peak_rss_mb")
        ]
        frac = line["failed"] / line["attempted"]
        print(f"{name:<16} {cells[0]:>9} {cells[1]:>9} {cells[2]:>10} {cells[3]:>8} {frac:>11.4g}")
    combined = {
        f"{name}/{metric}": entry
        for (name, trace), line in rows.items() if line is not None
        for metric, entry in line["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    _import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")
    if len(names) > 1 or args.workload == "all":
        return run_many(names, args.seed, args.seconds)
    return run_one(WORKLOADS[names[0]], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
