"""Self-check: the benchmark sees the faults it claims to see.

    python3 perfbench/selfcheck.py

1. A flipped output byte shows up in failed_frac. A throwaway copy of the
   checkout, whose harness flips one byte of aggregate.csv after writing it,
   is benchmarked at the default seed; every operation must count as failed.
2. A workload that raises counts as failed and does not abort the others. In
   a copy whose gibbs_check raises, a two-workload run must report
   nbrf-fixed-heat failed and nbrf-anneal measured and clean.
3. The traced pass leaves nothing behind. After it, every patched module
   attribute is the original object again, and an untraced repeat times
   within TIMING_SLACK of the untraced pass before it, in reference seconds.

Prints one line per check and exits 0 when all hold. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import run

FLIP_BYTE = '''

_checked_write_outputs = _write_outputs


def _write_outputs(result, out_dir):
    _checked_write_outputs(result, out_dir)
    path = out_dir / "aggregate.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
'''

RAISE_IN_GIBBS = '''

def gibbs_check(*args, **kwargs):
    raise RuntimeError("fault injected by perfbench/selfcheck.py")
'''

TIMING_SLACK = 0.3  # the 2-core box drifts 10-20% between passes a few seconds apart


def broken_copy(name: str, harness_suffix: str):
    """A copy of the checkout (program and benchmark) with code appended to harness.py."""
    root = run.OUT / "selfcheck" / name
    shutil.rmtree(root, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(run.SRC, root / "src", ignore=skip)
    shutil.copytree(run.HERE, root / "perfbench", ignore=skip)
    shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    harness = root / "src" / "spectrumshare" / "harness.py"
    harness.write_text(harness.read_text() + harness_suffix)
    return root


def bench(root, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S * 4,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_flipped_byte() -> str:
    root = broken_copy("flip", FLIP_BYTE)
    try:
        line = bench(root, "--workload", "nbrf-anneal", "--seed", "0", "--seconds", "2")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if line["correct"] or line["failed"] != line["attempted"]:
        raise AssertionError(f"flipped byte not caught: {line}")
    return f"failed_frac {line['failed']}/{line['attempted']}"


def check_raising_workload() -> str:
    root = broken_copy("raise", RAISE_IN_GIBBS)
    try:
        line = bench(root, "--workload", "nbrf-fixed-heat,nbrf-anneal", "--seconds", "2")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    metrics = line["metrics"]
    if line["correct"] or metrics["nbrf-fixed-heat/run_s"]["value"] is not None:
        raise AssertionError(f"raising workload not counted as failed: {line}")
    if not metrics["nbrf-anneal/run_s"]["value"] or not metrics["nbrf-anneal/dynamics.loop_self_s"]["value"]:
        raise AssertionError(f"the raising workload stopped the others: {line}")
    return f"{line['failed']} failed of {line['attempted']}; nbrf-anneal still measured"


def check_wrappers_removed() -> str:
    run._import_program()
    from speed import SpeedProbe
    from tracing import PATCHES, Tracer
    from workloads import WORKLOADS

    originals = [getattr(module, attr) for module, attr, _ in PATCHES]
    pas = run.Pass(WORKLOADS["nbrf-anneal"], 5, None)
    tracer = Tracer()
    with SpeedProbe() as probe:
        before = pas.run(4, min_ops=3)
        traced = pas.run(4, min_ops=3, tracer=tracer)
        after = pas.run(4, min_ops=3)
    left = [
        f"{module.__name__}.{attr}"
        for (module, attr, _), original in zip(PATCHES, originals)
        if getattr(module, attr) is not original
    ]
    if left:
        raise AssertionError(f"still wrapped after the traced pass: {left}")
    if pas.failed or not tracer.ops:
        raise AssertionError(f"traced pass failed or recorded nothing: {pas.problems}")
    t_before, t_traced, t_after = (
        statistics.median(probe.ref_seconds(op.started, op.seconds) for op in ops)
        for ops in (before, traced, after)
    )
    if abs(t_after / t_before - 1.0) > TIMING_SLACK:
        raise AssertionError(
            f"untraced repeat took {t_after:.3f} s against {t_before:.3f} s before tracing"
        )
    return f"untraced {t_before:.3f} s, traced {t_traced:.3f} s, untraced again {t_after:.3f} s"


def main() -> int:
    failures = 0
    for check in (check_flipped_byte, check_raising_workload, check_wrappers_removed):
        try:
            print(f"ok    {check.__name__}: {check()}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {check.__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
