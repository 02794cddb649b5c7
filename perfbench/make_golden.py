"""Rewrite perfbench/golden.json from the checkout's current outputs.

    python3 perfbench/make_golden.py

Runs every workload once at the default seed and stores the SHA-256 digests
of its outputs. Run it only in a change that means to alter outputs, and say
so in that change; the benchmark counts every mismatch as a failed operation.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run._import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    golden = {}
    for name, workload in WORKLOADS.items():
        out_dir = run.OUT / f"golden-{name}"
        try:
            op = workload.run_once(workload.prepare(DEFAULT_SEED), DEFAULT_SEED, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if op.problems:
            print(f"{name}: {'; '.join(op.problems)}", file=sys.stderr)
            return 1
        golden[name] = op.digests
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
