"""The benchmark's tracer resolves, wraps and restores every name it patches.

perfbench/tracing.py replaces module attributes of the package by name. A
refactor that drops one of those names fails here, not only in the
benchmark's traced pass.
"""

import importlib.util
import sys
from pathlib import Path

from spectrumshare import ExperimentConfig, harness, load_preset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_patched_attribute():
    tracing = _load_tracing()
    originals = [getattr(module, attr) for module, attr, _ in tracing.PATCHES]
    raw = load_preset("fig5-small-nbrf")
    raw.update(trials=1, max_iters=30)
    config = ExperimentConfig.from_dict(raw)
    untraced = harness.run_experiment(config)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _), original in zip(tracing.PATCHES, originals):
            wrapped = getattr(module, attr)
            assert wrapped is not original and callable(wrapped), (module, attr)
        traced = harness.run_experiment(config)
    finally:
        tracer.uninstall()

    for (module, attr, _), original in zip(tracing.PATCHES, originals):
        assert getattr(module, attr) is original, (module, attr)
    assert traced.manifest == untraced.manifest
    assert traced.aggregate_rows == untraced.aggregate_rows
    [op] = tracer.ops
    names = {span.name for span in op.spans}
    assert {"harness.run_experiment", "harness.run_nbrf"} <= names
    assert tracing.layer_metrics(op)["dynamics.activations"] > 0
