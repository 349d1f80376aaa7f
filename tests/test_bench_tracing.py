"""The benchmark's layer tracer rebinds names inside ``estimation``; this
keeps a change to what ``estimation`` imports from breaking it unnoticed."""

import importlib.util
from pathlib import Path

from ristensor import experiment
from ristensor.config import small_config
from ristensor.estimation import AlsSettings

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_of_one_trial():
    tracing = _load_tracing()
    with tracing.Tracer(layers=True) as tracer:
        experiment.run_trial(small_config(), AlsSettings(max_iters=3), 20.0, 11)
    metrics = tracing.layer_metrics(tracer, loop_wall_s=1.0)
    for name in ("pseudoinverse", "khatri_rao", "mode_product", "kronecker"):
        assert metrics[f"tensorops.{name}.calls"] > 0, name
    names = {span[0] for span in tracer.spans}
    assert {tracing.STAGE1, tracing.STAGE2} <= names
    assert tracer.trials[0]["failure"] is None
