"""Every spectime name the benchmark tracer (perfbench/tracer.py) wraps or
reads exists, so removing one fails here and not only in a traced
benchmark run.  The tracer is loaded from its file and left unchanged."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import spectime
from spectime import CurveSpec, PipelineConfig, eigen
from spectime.kernel import KernelMatrix
from spectime.recover import RecoveryOutput

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in tracer.WRAPPED.items() for name in names])
def test_wrapped_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"spectime.{layer}"), name))


def test_read_names_exist():
    assert set(tracer.ATTRS) <= {f"{layer}.{name}" for layer, names in tracer.WRAPPED.items()
                                 for name in names}
    assert isinstance(eigen.DENSE_CUTOFF, int)
    assert isinstance(eigen.DEFAULT_TOL, float)
    assert "clamped_count" in {f.name for f in dataclasses.fields(RecoveryOutput)}
    assert "k" in {f.name for f in dataclasses.fields(KernelMatrix)}


@pytest.mark.parametrize("curve, label_map", [("half-circle", "recover.recover_open"),
                                              ("circle", "recover.recover_closed")])
def test_traced_pipeline_records_its_layers(curve, label_map):
    # the attribute readers run on real results, as in a traced benchmark
    # run; the entry point is looked up after wrapping, as the workloads do
    t = tracer.Tracer()
    with tracer.instrument(t):
        spectime.run_pipeline(PipelineConfig(curve=CurveSpec(curve), n=60, seed=1, snr=100.0))
    spans = {s["name"]: s for s in t.spans}
    assert "error" not in spans["pipeline.run_pipeline"]
    assert spans["pipeline.recover_labels"]["parent"] == spans["pipeline.run_pipeline"]["id"]
    assert spans["kernel.build_kernel"]["n"] == 60
    # both kernel layers run inside recovery, so kernel.build_laplacian_s is its time
    recovery = spans["pipeline.recover_labels"]["id"]
    for layer in ("kernel.build_kernel", "kernel.build_laplacian"):
        assert spans[layer]["parent"] == recovery
    assert spans["eigen.smallest_eigenpairs"]["path"] == "dense"
    assert spans[label_map]["clamped_count"] >= 0
    assert "recover.select_bandwidth" in spans
