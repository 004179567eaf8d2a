"""The traced benchmark wraps public callables at the module bindings listed in
perfbench/tracing.py, and fails when a per-layer span goes missing. These
tests keep those bindings, and the calls that reach them, in place."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from layerreuse import SynthModelConfig, attention, synthetic

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Listed by the benchmark, absent from the package, and skipped by the tracer:
# engine has not called run_full_trace since its fidelity baseline began
# recomputing Reuse layers only.
_RETIRED = {("layerreuse.engine", "run_full_trace")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_benchmark_binding_resolves():
    bindings = {(module, path) for _, module, path in _tracing().BINDINGS}
    missing = {binding for binding in bindings if _resolve(*binding) is None}
    assert missing == _RETIRED


def test_traced_trace_reaches_every_per_layer_span_at_block_size_one():
    tracing = _tracing()
    cfg = SynthModelConfig(layers=3, head_dim=8, context_len=24, seed=2,
                           inter_layer_correlation=0.7, heads=2)
    steps = 3
    tracer = tracing.Tracer()
    tracer.begin_run("pass")
    with tracer.installed():
        synthetic.run_full_trace(synthetic.generate_model(cfg), steps, 6, 1)
    assert synthetic.full_attention is attention.full_attention
    counts = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    calls = dict(zip(tracer.names, counts.tolist()))
    cells = cfg.layers * steps
    assert calls["synthetic.run_full_trace"] == 1
    assert calls["synthetic.cache_at"] == cfg.layers
    assert calls["attention.kv_cache_build"] == cfg.layers
    assert calls["attention.full_attention"] == cells
    assert calls["attention.topk_of_logits"] == cells
    assert calls["attention.block_max_of_logits"] == cells
    assert calls["attention.topk_blocks"] == cells


def test_model_construction_reaches_no_traced_binding_but_its_own():
    # A worker thread builds the base values, and the tracer's span stack is
    # not thread-safe, so that thread must call nothing the benchmark wraps.
    tracer = _tracing().Tracer()
    tracer.begin_run("setup")
    with tracer.installed():
        synthetic.generate_model(SynthModelConfig(layers=3, head_dim=8, context_len=24, seed=2, heads=2))
    assert [tracer.names[i] for i in tracer.arrays()["name"]] == ["synthetic.generate_model"]
