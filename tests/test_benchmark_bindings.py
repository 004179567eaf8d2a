"""The traced benchmark wraps public callables at the module bindings listed in
perfbench/tracing.py, and fails when a per-layer span goes missing. These
tests keep those bindings, and the calls that reach them, in place."""

import importlib
import importlib.util
import os
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from layerreuse import SynthModelConfig, attention, engine, policy, profiling, synthetic

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Listed by the benchmark, absent from the package, and skipped by the tracer:
# engine has not called run_full_trace since its fidelity baseline began
# recomputing Reuse layers only, and the profile command has not called
# sensitivity_profile since it reads the trace's sensitivity table.
_RETIRED = {("layerreuse.engine", "run_full_trace"), ("layerreuse.cli", "sensitivity_profile")}


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
    # One call per layer, each serving all of the layer's steps; the block
    # pass runs at block size 1 too, since nothing else reaches its spans.
    assert calls["synthetic.run_full_trace"] == 1
    for name in ("synthetic.cache_at", "attention.kv_cache_build", "attention.full_attention",
                 "attention.topk_of_logits", "attention.block_max_of_logits", "attention.topk_blocks"):
        assert calls[name] == cfg.layers, name


def test_traced_decode_pass_reaches_every_span_the_benchmark_reads():
    # A decode-long-shaped pass: set-up generates the model and plans with
    # dp_optimize; the pass traces at block size 1, decodes in token mode and
    # compares the two. perfbench's per_layer raises when a value is missing,
    # which would fail the whole benchmark command.
    run_py = _TRACING.with_name("run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    bench = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # run.py pins BLAS threads in the environment
        spec.loader.exec_module(bench)
    tracing = _tracing()
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=64, seed=1,
                           inter_layer_correlation=0.9, heads=2)
    steps, k = 3, 8
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_run("setup")
        model = synthetic.generate_model(cfg)
        matrix = profiling.build_similarity_matrix(synthetic.run_full_trace(model, steps, k))
        layer_policy = policy.dp_optimize(matrix, 0.7)
        tracer.begin_run("pass")
        trace = synthetic.run_full_trace(model, steps, k, 1)
        run = engine.hybrid_decode(model, layer_policy, k, steps)
        engine.fidelity_report(trace, run)
    # Workload diagnostics, which per_layer takes from the run, not from spans.
    diag = dict.fromkeys(("policy.full_count", "policy.reuse_layers", "engine.measured_speedup",
                          "engine.predicted_speedup", "engine.speedup_attainment", "engine.rows_scored",
                          "engine.rows_gathered", "engine.kv_bytes_computed", "engine.kv_bytes_predicted"), 1.0)
    workload = SimpleNamespace(decode_call="engine.hybrid_decode")
    layer = bench.per_layer(tracer, workload, [], diag, tracing.DECODE_SPANS)
    assert all(layer[key] is not None for key in bench.PER_LAYER)
    spans = tracer.summarize()
    for name in ("synthetic.cache_at", "attention.full_attention", "attention.topk_of_logits",
                 "attention.block_max_of_logits", "attention.topk_blocks"):
        assert spans[name]["scope"] == "pass", name


def test_model_construction_reaches_no_traced_binding_but_its_own():
    # A worker thread builds the base values, and the tracer's span stack is
    # not thread-safe, so that thread must call nothing the benchmark wraps.
    tracer = _tracing().Tracer()
    tracer.begin_run("setup")
    with tracer.installed():
        synthetic.generate_model(SynthModelConfig(layers=3, head_dim=8, context_len=24, seed=2, heads=2))
    assert [tracer.names[i] for i in tracer.arrays()["name"]] == ["synthetic.generate_model"]
