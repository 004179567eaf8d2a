"""The traced benchmark wraps public callables at the module bindings listed in
perfbench/tracing.py, and fails when a per-layer span goes missing. These
tests keep those bindings, and the calls that reach them, in place."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from layerreuse import BlockSet, SynthModelConfig, attention, cli, engine, policy, profiling, synthetic

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Listed by the benchmark, absent from the package, and skipped by the tracer:
# engine has not called run_full_trace since its fidelity baseline began
# recomputing Reuse layers only, the profile command has not called
# sensitivity_profile since it reads the trace's sensitivity table, and the
# decode command has not called hybrid_decode_blocks since block mode became
# hybrid_decode's block_size, and profiling has scored no cache since
# sensitivity_profile became a row of a trace's sensitivity table, and engine
# has not called topk_blocks since hybrid_decode builds its block sets from
# topk_of_logits's units itself: the trace reaches those spans through the
# synthetic bindings.
_RETIRED = {("layerreuse.engine", "run_full_trace"), ("layerreuse.cli", "sensitivity_profile"),
            ("layerreuse.cli", "hybrid_decode_blocks"), ("layerreuse.profiling", "full_attention"),
            ("layerreuse.profiling", "topk_of_logits"), ("layerreuse.engine", "topk_blocks")}


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
    steps = 3
    # The second config's 1 MiB head blocks split each layer's attention call
    # over two threads; the thread must record no span.
    for cfg in (SynthModelConfig(layers=3, head_dim=8, context_len=24, seed=2,
                                 inter_layer_correlation=0.7, heads=2),
                SynthModelConfig(layers=3, head_dim=64, context_len=2048, seed=2,
                                 inter_layer_correlation=0.7, heads=2)):
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


def test_block_decode_entry_of_the_benchmark_is_hybrid_decode_in_block_mode():
    # The decode-blocks workload calls engine.hybrid_decode_blocks(model, policy,
    # block_budget, block_size, steps) positionally, so an entry point that
    # misorders its arguments fails here rather than in the benchmark.
    assert "hybrid_decode_blocks" not in engine.__all__
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=40, seed=3, inter_layer_correlation=0.8, heads=2)
    model = synthetic.generate_model(cfg)
    layer_policy = policy.static_jump_policy(cfg.layers, 2)
    got = engine.hybrid_decode_blocks(model, layer_policy, 3, 4, 2)
    want = engine.hybrid_decode(model, layer_policy, 3, 2, block_size=4)
    assert (got.budget, got.block_size, got.steps) == (3, 4, 2)
    assert got.outputs.tobytes() == want.outputs.tobytes()
    assert all(isinstance(sel, BlockSet) for step in got.selections for sel in step)
    assert got.selections == want.selections
    for name in ("block_size", "full_score_computations", "reuse_full_scans", "reuse_gathered_rows"):
        assert getattr(got, name) == getattr(want, name), name


def test_model_construction_reaches_no_traced_binding_but_its_own():
    # A worker thread builds the base values, and the tracer's span stack is
    # not thread-safe, so that thread must call nothing the benchmark wraps.
    tracer = _tracing().Tracer()
    tracer.begin_run("setup")
    with tracer.installed():
        synthetic.generate_model(SynthModelConfig(layers=3, head_dim=8, context_len=24, seed=2, heads=2))
    assert [tracer.names[i] for i in tracer.arrays()["name"]] == ["synthetic.generate_model"]


def test_cli_parses_every_command_of_the_pipeline_workload(tmp_path, monkeypatch):
    # pipeline-wide runs these argv through cli.main, so a flag the CLI drops
    # fails here rather than in the benchmark. The workload wraps two cli
    # bindings in call captures; monkeypatch puts the originals back.
    for name in ("hybrid_decode", "run_full_trace"):
        monkeypatch.setattr(cli, name, getattr(cli, name))
    with mock.patch.object(sys, "path", [str(_TRACING.parent), *sys.path]), mock.patch.dict(sys.modules):
        workloads = importlib.import_module("workloads")
        commands = workloads.PipelineWorkload(1, tmp_path).commands()
    parser = cli.build_parser()
    for name, argv in commands:
        assert parser.parse_args(argv).command == name.removeprefix("cli.").replace("_", "-")
    assert [name for name, _ in commands] == [
        "cli.gen_traces", "cli.profile", "cli.plan", "cli.decode", "cli.bench", "cli.report"
    ]
