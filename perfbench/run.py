"""Wall-clock benchmark of layerreuse: hybrid decode, full trace and the CLI pipeline.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20      # every workload, untraced then traced

Run from the repository root; the package is imported from ./src. One
workload runs in this process, single-threaded: set-up is repeated
SETUP_REPS times, one warm-up pass is checked in full and used for the gate's
self-check, then closed-loop passes run for --seconds. The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced run with --trace 1. Everything before it
is a human-readable report. Run results go to .perfbench_out/results/ and
the traced run's spans to .perfbench_out/spans-<workload>.npz.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported.
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 3
MIN_PASSES = 3
WORKLOADS = ("decode-long", "decode-blocks", "pipeline-wide")

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "decode_tok_s": ("tok/s", "higher"),
    "trace_tok_s": ("tok/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fidelity_rnmse": ("ratio", "lower"),
}

# Per-layer metrics every workload produces, in the traced run's JSON.
PER_LAYER = {
    "synthetic.generate_model_s": "s",
    "synthetic.grown_arrays_s": "s",
    "synthetic.queries_s": "s",
    "synthetic.cache_at_s": "s",
    "synthetic.cache_at_calls": "count",
    "synthetic.run_full_trace_self_s": "s",
    "attention.kv_cache_build_s": "s",
    "attention.kv_rows_copied": "count",
    "attention.full_attention_s": "s",
    "attention.topk_of_logits_s": "s",
    "attention.block_max_of_logits_s": "s",
    "attention.topk_blocks_s": "s",
    "policy.plan_s": "s",
    "policy.full_count": "count",
    "policy.reuse_layers": "count",
    "engine.decode_call_s": "s",
    "engine.hybrid_self_s": "s",
    "engine.baseline_share": "ratio",
    "engine.measured_speedup": "ratio",
    "engine.predicted_speedup": "ratio",
    "engine.speedup_attainment": "ratio",
    "engine.rows_scored": "count",
    "engine.rows_gathered": "count",
    "engine.kv_bytes_computed": "bytes",
    "engine.kv_bytes_predicted": "bytes",
    "engine.fidelity_report_s": "s",
}

# Per-layer metrics only some workloads produce: printed and saved, not in the JSON.
WORKLOAD_SPECIFIC = {
    "profiling.build_similarity_matrix_s": "s",
    "profiling.sensitivity_profile_s": "s",
    "policy.dp_optimize_s": "s",
    "engine.hybrid_decode_s": "s",
    "engine.hybrid_decode_blocks_s": "s",
    "formats.write_trace_s": "s",
    "formats.read_trace_s": "s",
    "formats.write_run_result_s": "s",
    "formats.artifact_bytes": "bytes",
    "cli.gen_traces_s": "s",
    "cli.profile_s": "s",
    "cli.plan_s": "s",
    "cli.decode_s": "s",
    "cli.bench_s": "s",
    "cli.report_s": "s",
    "cli.exit_nonzero": "count",
}


def environment(seed: int, seconds: int, params: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "seed": seed,
        "run_seconds": seconds,
        "setup_reps": SETUP_REPS,
        "workload_params": params,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads
    from tracing import DECODE_SPANS, Tracer, timing_summary

    tracer = Tracer() if trace else None

    def span(label, fn, *args):
        return tracer.span(label, fn, *args) if tracer else fn(*args)

    def begin(kind):
        if tracer:
            tracer.begin_run(kind)

    with tracer.installed() if tracer else contextlib.nullcontext():
        wl = workloads.make(name, seed, OUT, span if tracer else None)
        setup_times = []
        for _ in range(SETUP_REPS):
            begin("setup")
            t0 = perf_counter()
            span("bench.setup", wl.setup)
            setup_times.append(perf_counter() - t0)

        begin("warmup")
        warm = span("bench.pass", wl.run_pass)
        checks = wl.self_check() if warm.failed == 0 else []

        passes = []
        t_start = perf_counter()
        while True:
            begin("pass")
            t0 = perf_counter()
            passes.append(span("bench.pass", wl.run_pass))
            pass_wall = perf_counter() - t0
            elapsed = perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + pass_wall > seconds:
                break
        measured_s = perf_counter() - t_start

    runs = [warm, *passes]
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    for p in runs:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)

    def samples(call):
        return [p.timing(call) for p in passes if p.timing(call) is not None]

    decode_t = samples(wl.decode_call)
    trace_t = samples("synthetic.run_full_trace")
    pass_t = [p.seconds for p in passes if p.complete]
    if not (decode_t and trace_t and pass_t):
        print("error: no successful timed call to report", file=sys.stderr)
        return 1
    timings = {
        "setup_s": timing_summary(setup_times, keep=True),
        "decode_call_s": timing_summary(decode_t, keep=True),
        "trace_call_s": timing_summary(trace_t, keep=True),
        "pass_s": timing_summary(pass_t, keep=True),
    }
    steps = wl.steps
    e2e = {
        "setup_s": timings["setup_s"]["median"],
        "decode_tok_s": steps / timings["decode_call_s"]["median"],
        "trace_tok_s": steps / timings["trace_call_s"]["median"],
        "pipeline_s": timings["pass_s"]["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fidelity_rnmse": wl.fidelity(),
    }
    e2e_n = {
        "setup_s": len(setup_times),
        "decode_tok_s": len(decode_t),
        "trace_tok_s": len(trace_t),
        "pipeline_s": len(pass_t),
        "peak_rss_mb": 1,
        "fidelity_rnmse": 1,
    }
    diag = wl.diagnostics()
    measured_speedup = timings["trace_call_s"]["median"] / timings["decode_call_s"]["median"]
    diag["engine.measured_speedup"] = measured_speedup
    diag["engine.speedup_attainment"] = measured_speedup / diag["engine.predicted_speedup"]
    checks_ok = bool(checks) and all(tripped for _, tripped in checks)
    correct = failed == 0 and checks_ok

    env = environment(seed, seconds, wl.params)
    print(f"== {name}  seed {seed}  trace {int(trace)}  measured {measured_s:.1f} s, "
          f"{len(passes)} passes (closed loop, one caller)")
    print(f"   python {env['python']}  numpy {env['numpy']}  {env['blas']}  nproc {env['nproc']}  "
          f"pin {env['thread_pin']}")
    print(f"   params {json.dumps(wl.params)}")
    print("-- end-to-end" + ("  (traced: includes tracing overhead)" if trace else ""))
    for metric, value in e2e.items():
        unit, better = END_TO_END[metric]
        print(f"   {metric:<16} {value:>14.6g} {unit:<6} n={e2e_n[metric]:<4} ({better} is better)")
    print(f"   {'ops_failed_ratio':<16} {failed / attempted:>14.6g} ratio  "
          f"failed {failed} of {attempted} operations attempted")
    for label, t in timings.items():
        tail = t["tail"]
        tail_s = f"p{tail['percentile']:g} {tail['value']:.6g}" if tail else "no tail percentile (n < 11)"
        print(f"   timing {label:<14} median {t['median']:.6g} s  n={t['n']}  {tail_s}")
    print("-- correctness gate self-check")
    for label, tripped in checks:
        print(f"   {'tripped' if tripped else 'MISSED '}  {label}")
    if not checks:
        print("   skipped: the warm-up pass failed")
    print(f"-- measured vs predicted ({diag['policy.actions']}, "
          f"{diag['policy.full_count']} Full of {diag['policy.full_count'] + diag['policy.reuse_layers']})")
    print(f"   speedup   measured {measured_speedup:.4g}x "
          f"(median run_full_trace / median {wl.decode_call.split('.')[1]} call)   "
          f"predicted {diag['engine.predicted_speedup']:.4g}x (cost_model)   "
          f"attainment {diag['engine.speedup_attainment']:.4g}")
    print(f"   KV bytes  computed {diag['engine.kv_bytes_computed']} (row counters)   "
          f"predicted {diag['engine.kv_bytes_predicted']} (cost_model kv_bytes_hybrid over N_t)   "
          "both computed from array sizes, not measured")

    result = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "end_to_end_samples": e2e_n,
        "timings": timings,
        "diagnostics": diag,
        "self_check": checks,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    metrics = {m: {"value": v, "unit": END_TO_END[m][0]} for m, v in e2e.items()}

    if trace:
        layer = per_layer(tracer, wl, passes, diag, DECODE_SPANS)
        print("-- per-layer (medians per pass; set-up-only work per set-up repetition)")
        for metric, value in layer.items():
            unit = PER_LAYER.get(metric) or WORKLOAD_SPECIFIC[metric]
            print(f"   {metric:<36} {value:>14.6g} {unit}")
        print("-- spans: name, scope, calls, inclusive s, self s, per-call median / tail")
        spans = tracer.summarize()
        for span_name, s in sorted(spans.items()):
            tail = s["call"]["tail"]
            tail_s = f"p{tail['percentile']:g} {tail['value']:.3g}" if tail else "-"
            print(f"   {span_name:<36} {s['scope']:<5} {s['calls']:>8g} {s['seconds']:>10.4g} "
                  f"{s['self_seconds']:>10.4g}  {s['call']['median']:.3g} / {tail_s}")
        untraced_path = results_dir / f"{name}-seed{seed}-trace0.json"
        if untraced_path.exists():
            untraced = json.loads(untraced_path.read_text())["end_to_end"]
            overhead = {m: e2e[m] - untraced[m] for m in e2e}
            result["tracing_overhead"] = overhead
            print("-- tracing overhead (traced minus untraced, same seed)")
            for m, v in overhead.items():
                print(f"   {m:<16} {v:>+14.6g} {END_TO_END[m][0]:<6} ({v / untraced[m]:+.1%})")
        else:
            print(f"-- tracing overhead: no untraced result for seed {seed} in {untraced_path.parent.name}/")
        result["per_layer"] = layer
        result["spans"] = spans
        tracer.write(OUT / f"spans-{name}.npz", {"workload": name, "seed": seed})
        metrics = {m: {"value": layer[m], "unit": u} for m, u in PER_LAYER.items()}

    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer(tracer, wl, passes, diag, decode_spans) -> dict:
    import numpy as np

    spans = tracer.summarize()

    def seconds(name, key="seconds"):
        return spans[name][key] if name in spans else None

    plan = "policy.dp_optimize" if "policy.dp_optimize" in spans else "policy.static_jump_policy"
    layer = {
        "synthetic.generate_model_s": seconds("synthetic.generate_model"),
        "synthetic.grown_arrays_s": seconds("synthetic.grown_arrays"),
        "synthetic.queries_s": seconds("synthetic.queries"),
        "synthetic.cache_at_s": seconds("synthetic.cache_at"),
        "synthetic.cache_at_calls": seconds("synthetic.cache_at", "calls"),
        "synthetic.run_full_trace_self_s": seconds("synthetic.run_full_trace", "self_seconds"),
        "attention.kv_cache_build_s": seconds("attention.kv_cache_build"),
        "attention.kv_rows_copied": tracer.counter("attention.kv_rows_copied"),
        "attention.full_attention_s": seconds("attention.full_attention"),
        "attention.topk_of_logits_s": seconds("attention.topk_of_logits"),
        "attention.block_max_of_logits_s": seconds("attention.block_max_of_logits"),
        "attention.topk_blocks_s": seconds("attention.topk_blocks"),
        "policy.plan_s": seconds(plan),
        "policy.full_count": diag["policy.full_count"],
        "policy.reuse_layers": diag["policy.reuse_layers"],
        "engine.decode_call_s": seconds(wl.decode_call),
        "engine.hybrid_self_s": seconds(wl.decode_call, "self_seconds"),
        "engine.baseline_share": tracer.nested_share("synthetic.run_full_trace", decode_spans),
        "engine.fidelity_report_s": seconds("engine.fidelity_report"),
    }
    for key in (
        "engine.measured_speedup",
        "engine.predicted_speedup",
        "engine.speedup_attainment",
        "engine.rows_scored",
        "engine.rows_gathered",
        "engine.kv_bytes_computed",
        "engine.kv_bytes_predicted",
    ):
        layer[key] = diag[key]
    missing = [m for m in PER_LAYER if layer.get(m) is None]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    for metric in WORKLOAD_SPECIFIC:
        stem = metric.rsplit("_", 1)[0]
        if stem in spans:
            layer[metric] = spans[stem]["seconds"]
        elif any(metric in p.counters for p in passes):
            layer[metric] = float(np.median([p.counters.get(metric, 0) for p in passes]))
    return layer


def run_all(seed: int, seconds: int) -> int:
    """Run every workload untraced, then traced, each in its own process."""
    correct, attempted, failed, code = True, 0, 0, 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                code = 1
                continue
            last = json.loads(lines[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            if trace == 0:
                saved = json.loads((OUT / "results" / f"{name}-seed{seed}-trace0.json").read_text())
                summary[name] = saved
    print("== summary: end-to-end metrics (untraced)")
    for name, saved in summary.items():
        for metric, value in saved["end_to_end"].items():
            unit, better = END_TO_END[metric]
            n = saved["end_to_end_samples"][metric]
            print(f"   {name:<14} {metric:<16} {value:>14.6g} {unit:<6} n={n:<4} ({better} is better)")
        print(f"   {name:<14} {'ops_failed_ratio':<16} {saved['ops_failed_ratio']:>14.6g} ratio  "
              f"of {saved['attempted']} operations")
    print(json.dumps({
        "correct": correct and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{name}.{m}": {"value": v, "unit": END_TO_END[m][0]}
            for name, saved in summary.items()
            for m, v in saved["end_to_end"].items()
        },
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10, help="closed-loop measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "layerreuse" / "__init__.py").is_file():
        print(f"error: no layerreuse sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
