"""The benchmark's three workloads.

Each workload is a closed loop with one caller: a pass calls public
functions of layerreuse one after another, and the next pass starts only
after the previous one returned and was checked. Every input is generated
from the seed. Functions are looked up on their modules at call time, so the
traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layerreuse import cli, engine, policy as policy_mod, profiling, synthetic
from layerreuse.policy import Action

from gate import DecodeGate, TraceGate, fidelity_cross_check


@dataclass
class PassResult:
    """Timed public calls of one pass and what failed in it.

    calls holds wall seconds per top-level call; inner holds calls timed
    inside a top-level call.
    """

    calls: dict[str, float] = field(default_factory=dict)
    inner: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    failed_ops: set[str] = field(default_factory=set)

    @property
    def seconds(self) -> float:
        """Pass wall time: the sum of its top-level timed calls."""
        return sum(self.calls.values())

    @property
    def complete(self) -> bool:
        return self.raised == 0

    def timing(self, name: str) -> float | None:
        """Seconds of a top-level call, or of a call timed inside one."""
        return self.calls.get(name, self.inner.get(name))

    def op(self, name: str, fn, *args, **kwargs):
        """Attempt one timed public call; a raise counts as a failed operation."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed_ops.add(name)
            self.failed += 1
            self.raised += 1
            self.problems.append(f"{name} raised:\n{traceback.format_exc(limit=4)}")
            return None
        self.calls[name] = perf_counter() - t0
        return out

    def fail(self, name: str, problems: list[str]) -> None:
        """Count a gate failure against operation `name`, at most once per pass."""
        if problems and name not in self.failed_ops:
            self.failed_ops.add(name)
            self.failed += 1
        if problems:
            self.problems.extend(f"{name}: {p}" for p in problems[:5])


def run_diagnostics(run, policy, *, context_len, heads, head_dim, budget, block_size) -> dict:
    """Row and byte counters of one decode result, beside cost_model's prediction.

    Byte counts are computed from array sizes (8-byte keys and values), not
    measured; rows count one per (head, token).
    """
    row_bytes = 2 * head_dim * 8
    scored = gathered = 0
    bytes_full = bytes_predicted = 0
    for t, fulls in enumerate(run.full_score_computations):
        n = context_len + t
        scored += fulls * n * heads
        gathered += sum(g for g in run.reuse_gathered_rows[t] if g is not None) * heads
        report = engine.cost_model(
            policy, n, budget, block_size=block_size, head_dim=heads * head_dim
        )
        bytes_full += report.kv_bytes_full
        bytes_predicted += report.kv_bytes_hybrid
    return {
        "policy.full_count": policy.full_count,
        "policy.reuse_layers": policy.num_layers - policy.full_count,
        "policy.actions": "".join("F" if a is Action.FULL else "r" for a in policy.actions),
        "engine.rows_scored": scored,
        "engine.rows_gathered": gathered,
        "engine.kv_bytes_computed": (scored + gathered) * row_bytes,
        "engine.kv_bytes_predicted": bytes_predicted,
        "engine.predicted_speedup": bytes_full / bytes_predicted,
    }


class DecodeWorkload:
    """A pass is one run_full_trace call, then one public decode call.

    The trace is the full-attention reference decode, called with the same
    arguments as the decode call's internal baseline.
    """

    decode_call = "engine.hybrid_decode"

    def __init__(self, name, seed, *, layers, heads, head_dim, ctx, steps, rho, theta=None, stride=None):
        self.name = name
        self.seed = seed
        self.steps = steps
        self.theta = theta
        self.stride = stride
        self.config = synthetic.SynthModelConfig(
            layers=layers,
            heads=heads,
            head_dim=head_dim,
            context_len=ctx,
            seed=seed,
            inter_layer_correlation=rho,
        )
        self.params = {
            "layers": layers,
            "heads": heads,
            "head_dim": head_dim,
            "ctx": ctx,
            "steps": steps,
            "rho": rho,
            "policy": f"dp_optimize(theta={theta})" if theta is not None else f"static_jump_policy({layers}, {stride})",
        }
        self.model = self.policy = None
        self.last_run = None

    def plan(self, model):
        if self.theta is None:
            return policy_mod.static_jump_policy(self.config.layers, self.stride)
        trace = synthetic.run_full_trace(model, self.steps, self.trace_budget)
        matrix = profiling.build_similarity_matrix(trace)
        # Profiled as the pipeline's profile stage does; only the matrix feeds the planner.
        profiling.sensitivity_profile(model, 0, self.trace_budget)
        return policy_mod.dp_optimize(matrix, self.theta)

    def setup(self) -> None:
        # Release the previous repetition first, so set-ups never overlap in memory.
        self.model = self.policy = self.decode_gate = self.trace_gate = None
        model = synthetic.generate_model(self.config)
        self.policy = self.plan(model)
        self.model = model
        self.decode_gate = DecodeGate(model, seed=self.seed, **self.gate_args())
        self.trace_gate = TraceGate(
            self.config, steps=self.steps, budget=self.trace_budget, block_size=self.block_size
        )

    def run_pass(self) -> PassResult:
        res = PassResult()
        trace = res.op("synthetic.run_full_trace", synthetic.run_full_trace,
                       self.model, self.steps, self.trace_budget, self.block_size)
        run = res.op(self.decode_call, self.decode)
        if trace is not None:
            res.fail("synthetic.run_full_trace", self.trace_gate.check(trace))
        if run is not None:
            problems = self.decode_gate.check(run, self.policy)
            if trace is not None:
                problems += fidelity_cross_check(engine.fidelity_report, trace, run)
            res.fail(self.decode_call, problems)
            self.last_run = run
        self.last_trace = trace
        return res

    def self_check(self) -> list[tuple[str, bool]]:
        return self.decode_gate.self_check(self.last_run, self.policy) + self.trace_gate.self_check(
            self.last_trace
        )

    def fidelity(self) -> float:
        return self.last_run.fidelity.aggregate

    def diagnostics(self) -> dict:
        cfg = self.config
        return run_diagnostics(
            self.last_run,
            self.policy,
            context_len=cfg.context_len,
            heads=cfg.heads,
            head_dim=cfg.head_dim,
            budget=self.budget,
            block_size=self.block_size,
        )


class TokenDecode(DecodeWorkload):
    def __init__(self, name, seed, *, budget, **kw):
        self.budget = budget
        self.trace_budget = budget
        self.block_size = 1
        super().__init__(name, seed, **kw)
        self.params["k"] = budget

    def gate_args(self) -> dict:
        return {"steps": self.steps, "budget": self.budget}

    def decode(self):
        return engine.hybrid_decode(self.model, self.policy, self.budget, self.steps)


class BlockDecode(DecodeWorkload):
    decode_call = "engine.hybrid_decode_blocks"

    def __init__(self, name, seed, *, block_size, block_budget, **kw):
        self.budget = block_budget
        self.block_size = block_size
        super().__init__(name, seed, **kw)
        # hybrid_decode_blocks' internal baseline uses this token budget.
        self.trace_budget = min(block_budget * block_size, self.config.context_len)
        self.params.update(block_size=block_size, block_budget=block_budget)

    def gate_args(self) -> dict:
        return {"steps": self.steps, "budget": self.budget, "block_size": self.block_size}

    def decode(self):
        return engine.hybrid_decode_blocks(
            self.model, self.policy, self.budget, self.block_size, self.steps
        )


class _CallCapture:
    """Wraps one module binding to time and keep its most recent call."""

    def __init__(self, owner, attr: str) -> None:
        self.fn = getattr(owner, attr)
        self.seconds: float | None = None
        self.args = self.result = None
        setattr(owner, attr, self)

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        out = self.fn(*args, **kwargs)
        self.seconds = perf_counter() - t0
        self.args, self.result = args, out
        return out

    def take(self):
        got = (self.seconds, self.args, self.result)
        self.seconds = self.args = self.result = None
        return got


# Which command writes each artifact, for attributing a changed byte.
_WRITERS = {
    "trace": "cli.gen_traces",
    "similarity": "cli.profile",
    "sensitivity": "cli.profile",
    "policy": "cli.plan",
    "run": "cli.decode",
    "bench": "cli.bench",
    "report": "cli.report",
}


class PipelineWorkload:
    """A pass is the six CLI commands, run in-process through cli.main.

    Artifacts go to a fresh directory each pass and must be byte-identical
    across passes (run manifests hold wall time and are excluded). The
    decode command's hybrid_decode call and gen-traces' run_full_trace call
    are timed and checked through captures on the cli module's bindings.
    """

    name = "pipeline-wide"
    decode_call = "engine.hybrid_decode"

    def __init__(self, seed, out_dir: Path, span=None):
        self.seed = seed
        self.span = span or (lambda name, fn, *args: fn(*args))
        self.dir = out_dir / "pipeline-wide"
        self.steps, self.k, self.block_size, self.theta = 32, 64, 8, 0.6
        self.sinks, self.recent = 4, 32
        self.lengths = "4096,16384,32768"
        self.config = synthetic.SynthModelConfig(
            layers=48, heads=4, head_dim=32, context_len=512, seed=seed, inter_layer_correlation=0.85
        )
        self.params = {
            "layers": 48, "heads": 4, "head_dim": 32, "ctx": 512, "steps": self.steps,
            "k": self.k, "rho": 0.85, "trace_block_size": self.block_size, "theta": self.theta,
            "include_sinks": self.sinks, "include_recent": self.recent, "bench_lengths": self.lengths,
        }
        self.model = None
        self.reference: dict[str, str] | None = None
        self.decode_capture = _CallCapture(cli, "hybrid_decode")
        self.trace_capture = _CallCapture(cli, "run_full_trace")

    def setup(self) -> None:
        self.model = self.decode_gate = self.trace_gate = None
        self.model = synthetic.generate_model(self.config)
        self.decode_gate = DecodeGate(
            self.model, steps=self.steps, budget=self.k, sinks=self.sinks, recent=self.recent, seed=self.seed
        )
        self.trace_gate = TraceGate(self.config, steps=self.steps, budget=self.k, block_size=self.block_size)

    def commands(self) -> list[tuple[str, list[str]]]:
        d = str(self.dir)
        c = self.config
        model = ["--layers", str(c.layers), "--heads", str(c.heads), "--head-dim", str(c.head_dim),
                 "--ctx", str(c.context_len), "--rho", str(c.inter_layer_correlation), "--seed", str(c.seed)]
        return [
            ("cli.gen_traces", ["gen-traces", *model, "--steps", str(self.steps), "--k", str(self.k),
                                "--block-size", str(self.block_size), "--out", f"{d}/trace.json"]),
            ("cli.profile", ["profile", "--trace", f"{d}/trace.json", "--out-matrix", f"{d}/similarity.json",
                             "--out-sensitivity", f"{d}/sensitivity.json"]),
            ("cli.plan", ["plan", "--matrix", f"{d}/similarity.json", "--theta", str(self.theta),
                          "--out", f"{d}/policy.json"]),
            ("cli.decode", ["decode", *model, "--policy", f"{d}/policy.json", "--budget", str(self.k),
                            "--steps", str(self.steps), "--include-sinks", str(self.sinks),
                            "--include-recent", str(self.recent), "--out", f"{d}/run.json"]),
            ("cli.bench", ["bench", "--policy", f"{d}/policy.json", "--lengths", self.lengths,
                           "--budget", str(self.k), "--head-dim", str(c.heads * c.head_dim),
                           "--out", f"{d}/bench.csv"]),
            ("cli.report", ["report", f"{d}/similarity.json", f"{d}/policy.json", f"{d}/run.json",
                            "--out-dir", f"{d}/report"]),
        ]

    def _command(self, name: str, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.span(name, cli.main, argv)
        return code, err.getvalue()

    def _artifacts(self) -> dict[str, str]:
        return {
            str(p.relative_to(self.dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.dir.rglob("*"))
            if p.is_file() and not p.name.endswith(".manifest.json")
        }

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        res = PassResult()
        nonzero = 0
        for name, argv in self.commands():
            code, err = res.op(name, self._command, name, argv) or (None, "")
            if code not in (None, 0):
                nonzero += 1
                res.fail(name, [f"exit code {code}: {err.strip()}"])
        res.counters["cli.exit_nonzero"] = nonzero
        res.counters["formats.artifact_bytes"] = sum(
            p.stat().st_size for p in self.dir.rglob("*") if p.is_file()
        )
        self._check(res)
        return res

    def _check(self, res: PassResult) -> None:
        artifacts = self._artifacts()
        if self.reference is None and res.failed == 0:
            self.reference = artifacts
        elif self.reference is not None:
            for path in sorted(set(artifacts) | set(self.reference)):
                if artifacts.get(path) != self.reference.get(path):
                    writer = _WRITERS.get(path.split("/")[0].split(".")[0], "cli.report")
                    res.fail(writer, [f"artifact {path} differs from the first pass"])
        trace_s, _, trace = self.trace_capture.take()
        decode_s, decode_args, run = self.decode_capture.take()
        self.last_trace, self.last_run = trace, run
        if trace is not None:
            res.inner["synthetic.run_full_trace"] = trace_s
            res.fail("cli.gen_traces", self.trace_gate.check(trace))
        if run is not None:
            res.inner["engine.hybrid_decode"] = decode_s
            self.policy = decode_args[1]
            problems = self.decode_gate.check(run, self.policy)
            if trace is not None:
                problems += fidelity_cross_check(engine.fidelity_report, trace, run)
            with open(self.dir / "run.json", encoding="ascii") as fh:
                written = json.load(fh)["fidelity"]["aggregateRnmse"]
            if written != run.fidelity.aggregate:
                problems.append(f"run.json aggregateRnmse {written!r} != {run.fidelity.aggregate!r}")
            res.fail("cli.decode", problems)

    def self_check(self) -> list[tuple[str, bool]]:
        results = self.decode_gate.self_check(self.last_run, self.policy)
        results += self.trace_gate.self_check(self.last_trace)
        corrupted = dict(self.reference)
        first = next(iter(corrupted))
        corrupted[first] = "0" * 64
        results.append(("pipeline: changed artifact digest", corrupted != self.reference))
        return results

    def fidelity(self) -> float:
        return self.last_run.fidelity.aggregate

    def diagnostics(self) -> dict:
        c = self.config
        return run_diagnostics(
            self.last_run, self.policy, context_len=c.context_len, heads=c.heads,
            head_dim=c.head_dim, budget=self.k, block_size=1,
        )


def make(name: str, seed: int, out_dir: Path, span=None):
    """Build a workload by name; shapes are fixed, only the seed varies."""
    if name == "decode-long":
        return TokenDecode(name, seed, layers=8, heads=2, head_dim=64, ctx=16384, steps=8,
                           rho=0.9, theta=0.7, budget=256)
    if name == "decode-blocks":
        return BlockDecode(name, seed, layers=16, heads=4, head_dim=64, ctx=4096, steps=8,
                           rho=0.9, stride=4, block_size=16, block_budget=16)
    if name == "pipeline-wide":
        return PipelineWorkload(seed, out_dir, span)
    raise ValueError(f"unknown workload {name!r}")

