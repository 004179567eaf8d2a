"""In-memory span recorder for the traced benchmark run.

The benchmark's own wrappers are installed at the module bindings through
which one layer of layerreuse looks another up (``engine.full_attention``,
``SyntheticModel.cache_at``, ``cli.hybrid_decode`` ...). Spans therefore nest
the way the calls do: hybrid_decode -> run_full_trace -> cache_at ->
LayerKvCache. A binding that does not exist is skipped, never an error.

Each span records its name, start, end, parent span and run id. A run id
groups the spans of one set-up repetition or one closed-loop pass. Spans are
kept in flat typed arrays while the benchmark runs and written once at the end.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path): every binding through which a layer
# reaches the public callable the span is named after.
BINDINGS = [
    ("synthetic.generate_model", "layerreuse.synthetic", "generate_model"),
    ("synthetic.generate_model", "layerreuse.cli", "generate_model"),
    ("synthetic.grown_arrays", "layerreuse.synthetic", "SyntheticModel.grown_arrays"),
    ("synthetic.queries", "layerreuse.synthetic", "SyntheticModel.queries"),
    ("synthetic.cache_at", "layerreuse.synthetic", "SyntheticModel.cache_at"),
    ("synthetic.run_full_trace", "layerreuse.synthetic", "run_full_trace"),
    ("synthetic.run_full_trace", "layerreuse.engine", "run_full_trace"),
    ("synthetic.run_full_trace", "layerreuse.cli", "run_full_trace"),
    ("attention.kv_cache_build", "layerreuse.synthetic", "LayerKvCache"),
    ("attention.full_attention", "layerreuse.synthetic", "full_attention"),
    ("attention.full_attention", "layerreuse.engine", "full_attention"),
    ("attention.full_attention", "layerreuse.profiling", "full_attention"),
    ("attention.topk_of_logits", "layerreuse.synthetic", "topk_of_logits"),
    ("attention.topk_of_logits", "layerreuse.engine", "topk_of_logits"),
    ("attention.topk_of_logits", "layerreuse.profiling", "topk_of_logits"),
    ("attention.block_max_of_logits", "layerreuse.synthetic", "block_max_of_logits"),
    ("attention.block_max_of_logits", "layerreuse.engine", "block_max_of_logits"),
    ("attention.topk_blocks", "layerreuse.synthetic", "topk_blocks"),
    ("attention.topk_blocks", "layerreuse.engine", "topk_blocks"),
    ("profiling.build_similarity_matrix", "layerreuse.profiling", "build_similarity_matrix"),
    ("profiling.build_similarity_matrix", "layerreuse.cli", "build_similarity_matrix"),
    ("profiling.sensitivity_profile", "layerreuse.profiling", "sensitivity_profile"),
    ("profiling.sensitivity_profile", "layerreuse.cli", "sensitivity_profile"),
    ("policy.dp_optimize", "layerreuse.policy", "dp_optimize"),
    ("policy.dp_optimize", "layerreuse.cli", "dp_optimize"),
    ("policy.static_jump_policy", "layerreuse.policy", "static_jump_policy"),
    ("engine.hybrid_decode", "layerreuse.engine", "hybrid_decode"),
    ("engine.hybrid_decode", "layerreuse.cli", "hybrid_decode"),
    ("engine.hybrid_decode_blocks", "layerreuse.engine", "hybrid_decode_blocks"),
    ("engine.hybrid_decode_blocks", "layerreuse.cli", "hybrid_decode_blocks"),
    ("engine.fidelity_report", "layerreuse.engine", "fidelity_report"),
    ("formats.write_trace", "layerreuse.cli", "write_trace"),
    ("formats.read_trace", "layerreuse.cli", "read_trace"),
    ("formats.write_run_result", "layerreuse.cli", "write_run_result"),
]

DECODE_SPANS = ("engine.hybrid_decode", "engine.hybrid_decode_blocks")


def _kv_rows(args, kwargs) -> int:
    keys = kwargs["keys"] if "keys" in kwargs else args[0]
    return int(np.shape(keys)[0])


# Counters taken from call arguments at a binding: span name -> (counter, fn).
COUNTERS = {"attention.kv_cache_build": ("attention.kv_rows_copied", _kv_rows)}


class Tracer:
    """Records nested spans and per-run counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.run = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.run_kinds: list[str] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.run_id = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_run(self, kind: str) -> None:
        """Start a new run id: one set-up repetition, the warm-up or one pass."""
        self.run_kinds.append(kind)
        self.run_id = len(self.run_kinds) - 1

    def count(self, counter: str, n: float) -> None:
        key = (self.run_id, counter)
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name_id: int, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span."""
        stack = self._stack
        idx = len(self.start)
        self.name.append(name_id)
        self.run.append(self.run_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.self_s[idx] = (t1 - t0) - frame[1]
            if stack:
                stack[-1][1] += t1 - t0

    def span(self, name: str, fn, *args):
        return self.call(self.name_id(name), fn, args)

    def _wrapper(self, name: str, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        call = self.call

        def traced(*args, **kwargs):
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs))
            return call(nid, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every existing binding in BINDINGS; restore them on exit."""
        saved = []
        for name, module_name, path in BINDINGS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self": np.frombuffer(self.self_s, dtype=np.float64),
        }

    def write(self, path, meta: dict) -> None:
        """Write every span, the name table and the run kinds to one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_kinds=np.array(self.run_kinds),
            meta=np.array(repr(meta)),
            **self.arrays(),
        )

    def summarize(self) -> dict[str, dict]:
        """Per span name: medians over passes of time, self time and calls.

        A name that occurs in no timed pass (work done only in set-up) is
        summarized over the set-up repetitions instead.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        kinds = np.array(self.run_kinds)
        n_runs = len(kinds)
        passes = np.flatnonzero(kinds == "pass")
        setups = np.flatnonzero(kinds == "setup")
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            if not mask.any():
                continue
            runs = a["run"][mask]
            in_pass = np.isin(runs, passes)
            groups, scope = (passes, "pass") if in_pass.any() else (setups, "setup")
            if len(groups) == 0:
                continue
            incl = np.bincount(runs, weights=dur[mask], minlength=n_runs)[groups]
            self_t = np.bincount(runs, weights=a["self"][mask], minlength=n_runs)[groups]
            calls = np.bincount(runs, minlength=n_runs)[groups]
            per_call = dur[mask][np.isin(runs, groups)]
            out[name] = {
                "scope": scope,
                "groups": int(len(groups)),
                "seconds": float(np.median(incl)),
                "self_seconds": float(np.median(self_t)),
                "calls": float(np.median(calls)),
                "call": timing_summary(per_call),
            }
        return out

    def nested_share(self, child: str, parents: tuple[str, ...]) -> float | None:
        """Median over passes of the share of `parents` time spent in direct `child` spans."""
        a = self.arrays()
        if child not in self._ids:
            return None
        parent_ids = [self._ids[p] for p in parents if p in self._ids]
        if not parent_ids:
            return None
        dur = a["end"] - a["start"]
        kinds = np.array(self.run_kinds)
        passes = np.flatnonzero(kinds == "pass")
        n_runs = len(kinds)
        is_parent = np.isin(a["name"], parent_ids)
        parent_name = np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)
        nested = (a["name"] == self._ids[child]) & np.isin(parent_name, parent_ids)
        outer = np.bincount(a["run"][is_parent], weights=dur[is_parent], minlength=n_runs)[passes]
        inner = np.bincount(a["run"][nested], weights=dur[nested], minlength=n_runs)[passes]
        ok = outer > 0
        return float(np.median(inner[ok] / outer[ok])) if ok.any() else None

    def counter(self, counter: str) -> float | None:
        """Median over passes of a counter, or over set-ups if no pass counted it."""
        for kind in ("pass", "setup"):
            values = [
                self.counts.get((rid, counter), 0)
                for rid, k in enumerate(self.run_kinds)
                if k == kind
            ]
            if any(values):
                return float(np.median(values))
        return None


_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def timing_summary(samples, keep: bool = False) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    n = int(values.size)
    summary = {"n": n, "median": float(np.median(values)) if n else None, "tail": None}
    if keep:
        summary["samples"] = values.tolist()
    for p in _TAILS:
        if n * (100.0 - p) / 100.0 >= 10:
            summary["tail"] = {"percentile": p, "value": float(np.percentile(values, p))}
            break
    return summary
