"""Correctness gate for decode and trace results, with a self-check.

A decode call passes only if
  - full_score_computations[t] equals the policy's full_count at every step,
  - reuse_full_scans is 0,
  - every Reuse layer inherited its source's selection and gathered exactly
    min(k, N_t) rows (plus forced sink/recent rows), or the selected blocks'
    token coverage in block mode,
  - every output is finite,
  - the outputs equal an independent recomputation from grown_arrays,
    queries and the run's own selections on sampled (step, layer, head)
    cells, and Full layers' selections equal an independent top-k there,
  - its digest equals that of the first call that passed.
The recomputation runs on the first call; later calls must reproduce its
digest, so they are held to the same recomputed outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import numpy as np

from layerreuse.policy import Action

# Outputs are float64; an independent recomputation may differ from the
# library's only in the last bits (BLAS paths, summation order).
RTOL = 1e-10
ATOL = 1e-12
CELLS_PER_KIND = 3


def _digest(arrays, selections) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(selections).encode())
    return h.hexdigest()


def _softmax_out(keys, values, q):
    logits = keys @ q / math.sqrt(q.shape[0])
    w = np.exp(logits - logits.max())
    return (w / w.sum()) @ values, logits


def _topk(scores: np.ndarray, k: int) -> tuple[int, ...]:
    order = np.argsort(-scores, kind="stable")[: min(k, scores.shape[0])]
    return tuple(int(i) for i in np.sort(order))


class DecodeGate:
    """Checks hybrid_decode / hybrid_decode_blocks results of one fixed input."""

    def __init__(self, model, *, steps, budget, block_size=1, sinks=0, recent=0, seed=0):
        self.model = model
        self.steps = steps
        self.budget = budget
        self.block_size = block_size
        self.sinks = sinks
        self.recent = recent
        self.seed = seed
        self.reference: str | None = None

    def _selection_tokens(self, sel, n: int) -> np.ndarray:
        if self.block_size == 1:
            return np.asarray(sel.indices, dtype=np.int64)
        return sel.token_coverage(n)

    def cells(self, policy) -> list[tuple[int, int, int]]:
        """Sampled (step, layer, head) cells: some at Full, some at Reuse layers."""
        rng = random.Random(self.seed)
        H = self.model.config.heads
        picked = []
        for kind in (Action.FULL, Action.REUSE):
            layers = [l for l, a in enumerate(policy.actions) if a is kind]
            for _ in range(CELLS_PER_KIND if layers else 0):
                picked.append((rng.randrange(self.steps), rng.choice(layers), rng.randrange(H)))
        return picked

    def _structure(self, run, policy) -> list[str]:
        cfg = self.model.config
        problems = []
        if run.policy != policy:
            problems.append("run carries a different policy")
        if run.outputs.shape != (self.steps, cfg.layers, cfg.heads, cfg.head_dim):
            return problems + [f"output shape {run.outputs.shape}"]
        if not np.all(np.isfinite(run.outputs)):
            problems.append("non-finite outputs")
        if run.reuse_full_scans != 0:
            problems.append(f"reuse_full_scans = {run.reuse_full_scans}")
        for t in range(self.steps):
            n = cfg.context_len + t
            if run.full_score_computations[t] != policy.full_count:
                problems.append(
                    f"step {t}: {run.full_score_computations[t]} full scorings, "
                    f"policy has {policy.full_count}"
                )
            sels, gathered = run.selections[t], run.reuse_gathered_rows[t]
            for l, action in enumerate(policy.actions):
                sel = sels[l]
                if action is Action.FULL:
                    if gathered[l] is not None:
                        problems.append(f"step {t} layer {l}: Full layer gathered rows")
                    if self.block_size == 1:
                        want = min(self.budget, n)
                    else:
                        want = min(self.budget, math.ceil(n / self.block_size))
                    if sel.size != want:
                        problems.append(f"step {t} layer {l}: selection size {sel.size} != {want}")
                    continue
                source = sels[policy.sources[l]]
                if self.block_size == 1:
                    forced = set(range(min(self.sinks, n))) | set(range(max(n - self.recent, 0), n))
                    expected = tuple(sorted(set(source.indices) | forced))
                    got = sel.indices
                else:
                    expected, got = source.block_indices, sel.block_indices
                if got != expected:
                    problems.append(f"step {t} layer {l}: Reuse selection is not its source's")
                rows = len(self._selection_tokens(source, n)) if self.block_size > 1 else len(expected)
                if gathered[l] != rows:
                    problems.append(f"step {t} layer {l}: gathered {gathered[l]} rows, expected {rows}")
        return problems

    def _recompute(self, run, policy) -> list[str]:
        cfg = self.model.config
        keys, values = self.model.grown_arrays(self.steps)
        queries = self.model.queries(self.steps)
        problems = []
        for t, l, h in self.cells(policy):
            n = cfg.context_len + t
            K, V = keys[l, h, :n], values[l, h, :n]
            if policy.actions[l] is Action.FULL:
                want, _ = _softmax_out(K, V, queries[t, l, h])
                summed = sum(
                    _softmax_out(keys[l, g, :n], values[l, g, :n], queries[t, l, g])[1]
                    for g in range(cfg.heads)
                )
                sel = run.selections[t][l]
                if self.block_size == 1:
                    ok = sel.indices == _topk(summed, self.budget)
                else:
                    starts = np.arange(0, n, self.block_size)
                    ok = sel.block_indices == _topk(np.maximum.reduceat(summed, starts), self.budget)
                if not ok:
                    problems.append(f"cell {(t, l, h)}: Full selection differs from recomputed top-k")
            else:
                idx = self._selection_tokens(run.selections[t][l], n)
                want, _ = _softmax_out(K[idx], V[idx], queries[t, l, h])
            if not np.allclose(run.outputs[t, l, h], want, rtol=RTOL, atol=ATOL):
                problems.append(f"cell {(t, l, h)}: output differs from recomputation")
        return problems

    def check(self, run, policy, *, recompute: bool | None = None) -> list[str]:
        """Problems found in one decode result; an empty list means it passed."""
        problems = self._structure(run, policy)
        if recompute is None:
            recompute = self.reference is None
        if recompute:
            problems += self._recompute(run, policy)
        digest = _digest([run.outputs], run.selections)
        if self.reference is not None and digest != self.reference:
            problems.append("output digest differs from the first passing call")
        if not problems and self.reference is None:
            self.reference = digest
        return problems

    def self_check(self, run, policy) -> list[tuple[str, bool]]:
        """Feed corrupted copies of a passing result; each must trip the gate."""
        cells = self.cells(policy)
        t0, l0, h0 = next((c for c in cells if policy.actions[c[1]] is Action.REUSE), cells[0])
        free = next(
            (t, l, h)
            for t in range(self.steps)
            for l in range(len(policy.actions))
            for h in range(self.model.config.heads)
            if (t, l, h) not in cells
        )

        def outputs_with(cell, delta):
            out = np.array(run.outputs)
            out[cell] += delta
            out.setflags(write=False)
            return dataclasses.replace(run, outputs=out)

        reuse_cells = [
            (t, l)
            for t in range(self.steps)
            for l, a in enumerate(policy.actions)
            if a is Action.REUSE
        ]
        cases = [
            ("perturbed output at a sampled cell", outputs_with((t0, l0, h0), 1e-6), True),
            ("perturbed output at an unsampled cell", outputs_with(free, 1e-6), False),
            ("non-finite output", outputs_with(free, math.nan), False),
            ("reuse_full_scans = 1", dataclasses.replace(run, reuse_full_scans=1), False),
            (
                "full scoring count off by one",
                dataclasses.replace(
                    run,
                    full_score_computations=(run.full_score_computations[0] + 1,)
                    + run.full_score_computations[1:],
                ),
                False,
            ),
        ]
        if reuse_cells:
            t, l = reuse_cells[0]
            rows = [list(r) for r in run.reuse_gathered_rows]
            rows[t][l] += 1
            cases.append(
                (
                    "gathered row count off by one",
                    dataclasses.replace(run, reuse_gathered_rows=tuple(tuple(r) for r in rows)),
                    False,
                )
            )
        reference = self.reference
        results = []
        for label, bad, recompute in cases:
            results.append((f"decode: {label}", bool(self.check(bad, policy, recompute=recompute))))
            self.reference = reference
        return results


class TraceGate:
    """Checks run_full_trace results of one fixed input."""

    def __init__(self, config, *, steps, budget, block_size):
        self.config = config
        self.steps = steps
        self.budget = budget
        self.block_size = block_size
        self.reference: str | None = None

    def check(self, trace) -> list[str]:
        cfg = self.config
        problems = []
        if trace.outputs.shape != (self.steps, cfg.layers, cfg.heads, cfg.head_dim):
            return [f"trace output shape {trace.outputs.shape}"]
        if not np.all(np.isfinite(trace.outputs)):
            problems.append("non-finite trace outputs")
        block_budget = math.ceil(self.budget / self.block_size)
        for t in range(self.steps):
            n_blocks = math.ceil((cfg.context_len + t) / self.block_size)
            for l in range(cfg.layers):
                if trace.topk[t][l].size != self.budget:
                    problems.append(f"trace step {t} layer {l}: top-k size {trace.topk[t][l].size}")
                if trace.blocks[t][l].size != min(block_budget, n_blocks):
                    problems.append(f"trace step {t} layer {l}: block set size {trace.blocks[t][l].size}")
        digest = _digest([trace.outputs, trace.queries], (trace.topk, trace.blocks))
        if self.reference is not None and digest != self.reference:
            problems.append("trace digest differs from the first passing call")
        if not problems and self.reference is None:
            self.reference = digest
        return problems

    def self_check(self, trace) -> list[tuple[str, bool]]:
        out = np.array(trace.outputs)
        out[0, 0, 0, 0] += 1e-6
        out.setflags(write=False)
        reference = self.reference
        tripped = bool(self.check(dataclasses.replace(trace, outputs=out)))
        self.reference = reference
        return [("trace: perturbed output", tripped)]


def fidelity_cross_check(fidelity_report, trace, run) -> list[str]:
    """fidelity_report(trace, run) must reproduce the run's own aggregate rnmse.

    Both compare the run against full-attention outputs of the same input, so
    a trace that disagrees with the run's internal baseline shows here.
    """
    got = fidelity_report(trace, run).rnmse.aggregate
    want = run.fidelity.aggregate
    if not (math.isfinite(got) and math.isfinite(want)) or abs(got - want) > 1e-9 * max(1.0, abs(want)):
        return [f"fidelity_report aggregate {got!r} != run aggregate {want!r}"]
    return []
