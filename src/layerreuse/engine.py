"""Hybrid decoding under a layer policy, with fidelity measurement and a cost model.

Full layers run exact attention over the whole cache and publish their top-k
(or top-block) selection. Reuse layers never score the full cache: they
inherit the previous layer's selection, gather only those KV rows, and run
subset-renormalized sparse attention. The loop calls full attention at Full
cells only and counts those calls per step; no Reuse cell has a full-cache
call to count. Token and block mode share one loop, _decode, which runs
steps outermost; they differ only in the step that turns a Full layer's
summed logits into a selection.

Each layer's all-heads cache is built once per decode call, as a view of the
model's grown arrays, and Full layers see each step through prefix; only the
rows a Reuse layer gathers are ever copied. Attention runs once per (step,
layer) over all heads, which equals one call per head bit for bit. A decode
call does decode work only. Fidelity compares against the all-Full baseline,
which equals the run's own outputs at Full layers bit for bit, so it is
recomputed with full attention at Reuse layers only, when
DecodeRunResult.fidelity is first read: one multi-step full_attention call
per Reuse layer, as the full trace makes.

The cost model is analytic. It prices the KV bytes one decode step reads,
all-Full and under the policy.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._canon import check_count
from .attention import (
    BlockSet,
    LayerKvCache,
    TopKSet,
    _head_sum,
    _subset_attention,
    block_max_of_logits,
    full_attention,
    topk_blocks,
    topk_of_logits,
)
from .errors import ConfigurationError, InvalidInputError
from .policy import Action, LayerPolicy, _structural_violations
from .profiling import relative_l2_error
from .synthetic import DecodeTrace, SyntheticModel

__all__ = [
    "FidelityTable",
    "DecodeRunResult",
    "CostModelReport",
    "FidelityReport",
    "hybrid_decode",
    "hybrid_decode_blocks",
    "cost_model",
    "fidelity_report",
]


@dataclass(frozen=True)
class FidelityTable:
    """Relative L2 error of hybrid outputs against the full baseline.

    per_step_layer is [steps, layers]; per_layer averages over steps;
    aggregate averages over everything. Full layers contribute exact zeros.
    """

    per_step_layer: np.ndarray
    per_layer: np.ndarray
    aggregate: float


class _Baseline:
    """All-Full baseline outputs of one run, computed on first use.

    Until then it holds the run's queries and caches, which keep the model's
    KV buffers alive; afterwards it holds only the [steps, layers, heads,
    head_dim] baseline array.
    """

    def __init__(self, outputs, policy, queries, caches) -> None:
        self._inputs = (outputs, policy, queries, caches)
        self._outputs: np.ndarray | None = None

    def outputs(self) -> np.ndarray:
        inputs = self._inputs
        if inputs is None:
            return self._outputs
        # Concurrent first reads may both compute the same array; the result
        # is stored before the inputs are dropped, so no reader sees neither.
        self._outputs = _full_baseline(*inputs)
        self._inputs = None
        return self._outputs


@dataclass(frozen=True)
class DecodeRunResult:
    """Outputs, selections, fidelity, and instrumentation of one hybrid run.

    full_score_computations[t] counts the full_attention calls of step t,
    which the loop makes at Full layers only, so it equals the policy's
    full_count every step. reuse_full_scans is the literal 0, not a
    measurement: a Reuse cell makes no full_attention call, only sparse
    attention over its gathered rows. reuse_gathered_rows[t][l] is the number
    of KV rows gathered at a Reuse layer (None at Full layers). budget counts
    tokens in token mode and blocks in block mode.

    fidelity is computed on first access, not by the decode call: the
    all-Full baseline is recomputed at Reuse layers then, and from then on
    the result keeps only the baseline outputs, not the model's caches. A
    copy made with dataclasses.replace shares the baseline and measures its
    own outputs against it.
    """

    policy: LayerPolicy
    budget: int
    block_size: int
    outputs: np.ndarray
    selections: tuple[tuple[TopKSet | BlockSet, ...], ...]
    full_score_computations: tuple[int, ...]
    reuse_full_scans: int
    reuse_gathered_rows: tuple[tuple[int | None, ...], ...]
    _baseline: _Baseline = field(repr=False, compare=False)

    @cached_property
    def fidelity(self) -> FidelityTable:
        """Relative L2 error of outputs against the all-Full baseline."""
        return _fidelity_tables(self._baseline.outputs(), self.outputs)

    @property
    def steps(self) -> int:
        return self.outputs.shape[0]


def _fidelity_tables(baseline_outputs: np.ndarray, hybrid_outputs: np.ndarray) -> FidelityTable:
    steps, layers = hybrid_outputs.shape[0], hybrid_outputs.shape[1]
    table = np.empty((steps, layers))
    for t in range(steps):
        for l in range(layers):
            table[t, l] = relative_l2_error(
                hybrid_outputs[t, l].ravel(), baseline_outputs[t, l].ravel()
            )
    table.setflags(write=False)
    per_layer = table.mean(axis=0)
    per_layer.setflags(write=False)
    return FidelityTable(
        per_step_layer=table, per_layer=per_layer, aggregate=float(table.mean())
    )


def _full_baseline(
    outputs: np.ndarray, policy: LayerPolicy, queries: np.ndarray, caches: list[LayerKvCache]
) -> np.ndarray:
    """All-Full baseline of a run: its outputs, with Reuse layers recomputed.

    A Full layer of the run already computed full_attention on the same query
    and cache, so only Reuse layers can differ from an all-Full decode. Like
    the full trace, the recompute makes one multi-step full_attention call per
    layer: caches[l] holds the last step's rows, and step t sees its first
    context_len + t.
    """
    baseline = outputs.copy()
    for l, action in enumerate(policy.actions):
        if action is Action.REUSE:
            baseline[:, l], _, _ = full_attention(queries[:, l], caches[l])
    return baseline


def _check_run_args(model: SyntheticModel, policy: LayerPolicy, steps: int) -> int:
    """steps as an int, once the policy is checked against the model."""
    if policy.num_layers != model.config.layers:
        raise ConfigurationError(
            f"policy covers {policy.num_layers} layers, model has {model.config.layers}"
        )
    violations = _structural_violations(policy)
    if violations:
        layer, rule = violations[0]
        if rule == "first-layer-full":
            raise InvalidInputError("the first layer of a policy must run full attention")
        raise InvalidInputError(f"policy breaks the {rule} rule at layer {layer}")
    return check_count("steps", steps)


def _decode(
    model: SyntheticModel,
    policy: LayerPolicy,
    steps: int,
    budget: int,
    block_size: int,
    select: Callable[[np.ndarray, int], tuple[TopKSet | BlockSet, TopKSet | BlockSet, np.ndarray]],
) -> DecodeRunResult:
    """The (step, layer) loop of hybrid decoding, for both modes, which differ only in select.

    A Full cell runs full attention of all heads over the step's cache and
    hands the head-summed logits to select(logits, n), which returns the
    selection that layer records, the one the Reuse layers after it record,
    and the rows they gather. A Reuse cell records the inherited selection of
    the last Full layer below it at the same step and runs sparse attention
    over just those rows.

    Steps run outermost: this models autoregressive decoding, where token
    t + 1 cannot start until token t has left the last layer, so each cell
    makes its own calls and gets no cache reuse that no real decoder gets.
    The full trace and the Reuse-layer fidelity baseline (_full_baseline),
    whose queries are all given, instead run each layer's steps as one
    multi-step full_attention call.
    """
    cfg = model.config
    L = cfg.layers
    queries = model.queries(steps)
    caches = [model.cache_at(l, steps - 1) for l in range(L)]
    outputs = np.empty((steps, L, cfg.heads, cfg.head_dim))
    selections = [[None] * L for _ in range(steps)]
    gathered = [[None] * L for _ in range(steps)]
    full_counts = [0] * steps
    for t in range(steps):
        n_t = cfg.context_len + t
        for l, action in enumerate(policy.actions):
            if action is Action.FULL:
                outputs[t, l], logits, _ = full_attention(queries[t, l], caches[l].prefix(n_t))
                full_counts[t] += 1
                selections[t][l], inherited, rows = select(_head_sum(logits), n_t)
            else:
                # Layer 0 is Full, so a selection is carried at every step.
                selections[t][l] = inherited
                outputs[t, l], _, _ = _subset_attention(queries[t, l], caches[l], rows)
                gathered[t][l] = int(rows.shape[0])
    outputs.setflags(write=False)
    return DecodeRunResult(
        policy=policy,
        budget=budget,
        block_size=block_size,
        outputs=outputs,
        selections=tuple(map(tuple, selections)),
        full_score_computations=tuple(full_counts),
        reuse_full_scans=0,
        reuse_gathered_rows=tuple(map(tuple, gathered)),
        _baseline=_Baseline(outputs, policy, queries, caches),
    )


def hybrid_decode(
    model: SyntheticModel,
    policy: LayerPolicy,
    budget: int,
    steps: int,
    *,
    include_sinks: int = 0,
    include_recent: int = 0,
) -> DecodeRunResult:
    """Decode with token-level selection reuse under a layer policy.

    Full layers compute exact attention and extract the top-min(budget, N)
    tokens of their summed per-head logits; Reuse layers inherit the previous
    layer's selection and run sparse attention over just those rows. The
    budget is clamped to the current cache length each step. Fidelity is
    measured against the all-full baseline on the same model and steps,
    recomputed at Reuse layers only (Full layers match it bit for bit), when
    the result's fidelity is first read.

    include_sinks / include_recent optionally force the first and last so
    many tokens into reused selections; both default to off, which keeps the
    gathered row count at exactly min(budget, N). Each Full layer's selection
    is augmented once, and the Reuse layers after it share the result.
    """
    steps = _check_run_args(model, policy, steps)
    budget = check_count("budget", budget)
    include_sinks = check_count("include_sinks", include_sinks, 0)
    include_recent = check_count("include_recent", include_recent, 0)

    def select(logits: np.ndarray, n: int) -> tuple[TopKSet, TopKSet, np.ndarray]:
        sel = TopKSet(indices=topk_of_logits(logits, min(budget, n)), budget=budget)
        if not (include_sinks or include_recent):
            return sel, sel, sel.as_array()
        extra = set(range(min(include_sinks, n))) | set(range(max(n - include_recent, 0), n))
        merged = tuple(sorted(set(sel.indices) | extra))
        inherited = TopKSet(indices=merged, budget=len(merged))
        return sel, inherited, inherited.as_array()

    return _decode(model, policy, steps, budget, 1, select)


def hybrid_decode_blocks(
    model: SyntheticModel,
    policy: LayerPolicy,
    block_budget: int,
    block_size: int,
    steps: int,
) -> DecodeRunResult:
    """Decode with block-level selection reuse under a layer policy.

    Full layers max-pool their summed logits into blocks of block_size tokens
    and keep the top-min(block_budget, block count) blocks; Reuse layers
    gather exactly the selected blocks' token ranges (the final block may be
    truncated by the cache end) and run sparse attention over that coverage,
    which is built once per Full layer and step. This is hybrid_decode's loop
    with a block selection step, so block_size = 1 reproduces hybrid_decode
    with budget = block_budget bit for bit. Fidelity is measured as in
    hybrid_decode: against the all-full baseline, recomputed at Reuse layers
    only when the result's fidelity is first read, not by this call.
    """
    steps = _check_run_args(model, policy, steps)
    block_budget = check_count("block_budget", block_budget)
    block_size = check_count("block_size", block_size)

    def select(logits: np.ndarray, n: int) -> tuple[BlockSet, BlockSet, np.ndarray]:
        blocks = min(block_budget, math.ceil(n / block_size))
        sel = topk_blocks(block_max_of_logits(logits, block_size), blocks, block_size)
        return sel, sel, sel.token_coverage(n)

    return _decode(model, policy, steps, block_budget, block_size, select)


@dataclass(frozen=True)
class CostModelReport:
    """Analytic KV-traffic accounting for one (policy, context length, budget) point.

    Byte counts are exact integers; ratios and speedups are plain floats.
    tokens_covered is the per-step sparse read size min(budget * block_size,
    context_len). predicted_speedup assumes decode time is proportional to
    bytes read, so it is the full/hybrid byte ratio; any bandwidth, of fast
    memory or of a link that offloaded Reuse caches sit behind, cancels out.
    """

    kv_bytes_full: int
    kv_bytes_hybrid: int
    bytes_ratio: float
    predicted_speedup: float
    tokens_covered: int


def cost_model(
    policy: LayerPolicy,
    context_len: int,
    budget: int,
    *,
    block_size: int = 1,
    head_dim: int = 64,
) -> CostModelReport:
    """Price one decode step's KV reads under a policy.

    A Full layer reads its whole cache: context_len rows. A Reuse layer reads
    only the selected rows: min(budget * block_size, context_len), where
    budget counts tokens when block_size is 1 and blocks otherwise. Each row
    is 2 * head_dim * 8 bytes: keys and values, float64 like every cache in
    this package. head_dim is the total per-layer KV width; fold multiple
    heads into it.

    In plain token mode tokens_covered is exactly the row count a Reuse cell
    gathers. Sink and recent rows can add to that count. In block mode a cell
    gathers fewer rows when it selects the final block and the cache end
    truncates it, so there tokens_covered is an upper bound.
    """
    L = policy.num_layers
    full = policy.full_count
    context_len = check_count("context_len", context_len)
    budget = check_count("budget", budget)
    block_size = check_count("block_size", block_size)
    head_dim = check_count("head_dim", head_dim)

    covered = min(budget * block_size, context_len)
    row_bytes = 2 * head_dim * 8  # keys and values, float64
    kv_full = L * context_len * row_bytes
    kv_hybrid = (full * context_len + (L - full) * covered) * row_bytes
    ratio = kv_hybrid / kv_full
    return CostModelReport(
        kv_bytes_full=kv_full,
        kv_bytes_hybrid=kv_hybrid,
        bytes_ratio=ratio,
        predicted_speedup=kv_full / kv_hybrid,
        tokens_covered=covered,
    )


@dataclass(frozen=True)
class FidelityReport:
    """Hybrid-vs-baseline comparison: output error plus selection agreement.

    selection_overlap[t, l] compares the hybrid selection at (step t, layer
    l) with the baseline's fresh selection there: |shared| / max(sizes). At
    Full layers this is 1 by construction when budgets match; at Reuse layers
    it measures how stale the inherited selection has become.
    """

    rnmse: FidelityTable
    selection_overlap: np.ndarray
    per_layer_overlap: np.ndarray


def _selection_indices(sel: TopKSet | BlockSet) -> tuple[int, ...]:
    return sel.indices if isinstance(sel, TopKSet) else sel.block_indices


def fidelity_report(baseline: DecodeTrace, hybrid: DecodeRunResult) -> FidelityReport:
    """Compare a hybrid run against a full-attention trace of the same shape.

    Raises:
        InvalidInputError: when the trace and the run disagree on steps,
            layers, heads, or head width.
    """
    if baseline.outputs.shape != hybrid.outputs.shape:
        raise InvalidInputError(
            f"shape mismatch: baseline {baseline.outputs.shape} vs hybrid {hybrid.outputs.shape}"
        )
    if hybrid.block_size > 1 and baseline.block_size != hybrid.block_size:
        raise InvalidInputError(
            f"block size mismatch: baseline {baseline.block_size} vs hybrid {hybrid.block_size}"
        )
    steps, layers = hybrid.outputs.shape[0], hybrid.outputs.shape[1]
    base_sels = baseline.topk if hybrid.block_size == 1 else baseline.blocks
    overlap = np.empty((steps, layers))
    for t in range(steps):
        for l in range(layers):
            base_sel = _selection_indices(base_sels[t][l])
            hyb_sel = _selection_indices(hybrid.selections[t][l])
            shared = len(set(base_sel) & set(hyb_sel))
            overlap[t, l] = shared / max(len(base_sel), len(hyb_sel))
    overlap.setflags(write=False)
    per_layer = overlap.mean(axis=0)
    per_layer.setflags(write=False)
    return FidelityReport(
        rnmse=_fidelity_tables(baseline.outputs, hybrid.outputs),
        selection_overlap=overlap,
        per_layer_overlap=per_layer,
    )
