"""Hybrid decoding under a layer policy, with fidelity measurement and a cost model.

Full layers run exact attention over the whole cache and publish their top-k
(or top-block) selection. Reuse layers never score the full cache: they
inherit the previous layer's selection, gather only those KV rows, and run
subset-renormalized sparse attention. The loop calls full attention at Full
cells only and counts those calls per step; no Reuse cell has a full-cache
call to count. One function, hybrid_decode, holds the (step, layer) loop,
steps outermost, and one select rule in units of block_size tokens: a Full
layer's summed logits, max-pooled into blocks above block_size 1, give its
top units, so it selects tokens at block_size 1 and blocks above it. Sink
and recent units merge into the selection Reuse layers inherit through one
mask over the step's units, in both modes.

A Full cell reaches its step's all-heads cache through the model's cache_at,
a view of the model's grown arrays. Only Reuse layers hold the last step's
cache, and only the rows they gather from it are ever copied. Attention runs
once per (step, layer) over all heads, which equals one call per head bit
for bit. A decode call does decode work only. Fidelity compares against the
all-Full baseline, which equals the run's own outputs at Full layers bit for
bit, so it is recomputed with full attention at Reuse layers only, when
DecodeRunResult.fidelity is first read: one multi-step full_attention call
per Reuse layer, as the full trace makes.

The cost model is analytic. It prices the KV bytes one decode step reads,
all-Full and under the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._canon import check_count
from .attention import (
    BlockSet,
    LayerKvCache,
    TopKSet,
    _subset_attention,
    block_max_of_logits,
    full_attention,
    topk_of_logits,
)
from .errors import ConfigurationError, InvalidInputError
from .policy import Action, LayerPolicy
from .profiling import _cell_errors
from .synthetic import DecodeTrace, SyntheticModel

__all__ = [
    "FidelityTable",
    "DecodeRunResult",
    "CostModelReport",
    "FidelityReport",
    "hybrid_decode",
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

    Until then it holds the run's queries and its Reuse layers' last-step
    caches, which keep the model's KV buffers alive; afterwards it holds only
    the [steps, layers, heads, head_dim] baseline array.
    """

    def __init__(self, outputs, queries, caches) -> None:
        self._inputs = (outputs, queries, caches)
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
    """Each (step, layer) cell's relative L2 error over its heads' outputs, all cells at once."""
    table = _cell_errors(hybrid_outputs, baseline_outputs)
    table.setflags(write=False)
    per_layer = table.mean(axis=0)
    per_layer.setflags(write=False)
    return FidelityTable(
        per_step_layer=table, per_layer=per_layer, aggregate=float(table.mean())
    )


def _full_baseline(outputs: np.ndarray, queries: np.ndarray, caches: dict[int, LayerKvCache]) -> np.ndarray:
    """All-Full baseline of a run: its outputs, with Reuse layers recomputed.

    A Full layer of the run already computed full_attention on the same query
    and cache, so only Reuse layers can differ from an all-Full decode. Like
    the full trace, the recompute makes one multi-step full_attention call per
    Reuse layer l: caches[l] holds the last step's rows, and step t sees its
    first context_len + t.
    """
    baseline = outputs.copy()
    for l, cache in caches.items():
        baseline[:, l] = full_attention(queries[:, l], cache)[0]
    return baseline


def hybrid_decode(
    model: SyntheticModel,
    policy: LayerPolicy,
    budget: int,
    steps: int,
    *,
    block_size: int = 1,
    include_sinks: int = 0,
    include_recent: int = 0,
) -> DecodeRunResult:
    """Decode with selection reuse under a layer policy, of tokens or of blocks of tokens.

    Full layers compute exact attention of all heads over the step's cache,
    which model.cache_at builds, and select units from their summed per-head
    logits: a unit is block_size tokens, the final one truncated by the cache
    end. At block_size 1 they select the top-min(budget, N) tokens, above it
    the top-min(budget, block count) blocks of the logits max-pooled into
    blocks. So budget counts tokens at block_size 1 and blocks above it. A
    Reuse layer records the selection of the last Full layer below it at the
    same step and runs sparse attention over just its rows of the layer's
    last-step cache; those rows are built once per Full layer and step.
    Fidelity is measured against the all-full baseline on the same model and
    steps, recomputed at Reuse layers only (Full layers match it bit for
    bit), when the result's fidelity is first read.

    include_sinks / include_recent optionally force the first and last so
    many tokens into reused selections: one mask over the step's
    ceil(N / block_size) units merges the top units with the units that hold
    those tokens. Both default to off. Each Full layer's selection is merged
    once, and the Reuse layers after it record the merged TopKSet or
    BlockSet and gather exactly its rows.

    Steps run outermost: this models autoregressive decoding, where token
    t + 1 cannot start until token t has left the last layer, so each cell
    makes its own calls and gets no cache reuse that no real decoder gets.
    The full trace and the Reuse-layer fidelity baseline (_full_baseline),
    whose queries are all given, instead run each layer's steps as one
    multi-step full_attention call.
    """
    # Every LayerPolicy is a valid chain by construction, so its layer count is the one policy check.
    if policy.num_layers != model.config.layers:
        raise ConfigurationError(
            f"policy covers {policy.num_layers} layers, model has {model.config.layers}"
        )
    steps = check_count("steps", steps)
    budget = check_count("budget", budget)
    block_size = check_count("block_size", block_size)
    include_sinks = check_count("include_sinks", include_sinks, 0)
    include_recent = check_count("include_recent", include_recent, 0)

    cfg = model.config
    L = cfg.layers
    queries = model.queries(steps)
    # Every step's growth rows in one batch; each cache_at(l, t) alone would grow one step at a time.
    model.grown_arrays(steps)
    caches = {l: model.cache_at(l, steps - 1) for l, a in enumerate(policy.actions) if a is Action.REUSE}
    outputs = np.empty((steps, L, cfg.heads, cfg.head_dim))
    selections = [[None] * L for _ in range(steps)]
    gathered = [[None] * L for _ in range(steps)]
    full_counts = [0] * steps
    # topk_of_logits returns a canonical row, and a mask over the step's units
    # reads back its union with the sink and recent units in ascending order,
    # so every set is built without a second check.
    tokens = block_size == 1
    make = TopKSet._canonical if tokens else BlockSet._canonical
    for t in range(steps):
        n_t = cfg.context_len + t
        for l, action in enumerate(policy.actions):
            if action is Action.FULL:
                outputs[t, l], logits = full_attention(queries[t, l], model.cache_at(l, t))
                full_counts[t] += 1
                scores = logits.sum(axis=-2)
                units = topk_of_logits(scores if tokens else block_max_of_logits(scores, block_size), budget)
                selections[t][l] = inherited = make(units, budget if tokens else block_size)
                if include_sinks or include_recent:
                    keep = np.zeros(-(-n_t // block_size), dtype=bool)
                    keep[list(units)] = True
                    keep[: -(-include_sinks // block_size)] = True
                    if include_recent:
                        keep[max(n_t - include_recent, 0) // block_size :] = True
                    units = tuple(np.flatnonzero(keep).tolist())
                    inherited = make(units, len(units) if tokens else block_size)
                rows = np.asarray(units, dtype=np.int64) if tokens else inherited.token_coverage(n_t)
            else:
                # Layer 0 is Full, so a selection is carried at every step.
                selections[t][l] = inherited
                outputs[t, l] = _subset_attention(queries[t, l], caches[l], rows)[0]
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
        _baseline=_Baseline(outputs, queries, caches),
    )


# Unexported: perfbench's decode-blocks workload calls it positionally. It goes
# when the benchmark is next changed (ROADMAP item 11).
def hybrid_decode_blocks(model, policy, block_budget, block_size, steps) -> DecodeRunResult:
    return hybrid_decode(model, policy, block_budget, steps, block_size=block_size)


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
    gathers. Sink and recent rows can add to that count, in either mode. In
    block mode a cell gathers fewer rows when it selects the final block and
    the cache end truncates it, so there tokens_covered is an upper bound.
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
