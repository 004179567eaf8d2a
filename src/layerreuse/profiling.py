"""Selection-overlap profiling and sparse-substitution sensitivity measurement.

The profiler answers two questions about a model. First, how much do top-k
selections agree between layer pairs (the similarity matrix that planning
consumes). Second, how much does swapping full attention for top-k sparse
attention at one layer perturb that layer's contribution to the next: the
relative error of the propagated output at every step and layer of a
full-attention trace, summarized per layer by its mean and max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._canon import V1_0, check_count, payload_hash
from .attention import _head_sum, _subset_attention, full_attention, topk_of_logits
from .errors import InvalidInputError
from .synthetic import DecodeTrace, SyntheticModel

__all__ = [
    "SimilarityMatrix",
    "SensitivityReport",
    "build_similarity_matrix",
    "relative_l2_error",
    "sensitivity_profile",
    "sensitivity_table",
]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Mean selection overlap for every ordered layer pair (source i, target j), i <= j.

    values[j, i] holds the overlap for source layer i and target layer j; the
    diagonal is exactly 1 and entries above the diagonal are zero padding.
    budget records the k the profile was taken at.
    """

    values: np.ndarray
    budget: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidInputError(f"matrix must be square, got shape {values.shape}")
        L = values.shape[0]
        if L < 1:
            raise InvalidInputError("matrix must cover at least one layer")
        object.__setattr__(self, "budget", check_count("budget", self.budget))
        lower = values[np.tril_indices(L)]
        if not np.all(np.isfinite(lower)) or lower.min() < 0.0 or lower.max() > 1.0:
            raise InvalidInputError("overlap entries must lie in [0, 1]")
        if not np.all(np.diag(values) == 1.0):
            raise InvalidInputError("diagonal entries must equal 1 exactly")
        if L > 1 and np.any(values[np.triu_indices(L, k=1)] != 0.0):
            raise InvalidInputError("entries above the diagonal must be zero padding")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_layers(self) -> int:
        return self.values.shape[0]

    def overlap(self, source: int, target: int) -> float:
        """Overlap between source layer i and target layer j, requiring i <= j."""
        if not 0 <= source <= target < self.num_layers:
            raise InvalidInputError(
                f"need 0 <= source <= target < {self.num_layers}, got ({source}, {target})"
            )
        return float(self.values[target, source])

    def flat_entries(self) -> list[float]:
        """Lower triangle in row-major order: (j=0,i=0), (j=1,i=0), (j=1,i=1), ..."""
        return self.values[np.tril_indices(self.num_layers)].tolist()

    @classmethod
    def from_flat(cls, num_layers: int, budget: int, entries: list[float]) -> "SimilarityMatrix":
        num_layers = check_count("layer count L", num_layers)
        expected = num_layers * (num_layers + 1) // 2
        if len(entries) != expected:
            raise InvalidInputError(
                f"expected {expected} lower-triangle entries for L={num_layers}, got {len(entries)}"
            )
        values = np.zeros((num_layers, num_layers))
        values[np.tril_indices(num_layers)] = entries
        return cls(values=values, budget=budget)

    def canonical_payload(self) -> dict:
        return {
            "version": V1_0,
            "kind": "similarity-matrix",
            "L": self.num_layers,
            "k": self.budget,
            "entries": self.flat_entries(),
        }

    def sha256(self) -> str:
        return payload_hash(self.canonical_payload())


def build_similarity_matrix(trace: DecodeTrace) -> SimilarityMatrix:
    """Mean per-step overlap for every layer pair of a full-attention trace.

    Each step's selections form a 0/1 membership matrix, one row per layer and
    one column per token. Its product with its own transpose counts the shared
    indices of every layer pair at once. The counts are exact integers, so
    each entry equals the pair's overlap ratio |S_i & S_j| / k, computed
    directly, bit for bit. Every selection must hold exactly k indices
    (InvalidInputError otherwise). The fold over steps is a fixed-order mean,
    so the result is bit-stable regardless of how the per-step work was
    scheduled.
    """
    if trace.steps < 1:
        raise InvalidInputError("trace holds no decode steps")
    L = trace.config.layers
    k = trace.budget
    per_step = np.empty((trace.steps, L, L))
    for t in range(trace.steps):
        sets = trace.topk[t]
        if len(sets) != L:
            raise InvalidInputError(f"trace step {t} holds {len(sets)} selections for {L} layers")
        sizes = {s.size for s in sets}
        if sizes != {k}:
            raise InvalidInputError(
                f"overlap needs size-{k} selections, step {t} holds sizes {sorted(sizes)}"
            )
        indices = np.array([s.indices for s in sets])
        member = np.zeros((L, int(indices.max()) + 1))
        np.put_along_axis(member, indices, 1.0, axis=1)
        per_step[t] = (member @ member.T) / k
    values = per_step.mean(axis=0)
    values[np.triu_indices(L, k=1)] = 0.0
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(values=values, budget=k)


def relative_l2_error(x: np.ndarray, reference: np.ndarray) -> float:
    """||x - reference|| / ||reference||; 0.0 when both norms vanish, NaN when undefined."""
    x = np.asarray(x, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if x.shape != reference.shape:
        raise InvalidInputError(f"shape mismatch: {x.shape} vs {reference.shape}")
    err = float(np.linalg.norm(x - reference))
    ref = float(np.linalg.norm(reference))
    if ref == 0.0:
        return 0.0 if err == 0.0 else math.nan
    return err / ref


@dataclass(frozen=True)
class SensitivityReport:
    """Each layer's rnmse of swapping in top-k sparse attention, over `steps` decode steps.

    rnmse[l] is layer l's mean over the steps and max_rnmse[l] its largest
    value; over one step both are that step's rnmse. NaN marks an rnmse that
    is undefined, and a layer with one is NaN in both.
    """

    budget: int
    steps: int
    rnmse: np.ndarray
    max_rnmse: np.ndarray

    @classmethod
    def of_table(cls, table: np.ndarray, budget: int) -> "SensitivityReport":
        """The report of a [steps, layers] sensitivity table, column by column."""
        return cls(budget=budget, steps=table.shape[0], rnmse=table.mean(axis=0), max_rnmse=table.max(axis=0))


def _propagated_rnmse(model: SyntheticModel, full: np.ndarray, sparse: np.ndarray, step: int) -> list[float]:
    """Per-layer rnmse of a step's sparse outputs against its full ones, both [layers, heads, head_dim].

    Both sets go one layer forward in one SyntheticModel.propagate call, so
    the pair shares one draw of probe noise.
    """
    full_next, sparse_next = model.propagate(np.stack((full, sparse)), step)
    return [relative_l2_error(s, f) for s, f in zip(sparse_next, full_next)]


def sensitivity_profile(model: SyntheticModel, step: int, budget: int) -> SensitivityReport:
    """Probe every layer at one decode step: swap in top-k sparse attention and measure the damage.

    Each layer runs full attention over the step's cache and sparse attention
    over the top-k of its summed per-head logits (_propagated_rnmse compares
    them). A budget of at least the current cache length saturates the
    selection and the rnmse drops to zero. This is the one-step reference
    for sensitivity_table.

    Args:
        model: synthetic decoder.
        step: decode step to probe; the cache holds context_len + step tokens.
        budget: top-k size, clamped to the cache length.
    """
    cfg = model.config
    step = check_count("step", step, 0)
    budget = check_count("budget", budget)
    queries = model.queries(step + 1)[step]
    # [0] holds each layer's full output, [1] its sparse output.
    outs = np.empty((2,) + queries.shape)
    for l in range(cfg.layers):
        cache = model.cache_at(l, step)
        outs[0, l], logits, _ = full_attention(queries[l], cache)
        idx = np.asarray(topk_of_logits(_head_sum(logits), budget))
        outs[1, l] = _subset_attention(queries[l], cache, idx)[0]
    return SensitivityReport.of_table(np.array([_propagated_rnmse(model, outs[0], outs[1], step)]), budget)


def sensitivity_table(model: SyntheticModel, trace: DecodeTrace) -> np.ndarray:
    """Read-only [steps, layers] rnmse of swapping in top-k sparse attention at every trace cell.

    The full outputs and the selections are the trace's own, so no cache is
    scored, and row t equals sensitivity_profile(model, t, trace.budget).rnmse
    bit for bit. The sparse outputs run layer by layer, each layer's steps
    over one cache. gen-traces attaches the table to the trace it writes.

    Raises:
        InvalidInputError: if the trace was not recorded on a model of this config.
    """
    cfg = model.config
    if trace.config != cfg:
        raise InvalidInputError("the trace was recorded on a model of another config")
    sparse = np.empty(trace.outputs.shape)
    for l in range(cfg.layers):
        cache = model.cache_at(l, trace.steps - 1)
        for t in range(trace.steps):
            sparse[t, l] = _subset_attention(trace.queries[t, l], cache, trace.topk[t][l].as_array())[0]
    table = np.array([_propagated_rnmse(model, trace.outputs[t], sparse[t], t) for t in range(trace.steps)])
    table.setflags(write=False)
    return table
