"""Selection-overlap profiling and sparse-substitution sensitivity measurement.

The profiler answers two questions about a model. First, how much do top-k
selections agree between layer pairs (the similarity matrix that planning
consumes). Second, how much does swapping full attention for top-k sparse
attention at one layer perturb that layer's contribution to the next
(relative error of the propagated output, plus the divergence between the
full and subset weight distributions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._canon import FORMAT_VERSION, payload_hash
from .attention import TopKSet, _head_sum, _subset_attention, full_attention, topk_of_logits
from .errors import InvalidInputError
from .synthetic import DecodeTrace, SyntheticModel

__all__ = [
    "SimilarityMatrix",
    "LayerSensitivity",
    "SensitivityReport",
    "build_similarity_matrix",
    "relative_l2_error",
    "kl_extended",
    "sensitivity_profile",
]

KL_FLOOR = 1e-12


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
        if self.budget < 1:
            raise InvalidInputError(f"budget must be >= 1, got {self.budget}")
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
        if num_layers < 1:
            raise InvalidInputError(f"matrix must cover at least one layer, got L={num_layers}")
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
            "version": FORMAT_VERSION,
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


def kl_extended(
    full_weights: np.ndarray,
    selected: np.ndarray,
    subset_weights: np.ndarray,
    floor: float = KL_FLOOR,
) -> float:
    """KL(full || extended subset) over all N tokens.

    The subset distribution is extended to length N by placing its weights at
    the selected indices, flooring everything at `floor`, and renormalizing.
    The direction is fixed: the full distribution is the reference.
    """
    p = np.asarray(full_weights, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.int64)
    subset = np.asarray(subset_weights, dtype=np.float64)
    if selected.shape != subset.shape:
        raise InvalidInputError("selected indices and subset weights must align")
    q = np.zeros_like(p)
    q[selected] = subset
    q = np.maximum(q, floor)
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass(frozen=True)
class LayerSensitivity:
    """Per-layer effect of the full -> sparse swap. rnmse is NaN when undefined."""

    rnmse: float
    kl: float


@dataclass(frozen=True)
class SensitivityReport:
    budget: int
    step: int
    layers: tuple[LayerSensitivity, ...]

    @property
    def rnmse(self) -> np.ndarray:
        return np.asarray([layer.rnmse for layer in self.layers])

    @property
    def kl(self) -> np.ndarray:
        return np.asarray([layer.kl for layer in self.layers])


def sensitivity_profile(model: SyntheticModel, step: int, budget: int) -> SensitivityReport:
    """Probe every layer: swap in top-k sparse attention and measure the damage.

    Every layer's full and sparse outputs are pushed one layer forward by
    one SyntheticModel.propagate call, so both share one draw of probe
    noise, and the relative L2 error between a layer's propagated pair is
    recorded together with the KL divergence of the weight distributions at
    the probed layer. A budget of at least the current cache length
    saturates the selection and both measures drop to zero. Multi-head
    models select on summed logits and average the per-head KL.

    Args:
        model: synthetic decoder.
        step: decode step to probe; the cache holds context_len + step tokens.
        budget: top-k size, clamped to the cache length.
    """
    cfg = model.config
    if step < 0:
        raise InvalidInputError(f"step must be >= 0, got {step}")
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    L, H, d = cfg.layers, cfg.heads, cfg.head_dim
    queries = model.queries(step + 1)
    n = cfg.context_len + step
    k = min(budget, n)
    # [0] holds each layer's full output, [1] its sparse output.
    outs = np.empty((2, L, H, d))
    kls: list[float] = []
    for l in range(L):
        cache = model.cache_at(l, step)
        outs[0, l], logits, full_weights = full_attention(queries[step, l], cache)
        sel = TopKSet(indices=topk_of_logits(_head_sum(logits), k), budget=k)
        idx = sel.as_array()
        outs[1, l], _, sub_weights = _subset_attention(queries[step, l], cache, idx)
        kls.append(float(np.mean([kl_extended(full_weights[h], idx, sub_weights[h]) for h in range(H)])))
    full_next, sparse_next = model.propagate(outs, step)
    rows = tuple(
        LayerSensitivity(rnmse=relative_l2_error(sparse_next[l], full_next[l]), kl=kls[l])
        for l in range(L)
    )
    return SensitivityReport(budget=budget, step=step, layers=rows)
