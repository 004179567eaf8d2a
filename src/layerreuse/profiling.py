"""Selection-overlap profiling and sparse-substitution sensitivity measurement.

The profiler answers two questions about a model. First, how much do top-k
selections agree between layer pairs (the similarity matrix that planning
consumes). Second, how sensitive each layer is to sparse attention: the
rnmse of subset attention over the layer's own top-k against its full output,
the error a decode run's fidelity reports, at every step and layer of a
full-attention trace, summarized per layer by its mean and max. Both read
the selections and outputs the trace recorded, so profiling scores no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._canon import V1_0, check_count, payload_hash
from .attention import _subset_attention
from .errors import InvalidInputError
from .synthetic import DecodeTrace, SyntheticModel, run_full_trace

__all__ = [
    "SimilarityMatrix",
    "SensitivityReport",
    "build_similarity_matrix",
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
        source, target = check_count("source", source, 0), check_count("target", target, 0)
        if not source <= target < self.num_layers:
            raise InvalidInputError(f"need 0 <= source <= target < {self.num_layers}, got ({source}, {target})")
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


def _row_errors(x: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """||x - reference|| / ||reference|| over the last axis, for every row at once.

    A row's squared norm is the 1 x n by n x 1 matmul of the row with
    itself, which runs the same BLAS dot as np.linalg.norm of that row, so
    each value equals the norm-based quotient bit for bit. A row whose
    reference norm vanishes reads 0.0 when its error vanishes too, else NaN.
    """
    diff = x - reference
    reference = np.ascontiguousarray(reference)
    err = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    ref = np.sqrt((reference[..., None, :] @ reference[..., :, None])[..., 0, 0])
    vanished = ref == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = err / np.where(vanished, 1.0, ref)
    return np.where(vanished, np.where(err == 0.0, 0.0, math.nan), ratio)


def _cell_errors(x: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Each cell's rnmse over all its heads: [..., heads, head_dim] outputs to [...] errors.

    The one error metric of the package: a decode run's fidelity and the
    sensitivity tables both call it.
    """
    cells = x.shape[:-2] + (-1,)
    return _row_errors(x.reshape(cells), reference.reshape(cells))


@dataclass(frozen=True)
class SensitivityReport:
    """Each layer's rnmse of swapping in top-k sparse attention, over `steps` decode steps.

    rnmse[l] is layer l's mean over the steps and max_rnmse[l] its largest
    value; over one step both are that step's rnmse. NaN marks an undefined
    rnmse, in both or neither; the constructor refuses any other pair, and
    an infinity.
    """

    budget: int
    steps: int
    rnmse: np.ndarray
    max_rnmse: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "budget", check_count("budget", self.budget))
        object.__setattr__(self, "steps", check_count("steps", self.steps))
        mean, peak = np.asarray(self.rnmse, dtype=np.float64), np.asarray(self.max_rnmse, dtype=np.float64)
        if mean.ndim != 1 or mean.shape != peak.shape or not len(mean):
            raise InvalidInputError("sensitivity-report field layers must hold at least one layer, as rnmse and "
                                    f"maxRnmse vectors of one length; got shapes {mean.shape} and {peak.shape}")
        broken = ~(np.isnan(mean) & np.isnan(peak) | (0 <= mean) & (mean <= peak) & (peak < np.inf))
        if broken.any():
            l = int(broken.argmax())
            raise InvalidInputError(f"sensitivity-report layer {l} has rnmse {mean[l]} and maxRnmse {peak[l]}: "
                                    "both must be NaN (null in a file), or finite numbers with 0 <= rnmse <= maxRnmse")

    @classmethod
    def of_table(cls, table: np.ndarray, budget: int) -> "SensitivityReport":
        """The report of a [steps, layers] sensitivity table, column by column.

        A mean can round above its column's largest value (three steps of 0.1
        average to 0.10000000000000002), so it is capped there.
        """
        peak = table.max(axis=0)
        return cls(budget=budget, steps=table.shape[0], rnmse=np.minimum(table.mean(axis=0), peak), max_rnmse=peak)


def sensitivity_profile(model: SyntheticModel, step: int, budget: int) -> SensitivityReport:
    """Every layer's rnmse of swapping in top-k sparse attention at one decode step.

    This is row step of the sensitivity_table of a (step + 1)-step trace,
    so the budget rule is the trace's: the top-min(budget, context_len)
    tokens. At step 0 a budget of at least context_len saturates the
    selection, and the rnmse drops to zero.

    Args:
        model: synthetic decoder.
        step: decode step to probe; the cache holds context_len + step tokens.
        budget: top-k size, clamped to the context length.
    """
    step = check_count("step", step, 0)
    budget = check_count("budget", budget)
    trace = run_full_trace(model, step + 1, min(budget, model.config.context_len))
    return SensitivityReport.of_table(sensitivity_table(model, trace)[step:], budget)


def sensitivity_table(model: SyntheticModel, trace: DecodeTrace) -> np.ndarray:
    """Read-only [steps, layers] rnmse of swapping in top-k sparse attention at every trace cell.

    The full outputs and the selections are the trace's own, so no cache is
    scored; sensitivity_profile(model, t, trace.budget) reports row t. The
    sparse outputs run layer by layer, each layer's steps over one cache.
    gen-traces attaches the table to the trace it writes.

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
    table = _cell_errors(sparse, trace.outputs)
    table.setflags(write=False)
    return table
