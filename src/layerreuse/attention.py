"""Exact attention of one query per head, top-k token selection, and block-level pooling.

A cache holds one head's [N, d] keys and values, or all H heads' [H, N, d];
a query is then [d] or [H, d], and every result gains the same leading head
axis. Each head's [N, d] block goes through the same BLAS call, reduction
and elementwise steps as a single-head call, so one call over H heads equals
H single-head calls bit for bit. full_attention also takes S consecutive
decode steps at once, a query [S, d] or [S, H, d] whose step t sees the
first N - S + 1 + t tokens; each step runs its own one-step BLAS calls and
softmax sum, so it equals S one-step calls bit for bit. The selection
functions take the resulting [S, N] rows of logits and select row by row.

All math runs in float64. Every public operation is a pure function over
immutable inputs, so results are safe to share across threads and are
bit-reproducible for identical inputs on the same platform.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._canon import check_count
from .errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidSelectionError,
    NumericInputError,
)

__all__ = [
    "LayerKvCache",
    "TopKSet",
    "BlockSet",
    "full_attention",
    "topk_of_logits",
    "block_max_of_logits",
    "topk_blocks",
]


class _CheckedRows(np.ndarray):
    """Float64 row storage whose rows are checked finite before they are written.

    Its owner writes a row only before handing out a view that covers it,
    and a covered row is never written again. Each row it writes is a copy
    of a row already held in _CheckedRows storage, or a row x rescaled to a
    fixed norm whose norm and scale were first checked finite: a finite norm
    means every entry of x is finite, and a finite scale bounds every
    rescaled entry, so that check is exact at 1/d of a scan's cost. So every
    row a view shows is finite and fixed, and LayerKvCache shares a
    read-only view of this storage without scanning it again. Views are
    handed out as plain ndarrays (np.asarray of a slice); their base chain
    leads back here.
    """


def _is_checked_view(value) -> bool:
    """True for a read-only float64 view of _CheckedRows storage whose [N, d] blocks are C-contiguous.

    The view has 2 or 3 axes; a leading head axis may have any stride, as in
    a view of a buffer with spare rows. Contiguous blocks keep BLAS on the
    path a fresh copy would take, so sharing never changes a result bit.
    """
    if not isinstance(value, np.ndarray) or value.dtype != np.float64:
        return False
    if value.flags.writeable or value.ndim not in (2, 3):
        return False
    n, d = value.shape[-2:]
    if not ((d <= 1 or value.strides[-1] == 8) and (n <= 1 or value.strides[-2] == 8 * d)):
        return False
    base = value.base
    while isinstance(base, np.ndarray) and not isinstance(base, _CheckedRows):
        base = base.base
    return isinstance(base, _CheckedRows)


def _frozen_f64(value, name: str) -> np.ndarray:
    """Read-only float64 array of 2 or 3 axes, rejecting non-finite entries.

    Shares a read-only view of _CheckedRows storage without a rescan: its rows
    were checked when they were stored and are never written again. Copies
    and scans everything else, so no caller can change a cache's rows.
    """
    if _is_checked_view(value):
        return value
    arr = np.array(value, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ConfigurationError(f"{name} must be 2-D or 3-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LayerKvCache:
    """Key and value matrices for one layer's cached tokens.

    Both arrays are float64 with identical shapes: [N, d] for one head, or
    [H, N, d] for all H heads of the layer, with N >= 1 (and H >= 1). They
    are checked for shape and finiteness at construction and read-only
    afterwards, so a cache can be handed to concurrent readers without
    defensive copies. The attention functions take a [d] query against a
    one-head cache and an [H, d] query against an all-heads cache.

    Only a read-only view of SyntheticModel.grown_arrays whose every [N, d]
    block is C-contiguous, as cache_at builds, is shared, without a rescan:
    the model checked each row when it stored it and never writes it again.
    Every other input is copied and scanned.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        keys = _frozen_f64(self.keys, "keys")
        values = _frozen_f64(self.values, "values")
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"keys shape {keys.shape} does not match values shape {values.shape}"
            )
        if min(keys.shape[:-1]) < 1:
            raise ConfigurationError("cache must hold at least one token (and one head)")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        """Number of cached tokens N."""
        return self.keys.shape[-2]

    @property
    def head_dim(self) -> int:
        """Per-token vector width d."""
        return self.keys.shape[-1]

    def prefix(self, n: int) -> LayerKvCache:
        """The cache of the first n tokens, in O(1).

        The result shares this cache's memory and is not validated again:
        its rows were checked when this cache was built.

        Raises:
            ConfigurationError: unless 1 <= n <= length.
        """
        if not 1 <= n <= self.length:
            raise ConfigurationError(f"prefix length must lie in [1, {self.length}], got {n}")
        view = object.__new__(LayerKvCache)
        object.__setattr__(view, "keys", self.keys[..., :n, :])
        object.__setattr__(view, "values", self.values[..., :n, :])
        return view


def _check_ascending(indices: tuple[int, ...], kind: str) -> None:
    """Reject negative or not strictly ascending indices, in one scan when they are valid.

    A negative index is reported first, as the separate checks did.
    """
    ascending = all(map(operator.lt, indices, indices[1:]))
    if (indices[0] if ascending else min(indices)) < 0:
        raise InvalidSelectionError(f"{kind} indices must be non-negative")
    if not ascending:
        raise InvalidSelectionError(f"{kind} indices must be strictly ascending")


@dataclass(frozen=True)
class TopKSet:
    """Canonical token selection: distinct ascending indices plus the requested budget.

    The constructing operation guarantees len(indices) == min(budget, N) for
    the cache it was drawn from; the constructor enforces the canonical form.
    """

    indices: tuple[int, ...]
    budget: int

    def __post_init__(self) -> None:
        indices = tuple(map(int, self.indices))
        budget = check_count("budget", self.budget)
        if not indices:
            raise InvalidSelectionError("selection must contain at least one index")
        _check_ascending(indices, "token")
        if len(indices) > budget:
            raise InvalidSelectionError(
                f"selection holds {len(indices)} indices but budget is {budget}"
            )
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "budget", budget)

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


@dataclass(frozen=True)
class BlockSet:
    """Canonical block selection: distinct ascending block indices and the block width."""

    block_indices: tuple[int, ...]
    block_size: int

    def __post_init__(self) -> None:
        blocks = tuple(map(int, self.block_indices))
        block_size = check_count("block_size", self.block_size)
        if not blocks:
            raise InvalidSelectionError("block selection must contain at least one block")
        _check_ascending(blocks, "block")
        object.__setattr__(self, "block_indices", blocks)
        object.__setattr__(self, "block_size", block_size)

    @property
    def size(self) -> int:
        return len(self.block_indices)

    def token_coverage(self, n: int) -> np.ndarray:
        """Ascending token indices covered by the selected blocks in a length-n cache.

        The final block may be narrower than block_size when block_size does
        not divide n.
        """
        n = check_count("cache length", n)
        spans = []
        for b in self.block_indices:
            start = b * self.block_size
            if start >= n:
                raise InvalidSelectionError(
                    f"block {b} starts at token {start}, beyond cache length {n}"
                )
            spans.append(np.arange(start, min(start + self.block_size, n), dtype=np.int64))
        return np.concatenate(spans)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of a logit array.

    Subtracts each row's maximum before exponentiation, so the result is
    invariant (to tight float tolerance) under adding a constant to a row.
    Each row is reduced along its contiguous axis, as a 1-D vector would be,
    so a row's weights do not depend on the rows beside it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    exps = logits - logits.max(axis=-1, keepdims=True)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=-1, keepdims=True)
    return exps


def _check_query(q, cache: LayerKvCache) -> np.ndarray:
    """The query as float64: [d] or [S, d] for a one-head cache, [H, d] or [S, H, d] for an all-heads cache."""
    q = np.asarray(q, dtype=np.float64)
    step = cache.keys.shape[:-2] + (cache.head_dim,)
    if q.shape != step and q.shape[1:] != step:
        raise ConfigurationError(
            f"query shape {q.shape} does not match cache shape {cache.keys.shape}"
        )
    if q.shape != step and not 1 <= q.shape[0] <= cache.length:
        raise ConfigurationError(
            f"a query of {q.shape[0]} steps needs 1 to {cache.length} steps for a cache of {cache.length} rows"
        )
    if not np.isfinite(q).all():
        raise NumericInputError("query contains non-finite entries")
    return q


def _logits(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Scaled dot products [..., n] of queries [..., d] with keys [..., n, d]: one gemv per head."""
    return (keys @ q[..., None])[..., 0] / math.sqrt(keys.shape[-1])


def _weigh(logits: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(output, logits, weights) for logits [..., n] over values [..., n, d]."""
    weights = softmax(logits)
    return (weights[..., None, :] @ values)[..., 0, :], logits, weights


def full_attention(q, cache: LayerKvCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact attention of one query per head against every cached token.

    Args:
        q: query of shape [d] against a one-head cache, or [H, d] against an
            all-heads cache, d = cache.head_dim. A leading steps axis, [S, d]
            or [S, H, d] with 1 <= S <= N, stands for S consecutive decode
            steps: step t sees the first N - S + 1 + t cached tokens.
        cache: the layer's key/value cache.

    Returns:
        (output, logits, weights): logits[..., n] = (q . keys[..., n, :]) /
        sqrt(d) over all N tokens, weights = softmax(logits), and output =
        weights @ cache.values, each with the query's leading axes. A token
        a step does not see has logit -inf and weight 0. All three are fresh
        arrays owned by the caller. Step t of a multi-step call equals the
        one-step call on the first N - S + 1 + t tokens, and head h of an
        all-heads call equals the one-head call on that head, bit for bit.
        Finite logits imply finite weights: each head's weights sum to 1
        within 1e-9 and share their argmax with its logits.

    Raises:
        NumericInputError: if the query is not finite, or the logits overflow
            (finite keys and query can still have an infinite dot product).
        ConfigurationError: if the query's shape does not fit the cache.
    """
    q = _check_query(q, cache)
    if q.ndim == cache.keys.ndim:
        return _step_attention(q, cache.keys, cache.values)
    logits = _logits(q, cache.keys)
    if not np.isfinite(logits).all():
        raise NumericInputError("attention logits contain non-finite entries")
    return _weigh(logits, cache.values)


def _step_attention(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """full_attention of S consecutive steps: q is [S, ..., d], step t sees n - S + 1 + t rows.

    Each step runs the one-step gemvs on its own rows, and its softmax sums
    only those rows. The scaling, finiteness check, maxima and exponentials,
    which are elementwise or exact, run once over every step; a row a step
    does not see holds logit -inf, whose exponential is exactly 0.
    """
    n = keys.shape[-2]
    seen = range(n - q.shape[0] + 1, n + 1)
    logits = np.zeros(q.shape[:-1] + (n,))
    for t, m in enumerate(seen):
        logits[t, ..., :m] = (keys[..., :m, :] @ q[t][..., None])[..., 0]
    logits /= math.sqrt(keys.shape[-1])
    if not np.isfinite(logits).all():
        raise NumericInputError("attention logits contain non-finite entries")
    hidden = np.arange(n) >= np.reshape(seen, (-1,) + (1,) * (q.ndim - 1))
    np.copyto(logits, -np.inf, where=hidden)
    weights = logits - logits.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    output = np.empty(q.shape)
    for t, m in enumerate(seen):
        step = weights[t, ..., :m]
        step /= step.sum(axis=-1, keepdims=True)
        output[t] = (step[..., None, :] @ values[..., :m, :])[..., 0, :]
    return output, logits, weights


def _subset_attention(
    q: np.ndarray, cache: LayerKvCache, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attention restricted to the given rows; softmax renormalizes over the subset.

    Computes only len(idx) dot products per head, never a score over all N
    tokens. q is [d] or [H, d], as in full_attention. Returns (output,
    subset_logits, subset_weights). Given every cached row in order it equals
    full_attention bit for bit: the same dot products and softmax run in the
    same order. The caller checks the query and keeps idx within the cache.
    """
    return _weigh(_logits(q, cache.keys[..., idx, :]), cache.values[..., idx, :])


def _head_sum(logits: np.ndarray) -> np.ndarray:
    """Per-head logits [..., H, n] summed in head order, as adding H one-head results would."""
    summed = np.zeros(logits.shape[:-2] + logits.shape[-1:])
    for head in logits.swapaxes(0, -2):
        summed += head
    return summed


def topk_of_logits(logits: np.ndarray, budget: int) -> tuple:
    """Indices of the min(budget, N) highest logits, ties won by the lower index.

    Returned in ascending order, the canonical set form. O(N) for finite
    logits; -inf ranks below every finite logit and NaN below every number.
    A leading axis selects row by row: logits [S, N] give a tuple of S such
    tuples, each equal to the call on its row.
    """
    logits = np.asarray(logits, dtype=np.float64)
    budget = check_count("budget", budget)
    n = logits.shape[-1]
    take = min(budget, n)
    if take == n:
        picked = np.broadcast_to(np.arange(n), logits.shape)
    else:
        # O(N) selection: the (n - take)-th order statistic of a row is its
        # smallest kept value. Every logit above it is kept; the remaining
        # slots go to the lowest-index logits equal to it.
        part = np.partition(logits, n - take, axis=-1)
        if np.isnan(part[..., n - take :]).any():
            # partition ranks NaN highest; a stable sort of the negated logits
            # ranks it below every number, which is the contract.
            picked = np.sort(np.argsort(-logits, axis=-1, kind="stable")[..., :take], axis=-1)
        else:
            threshold = part[..., n - take, None]
            keep = logits >= threshold
            if np.count_nonzero(keep) != keep.size // n * take:
                # Some row holds more logits equal to its threshold than it has slots.
                above = logits > threshold
                ties = logits == threshold
                slots = take - np.count_nonzero(above, axis=-1, keepdims=True)
                keep = above | (ties & (np.cumsum(ties, axis=-1) <= slots))
            # Flat indices, since nonzero of a 2-D array is several times slower.
            picked = (np.flatnonzero(keep) % n).reshape(logits.shape[:-1] + (take,))
    if logits.ndim == 1:
        return tuple(picked.tolist())
    return tuple(map(tuple, picked.tolist()))


def block_max_of_logits(logits: np.ndarray, block_size: int) -> np.ndarray:
    """Max-pool logits [..., N] into ceil(N / block_size) per-block scores, row by row."""
    logits = np.asarray(logits, dtype=np.float64)
    block_size = check_count("block_size", block_size)
    if logits.ndim == 0 or logits.shape[-1] == 0:
        raise InvalidInputError("cannot pool an empty logit vector")
    starts = np.arange(0, logits.shape[-1], block_size)
    return np.maximum.reduceat(logits, starts, axis=-1)


def topk_blocks(block_scores: np.ndarray, block_budget: int, block_size: int):
    """Select the top-block_budget blocks; same ordering and tie rule as topk_of_logits.

    Scores [S, B] give a tuple of S BlockSets, one per row.
    """
    picked = topk_of_logits(block_scores, block_budget)
    if np.ndim(block_scores) == 1:
        return BlockSet(block_indices=picked, block_size=block_size)
    return tuple(BlockSet(block_indices=row, block_size=block_size) for row in picked)
