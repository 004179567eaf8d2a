"""Exact attention of one query per head, top-k token selection, and block-level pooling.

A cache holds one head's [N, d] keys and values, or all H heads' [H, N, d];
a query is then [d] or [H, d], and every result gains the same leading head
axis. Each head's [N, d] block goes through the same BLAS call, reduction
and elementwise steps as a single-head call, so one call over H heads equals
H single-head calls bit for bit.

All math runs in float64. Every public operation is a pure function over
immutable inputs, so results are safe to share across threads and are
bit-reproducible for identical inputs on the same platform.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

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


def _read_only_blocks(value) -> bool:
    """True for a read-only float64 array of 2 or 3 axes whose [N, d] blocks are C-contiguous.

    A leading head axis may have any stride, as in a view of a buffer with
    spare rows. Contiguous blocks keep BLAS on the path a fresh copy would
    take, so sharing never changes a result bit.
    """
    if not isinstance(value, np.ndarray) or value.dtype != np.float64:
        return False
    if value.flags.writeable or value.ndim not in (2, 3):
        return False
    n, d = value.shape[-2:]
    return (d <= 1 or value.strides[-1] == 8) and (n <= 1 or value.strides[-2] == 8 * d)


def _is_frozen_f64(value) -> bool:
    """True for a _read_only_blocks array over read-only memory.

    The base test rejects a read-only view of a writable array, whose memory
    can still change.
    """
    if not _read_only_blocks(value):
        return False
    base = value.base
    return base is None or (isinstance(base, np.ndarray) and not base.flags.writeable)


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
    """True for a _read_only_blocks view of _CheckedRows storage."""
    if not _read_only_blocks(value):
        return False
    base = value.base
    while isinstance(base, np.ndarray) and not isinstance(base, _CheckedRows):
        base = base.base
    return isinstance(base, _CheckedRows)


def _frozen_f64(value, name: str) -> np.ndarray:
    """Read-only float64 array of 2 or 3 axes, rejecting non-finite entries.

    Shares value when _is_frozen_f64 holds, otherwise copies it. A view of
    _CheckedRows storage is shared without a rescan: its rows were checked
    when they were stored.
    """
    checked = _is_checked_view(value)
    arr = value if checked or _is_frozen_f64(value) else np.array(value, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ConfigurationError(f"{name} must be 2-D or 3-D, got shape {arr.shape}")
    if not checked and not np.all(np.isfinite(arr)):
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

    Sharing is decided per [N, d] block: an input that is a read-only float64
    array whose base is absent or also read-only, and whose every [N, d]
    block is C-contiguous, is shared, not copied. The head axis may stride
    over spare rows between blocks. The caller must not write to shared
    memory through an older writable view. Every other input is copied and
    scanned. Such a view of SyntheticModel.grown_arrays is shared without the
    finiteness scan: the model checked each of its rows when it stored the row.
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
        if self.budget < 1:
            raise InvalidInputError(f"budget must be >= 1, got {self.budget}")
        if not indices:
            raise InvalidSelectionError("selection must contain at least one index")
        _check_ascending(indices, "token")
        if len(indices) > self.budget:
            raise InvalidSelectionError(
                f"selection holds {len(indices)} indices but budget is {self.budget}"
            )
        object.__setattr__(self, "indices", indices)

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
        if self.block_size < 1:
            raise InvalidInputError(f"block_size must be >= 1, got {self.block_size}")
        if not blocks:
            raise InvalidSelectionError("block selection must contain at least one block")
        _check_ascending(blocks, "block")
        object.__setattr__(self, "block_indices", blocks)

    @property
    def size(self) -> int:
        return len(self.block_indices)

    def token_coverage(self, n: int) -> np.ndarray:
        """Ascending token indices covered by the selected blocks in a length-n cache.

        The final block may be narrower than block_size when block_size does
        not divide n.
        """
        if n < 1:
            raise InvalidInputError(f"cache length must be >= 1, got {n}")
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
    """The query as float64: [d] for a one-head cache, [H, d] for an all-heads cache."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != cache.keys.ndim - 1:
        raise ConfigurationError(f"query must be {cache.keys.ndim - 1}-D, got shape {q.shape}")
    if q.shape != cache.keys.shape[:-2] + (cache.head_dim,):
        raise ConfigurationError(
            f"query shape {q.shape} does not match cache shape {cache.keys.shape}"
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
            all-heads cache, d = cache.head_dim.
        cache: the layer's key/value cache.

    Returns:
        (output, logits, weights): logits[..., n] = (q . keys[..., n, :]) /
        sqrt(d) over all N tokens, weights = softmax(logits), and output =
        weights @ cache.values, each with the query's leading head axis.
        All three are fresh arrays owned by the caller; head h of an
        all-heads call equals the one-head call on that head bit for bit.
        Finite logits imply finite weights: each head's weights sum to 1
        within 1e-9 and share their argmax with its logits.

    Raises:
        NumericInputError: if the query is not finite, or the logits overflow
            (finite keys and query can still have an infinite dot product).
    """
    q = _check_query(q, cache)
    logits = _logits(q, cache.keys)
    if not np.isfinite(logits).all():
        raise NumericInputError("attention logits contain non-finite entries")
    return _weigh(logits, cache.values)


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
    """Per-head logits [H, n] summed in head order, as adding H one-head results would."""
    summed = np.zeros(logits.shape[-1])
    for row in logits:
        summed += row
    return summed


def topk_of_logits(logits: np.ndarray, budget: int) -> tuple[int, ...]:
    """Indices of the min(budget, N) highest logits, ties won by the lower index.

    Returned in ascending order, the canonical set form. O(N) for finite
    logits; NaN ranks below every number.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    n = logits.shape[0]
    take = min(budget, n)
    if take == n:
        return tuple(range(n))
    # O(N) selection: the (n - take)-th order statistic is the smallest kept
    # value. Every logit above it is kept; the remaining slots go to the
    # lowest-index logits equal to it.
    part = np.partition(logits, n - take)
    if np.isnan(part[n - take :]).any():
        # partition ranks NaN highest; a stable sort of the negated logits
        # ranks it below every number, which is the contract.
        return tuple(np.sort(np.argsort(-logits, kind="stable")[:take]).tolist())
    threshold = part[n - take]
    above = np.flatnonzero(logits > threshold)
    ties = np.flatnonzero(logits == threshold)[: take - above.shape[0]]
    return tuple(np.sort(np.concatenate((above, ties))).tolist())


def block_max_of_logits(logits: np.ndarray, block_size: int) -> np.ndarray:
    """Max-pool a logit vector into ceil(N / block_size) per-block scores."""
    logits = np.asarray(logits, dtype=np.float64)
    if block_size < 1:
        raise InvalidInputError(f"block_size must be >= 1, got {block_size}")
    if logits.shape[0] == 0:
        raise InvalidInputError("cannot pool an empty logit vector")
    starts = np.arange(0, logits.shape[0], block_size)
    return np.maximum.reduceat(logits, starts)


def topk_blocks(block_scores: np.ndarray, block_budget: int, block_size: int) -> BlockSet:
    """Select the top-block_budget blocks; same ordering and tie rule as topk_of_logits."""
    return BlockSet(
        block_indices=topk_of_logits(block_scores, block_budget),
        block_size=block_size,
    )
