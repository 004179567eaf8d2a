"""Exact attention of one query per head, top-k token selection, and block-level pooling.

A cache holds one head's [N, d] keys and values, or all H heads' [H, N, d];
a query is then [d] or [H, d], and every result gains the same leading head
axis. A call returns (output, logits), no weights, from one core, _attend; its
one gemv per head makes an H-head call equal H one-head calls bit for bit.
full_attention also takes S consecutive decode steps at once, a query [S, d]
or [S, H, d] whose step t sees the first N - S + 1 + t tokens: that call is
S one-step calls. The selection functions take the resulting [S, N] rows of
logits and select row by row. Callers select on logits.sum(axis=-2): over
two or more tokens the head axis is not the contiguous one, so numpy adds
the heads in order, as adding H one-head results would, and a one-token row
has only one token to select.

A multi-step call over at least 2 heads whose per-head [N, d] key block
holds at least _SPLIT_BYTES (1 MiB) splits its heads into two halves: the
lower half runs on the calling thread and the upper half on a fresh thread,
joined before the call returns, and the halves' results are concatenated on
the head axis. numpy releases the GIL in BLAS and in its loops, so the halves
overlap, and each head still runs the same core calls on the same rows.

The threshold is measured on whole 8-step traces of 16 layers with 2 heads
of d = 64 (2-vCPU x86-64 VM, one BLAS thread), each layer's cache touched
once per trace, as run_full_trace and the fidelity baseline touch it:
splitting every call reads +51% at 256 KiB per head and +34% at 512 KiB,
and -4% at 1 MiB and -10% at 2 MiB. A layer of the 8 MiB-per-head
benchmark trace takes 15.2 ms split against 18.9 ms. Calls repeated on one
cache lose at 1 MiB (+11%) and gain only from 4 MiB (-15%), so the
threshold is judged on traces. One-step calls, a decode cell's, do not
split. _concurrently itself, a one-worker thread pool made per call, costs
about 0.2 ms on no-op halves on the same VM.

All math runs in float64. Every public operation is a pure function over
immutable inputs, so results are safe to share across threads and are
bit-reproducible for identical inputs on the same platform.

A selection is checked once, where it can be wrong. The public TopKSet and
BlockSet constructors check every index, so a hand-built set, a
dataclasses.replace copy or a set read back from a file is checked. A
producer whose output is canonical by construction (topk_of_logits' rows, and
what read_trace has already checked in numpy) builds its sets through the
private _canonical constructors instead, which check nothing. Every cache
is checked as it is built, and only a view of checked rows, as
SyntheticModel.cache_at builds, is shared without a scan.
"""

from __future__ import annotations

import contextvars
import math
import operator
from concurrent.futures import ThreadPoolExecutor
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

# A multi-step call splits its heads over two threads from this many bytes per head's key block.
_SPLIT_BYTES = 1 << 20


def _concurrently(here, there):
    """(here(), there()), with here() run on the calling thread and there() on a fresh thread.

    there() runs in a copy of the caller's context variables, so numpy's
    errstate holds on both threads. The thread is joined before this returns
    or raises. here()'s error is raised first, then there()'s. there() must
    reach no traced binding: the benchmark's span stack is not thread-safe.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(contextvars.copy_context().run, there)
        mine = here()
    return mine, future.result()


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
    [H, N, d] for all H heads of the layer, with N >= 1, d >= 1 (and H >= 1).
    They are checked for shape and finiteness at construction and read-only
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
        if min(keys.shape) < 1:
            raise ConfigurationError(f"cache must hold at least one head, token and column, got shape {keys.shape}")
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


def _check_ascending(values, kind: str, empty: str) -> tuple[int, ...]:
    """values as a non-empty tuple of strictly ascending, non-negative Python ints, else InvalidSelectionError.

    Each entry must be an integer: numpy integers pass; a bool, a float or a string does not.
    A negative index is reported before an out-of-order pair, as the separate checks did.
    """
    try:
        indices = tuple(check_count(kind, i, None) for i in values)
    except (TypeError, InvalidInputError):
        raise InvalidSelectionError(f"{kind} indices must be a sequence of integers, got {values!r}") from None
    if not indices:
        raise InvalidSelectionError(empty)
    ascending = all(map(operator.lt, indices, indices[1:]))
    if (indices[0] if ascending else min(indices)) < 0:
        raise InvalidSelectionError(f"{kind} indices must be non-negative")
    if not ascending:
        raise InvalidSelectionError(f"{kind} indices must be strictly ascending")
    return indices


@dataclass(frozen=True)
class TopKSet:
    """Canonical token selection: distinct ascending indices plus the requested budget.

    indices is a non-empty tuple of strictly ascending, non-negative Python
    ints, at most budget of them. The constructing operation guarantees
    len(indices) == min(budget, N) for the cache it was drawn from. The
    constructor checks the canonical form; _canonical, for producers that
    guarantee it, does not.
    """

    indices: tuple[int, ...]
    budget: int

    def __post_init__(self) -> None:
        budget = check_count("budget", self.budget)
        indices = _check_ascending(self.indices, "token", "selection must contain at least one index")
        if len(indices) > budget:
            raise InvalidSelectionError(
                f"selection holds {len(indices)} indices but budget is {budget}"
            )
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "budget", budget)

    @classmethod
    def _canonical(cls, indices: tuple[int, ...], budget: int) -> TopKSet:
        """The set of indices already in canonical form, built without a check.

        Only these callers may use it: run_full_trace, on a row of
        topk_of_logits, hybrid_decode at block_size 1, on that row or its
        union with sink and recent rows, and read_trace, on rows its numpy
        pass checked. indices must be a tuple of Python ints, never numpy
        integers, since a set's repr is hashed into golden digests; budget
        is an int >= 1.
        """
        sel = object.__new__(cls)
        object.__setattr__(sel, "indices", indices)
        object.__setattr__(sel, "budget", budget)
        return sel

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


@dataclass(frozen=True)
class BlockSet:
    """Canonical block selection: distinct ascending block indices and the block width.

    block_indices is a non-empty tuple of strictly ascending, non-negative
    Python ints. The constructor checks that form; _canonical, for producers
    that guarantee it, does not.
    """

    block_indices: tuple[int, ...]
    block_size: int

    def __post_init__(self) -> None:
        block_size = check_count("block_size", self.block_size)
        blocks = _check_ascending(self.block_indices, "block", "block selection must contain at least one block")
        object.__setattr__(self, "block_indices", blocks)
        object.__setattr__(self, "block_size", block_size)

    @classmethod
    def _canonical(cls, blocks: tuple[int, ...], block_size: int) -> BlockSet:
        """The set of blocks already in canonical form, built without a check.

        Only these callers may use it: topk_blocks, on a row of
        topk_of_logits, hybrid_decode above block_size 1, on such a row or
        its union with sink and recent blocks, and read_trace, on rows its
        numpy pass checked.
        blocks must be a tuple of Python ints; block_size is an int >= 1.
        """
        sel = object.__new__(cls)
        object.__setattr__(sel, "block_indices", blocks)
        object.__setattr__(sel, "block_size", block_size)
        return sel

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


def _attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """full_attention's (output, logits) for one step's query [..., d] over all rows [..., n, d].

    Raises NumericInputError on a non-finite logit: finite keys and query can still overflow.
    """
    logits = (keys @ q[..., None])[..., 0] / math.sqrt(keys.shape[-1])
    if not np.isfinite(logits).all():
        raise NumericInputError("attention logits contain non-finite entries")
    return (softmax(logits)[..., None, :] @ values)[..., 0, :], logits


def full_attention(q, cache: LayerKvCache) -> tuple[np.ndarray, np.ndarray]:
    """Exact attention of one query per head against every cached token.

    Args:
        q: query of shape [d] against a one-head cache, or [H, d] against an
            all-heads cache, d = cache.head_dim. A leading steps axis, [S, d]
            or [S, H, d] with 1 <= S <= N, stands for S consecutive decode
            steps: step t sees the first N - S + 1 + t cached tokens.
        cache: the layer's key/value cache.

    Returns:
        (output, logits): logits[..., n] = (q . keys[..., n, :]) / sqrt(d)
        over all N tokens and output = softmax(logits) @ cache.values, each
        with the query's leading axes. A token a step does not see has logit
        -inf. Both are fresh arrays owned by the caller. No weights array is
        returned: softmax of a step's visible logits gives them, summing to
        1 per head within 1e-9 and sharing their argmax with the logits.
        Step t of a multi-step call equals the one-step call on the first
        N - S + 1 + t tokens, and head h of an all-heads call equals the
        one-head call on that head, bit for bit.

    Raises:
        NumericInputError: if the query is not finite, or the logits overflow
            (finite keys and query can still have an infinite dot product).
        ConfigurationError: if the query's shape does not fit the cache.
    """
    q = _check_query(q, cache)
    keys, values = cache.keys, cache.values
    if q.ndim == keys.ndim:
        if keys.ndim == 3 and len(keys) >= 2 and keys[0].nbytes >= _SPLIT_BYTES:
            h = len(keys) // 2
            halves = _concurrently(
                lambda: _step_attention(q[:, :h], keys[:h], values[:h]),
                lambda: _step_attention(q[:, h:], keys[h:], values[h:]),
            )
            return tuple(np.concatenate(pair, axis=1) for pair in zip(*halves))
        return _step_attention(q, keys, values)
    return _attend(q, keys, values)


def _step_attention(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """full_attention's (output, logits) of S consecutive steps: q is [S, ..., d], step t sees n - S + 1 + t rows.

    Step t is the one-step call on its rows; a row it does not see keeps logit -inf.
    """
    n = keys.shape[-2]
    logits = np.full(q.shape[:-1] + (n,), -np.inf)
    output = np.empty(q.shape)
    for t, m in enumerate(range(n - q.shape[0] + 1, n + 1)):
        output[t], logits[t, ..., :m] = _attend(q[t], keys[..., :m, :], values[..., :m, :])
    return output, logits


def _subset_attention(q: np.ndarray, cache: LayerKvCache, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention restricted to the given rows; softmax renormalizes over the subset.

    Computes only len(idx) dot products per head, never a score over all N
    tokens. q is [d] or [H, d], and the result (output, subset_logits), as in
    full_attention. Given every cached row in order it equals full_attention
    bit for bit: the same dot products and softmax run in the same order, and
    a non-finite logit raises NumericInputError as there. The caller checks
    the query and keeps idx within the cache.
    """
    return _attend(q, cache.keys[..., idx, :], cache.values[..., idx, :])


def topk_of_logits(logits: np.ndarray, budget: int) -> tuple:
    """Indices of the min(budget, N) highest logits, ties won by the lower index.

    Returned in ascending order, the canonical set form. O(N) for finite
    logits; -inf ranks below every finite logit and NaN below every number.
    A leading axis selects row by row: logits [S, N] give a tuple of S such
    tuples, each equal to the call on its row. A 0-d input or empty row raises InvalidInputError.
    """
    logits = np.asarray(logits, dtype=np.float64)
    budget = check_count("budget", budget)
    if logits.ndim == 0 or logits.shape[-1] == 0:
        raise InvalidInputError("cannot select from an empty logit vector")
    n = logits.shape[-1]
    take = min(budget, n)
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
    if block_size == 1:
        # The max of one element is that element, NaN, -0.0 and infinities included.
        return logits.copy()
    # A block at least as wide as the row is one block, whatever its width's integer type.
    return np.maximum.reduceat(logits, np.arange(0, logits.shape[-1], min(block_size, logits.shape[-1])), axis=-1)


def topk_blocks(block_scores: np.ndarray, block_budget: int, block_size: int):
    """Select the top-block_budget blocks; same ordering and tie rule as topk_of_logits.

    Scores [S, B] give a tuple of S BlockSets, one per row. topk_of_logits
    returns canonical rows, so the sets are built without a second check.

    Raises:
        InvalidSelectionError: if there is no block to select.
        InvalidInputError: if the scores are not one row or a stack of rows.
    """
    block_size = check_count("block_size", block_size)
    shape = np.shape(block_scores)
    if len(shape) not in (1, 2):
        raise InvalidInputError(f"block scores must be [B] or [S, B], got shape {shape}")
    if shape[-1] == 0:
        raise InvalidSelectionError("block selection must contain at least one block")
    picked = topk_of_logits(block_scores, block_budget)
    if len(shape) == 1:
        return BlockSet._canonical(picked, block_size)
    return tuple(BlockSet._canonical(row, block_size) for row in picked)
