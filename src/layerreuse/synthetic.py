"""Deterministic synthetic multi-layer decoder with a tunable cross-layer similarity dial.

The model is not trained; it exists so that selection overlap, layer policies,
and hybrid decoding can be measured exactly. Layer 0 draws seeded Gaussian
keys, values, and queries. Each deeper layer blends the previous layer's
tensors with fresh seeded noise: weight rho on the previous layer, 1 - rho on
the noise, rows renormalized. rho = 1 copies tensors across layers exactly,
rho = 0 makes layers independent.

Every random draw comes from its own SeedSequence keyed by (seed, stream,
layer, head, step), so any tensor can be regenerated in isolation and two
runs with the same config are bit-identical on the same platform. The draws
equal those of SeedSequence(seed mod 2**64, spawn_key=key) (see _rng).
Growth, query-mix and propagation-probe rows are drawn as one batch per
stream: _normal_rows computes the SeedSequence pool and PCG64 seed of every
row's key at once in integer numpy, then sets one reused PCG64 to each row's
seed and draws that row, the same bits a generator built for the key would
give. Each whole block is then blended and renormalized at once; the norm
reduces along the contiguous last axis, so the result matches row-by-row
blending bit for bit.

A model keeps its keys and values, base rows and decode-growth rows alike,
in one growable buffer per tensor. grown_arrays hands out read-only views of
it and draws only rows no earlier call drew. Each row is checked for
finiteness once, as it is written, so the per-layer caches cache_at builds
over those views are shared without another scan.

The base keys and values are two independent chains, built at once: keys on
the constructing thread, values on one worker thread that is always joined
before the constructor returns or raises. Each chain walks (head, layer) in
turn, draws the layer's noise block into scratch the constructor allocated,
and blends and renormalizes it straight into the buffer. numpy releases the
GIL while it draws and blends, so the chains overlap. Each chain does the
same numpy operations in the same order as a single-threaded loop, so every
bit is the same whichever thread builds which chain.

run_full_trace knows every query up front, so it runs layer by layer: one
multi-step full_attention call and one call to each selection function per
layer, which equals the all-Full hybrid decode bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
# Loaded now, not on first use: if the worker thread that builds a model's base
# values imported it, the import's allocations would stay in that thread's
# malloc arena for the life of the process.
import numpy.random  # noqa: F401

from .attention import (
    BlockSet,
    LayerKvCache,
    TopKSet,
    _CheckedRows,
    _head_sum,
    block_max_of_logits,
    full_attention,
    topk_blocks,
    topk_of_logits,
)
from .errors import InvalidInputError, NumericInputError

__all__ = ["SynthModelConfig", "SyntheticModel", "DecodeTrace", "generate_model", "run_full_trace"]

# Stream tags keep every random draw on an independent, addressable seed.
_S_KEYS = 0
_S_VALUES = 1
_S_QUERY_BASE = 2
_S_QUERY_WALK = 3
_S_QUERY_MIX = 4
_S_EXT_KEYS = 5
_S_EXT_VALUES = 6
_S_PROBE = 7

_WALK_SCALE = 0.5
# Growth rows the buffers hold beyond the base cache before the first reallocation.
_SPARE_ROWS = 32
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hashing constants and PCG64's 128-bit LCG multiplier.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SynthModelConfig:
    """Shape and similarity parameters of the synthetic decoder.

    inter_layer_correlation is the dial rho in [0, 1] controlling how much of
    each layer's tensors is inherited from the layer below.
    """

    layers: int
    head_dim: int = 32
    context_len: int = 128
    seed: int = 0
    inter_layer_correlation: float = 0.5
    heads: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.layers, int) or self.layers < 2:
            raise InvalidInputError(f"layers must be an integer >= 2, got {self.layers}")
        if not isinstance(self.head_dim, int) or self.head_dim < 1:
            raise InvalidInputError(f"head_dim must be an integer >= 1, got {self.head_dim}")
        if not isinstance(self.context_len, int) or self.context_len < 2:
            raise InvalidInputError(f"context_len must be an integer >= 2, got {self.context_len}")
        if not isinstance(self.seed, int):
            raise InvalidInputError("seed must be an integer")
        rho = self.inter_layer_correlation
        if not isinstance(rho, (int, float)) or not math.isfinite(rho) or not 0.0 <= rho <= 1.0:
            raise InvalidInputError(f"inter_layer_correlation must lie in [0, 1], got {rho}")
        object.__setattr__(self, "inter_layer_correlation", float(rho))
        if not isinstance(self.heads, int) or self.heads < 1:
            raise InvalidInputError(f"heads must be an integer >= 1, got {self.heads}")


def _entropy(seed: int, key) -> list[int]:
    """The uint32 entropy words SeedSequence(seed & _MASK64, spawn_key=key) pools.

    They are the seed's low and high words, zero-padded to the pool size of
    4, then each key element's words, low first, with 0 taking one word.
    """
    words = [seed & _MASK32, (seed >> 32) & _MASK32, 0, 0]
    for part in key:
        if part < 0:
            raise InvalidInputError(f"seed key elements must be >= 0, got {part}")
        words.append(part & _MASK32)
        part >>= 32
        while part:
            words.append(part & _MASK32)
            part >>= 32
    return words


def _rng(seed: int, *key: int) -> np.random.Generator:
    # Passing the entropy array itself skips numpy's int-by-int conversion;
    # the pool, and so every draw, is that of the spawn-keyed SeedSequence.
    return np.random.default_rng(np.random.SeedSequence(np.array(_entropy(seed, key), dtype=np.uint32)))


def _normal_rows(seed: int, prefix: tuple[int, ...], tails: np.ndarray, d: int) -> np.ndarray:
    """Rows [R, d] with row r equal to _rng(seed, *prefix, *tails[r]).standard_normal(d).

    The rows share the key prefix, so SeedSequence pools its words once. The
    tail words of every row are then mixed into copies of that pool, and each
    row's PCG64 seed is computed, all at once in uint32/uint64 numpy following
    numpy's SeedSequence and PCG64 seeding. Each row sets the state of one
    reused PCG64 and draws, so no SeedSequence, PCG64 or Generator is built
    per row. A row whose tail holds an element outside one uint32 word takes
    _rng itself.
    """
    tails = np.asarray(tails, dtype=np.int64)
    rows = np.empty((tails.shape[0], d))
    wide = ((tails < 0) | (tails > _MASK32)).any(axis=1)
    for r in np.flatnonzero(wide):
        rows[r] = _rng(seed, *prefix, *tails[r].tolist()).standard_normal(d)
    narrow = np.flatnonzero(~wide)
    if narrow.size == 0:
        return rows
    entropy = _entropy(seed, prefix)
    shared = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    mixer = np.repeat(shared.pool[:, None], narrow.size, axis=1)
    # Filling and cross-mixing the pool takes hash steps 0 .. 15, and each later
    # word 4 more: tail word i goes into pool words 0 .. 3 in turn at the 4 steps after.
    words = tails[narrow].astype(np.uint32).T
    hashed = _hashmix(np.repeat(words[:, None, :], 4, axis=1), _SS_INIT_A, _SS_MULT_A, 4 * len(entropy))
    for word_hashes in hashed:
        mixer = _SS_MIX_L * mixer - _SS_MIX_R * word_hashes
        mixer ^= mixer >> np.uint32(16)
    # generate_state(4, np.uint64): pool words 0 .. 3 twice, hashed, paired low word first.
    words = _hashmix(mixer[[0, 1, 2, 3, 0, 1, 2, 3]], _SS_INIT_B, _SS_MULT_B, 0)
    seeds = words[0::2].astype(np.uint64) | (words[1::2].astype(np.uint64) << np.uint64(32))
    bits = np.random.PCG64(shared)
    gen = np.random.Generator(bits)
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for r, (state_hi, state_lo, inc_hi, inc_lo) in zip(narrow.tolist(), seeds.T.tolist()):
        # PCG64's srandom: inc = 2 * initseq + 1, then two LCG steps around adding initstate.
        pcg["inc"] = inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + ((state_hi << 64) | state_lo)) * _PCG_MULT + inc) & _MASK128
        bits.state = state
        gen.standard_normal(out=rows[r])
    return rows


def _hashmix(values: np.ndarray, init: int, mult: int, first: int) -> np.ndarray:
    """SeedSequence's hashmix of uint32 rows values[..., :], one hash step per row from step first.

    Step j xors with the hash constant init * mult**j and multiplies by the
    next one (mod 2**32), then folds the high half into the low half.
    """
    shape = values.shape[:-1] + (1,)
    steps = range(first, first + math.prod(shape) + 1)
    consts = np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in steps], dtype=np.uint32)
    hashed = (values ^ consts[:-1].reshape(shape)) * consts[1:].reshape(shape)
    return hashed ^ (hashed >> np.uint32(16))


def _fresh_rows(
    seed: int, stream: int, layers: range, first: int, stop: int, heads: int, d: int
) -> np.ndarray:
    """Noise rows [len(layers), stop - first, heads, d] for steps first .. stop - 1.

    One seeded draw per (layer, head, step), keyed (stream, layer, head,
    step), so a row does not depend on the ranges; all rows are seeded as one
    batch.
    """
    shape = (len(layers), stop - first, heads)
    l, t, h = np.unravel_index(np.arange(math.prod(shape)), shape)
    tails = np.stack((np.asarray(layers)[l], h, first + t), axis=1)
    return _normal_rows(seed, (stream,), tails, d).reshape(shape + (d,))


def _empty(shape: tuple[int, ...], kind: type = np.ndarray) -> np.ndarray:
    """An uninitialized float64 array of shape, of class kind.

    A shape numpy refuses outright, or one the allocation finds no memory
    for, is invalid input that names the shape, not an internal error.
    """
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise InvalidInputError(f"an array of shape {shape} exceeds numpy's maximum size")
    try:
        return kind(shape)
    except MemoryError:
        raise InvalidInputError(f"an array of shape {shape} does not fit in memory") from None


def _renorm(x: np.ndarray, target: float, out: np.ndarray | None = None) -> np.ndarray:
    """Rescale rows (or a single vector) to Euclidean norm `target`.

    With out, which must not overlap x, the squares and then the rescaled
    rows are written there, and no temporary as large as x is made.

    Raises:
        NumericInputError: if a row's norm or its scale target / norm is not
            finite. A finite norm means every entry of the row is finite, and
            a finite scale keeps every rescaled entry within about target, so
            no non-finite row gets through, at 1/d of the cost of a scan.
    """
    norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=out), axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    scales = np.divide(target, norms)
    if not (np.isfinite(norms).all() and np.isfinite(scales).all()):
        raise NumericInputError("rows to renormalize contain non-finite entries")
    return np.multiply(x, scales, out=out)


def _blend(
    prev: np.ndarray, fresh: np.ndarray, rho: float, target: float, out: np.ndarray | None = None
) -> np.ndarray:
    """rho * prev + (1 - rho) * fresh, rows renormalized to `target`.

    With out, which must overlap neither input, the rows are written there
    and fresh is overwritten as scratch.
    """
    # rho == 1 must copy exactly: renormalizing would perturb low-order bits
    # and break exact cross-layer equality.
    if rho == 1.0:
        if out is None:
            return prev.copy()
        np.copyto(out, prev)
        return out
    scratch = None if out is None else fresh
    mixed = np.add(np.multiply(prev, rho, out=out), np.multiply(fresh, 1.0 - rho, out=scratch), out=scratch)
    return _renorm(mixed, target, out=out)


def _base_chain(config: SynthModelConfig, stream: int, buffer: np.ndarray, fresh: np.ndarray) -> None:
    """Write one stream's base rows into buffer[:, :, :context_len], head by head, layer by layer.

    Layer l's block of seeded noise is drawn into fresh ([context_len,
    head_dim] scratch), blended with layer l - 1's stored rows and written
    straight into the buffer, so the chain allocates no block of its own.
    _renorm checks every row it writes; a row copied at rho = 1 is a copy of
    a checked row.
    """
    # A plain view, so the temporaries computed from it are plain arrays too.
    rows = buffer.view(np.ndarray)[:, :, : config.context_len]
    rho = config.inter_layer_correlation
    target = math.sqrt(config.head_dim)
    for h in range(config.heads):
        _rng(config.seed, stream, 0, h).standard_normal(out=fresh)
        _renorm(fresh, target, out=rows[0, h])
        for l in range(1, config.layers):
            _rng(config.seed, stream, l, h).standard_normal(out=fresh)
            _blend(rows[l - 1, h], fresh, rho, target, out=rows[l, h])


class SyntheticModel:
    """Base caches and cache-growth rows in one growable buffer, plus on-demand queries.

    Keys and values each live in one [layers, heads, context_len + capacity,
    head_dim] buffer. The base rows are generated into it in place at
    construction, keys on the calling thread and values on a worker thread
    joined before __init__ returns; a worker's exception is raised in the
    caller. Growth rows are drawn on demand, up to the largest step count
    asked for so far, and the buffer is reallocated with at least doubled
    capacity when a call needs more. Every row is checked for finiteness
    once, when it is written, and never written again. The model may be
    shared across threads.

    Raises:
        InvalidInputError: if a buffer is too large to allocate.
        NumericInputError: if a generated base row is not finite.
    """

    def __init__(self, config: SynthModelConfig) -> None:
        self.config = config
        L, H = config.layers, config.heads
        N, d = config.context_len, config.head_dim
        self._keys = _empty((L, H, N + _SPARE_ROWS, d), _CheckedRows)
        self._values = _empty(self._keys.shape, _CheckedRows)
        self._grown = 0
        self._lock = threading.Lock()
        # Both chains' scratch is allocated here, so the worker allocates no block.
        fresh = _empty((2, N, d))
        errors = []

        def values_chain() -> None:
            try:
                _base_chain(config, _S_VALUES, self._values, fresh[1])
            except BaseException as exc:  # re-raised below, after the join
                errors.append(exc)

        worker = threading.Thread(target=values_chain, name="synthetic-values")
        worker.start()
        try:
            _base_chain(config, _S_KEYS, self._keys, fresh[0])
        finally:
            worker.join()
        if errors:
            raise errors[0]

    def queries(self, steps: int) -> np.ndarray:
        """Query tensor [steps, layers, heads, head_dim].

        The layer-0 query performs a seeded random walk across decode steps;
        deeper layers blend the layer above with fresh per-layer noise, the
        same construction as the caches.
        """
        cfg = self.config
        if steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {steps}")
        L, H, d = cfg.layers, cfg.heads, cfg.head_dim
        rho = cfg.inter_layer_correlation
        target = math.sqrt(d)
        q = _empty((steps, L, H, d))
        for h in range(H):
            base = _renorm(_rng(cfg.seed, _S_QUERY_BASE, h).standard_normal(d), target)
            for t in range(steps):
                if t > 0:
                    walk = _rng(cfg.seed, _S_QUERY_WALK, h, t).standard_normal(d)
                    base = _renorm(base + _WALK_SCALE * walk, target)
                q[t, 0, h] = base
        fresh = _fresh_rows(cfg.seed, _S_QUERY_MIX, range(1, L), 0, steps, H, d)
        for l in range(1, L):
            q[:, l] = _blend(q[:, l - 1], fresh[l - 1], rho, target)
        q.setflags(write=False)
        return q

    def grown_arrays(self, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Key/value tensors [layers, heads, context_len + steps, head_dim].

        Row context_len + t is the token appended at decode step t; the cache
        visible at step t is the leading context_len + t rows. Growth rows use
        the same cross-layer blending as the base cache, so rho = 1 keeps all
        layers identical at every step.

        Both tensors are read-only views of the model's buffers, so calls
        share memory and cost O(1) once the rows exist. Only rows not drawn
        by an earlier call are generated and checked. A row, once returned,
        never changes.

        Raises:
            NumericInputError: if a generated growth row is not finite.
        """
        cfg = self.config
        if steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {steps}")
        with self._lock:
            if steps > self._grown:
                self._grow(steps)
            keys, values = self._keys, self._values
        n = cfg.context_len + steps
        keys = np.asarray(keys[:, :, :n])
        values = np.asarray(values[:, :, :n])
        keys.setflags(write=False)
        values.setflags(write=False)
        return keys, values

    def _grow(self, steps: int) -> None:
        """Draw, check and store growth rows for steps _grown .. steps - 1."""
        cfg = self.config
        L, H, N, d = cfg.layers, cfg.heads, cfg.context_len, cfg.head_dim
        rho = cfg.inter_layer_correlation
        target = math.sqrt(d)
        first = self._grown
        capacity = self._keys.shape[2] - N
        # Allocated first: the growth rows below are never larger than the new buffers.
        if steps > capacity:
            shape = (L, H, N + max(2 * capacity, steps), d)
            keys, values = _empty(shape, _CheckedRows), _empty(shape, _CheckedRows)
        ext_k = _empty((steps - first, L, H, d))
        ext_v = _empty((steps - first, L, H, d))
        for ext, stream in ((ext_k, _S_EXT_KEYS), (ext_v, _S_EXT_VALUES)):
            fresh = _fresh_rows(cfg.seed, stream, range(L), first, steps, H, d)
            ext[:, 0] = _renorm(fresh[0], target)
            for l in range(1, L):
                ext[:, l] = _blend(ext[:, l - 1], fresh[l], rho, target)
        if steps > capacity:
            # Views handed out so far keep the old buffers, whose rows stay as they are.
            rows = (slice(None), slice(None), slice(None, N + first))
            keys[rows] = self._keys[rows]
            values[rows] = self._values[rows]
            self._keys, self._values = keys, values
        new_rows = (slice(None), slice(None), slice(N + first, N + steps))
        self._keys[new_rows] = np.moveaxis(ext_k, 0, 2)
        self._values[new_rows] = np.moveaxis(ext_v, 0, 2)
        self._grown = steps

    def cache_at(self, layer: int, step: int) -> LayerKvCache:
        """The layer's all-heads cache at a decode step: [heads, context_len + step, head_dim].

        Its keys and values are views of grown_arrays(step + 1), not copies,
        shared without a finiteness scan, since each row was checked when it
        was stored.
        """
        keys, values = self.grown_arrays(step + 1)
        n = self.config.context_len + step
        return LayerKvCache(keys=keys[layer, :, :n], values=values[layer, :, :n])

    def propagate(self, outputs: np.ndarray, step: int) -> np.ndarray:
        """Push every layer's output [..., layers, heads, head_dim] toward the next layer's input.

        Leading axes stack several output sets that share one draw of noise.
        Layer l's output is blended with seeded probe noise keyed (l + 1, head,
        step), the map that builds each layer's tensors from the layer below,
        so a full/sparse output pair can be compared after one layer of
        propagation. rho = 1 copies exactly, matching the cache construction,
        and draws no noise.

        Raises:
            NumericInputError: if rho < 1 and an output row is not finite.
        """
        cfg = self.config
        outputs = np.asarray(outputs, dtype=np.float64)
        if cfg.inter_layer_correlation == 1.0:
            return outputs.copy()
        L, H, d = cfg.layers, cfg.heads, cfg.head_dim
        fresh = _fresh_rows(cfg.seed, _S_PROBE, range(1, L + 1), step, step + 1, H, d)
        return _blend(outputs, fresh[:, 0], cfg.inter_layer_correlation, math.sqrt(d))


def generate_model(config: SynthModelConfig) -> SyntheticModel:
    """Materialize the synthetic decoder for a config. Deterministic in the config."""
    return SyntheticModel(config)


@dataclass(frozen=True)
class DecodeTrace:
    """Full-attention decode record: queries, outputs, and selections per step and layer.

    queries and outputs are [steps, layers, heads, head_dim]. topk[t][l] is the
    token-level selection of size budget, blocks[t][l] the block-level
    selection of width block_size. Multi-head steps aggregate by summing
    per-head logits before selecting, so there is one set per layer.
    sensitivity is the trace's [steps, layers] profiling.sensitivity_table:
    gen-traces attaches it, and write_trace writes no trace without it.
    """

    config: SynthModelConfig
    budget: int
    block_size: int
    queries: np.ndarray
    outputs: np.ndarray
    topk: tuple[tuple[TopKSet, ...], ...]
    blocks: tuple[tuple[BlockSet, ...], ...]
    sensitivity: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.queries.shape[0]


def run_full_trace(model: SyntheticModel, steps: int, budget: int, block_size: int = 1) -> DecodeTrace:
    """Decode `steps` tokens with full attention at every layer, recording selections.

    Args:
        model: synthetic decoder.
        steps: number of decode steps, >= 1. The cache grows by one row per
            layer and head after each step.
        budget: token-level top-k size; must satisfy 1 <= budget <= context_len
            so every recorded set has exactly `budget` members.
        block_size: width for the block-level selections recorded alongside
            the token-level ones. The block budget is ceil(budget / block_size),
            which never exceeds a step's block count.

    Returns:
        A DecodeTrace with one TopKSet and one BlockSet per (step, layer),
        and no sensitivity table.

    The queries are all known up front, so the trace runs layer by layer:
    one multi-step full_attention call per layer over the layer's cache,
    then one token and one block selection call over that layer's S rows of
    head-summed logits. Step t of a layer equals the one-step call on the
    step's cache bit for bit, so the trace is the all-Full hybrid decode.
    Both selection passes run at every width, block_size 1 included.
    """
    cfg = model.config
    if steps < 1:
        raise InvalidInputError(f"steps must be >= 1, got {steps}")
    if budget < 1 or budget > cfg.context_len:
        raise InvalidInputError(
            f"budget must lie in [1, context_len={cfg.context_len}], got {budget}"
        )
    if block_size < 1:
        raise InvalidInputError(f"block_size must be >= 1, got {block_size}")
    block_budget = math.ceil(budget / block_size)
    queries = model.queries(steps)
    outputs = np.empty((steps, cfg.layers, cfg.heads, cfg.head_dim))
    topk, blocks = [], []
    for l in range(cfg.layers):
        outputs[:, l], logits, _ = full_attention(queries[:, l], model.cache_at(l, steps - 1))
        summed = _head_sum(logits)
        topk.append([TopKSet(indices=row, budget=budget) for row in topk_of_logits(summed, budget)])
        blocks.append(topk_blocks(block_max_of_logits(summed, block_size), block_budget, block_size))
    outputs.setflags(write=False)
    return DecodeTrace(
        config=cfg,
        budget=budget,
        block_size=block_size,
        queries=queries,
        outputs=outputs,
        topk=tuple(zip(*topk)),
        blocks=tuple(zip(*blocks)),
    )
