import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerreuse import (
    BlockSet,
    ConfigurationError,
    InvalidInputError,
    InvalidSelectionError,
    LayerKvCache,
    NumericInputError,
    SynthModelConfig,
    TopKSet,
    block_max_of_logits,
    full_attention,
    generate_model,
    topk_blocks,
    topk_of_logits,
)
from layerreuse.attention import _head_sum, _subset_attention, softmax
from reference import ref_attention, ref_sparse_attention, ref_topk


def _cache(keys, values):
    return LayerKvCache(keys=np.asarray(keys, dtype=float), values=np.asarray(values, dtype=float))


def test_single_token_cache_returns_its_value_row():
    cache = _cache([[1.0, 2.0]], [[5.0, -3.0]])
    out, _, weights = full_attention(np.array([0.5, 0.5]), cache)
    assert np.array_equal(out, np.array([5.0, -3.0]))
    assert np.array_equal(weights, np.array([1.0]))


def test_orthogonal_query_gives_uniform_weights():
    # q is orthogonal to every key, so all logits are 0 and weights are 1/N.
    keys = [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]
    values = [[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]
    out, _, weights = full_attention(np.array([0.0, 1.0]), _cache(keys, values))
    assert np.allclose(weights, np.full(3, 1 / 3), atol=1e-15)
    assert np.allclose(out, np.array([1.0, 1.0]), atol=1e-15)


def test_two_token_fixture_matches_scalar_reference():
    keys = [[10.0, 0.0], [0.0, 0.0]]
    values = [[1.0, 0.0], [0.0, 1.0]]
    q = [1.0, 0.0]
    out, logits, weights = full_attention(np.array(q), _cache(keys, values))
    ref_out, ref_logits, ref_weights = ref_attention(q, keys, values)
    assert logits == pytest.approx(ref_logits, rel=1e-12)
    assert weights == pytest.approx(ref_weights, rel=1e-12)
    assert out == pytest.approx(ref_out, rel=1e-12)
    # dominant first logit: 10/sqrt(2)
    assert logits[0] == pytest.approx(10 / math.sqrt(2), rel=1e-15)


def test_full_attention_matches_scalar_reference_on_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n, d = int(rng.integers(1, 20)), int(rng.integers(1, 8))
        keys = rng.standard_normal((n, d))
        values = rng.standard_normal((n, d))
        q = rng.standard_normal(d)
        out, _, weights = full_attention(q, _cache(keys, values))
        ref_out, ref_logits, ref_weights = ref_attention(q.tolist(), keys.tolist(), values.tolist())
        assert out == pytest.approx(ref_out, rel=1e-12, abs=1e-12)
        assert weights == pytest.approx(ref_weights, rel=1e-12, abs=1e-15)


def test_dimension_mismatch_is_configuration_error():
    cache = _cache([[1.0, 2.0]], [[5.0, -3.0]])
    with pytest.raises(ConfigurationError):
        full_attention(np.array([1.0, 2.0, 3.0]), cache)
    with pytest.raises(ConfigurationError):
        LayerKvCache(keys=np.zeros((2, 3)), values=np.zeros((2, 2)))


def test_non_finite_input_is_numeric_error():
    with pytest.raises(NumericInputError):
        LayerKvCache(keys=np.array([[np.nan, 1.0]]), values=np.array([[1.0, 1.0]]))
    cache = _cache([[1.0, 2.0]], [[5.0, -3.0]])
    with pytest.raises(NumericInputError):
        full_attention(np.array([np.inf, 0.0]), cache)


def test_overflowing_logits_are_numeric_error():
    # Keys and query are finite, but their dot products overflow to inf.
    cache = _cache([[1e200, 1e200], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericInputError):
            full_attention(np.array([1e200, 1e200]), cache)


def test_cache_arrays_are_immutable():
    cache = _cache([[1.0, 2.0]], [[5.0, -3.0]])
    with pytest.raises(ValueError):
        cache.keys[0, 0] = 9.0


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def test_cache_shares_read_only_float64_input_and_copies_writable_input():
    rng = np.random.default_rng(11)
    keys, values = _frozen(rng.standard_normal((6, 4))), _frozen(rng.standard_normal((6, 4)))
    shared = LayerKvCache(keys=keys, values=values)
    assert np.shares_memory(shared.keys, keys) and np.shares_memory(shared.values, values)

    writable = rng.standard_normal((6, 4))
    copied = LayerKvCache(keys=writable, values=writable.copy())
    assert not np.shares_memory(copied.keys, writable)
    writable[0, 0] = 99.0
    assert copied.keys[0, 0] != 99.0


def test_cache_copies_read_only_view_of_writable_base():
    base = np.random.default_rng(12).standard_normal((3, 6, 4))
    keys = _frozen(base[0])
    values = _frozen(base[1])
    cache = LayerKvCache(keys=keys, values=values)
    assert not np.shares_memory(cache.keys, base)
    assert not np.shares_memory(cache.values, base)


def test_cache_shares_views_of_read_only_base():
    base = _frozen(np.random.default_rng(13).standard_normal((2, 6, 4)))
    cache = LayerKvCache(keys=base[0, :5], values=base[1, :5])
    assert np.shares_memory(cache.keys, base) and np.shares_memory(cache.values, base)


def test_cache_prefix_is_a_shared_view():
    base = _frozen(np.random.default_rng(14).standard_normal((2, 6, 4)))
    cache = LayerKvCache(keys=base[0], values=base[1])
    head = cache.prefix(3)
    assert head.length == 3 and head.head_dim == 4
    assert np.shares_memory(head.keys, cache.keys) and np.shares_memory(head.values, cache.values)
    assert np.array_equal(head.keys, base[0, :3]) and np.array_equal(head.values, base[1, :3])
    assert cache.prefix(cache.length).length == cache.length
    q = np.ones(4)
    want, _, _ = full_attention(q, LayerKvCache(keys=base[0, :3].copy(), values=base[1, :3].copy()))
    assert np.array_equal(full_attention(q, head)[0], want)
    for n in (0, cache.length + 1):
        with pytest.raises(ConfigurationError):
            cache.prefix(n)


def test_shared_input_is_still_validated():
    bad = np.ones((2, 3))
    bad[1, 2] = np.nan
    with pytest.raises(NumericInputError):
        LayerKvCache(keys=_frozen(bad), values=_frozen(np.ones((2, 3))))
    with pytest.raises(ConfigurationError):
        LayerKvCache(keys=_frozen(np.ones(3)), values=_frozen(np.ones(3)))


def test_cache_shares_head_blocks_that_are_each_contiguous():
    # Spare rows between heads keep each [n, d] block contiguous: shared, as grown_arrays views are.
    base = _frozen(np.random.default_rng(15).standard_normal((3, 9, 4)))
    cache = LayerKvCache(keys=base[:, :6], values=base[:, 1:7])
    assert not cache.keys.flags.c_contiguous
    assert np.shares_memory(cache.keys, base) and np.shares_memory(cache.values, base)
    assert (cache.length, cache.head_dim) == (6, 4)
    head = cache.prefix(2)
    assert head.keys.shape == (3, 2, 4) and np.shares_memory(head.keys, base)
    # A block whose rows or columns are strided is copied, so BLAS sees what a fresh copy gives it.
    for keys in (base[:, ::2], base[:, :, ::2], base.transpose(1, 0, 2)):
        assert not np.shares_memory(LayerKvCache(keys=keys, values=keys).keys, base)
    with pytest.raises(ConfigurationError):
        LayerKvCache(keys=base[:0], values=base[:0])
    with pytest.raises(ConfigurationError):
        LayerKvCache(keys=base[None], values=base[None])


def test_all_heads_query_must_carry_every_head():
    base = _frozen(np.random.default_rng(16).standard_normal((2, 5, 4)))
    cache = LayerKvCache(keys=base, values=base)
    for q in (np.ones(4), np.ones((3, 4)), np.ones((2, 3)), np.ones((3, 3, 4)), np.ones((1, 1, 2, 4))):
        with pytest.raises(ConfigurationError):
            full_attention(q, cache)
    with pytest.raises(NumericInputError):
        full_attention(np.array([[1.0, 0, 0, 0], [np.nan, 0, 0, 0]]), cache)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_all_heads_call_equals_one_call_per_head(heads):
    cfg = SynthModelConfig(layers=2, head_dim=16, context_len=70, seed=20 + heads,
                           inter_layer_correlation=0.5, heads=heads)
    model = generate_model(cfg)
    keys, values = model.grown_arrays(3)
    q = model.queries(3)[2, 1]
    shared = model.cache_at(1, 2)
    # A view of the model's buffer with spare capacity: heads are not contiguous with each other.
    assert np.shares_memory(shared.keys, keys) and (heads == 1 or not shared.keys.flags.c_contiguous)
    copied = LayerKvCache(keys=np.array(shared.keys), values=np.array(shared.values))
    rows = np.array([0, 3, 4, 40, 69, 71])
    for cache in (shared, shared.prefix(cfg.context_len), copied):
        out, logits, weights = full_attention(q, cache)
        sub_out, sub_logits, sub_weights = _subset_attention(q, cache, rows[rows < cache.length])
        summed = np.zeros(cache.length)
        for h in range(heads):
            one = LayerKvCache(keys=cache.keys[h], values=cache.values[h])
            one_out, one_logits, one_weights = full_attention(q[h], one)
            assert np.array_equal(out[h], one_out)
            assert np.array_equal(logits[h], one_logits)
            assert np.array_equal(weights[h], one_weights)
            summed += one_logits
            one_sub = _subset_attention(q[h], one, rows[rows < cache.length])
            assert np.array_equal(sub_out[h], one_sub[0])
            assert np.array_equal(sub_logits[h], one_sub[1])
            assert np.array_equal(sub_weights[h], one_sub[2])
        assert np.array_equal(_head_sum(logits), summed)


# --- multi-step queries: S consecutive decode steps in one call ---


def _step_caches():
    """(name, cache, queries [n, ..., d]) for a one-head, an all-heads and a model-view cache of n = 11 rows."""
    rng = np.random.default_rng(41)
    keys, values = rng.standard_normal((2, 3, 11, 8))
    model = generate_model(SynthModelConfig(layers=2, head_dim=8, context_len=7, seed=42,
                                            inter_layer_correlation=0.5, heads=3))
    return [
        ("one-head", _cache(keys[0], values[0]), rng.standard_normal((11, 8))),
        ("all-heads", _cache(keys, values), rng.standard_normal((11, 3, 8))),
        ("model-view", model.cache_at(1, 4), rng.standard_normal((11, 3, 8))),
    ]


@pytest.mark.parametrize("case", range(3), ids=["one-head", "all-heads", "model-view"])
@pytest.mark.parametrize("steps", [1, 4, 11], ids=["S=1", "S=4", "S=n"])
def test_multi_step_call_equals_one_call_per_step(case, steps):
    _, cache, queries = _step_caches()[case]
    n = cache.length
    q = queries[:steps]
    out, logits, weights = full_attention(q, cache)
    assert out.shape == q.shape and logits.shape == weights.shape == q.shape[:-1] + (n,)
    for t in range(steps):
        seen = n - steps + 1 + t
        one_out, one_logits, one_weights = full_attention(q[t], cache.prefix(seen))
        assert np.array_equal(out[t], one_out)
        assert np.array_equal(logits[t, ..., :seen], one_logits)
        assert np.array_equal(weights[t, ..., :seen], one_weights)
        assert np.all(logits[t, ..., seen:] == -np.inf)
        assert np.all(weights[t, ..., seen:] == 0.0)


def test_multi_step_call_refuses_a_non_finite_logit_at_any_step():
    _, cache, queries = _step_caches()[1]
    n = cache.length
    # Keys and queries are finite, but a huge query at step t overflows against
    # a huge key row that the step sees: row 0 is seen by every step, row
    # n - 1 by the last step only.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in (0, n - 1):
            keys = np.array(cache.keys)
            keys[:, row] = 1e200
            huge = _cache(keys, cache.values)
            for t in range(4):
                q = np.ones((4, 3, 8))
                q[t] = 1e200
                if row == 0 or t == 3:
                    with pytest.raises(NumericInputError):
                        full_attention(q, huge)
                else:
                    full_attention(q, huge)
    for t in range(4):
        bad = np.array(queries[:4])
        bad[t, 1, 2] = np.nan
        with pytest.raises(NumericInputError):
            full_attention(bad, cache)


def test_multi_step_call_refuses_more_steps_than_rows():
    for _, cache, queries in _step_caches():
        n = cache.length
        with pytest.raises(ConfigurationError):
            full_attention(np.concatenate((queries, queries[:1])), cache)
        with pytest.raises(ConfigurationError):
            full_attention(queries[:0], cache)
        full_attention(queries[:n], cache)


def test_row_wise_selection_equals_one_call_per_row():
    rng = np.random.default_rng(43)
    # Few distinct values force ties at the cut-off; -inf and NaN tails as a masked step leaves them.
    logits = rng.integers(-3, 3, (6, 40)).astype(float)
    logits[2, 30:] = -np.inf
    logits[4, ::7] = np.nan
    logits[5, 1:] = -np.inf
    for budget in (1, 5, 31, 40, 50):
        assert topk_of_logits(logits, budget) == tuple(topk_of_logits(row, budget) for row in logits)
    for width in (1, 3, 8):
        scores = block_max_of_logits(logits, width)
        for row, pooled in zip(logits, scores):
            assert np.array_equal(pooled, block_max_of_logits(row, width), equal_nan=True)
        for budget in (1, 2, 4):
            assert topk_blocks(scores, budget, width) == tuple(topk_blocks(row, budget, width) for row in scores)
    # -inf ranks below every finite logit, and ties among -inf go to the lower index.
    assert topk_of_logits(np.array([[-np.inf, 0.0, -np.inf, -5.0]]), 2) == ((1, 3),)
    assert topk_of_logits(np.array([[-np.inf, 0.0, -np.inf, -5.0]]), 3) == ((0, 1, 3),)
    assert topk_of_logits(np.array([-np.inf, 0.0, np.nan, -5.0]), 3) == (0, 1, 3)


# --- top-k selection ---


def test_topk_basic_and_ties():
    assert topk_of_logits(np.array([3.0, 1.0, 2.0]), 2) == (0, 2)
    # all equal: the lowest indices win
    assert topk_of_logits(np.array([5.0, 5.0, 5.0]), 2) == (0, 1)
    # budget saturates at N
    assert topk_of_logits(np.array([1.0, 2.0]), 10) == (0, 1)
    # ties at the cut-off go to the lowest indices, above-cut-off values always stay
    assert topk_of_logits(np.array([1.0, 2.0, 1.0, 3.0, 1.0]), 3) == (0, 1, 3)
    # NaN ranks below every number, -inf included
    assert topk_of_logits(np.array([np.nan, 1.0, np.nan, -np.inf]), 3) == (0, 1, 3)
    assert all(type(i) is int for i in topk_of_logits(np.array([3.0, 1.0, 2.0]), 2))
    with pytest.raises(InvalidInputError):
        topk_of_logits(np.array([3.0, 1.0, 2.0]), 0)


def test_topk_matches_reference_on_large_tied_draws():
    # Few distinct values force many ties at the cut-off.
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(100, 5000))
        logits = rng.integers(-4, 4, n).astype(float)
        budget = int(rng.integers(1, n))
        assert list(topk_of_logits(logits, budget)) == ref_topk(logits.tolist(), budget)


def test_topk_indices_wraps_scores():
    cache = _cache([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], np.eye(3, 2))
    _, logits, _ = full_attention(np.array([1.0, 0.0]), cache)
    sel = TopKSet(indices=topk_of_logits(logits, 2), budget=2)
    assert sel.indices == (0, 2)
    assert sel.budget == 2
    with pytest.raises(InvalidInputError):
        topk_of_logits(logits, 0)


def test_topk_matches_reference_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        logits = rng.standard_normal(n)
        budget = int(rng.integers(1, n + 4))
        assert list(topk_of_logits(logits, budget)) == ref_topk(logits.tolist(), budget)


@given(
    logits=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30, unique=True
    ),
    budget=st.integers(min_value=1, max_value=35),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_topk_permutation_consistent_for_distinct_logits(logits, budget, seed):
    logits = np.asarray(logits)
    perm = np.random.default_rng(seed).permutation(len(logits))
    direct = topk_of_logits(logits, budget)
    permuted = topk_of_logits(logits[perm], budget)
    mapped = tuple(sorted(int(perm[i]) for i in permuted))
    assert mapped == direct


def test_topkset_canonical_form_enforced():
    with pytest.raises(InvalidSelectionError):
        TopKSet(indices=(2, 1), budget=4)
    with pytest.raises(InvalidSelectionError):
        TopKSet(indices=(1, 1), budget=4)
    with pytest.raises(InvalidSelectionError):
        TopKSet(indices=(), budget=4)
    with pytest.raises(InvalidSelectionError):
        TopKSet(indices=(0, 1, 2), budget=2)


def _separate_checks(values, size, kind):
    """The exception TopKSet (kind "token") or BlockSet raised when it checked in three passes."""
    values = tuple(int(v) for v in values)
    if len(values) == 0:
        empty = "selection must contain at least one index" if kind == "token" else \
            "block selection must contain at least one block"
        return InvalidSelectionError, empty
    if any(v < 0 for v in values):
        return InvalidSelectionError, f"{kind} indices must be non-negative"
    if any(b <= a for a, b in zip(values, values[1:])):
        return InvalidSelectionError, f"{kind} indices must be strictly ascending"
    if kind == "token" and len(values) > size:
        return InvalidSelectionError, f"selection holds {len(values)} indices but budget is {size}"
    return None


@pytest.mark.parametrize("values", [
    (), (0,), (-1,), (3, -1), (-2, -1), (-1, -1), (1, 1), (5, 3), (2, -1, 1), (0, 2, 1),
    (0, 1, 2, 3), (0, 1, 2, -3), (7, 8, 9), np.array([4, 2]), np.array([1, 5, 9]),
])
def test_selection_checks_raise_as_the_separate_checks_did(values):
    for kind, make in (("token", lambda v: TopKSet(indices=v, budget=3)),
                       ("block", lambda v: BlockSet(block_indices=v, block_size=3))):
        want = _separate_checks(values, 3, kind)
        if want is None:
            make(values)
            continue
        with pytest.raises(want[0]) as err:
            make(values)
        assert str(err.value) == want[1]


# --- sparse attention ---


def test_sparse_with_full_selection_matches_full_bitwise():
    rng = np.random.default_rng(0)
    cache = _cache(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
    q = rng.standard_normal(4)
    full_out, _, _ = full_attention(q, cache)
    sel = TopKSet(indices=tuple(range(8)), budget=8)
    assert np.array_equal(_subset_attention(q, cache, sel.as_array())[0], full_out)


def test_sparse_full_selection_equivalence_over_seeded_draws():
    # 1000 draws across widths and lengths; relative agreement within 1e-6.
    rng = np.random.default_rng(20240901)
    for trial in range(1000):
        d = int(rng.choice([4, 16, 64]))
        n = int(rng.integers(1, 513))
        cache = _cache(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
        q = rng.standard_normal(d)
        full_out, _, _ = full_attention(q, cache)
        sparse_out, _, _ = _subset_attention(q, cache, np.arange(n))
        denom = np.linalg.norm(full_out)
        assert np.linalg.norm(sparse_out - full_out) <= 1e-6 * max(denom, 1e-30)


def test_sparse_singleton_argmax_returns_value_row():
    rng = np.random.default_rng(3)
    keys = rng.standard_normal((6, 4))
    values = rng.standard_normal((6, 4))
    cache = _cache(keys, values)
    q = rng.standard_normal(4)
    _, logits, _ = full_attention(q, cache)
    best = int(np.argmax(logits))
    out, _, _ = _subset_attention(q, cache, TopKSet(indices=(best,), budget=1).as_array())
    assert np.array_equal(out, values[best])


def test_sparse_subset_matches_scalar_reference():
    keys = [[10.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]]
    values = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, -1.0]]
    q = [1.0, 0.0]
    cache = _cache(keys, values)
    sel = TopKSet(indices=(0, 2), budget=2)
    out, _, _ = _subset_attention(np.array(q), cache, sel.as_array())
    ref_out, _ = ref_sparse_attention(q, keys, values, [0, 2])
    assert out == pytest.approx(ref_out, rel=1e-12)


# --- softmax properties ---


@given(
    logits=st.lists(
        st.floats(min_value=-200, max_value=200, allow_nan=False), min_size=1, max_size=50
    ),
    shift=st.floats(min_value=-500, max_value=500, allow_nan=False),
)
def test_softmax_sums_to_one_and_is_shift_invariant(logits, shift):
    logits = np.asarray(logits)
    w = softmax(logits)
    assert abs(float(w.sum()) - 1.0) <= 1e-9
    w_shifted = softmax(logits + shift)
    assert np.max(np.abs(w_shifted - w)) <= 1e-9


@given(
    logits=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40
    )
)
def test_weights_share_argmax_with_logits(logits):
    # Exponentiation never inverts order, but it can merge logits whose gap
    # is below float resolution, so assert the max logit attains the max
    # weight rather than index equality.
    logits = np.asarray(logits)
    w = softmax(logits)
    assert w[int(np.argmax(logits))] == w.max()


# --- block pooling ---


def test_block_aggregate_examples():
    assert np.array_equal(block_max_of_logits(np.array([1.0, 9.0, 2.0, 3.0]), 2), [9.0, 3.0])
    # block wider than the vector: single block, global max
    assert np.array_equal(block_max_of_logits(np.array([1.0, 9.0, 2.0]), 8), [9.0])
    # width 1 is the identity
    v = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(block_max_of_logits(v, 1), v)


def test_block_aggregate_scores_uses_logits():
    # Blocks are ranked on the logits that full_attention returns, not on the weights.
    cache = _cache([[1.0, 0.0], [9.0, 0.0], [2.0, 0.0], [3.0, 0.0]], np.eye(4, 2))
    _, logits, weights = full_attention(np.array([1.0, 0.0]), cache)
    assert np.allclose(block_max_of_logits(logits, 2), np.array([9.0, 3.0]) / math.sqrt(2))
    assert not np.allclose(block_max_of_logits(weights, 2), block_max_of_logits(logits, 2))


def test_topk_blocks_selects_best_blocks():
    bs = topk_blocks(np.array([0.5, 3.0, 1.0]), 2, block_size=4)
    assert bs.block_indices == (1, 2)
    assert bs.block_size == 4


def test_block_coverage_truncates_final_block():
    bs = BlockSet(block_indices=(0, 2), block_size=4)
    cov = bs.token_coverage(10)
    assert cov.tolist() == [0, 1, 2, 3, 8, 9]
    with pytest.raises(InvalidSelectionError):
        BlockSet(block_indices=(3,), block_size=4).token_coverage(10)


@settings(max_examples=60)
@given(
    logits=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=64, unique=True
    ),
    budget=st.integers(min_value=1, max_value=16),
)
def test_token_topk_is_subset_of_width1_block_coverage(logits, budget):
    logits = np.asarray(logits)
    token_sel = set(topk_of_logits(logits, budget * 1))
    blocks = topk_blocks(block_max_of_logits(logits, 1), budget, 1)
    coverage = set(blocks.token_coverage(len(logits)).tolist())
    assert token_sel <= coverage


@given(
    n=st.integers(min_value=1, max_value=300),
    block_size=st.integers(min_value=1, max_value=64),
    budget=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_coverage_count_arithmetic(n, block_size, budget, seed):
    logits = np.random.default_rng(seed).standard_normal(n)
    blocks = topk_blocks(block_max_of_logits(logits, block_size), budget, block_size)
    cov = blocks.token_coverage(n)
    expected = sum(
        min(block_size, n - b * block_size) for b in blocks.block_indices
    )
    assert cov.shape[0] == expected
