import dataclasses
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_selection, recording_cells
from layerreuse import attention, engine
from layerreuse.synthetic import SyntheticModel
from layerreuse import (
    Action,
    BlockSet,
    ConfigurationError,
    InvalidInputError,
    LayerPolicy,
    SynthModelConfig,
    TopKSet,
    build_similarity_matrix,
    cost_model,
    dp_optimize,
    fidelity_report,
    generate_model,
    hybrid_decode,
    run_full_trace,
    sensitivity_profile,
    sensitivity_table,
    static_jump_policy,
)
from reference import ref_hybrid_replay, ref_rnmse

FIXTURE = SynthModelConfig(
    layers=6, head_dim=32, context_len=96, seed=21,
    inter_layer_correlation=0.85, heads=1,
)

# Frozen from the first run on FIXTURE (trace: steps=3, k=12; theta=0.6).
GOLDEN_ACTIONS = ("full", "reuse", "reuse", "full", "reuse", "reuse")
GOLDEN_SOURCES = (0, 0, 0, 3, 3, 3)
GOLDEN_AGGREGATE_RNMSE = 1.1709555430500145

BLOCK_FIXTURE = SynthModelConfig(
    layers=5, head_dim=32, context_len=512, seed=33,
    inter_layer_correlation=0.8, heads=2,
)
GOLDEN_BLOCK_AGGREGATE_RNMSE = 0.4524886792120594


@pytest.fixture(scope="module")
def fixture_model():
    return generate_model(FIXTURE)


@pytest.fixture(scope="module")
def fixture_run(fixture_model):
    trace = run_full_trace(fixture_model, 3, 12)
    policy = dp_optimize(build_similarity_matrix(trace), 0.6)
    return trace, policy, hybrid_decode(fixture_model, policy, 12, 3)


def test_golden_policy_and_rnmse(fixture_run):
    _, policy, run = fixture_run
    assert tuple(a.value for a in policy.actions) == GOLDEN_ACTIONS
    assert policy.sources == GOLDEN_SOURCES
    assert run.fidelity.aggregate == pytest.approx(GOLDEN_AGGREGATE_RNMSE, rel=1e-12)


def test_matches_scalar_replay_oracle(fixture_model, fixture_run):
    _, policy, run = fixture_run
    keys, values = fixture_model.grown_arrays(3)
    queries = fixture_model.queries(3)
    ref_out = ref_hybrid_replay(
        queries, keys, values, [a.value for a in policy.actions], 12,
        FIXTURE.context_len,
    )
    for t in range(3):
        for l in range(FIXTURE.layers):
            want = np.array(ref_out[t][l][0])
            np.testing.assert_allclose(run.outputs[t, l, 0], want, rtol=1e-12)

    baseline = run_full_trace(fixture_model, 3, 12)
    vals = [
        ref_rnmse(ref_out[t][l][0], list(baseline.outputs[t, l, 0]))
        for t in range(3)
        for l in range(FIXTURE.layers)
    ]
    assert run.fidelity.aggregate == pytest.approx(sum(vals) / len(vals), rel=1e-12)


def test_all_full_policy_is_bit_identical_to_baseline(fixture_model):
    policy = static_jump_policy(FIXTURE.layers, 1)
    run = hybrid_decode(fixture_model, policy, 12, 3)
    baseline = run_full_trace(fixture_model, 3, 12)
    assert np.array_equal(run.outputs, baseline.outputs)
    assert run.selections == baseline.topk
    assert run.fidelity.aggregate == 0.0
    assert np.all(run.fidelity.per_step_layer == 0.0)
    blocks = hybrid_decode(fixture_model, policy, 3, 3, block_size=4)
    trace = run_full_trace(fixture_model, 3, 12, 4)
    assert np.array_equal(blocks.outputs, trace.outputs)
    assert blocks.selections == trace.blocks


def test_all_full_decode_grows_a_fresh_model_once(monkeypatch):
    # With no Reuse layer no last-step cache is built before the loop, so each
    # Full cell's cache_at(l, t) would grow the model by one step.
    grows = []
    grow = SyntheticModel._grow

    def counting(model, steps):
        grows.append(steps)
        grow(model, steps)

    monkeypatch.setattr(SyntheticModel, "_grow", counting)
    hybrid_decode(generate_model(FIXTURE), static_jump_policy(FIXTURE.layers, 1), 12, 5)
    assert grows == [5]


def test_full_budget_reuse_matches_full_attention():
    cfg = SynthModelConfig(layers=4, head_dim=16, context_len=48, seed=3,
                           inter_layer_correlation=0.5)
    model = generate_model(cfg)
    policy = static_jump_policy(4, 4)  # one Full layer, three Reuse
    steps = 2
    # budget >= every step's cache length, so reuse covers the whole cache
    run = hybrid_decode(model, policy, cfg.context_len + steps, steps)
    baseline = run_full_trace(model, steps, cfg.context_len)
    np.testing.assert_allclose(run.outputs, baseline.outputs, rtol=1e-6, atol=0)
    assert run.fidelity.aggregate < 1e-9


def test_full_layers_have_exact_zero_error(fixture_run):
    _, policy, run = fixture_run
    for l, action in enumerate(policy.actions):
        if action is Action.FULL:
            assert np.all(run.fidelity.per_step_layer[:, l] == 0.0)
        else:
            assert np.all(run.fidelity.per_step_layer[:, l] > 0.0)


def test_reuse_layers_share_the_chain_selection(fixture_run):
    _, policy, run = fixture_run
    for t in range(run.steps):
        for l, src in enumerate(policy.sources):
            assert run.selections[t][l] is run.selections[t][src]


def test_instrumentation_counts(fixture_run):
    _, policy, run = fixture_run
    assert run.reuse_full_scans == 0
    assert run.full_score_computations == (policy.full_count,) * run.steps
    assert run.policy.full_count == policy.full_count
    assert run.policy.num_layers - run.policy.full_count == FIXTURE.layers - policy.full_count
    for t in range(run.steps):
        n_t = FIXTURE.context_len + t
        for l, action in enumerate(policy.actions):
            if action is Action.FULL:
                assert run.reuse_gathered_rows[t][l] is None
            else:
                assert run.reuse_gathered_rows[t][l] == min(12, n_t)


def test_budget_clamped_to_cache_length():
    cfg = SynthModelConfig(layers=3, head_dim=16, context_len=8, seed=1,
                           inter_layer_correlation=0.9)
    model = generate_model(cfg)
    run = hybrid_decode(model, static_jump_policy(3, 3), 1000, 3)
    for t in range(3):
        assert run.reuse_gathered_rows[t][1] == 8 + t
        assert run.selections[t][0].size == 8 + t
    assert run.fidelity.aggregate < 1e-9  # full coverage, so reuse is exact


def test_sink_and_recent_augmentation():
    cfg = SynthModelConfig(layers=2, head_dim=16, context_len=64, seed=7,
                           inter_layer_correlation=0.3)
    model = generate_model(cfg)
    policy = static_jump_policy(2, 2)
    plain = hybrid_decode(model, policy, 8, 1)
    aug = hybrid_decode(model, policy, 8, 1, include_sinks=4, include_recent=4)
    base_sel = set(plain.selections[0][1].indices)
    aug_sel = set(aug.selections[0][1].indices)
    assert base_sel | {0, 1, 2, 3} | {60, 61, 62, 63} == aug_sel
    assert aug.reuse_gathered_rows[0][1] == len(aug_sel)
    # Full layers are untouched by augmentation
    np.testing.assert_array_equal(plain.outputs[0, 0], aug.outputs[0, 0])

    # Several steps, two heads, runs of Reuse layers: a Full layer records its
    # own selection; every Reuse layer after it records that selection plus
    # the sinks and the recent tokens, with the union's size as its budget.
    cfg = SynthModelConfig(layers=6, head_dim=16, context_len=64, seed=7,
                           inter_layer_correlation=0.6, heads=2)
    model = generate_model(cfg)
    policy = static_jump_policy(6, 3)
    plain = hybrid_decode(model, policy, 8, 3)
    aug = hybrid_decode(model, policy, 8, 3, include_sinks=4, include_recent=4)
    for t in range(3):
        n = 64 + t
        for l, action in enumerate(policy.actions):
            got = aug.selections[t][l]
            if action is Action.FULL:
                assert got == plain.selections[t][l]
                source = got
            else:
                merged = tuple(sorted(set(source.indices) | {0, 1, 2, 3} | set(range(n - 4, n))))
                assert got == TopKSet(indices=merged, budget=len(merged))
                assert aug.reuse_gathered_rows[t][l] == len(merged)
    # Recorded before Reuse layers shared one augmented selection per Full layer.
    assert hashlib.sha256(repr(aug.selections).encode()).hexdigest() == (
        "f6cb4afbfd8cf96bc19ec1da6dcf25b7615501382680e41f412e8da4698ffede"
    )
    assert aug.fidelity.aggregate == 1.1854041971733864


@pytest.mark.parametrize("sinks,recent", [(0, 0), (4, 0), (0, 5), (3, 70), (70, 0), (24, 24)])
def test_merged_selections_equal_the_checked_constructor(sinks, recent):
    # Counts of 70 cover the whole 24-token cache; 24 and 24 overlap the top-k and each other.
    cfg = SynthModelConfig(layers=5, head_dim=8, context_len=24, seed=4, inter_layer_correlation=0.5, heads=2)
    model = generate_model(cfg)
    policy = static_jump_policy(5, 3)
    run = hybrid_decode(model, policy, 6, 3, include_sinks=sinks, include_recent=recent)
    for t in range(3):
        n = 24 + t
        extra = set(range(min(sinks, n))) | set(range(max(n - recent, 0), n))
        for l, source in enumerate(policy.sources):
            got = run.selections[t][l]
            if l == source:
                assert_same_selection(got, TopKSet(indices=got.indices, budget=6))
                merged = tuple(sorted(set(got.indices) | extra)) if extra else got.indices
                budget = len(merged) if extra else 6
            else:
                assert_same_selection(got, TopKSet(indices=merged, budget=budget))
                assert run.reuse_gathered_rows[t][l] == len(merged)


def test_producers_build_every_selection_without_a_second_check(monkeypatch):
    calls = []
    check = attention._check_ascending
    monkeypatch.setattr(attention, "_check_ascending", lambda *args: calls.append(args) or check(*args))
    TopKSet(indices=(1, 2), budget=2)
    BlockSet(block_indices=(0,), block_size=2)
    assert len(calls) == 2  # the checked constructors are counted
    calls.clear()
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=32, seed=9, inter_layer_correlation=0.7, heads=2)
    model = generate_model(cfg)
    policy = static_jump_policy(4, 2)
    for width in (1, 4):
        run_full_trace(model, 3, 6, width)
    hybrid_decode(model, policy, 6, 3)
    hybrid_decode(model, policy, 6, 3, include_sinks=2, include_recent=3)
    hybrid_decode(model, policy, 2, 3, block_size=4)
    hybrid_decode(model, policy, 2, 3, block_size=4, include_sinks=2, include_recent=3)
    assert calls == []


def test_run_argument_validation(fixture_model):
    policy = static_jump_policy(FIXTURE.layers, 2)
    with pytest.raises(InvalidInputError):
        hybrid_decode(fixture_model, policy, 0, 1)
    with pytest.raises(InvalidInputError):
        hybrid_decode(fixture_model, policy, 8, 0)
    with pytest.raises(InvalidInputError):
        hybrid_decode(fixture_model, policy, 8, 1, include_sinks=-1)
    with pytest.raises(ConfigurationError):
        hybrid_decode(fixture_model, static_jump_policy(3, 1), 8, 1)
    # A Reuse-first policy cannot reach decoding: the constructor refuses it.
    with pytest.raises(InvalidInputError, match="the first layer of a policy must run full attention"):
        LayerPolicy(actions=(Action.REUSE,) * FIXTURE.layers, theta=None,
                    cum_similarity=None, matrix_hash=None)


# --- block mode ---


def test_block_size_one_equals_token_mode(fixture_model):
    # block_size=1 is token mode itself, so the guarantee sits at the select
    # rule: on every cell's head-summed logits, the coverage of the top
    # width-1 blocks is the token top-k, in the same order.
    queries = fixture_model.queries(3)
    for t in range(3):
        for l in range(FIXTURE.layers):
            logits = attention.full_attention(queries[t, l], fixture_model.cache_at(l, t))[1].sum(axis=-2)
            blocks = attention.topk_blocks(attention.block_max_of_logits(logits, 1), 12, 1)
            assert blocks.token_coverage(FIXTURE.context_len + t).tolist() == list(
                attention.topk_of_logits(logits, 12)
            )


@pytest.mark.parametrize("sinks,recent", [(3, 0), (0, 5), (3, 5)])
def test_block_mode_merges_sink_and_recent_blocks(fixture_model, sinks, recent):
    # Tokens 0 .. 2 lie in block 0 and the last 5 tokens in the blocks that
    # hold them. The cache length is 96 + t, so from step 1 on the final
    # block is partial and is forced in only when recent rows are asked for.
    policy = static_jump_policy(FIXTURE.layers, 3)
    steps, width = 3, 4
    plain = hybrid_decode(fixture_model, policy, 2, steps, block_size=width)
    run = hybrid_decode(fixture_model, policy, 2, steps, block_size=width,
                        include_sinks=sinks, include_recent=recent)
    queries = fixture_model.queries(steps)
    grown = 0
    for t in range(steps):
        n = FIXTURE.context_len + t
        extra = set(range(-(-sinks // width))) | (set(range((n - recent) // width, -(-n // width))) if recent else set())
        for l, source in enumerate(policy.sources):
            got = run.selections[t][l]
            if l == source:
                assert got == plain.selections[t][l]
                assert run.outputs[t, l].tobytes() == plain.outputs[t, l].tobytes()
                merged = BlockSet(block_indices=tuple(sorted(set(got.block_indices) | extra)), block_size=width)
                grown += merged.size > got.size
            else:
                assert_same_selection(got, merged)
                rows = merged.token_coverage(n)
                assert run.reuse_gathered_rows[t][l] == rows.shape[0]
                want = attention._subset_attention(queries[t, l], fixture_model.cache_at(l, t), rows)[0]
                assert run.outputs[t, l].tobytes() == want.tobytes()
    assert grown  # the forced blocks are not all in the top-k already


def test_block_size_past_int64_is_one_block(fixture_model):
    # A block at least as wide as every cache is one block, whatever the width's integer type.
    policy = static_jump_policy(FIXTURE.layers, 3)
    wide = hybrid_decode(fixture_model, policy, 2, 2, block_size=2**64)
    widest_int64 = hybrid_decode(fixture_model, policy, 2, 2, block_size=2**63 - 1)
    assert wide.outputs.tobytes() == widest_int64.outputs.tobytes()
    assert wide.reuse_gathered_rows == widest_int64.reuse_gathered_rows
    assert all(sel == BlockSet(block_indices=(0,), block_size=2**64) for step in wide.selections for sel in step)
    trace = run_full_trace(fixture_model, 1, 2, 2**64)
    assert trace.blocks[0][0] == BlockSet(block_indices=(0,), block_size=2**64)


def test_block_mode_golden_and_gathered_rows():
    model = generate_model(BLOCK_FIXTURE)
    run = hybrid_decode(model, static_jump_policy(5, 2), 2, 2, block_size=128)
    assert run.fidelity.aggregate == pytest.approx(
        GOLDEN_BLOCK_AGGREGATE_RNMSE, rel=1e-12
    )
    for t in range(2):
        for l in (1, 3):
            assert run.reuse_gathered_rows[t][l] == 2 * 128
        for l in (0, 2, 4):
            assert run.reuse_gathered_rows[t][l] is None


def test_block_budget_covering_whole_cache_is_near_exact():
    cfg = SynthModelConfig(layers=3, head_dim=16, context_len=100, seed=5,
                           inter_layer_correlation=0.7)
    model = generate_model(cfg)
    # 7 blocks of 16 cover 112 >= 100 + steps tokens
    run = hybrid_decode(model, static_jump_policy(3, 3), 7, 2, block_size=16)
    assert run.fidelity.aggregate < 1e-9
    assert run.reuse_gathered_rows[0][1] == 100  # truncated final block
    assert run.reuse_gathered_rows[1][1] == 101


def test_block_coverage_stays_in_range():
    model = generate_model(BLOCK_FIXTURE)
    run = hybrid_decode(model, static_jump_policy(5, 2), 2, 2, block_size=128)
    for t in range(2):
        n_t = BLOCK_FIXTURE.context_len + t
        for l in (1, 3):
            cov = run.selections[t][l].token_coverage(n_t)
            assert cov.min() >= 0 and cov.max() < n_t


def test_block_argument_validation():
    model = generate_model(BLOCK_FIXTURE)
    policy = static_jump_policy(5, 2)
    with pytest.raises(InvalidInputError):
        hybrid_decode(model, policy, 0, 1, block_size=128)
    with pytest.raises(InvalidInputError):
        hybrid_decode(model, policy, 2, 1, block_size=0)


# --- cost model ---


def test_cost_model_worked_example():
    # 32 layers, 8 full, context 4096, budget 256, head_dim 64:
    # ratio = (8*4096 + 24*256) / (32*4096) = 0.296875 exactly
    actions = tuple(
        Action.FULL if l % 4 == 0 else Action.REUSE for l in range(32)
    )
    policy = LayerPolicy(actions=actions, theta=None, cum_similarity=None, matrix_hash=None)
    report = cost_model(policy, 4096, 256, head_dim=64)
    assert report.bytes_ratio == 0.296875
    assert report.predicted_speedup == pytest.approx(1 / 0.296875, rel=1e-12)
    assert report.kv_bytes_full == 32 * 4096 * 2 * 64 * 8
    assert report.tokens_covered == 256


def test_cost_model_all_full_ratio_is_one():
    policy = static_jump_policy(8, 1)
    report = cost_model(policy, 1024, 64)
    assert report.bytes_ratio == 1.0
    assert report.predicted_speedup == 1.0
    assert report.kv_bytes_full == report.kv_bytes_hybrid


@settings(max_examples=100, deadline=None)
@given(
    layers=st.integers(min_value=1, max_value=64),
    stride=st.integers(min_value=1, max_value=8),
    context_len=st.integers(min_value=1, max_value=10000),
    budget=st.integers(min_value=1, max_value=512),
    block_size=st.integers(min_value=1, max_value=64),
    head_dim=st.integers(min_value=1, max_value=256),
)
def test_cost_model_closed_form(layers, stride, context_len, budget, block_size, head_dim):
    policy = static_jump_policy(layers, stride)
    report = cost_model(policy, context_len, budget, block_size=block_size, head_dim=head_dim)
    full = policy.full_count
    covered = min(budget * block_size, context_len)
    row = 2 * head_dim * 8
    assert report.kv_bytes_full == layers * context_len * row
    assert report.kv_bytes_hybrid == (
        full * context_len + (layers - full) * covered
    ) * row
    assert report.bytes_ratio == pytest.approx(
        report.kv_bytes_hybrid / report.kv_bytes_full, rel=1e-12
    )
    assert report.predicted_speedup == pytest.approx(
        1.0 / report.bytes_ratio, rel=1e-12
    )


def test_cost_model_validation():
    policy = static_jump_policy(4, 2)
    for kwargs in (
        dict(context_len=0, budget=8),
        dict(context_len=8, budget=0),
        dict(context_len=8, budget=8, block_size=0),
        dict(context_len=8, budget=8, head_dim=0),
    ):
        with pytest.raises(InvalidInputError):
            cost_model(policy, **kwargs)


# --- fidelity report ---


def test_fidelity_report_full_layers_agree(fixture_model, fixture_run):
    trace, policy, run = fixture_run
    report = fidelity_report(trace, run)
    for l, action in enumerate(policy.actions):
        if action is Action.FULL:
            assert np.all(report.selection_overlap[:, l] == 1.0)
    assert np.all(report.selection_overlap >= 0.0)
    assert np.all(report.selection_overlap <= 1.0)
    assert report.per_layer_overlap == pytest.approx(
        report.selection_overlap.mean(axis=0)
    )
    assert report.rnmse.aggregate == run.fidelity.aggregate


def test_fidelity_report_shape_and_block_guards(fixture_model):
    trace = run_full_trace(fixture_model, 3, 12)
    short = hybrid_decode(fixture_model, static_jump_policy(6, 2), 12, 2)
    with pytest.raises(InvalidInputError):
        fidelity_report(trace, short)

    model = generate_model(BLOCK_FIXTURE)
    blk_run = hybrid_decode(model, static_jump_policy(5, 2), 2, 2, block_size=128)
    token_trace = run_full_trace(model, 2, 256, 1)
    with pytest.raises(InvalidInputError):
        fidelity_report(token_trace, blk_run)
    matched = run_full_trace(model, 2, 256, 128)
    report = fidelity_report(matched, blk_run)
    assert report.rnmse.aggregate == blk_run.fidelity.aggregate


# --- fidelity baseline: recomputed at Reuse layers only ---


def _token_case(model, policy, steps):
    run = hybrid_decode(model, policy, 12, steps)
    return run, run_full_trace(model, steps, min(12, model.config.context_len), 1)


def _augmented_case(model, policy, steps):
    run = hybrid_decode(model, policy, 12, steps, include_sinks=3, include_recent=5)
    return run, run_full_trace(model, steps, min(12, model.config.context_len), 1)


def _block_case(model, policy, steps):
    run = hybrid_decode(model, policy, 3, steps, block_size=8)
    return run, run_full_trace(model, steps, min(3 * 8, model.config.context_len), 8)


@pytest.mark.parametrize("case", [_token_case, _augmented_case, _block_case],
                         ids=["token", "token-sinks-recent", "block"])
def test_fidelity_equals_full_trace_baseline(case):
    cfg = SynthModelConfig(layers=6, head_dim=16, context_len=80, seed=4,
                           inter_layer_correlation=0.8, heads=2)
    model = generate_model(cfg)
    policy = static_jump_policy(cfg.layers, 3)
    run, trace = case(model, policy, 3)
    want = fidelity_report(trace, run).rnmse
    assert np.array_equal(run.fidelity.per_step_layer, want.per_step_layer)
    assert np.array_equal(run.fidelity.per_layer, want.per_layer)
    assert run.fidelity.aggregate == want.aggregate
    for l, action in enumerate(policy.actions):
        column = run.fidelity.per_step_layer[:, l]
        assert np.all(column == 0.0) if action is Action.FULL else np.all(column > 0.0)


# --- fidelity: computed on first access, not by the decode call ---

_DECODES = {
    "token": lambda model, policy, steps: hybrid_decode(model, policy, 12, steps),
    "token-sinks-recent": lambda model, policy, steps: hybrid_decode(
        model, policy, 12, steps, include_sinks=3, include_recent=5
    ),
    "block": lambda model, policy, steps: hybrid_decode(model, policy, 3, steps, block_size=8),
}
_DEFERRED = SynthModelConfig(layers=6, head_dim=16, context_len=80, seed=4,
                             inter_layer_correlation=0.8, heads=2)


@pytest.mark.parametrize("mode", list(_DECODES))
def test_fidelity_recompute_runs_on_first_access_only(monkeypatch, mode):
    model = generate_model(_DEFERRED)
    policy = static_jump_policy(_DEFERRED.layers, 3)
    steps, H, L = 3, _DEFERRED.heads, _DEFERRED.layers
    calls = []
    real = engine.full_attention

    def counting(q, cache):
        calls.append(np.shape(q))
        return real(q, cache)

    monkeypatch.setattr(engine, "full_attention", counting)
    run = _DECODES[mode](model, policy, steps)
    # Decode: one call per Full (step, layer), each carrying every head.
    assert calls == [(H, _DEFERRED.head_dim)] * (policy.full_count * steps)
    copy = dataclasses.replace(run, outputs=run.outputs)
    table = run.fidelity
    # Baseline: one call per Reuse layer, carrying every step and head.
    reuse = L - policy.full_count
    assert calls[policy.full_count * steps:] == [(steps, H, _DEFERRED.head_dim)] * reuse
    assert run.fidelity is table
    # A copy shares the computed baseline, so its own table costs no attention.
    assert np.array_equal(copy.fidelity.per_step_layer, table.per_step_layer)
    assert len(calls) == policy.full_count * steps + reuse


def test_decode_runs_steps_first_and_the_baseline_layers_first(monkeypatch):
    model = generate_model(_DEFERRED)
    policy = static_jump_policy(_DEFERRED.layers, 3)
    steps = 4
    calls = []
    recording = recording_cells(calls, engine.full_attention, model.queries(steps), _DEFERRED.context_len)
    monkeypatch.setattr(engine, "full_attention", recording)
    run = hybrid_decode(model, policy, 12, steps)
    full = [l for l, a in enumerate(policy.actions) if a is Action.FULL]
    reuse = [l for l, a in enumerate(policy.actions) if a is Action.REUSE]
    # Decoding is autoregressive: each step passes every layer before the next
    # starts, one call per cell.
    assert calls == [[(t, l)] for t in range(steps) for l in full]
    calls.clear()
    run.fidelity
    # The baseline's queries are given, so one call runs each layer's steps in a row.
    assert calls == [[(t, l) for t in range(steps)] for l in reuse]


def test_fidelity_access_releases_the_model_buffers():
    model = generate_model(_DEFERRED)
    buffer = weakref.ref(model._keys)
    run = hybrid_decode(model, static_jump_policy(_DEFERRED.layers, 3), 12, 3)
    del model
    assert buffer() is not None  # the run's caches still view it
    aggregate = run.fidelity.aggregate
    assert buffer() is None
    assert run.fidelity.aggregate == aggregate


def test_replace_works_before_and_after_fidelity_access():
    model = generate_model(_DEFERRED)
    policy = static_jump_policy(_DEFERRED.layers, 3)
    run = hybrid_decode(model, policy, 12, 3)
    want = hybrid_decode(model, policy, 12, 3).fidelity
    bumped = np.array(run.outputs)
    bumped[0, 3, 1] += 1.0  # layer 3 is Full: its error was exactly 0
    bumped.setflags(write=False)
    early = dataclasses.replace(run, outputs=bumped)
    assert np.array_equal(run.fidelity.per_step_layer, want.per_step_layer)
    late = dataclasses.replace(run, reuse_full_scans=0)
    assert np.array_equal(late.fidelity.per_step_layer, want.per_step_layer)
    assert late.fidelity.aggregate == want.aggregate
    changed = early.fidelity.per_step_layer != want.per_step_layer
    assert changed[0, 3] and early.fidelity.per_step_layer[0, 3] > 0.0
    assert changed.sum() == 1


def test_block_coverage_is_built_once_per_full_layer(monkeypatch):
    model = generate_model(_DEFERRED)
    policy = static_jump_policy(_DEFERRED.layers, 3)  # 2 Full and 4 Reuse layers
    steps = 3
    calls = []
    real = BlockSet.token_coverage

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(BlockSet, "token_coverage", counting)
    run = hybrid_decode(model, policy, 3, steps, block_size=8)
    assert policy.full_count < policy.num_layers - policy.full_count
    assert len(calls) == policy.full_count * steps
    assert sorted(set(calls)) == [_DEFERRED.context_len + t for t in range(steps)]
    assert run.reuse_gathered_rows[0][1] == 24


# --- golden bits: outputs, selections and counters of each decode mode ---

_BITS = SynthModelConfig(layers=6, head_dim=16, context_len=37, seed=13,
                         inter_layer_correlation=0.8, heads=3)
# Frozen from the first run of _DECODES on _BITS (4 steps; trace k=7, theta=0.7).
_BITS_DIGESTS = {
    "token": "811a71a1f0a9cf5ac0695f47e60514017cc531a21ab1afde20c99e61eeaab962",
    "token-sinks-recent": "0f202ffaa545e7e5a7e04ade77b2f77473964b60cceda34d3a6db258842cb7ad",
    "block": "8b0fe9ed7684898a45a652cc90c61d56591dbf508bf72dfb17c625cb1923b231",
}


@pytest.mark.parametrize("mode", list(_DECODES))
def test_decode_golden_bits(mode):
    model = generate_model(_BITS)
    policy = dp_optimize(build_similarity_matrix(run_full_trace(model, 4, 7)), 0.7)
    assert tuple(a.value for a in policy.actions) == ("full", "reuse", "reuse", "reuse", "full", "reuse")
    run = _DECODES[mode](model, policy, 4)
    digest = hashlib.sha256(run.outputs.tobytes())
    for part in (run.selections, run.full_score_computations, run.reuse_gathered_rows):
        digest.update(repr(part).encode())
    assert digest.hexdigest() == _BITS_DIGESTS[mode]


# --- the model interface: config, queries, grown_arrays and cache_at ---


class _StandIn:
    """A model that forwards only the members the pipeline may read to a real one."""

    __slots__ = ("config", "queries", "grown_arrays", "cache_at")

    def __init__(self, model):
        for name in self.__slots__:
            setattr(self, name, getattr(model, name))


def _pipeline(model):
    """Bytes and selections of every pipeline call on a model: trace, sensitivity and each decode mode."""
    trace = run_full_trace(model, 4, 7, 8)
    report = sensitivity_profile(model, 2, 7)
    parts = [trace.queries.tobytes(), trace.outputs.tobytes(), trace.topk, trace.blocks,
             sensitivity_table(model, trace).tobytes(), report.rnmse.tobytes(), report.max_rnmse.tobytes()]
    for decode in _DECODES.values():
        run = decode(model, static_jump_policy(_BITS.layers, 3), 4)
        parts += [run.outputs.tobytes(), run.selections, run.full_score_computations,
                  run.reuse_gathered_rows, run.fidelity.per_step_layer.tobytes()]
    return parts


def test_the_pipeline_reads_a_model_through_four_members_only():
    assert _pipeline(_StandIn(generate_model(_BITS))) == _pipeline(generate_model(_BITS))


def test_cost_model_prices_the_rows_reuse_cells_gather():
    model = generate_model(_BITS)
    policy = static_jump_policy(_BITS.layers, 3)
    steps = 4
    reuse = [l for l, a in enumerate(policy.actions) if a is Action.REUSE]
    token = hybrid_decode(model, policy, 8, steps)
    anchored = hybrid_decode(model, policy, 8, steps, include_sinks=2, include_recent=3)
    blocks = hybrid_decode(model, policy, 3, steps, block_size=8)
    for t in range(steps):
        n_t = _BITS.context_len + t
        covered = cost_model(policy, n_t, 8).tokens_covered
        block_covered = cost_model(policy, n_t, 3, block_size=8).tokens_covered
        for l in reuse:
            # Plain token mode gathers exactly the rows the cost model prices.
            assert token.reuse_gathered_rows[t][l] == covered
            # Sink and recent rows add to them.
            assert anchored.reuse_gathered_rows[t][l] >= covered
            # A selected final block is cut short by the cache end, so block
            # mode gathers fewer rows then and the cost model is an upper bound.
            final_selected = (n_t - 1) // 8 in blocks.selections[t][l].block_indices
            assert blocks.reuse_gathered_rows[t][l] == block_covered - (-n_t % 8 if final_selected else 0)
    assert cost_model(policy, _BITS.context_len, 8).tokens_covered == 8
    assert anchored.reuse_gathered_rows[0] == (None, 13, 13, None, 12, 12)
    assert cost_model(policy, _BITS.context_len, 3, block_size=8).tokens_covered == 24
    assert [blocks.reuse_gathered_rows[t][1] for t in range(steps)] == [21, 24, 23, 24]
    assert [blocks.reuse_gathered_rows[t][4] for t in range(steps)] == [21, 24, 24, 24]
