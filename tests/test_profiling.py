import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layerreuse import (
    Action,
    BlockSet,
    DecodeTrace,
    InvalidInputError,
    LayerKvCache,
    SimilarityMatrix,
    SynthModelConfig,
    TopKSet,
    build_similarity_matrix,
    full_attention,
    generate_model,
    hybrid_decode,
    run_full_trace,
    sensitivity_profile,
    sensitivity_table,
    static_jump_policy,
    topk_of_logits,
)
from layerreuse.attention import _subset_attention
from layerreuse.formats import write_trace
from layerreuse.profiling import _row_errors
from reference import ref_matrix_from_trace

GOLDEN_CFG = SynthModelConfig(
    layers=8, head_dim=32, context_len=256, seed=11, inter_layer_correlation=0.9
)


def _set(indices, budget=None):
    return TopKSet(indices=tuple(indices), budget=budget or len(indices))


def _hand_trace(sets_per_step, layers, n, budget):
    steps = len(sets_per_step)
    cfg = SynthModelConfig(layers=layers, head_dim=2, context_len=n, seed=0)
    dummy = np.zeros((steps, layers, 1, 2))
    topk = tuple(tuple(_set(s, budget) for s in step) for step in sets_per_step)
    blocks = tuple(
        tuple(BlockSet(block_indices=tuple(s), block_size=1) for s in step)
        for step in sets_per_step
    )
    return DecodeTrace(
        config=cfg, budget=budget, block_size=1, queries=dummy, outputs=dummy,
        topk=topk, blocks=blocks,
    )


def _pair_overlap(a, b, k):
    """The overlap ratio of two size-k selections, read from a one-step, two-layer matrix."""
    return build_similarity_matrix(_hand_trace([[a, b]], layers=2, n=256, budget=k)).values[1, 0]


def test_overlap_ratio_examples():
    assert _pair_overlap([0, 1], [0, 1], 2) == 1.0
    assert _pair_overlap([0, 1], [2, 3], 2) == 0.0
    assert _pair_overlap([0, 1, 2, 3], [2, 3, 4, 5], 4) == 0.5


def test_overlap_ratio_rejects_size_mismatch():
    with pytest.raises(InvalidInputError):
        build_similarity_matrix(_hand_trace([[(0, 1), (0, 1, 2)]], layers=2, n=8, budget=3))
    with pytest.raises(InvalidInputError):
        _pair_overlap([0, 1], [0, 1], 3)


@given(
    a=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=32),
    b=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=32),
)
def test_overlap_ratio_is_symmetric_and_bounded(a, b):
    k = min(len(a), len(b))
    a = sorted(a)[:k]
    b = sorted(b)[:k]
    ab = _pair_overlap(a, b, k)
    ba = _pair_overlap(b, a, k)
    assert ab == ba
    assert 0.0 <= ab <= 1.0


def test_matrix_from_hand_written_sets():
    trace = _hand_trace([[(0, 1), (0, 1), (2, 3)]], layers=3, n=8, budget=2)
    m = build_similarity_matrix(trace)
    assert m.values[1, 0] == 1.0
    assert m.values[2, 0] == 0.0
    assert m.values[2, 1] == 0.0
    assert all(m.values[j, j] == 1.0 for j in range(3))


def test_matrix_is_mean_over_steps():
    trace = _hand_trace(
        [[(0, 1), (0, 1)], [(0, 1), (2, 3)]], layers=2, n=8, budget=2
    )
    m = build_similarity_matrix(trace)
    assert m.values[1, 0] == 0.5


def test_empty_trace_is_rejected():
    trace = _hand_trace([[(0, 1), (0, 1)]], layers=2, n=8, budget=2)
    object.__setattr__(trace, "topk", ())
    object.__setattr__(trace, "queries", np.zeros((0, 2, 1, 2)))
    with pytest.raises(InvalidInputError):
        build_similarity_matrix(trace)


def _pairwise_overlap_matrix(trace):
    """The definition: |S_i & S_j| / k for every layer pair, step by step, then the step mean."""
    L, k = trace.config.layers, trace.budget
    per_step = np.ones((trace.steps, L, L))
    for t in range(trace.steps):
        for j in range(L):
            for i in range(j):
                shared = set(trace.topk[t][i].indices) & set(trace.topk[t][j].indices)
                per_step[t, j, i] = len(shared) / k
    return np.tril(per_step.mean(axis=0), -1) + np.eye(L)


@pytest.mark.parametrize("seed", range(6))
def test_matrix_equals_pairwise_overlap_definition_exactly(seed):
    rng = np.random.default_rng(seed)
    layers, n, k = int(rng.integers(2, 9)), int(rng.integers(8, 80)), int(rng.integers(1, 8))
    steps = int(rng.integers(1, 6))
    sets = [
        [sorted(rng.choice(n + t, size=k, replace=False).tolist()) for _ in range(layers)]
        for t in range(steps)
    ]
    trace = _hand_trace(sets, layers=layers, n=n, budget=k)
    assert np.array_equal(build_similarity_matrix(trace).values, _pairwise_overlap_matrix(trace))


def test_matrix_equals_pairwise_overlap_definition_on_generated_trace():
    trace = run_full_trace(generate_model(GOLDEN_CFG), 3, 24)
    assert np.array_equal(build_similarity_matrix(trace).values, _pairwise_overlap_matrix(trace))


def test_matrix_rejects_a_selection_of_the_wrong_size():
    trace = _hand_trace([[(0, 1, 2), (0, 1, 2), (2, 3, 4)], [(0, 1, 2), (5, 6), (0, 3, 4)]],
                        layers=3, n=8, budget=3)
    with pytest.raises(InvalidInputError, match="size"):
        build_similarity_matrix(trace)


def test_matrix_matches_independent_intersection_oracle(tmp_path):
    # The oracle reads the written trace's topk sidecar and redoes every
    # overlap with plain Python set intersections.
    model = generate_model(GOLDEN_CFG)
    trace = run_full_trace(model, 4, 32)
    matrix = build_similarity_matrix(trace)
    path = tmp_path / "trace.json"
    write_trace(dataclasses.replace(trace, sensitivity=sensitivity_table(model, trace)), str(path))
    expected = ref_matrix_from_trace(str(path))
    for (i, j), value in expected.items():
        assert matrix.values[j, i] == pytest.approx(value, abs=1e-15)


def test_matrix_invariants_on_profiled_traces():
    for seed in range(5):
        cfg = SynthModelConfig(
            layers=6, head_dim=16, context_len=64, seed=seed, inter_layer_correlation=0.5
        )
        m = build_similarity_matrix(run_full_trace(generate_model(cfg), 2, 8))
        assert np.all(np.diag(m.values) == 1.0)
        lower = m.values[np.tril_indices(6)]
        assert lower.min() >= 0.0 and lower.max() <= 1.0
        assert np.all(m.values[np.triu_indices(6, k=1)] == 0.0)


def test_matrix_construction_validation():
    with pytest.raises(InvalidInputError):
        SimilarityMatrix(values=np.array([[0.5]]), budget=2)  # diagonal must be 1
    bad = np.array([[1.0, 0.0], [1.5, 1.0]])
    with pytest.raises(InvalidInputError):
        SimilarityMatrix(values=bad, budget=2)


def test_matrix_flat_round_trip_and_hash_stability():
    vals = np.array([[1.0, 0.0, 0.0], [0.25, 1.0, 0.0], [0.5, 0.75, 1.0]])
    m = SimilarityMatrix(values=vals, budget=4)
    flat = m.flat_entries()
    assert flat == [1.0, 0.25, 1.0, 0.5, 0.75, 1.0]
    m2 = SimilarityMatrix.from_flat(3, 4, flat)
    assert np.array_equal(m2.values, m.values)
    assert m2.sha256() == m.sha256()


# --- sensitivity ---


def test_rnmse_examples_and_scale_invariance():
    x = np.array([1.0, 2.0, 2.0])
    assert _row_errors(x, x) == 0.0
    ref = np.array([3.0, 4.0, 0.0])
    err = _row_errors(np.array([3.0, 4.0, 1.0]), ref)
    assert err == pytest.approx(1.0 / 5.0, rel=1e-15)
    # scaling both vectors leaves the ratio unchanged within 1e-9
    for scale in (1e-6, 1e6, 123.456):
        scaled = _row_errors(scale * np.array([3.0, 4.0, 1.0]), scale * ref)
        assert abs(scaled - err) <= 1e-9 * err


def test_rnmse_zero_reference_cases():
    zero = np.zeros(3)
    assert _row_errors(zero, zero) == 0.0
    assert math.isnan(_row_errors(np.array([1.0, 0.0, 0.0]), zero))


def _norm_quotient(x, reference):
    """||x - reference|| / ||reference|| through np.linalg.norm, with the zero-norm cases."""
    err, ref = np.linalg.norm(x - reference), np.linalg.norm(reference)
    if ref == 0.0:
        return 0.0 if err == 0.0 else math.nan
    return err / ref


@pytest.mark.parametrize("width", [1, 5, 32, 128, 257])
def test_row_errors_equal_the_norm_quotient_row_by_row(width):
    rng = np.random.default_rng(width)
    reference = rng.standard_normal((3, 4, width))
    x = reference + 1e-3 * rng.standard_normal((3, 4, width))
    # Zero-norm references: one row matched exactly, one not.
    reference[0, 1] = x[0, 1] = 0.0
    reference[2, 3] = 0.0
    got = _row_errors(x, reference)
    assert got.shape == (3, 4)
    want = np.array([[_norm_quotient(x[t, l], reference[t, l]) for l in range(4)] for t in range(3)])
    assert got.tobytes() == want.tobytes()
    assert got[0, 1] == 0.0 and math.isnan(got[2, 3])
    assert _row_errors(x[1].ravel(), reference[1].ravel()) == _norm_quotient(x[1].ravel(), reference[1].ravel())


def test_sensitivity_saturated_budget_is_exactly_zero():
    cfg = SynthModelConfig(layers=5, head_dim=16, context_len=32, seed=9, inter_layer_correlation=0.6)
    report = sensitivity_profile(generate_model(cfg), 0, 32)
    assert np.all(report.rnmse == 0.0)
    # budgets beyond the cache length clamp and stay exact
    report2 = sensitivity_profile(generate_model(cfg), 0, 99)
    assert np.all(report2.rnmse == 0.0)


def test_sensitivity_golden_regression():
    # Frozen from the first run of the own-output rnmse (sparse against full attention over all heads).
    report = sensitivity_profile(generate_model(GOLDEN_CFG), 0, 32)
    expected_rnmse = [
        1.3076860450984122, 1.2200108385900899, 1.2496193097723483,
        1.2962103224974273, 1.2180023387637797, 1.1542499526780887,
        1.0355112858492583, 0.996716128765424,
    ]
    assert report.rnmse.tolist() == pytest.approx(expected_rnmse, rel=1e-12)


def _per_head_probe(model, step, budget):
    """sensitivity_profile as a reference: each head attends on its own, and a layer's heads are concatenated."""
    cfg = model.config
    keys, values = model.grown_arrays(step + 1)
    queries = model.queries(step + 1)[step]
    n = cfg.context_len + step
    rnmse = []
    for l in range(cfg.layers):
        caches = [LayerKvCache(keys=keys[l, h, :n], values=values[l, h, :n]) for h in range(cfg.heads)]
        full = [full_attention(queries[l, h], cache) for h, cache in enumerate(caches)]
        summed = np.zeros(n)
        for _, logits in full:
            summed += logits
        idx = np.asarray(topk_of_logits(summed, min(budget, n)))
        sparse = [_subset_attention(queries[l, h], cache, idx)[0] for h, cache in enumerate(caches)]
        rnmse.append(_norm_quotient(np.concatenate(sparse), np.concatenate([out for out, _ in full])))
    return rnmse


def _assert_table_rows_equal_the_probes(cfg, steps, budget):
    """Row t of the trace's sensitivity table equals both one-step probes at step t, bit for bit."""
    table = sensitivity_table(generate_model(cfg), run_full_trace(generate_model(cfg), steps, budget))
    assert table.shape == (steps, cfg.layers) and not table.flags.writeable
    for t in range(steps):
        report = sensitivity_profile(generate_model(cfg), t, budget)
        assert report.rnmse.tolist() == _per_head_probe(generate_model(cfg), t, budget)
        assert table[t].tolist() == report.rnmse.tolist()


@pytest.mark.parametrize("step", [0, 7])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("rho", [0.85, 1.0, 0.0])
def test_batched_probe_equals_per_head_probe_bitwise(rho, heads, step):
    # The trace covers steps 0 .. step, so its table has step + 1 rows.
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=32, seed=23,
                           inter_layer_correlation=rho, heads=heads)
    _assert_table_rows_equal_the_probes(cfg, step + 1, 6)


@pytest.mark.parametrize("rho", [0.3, 1.0])
def test_sensitivity_table_rows_equal_the_probes_at_an_odd_shape(rho):
    cfg = SynthModelConfig(layers=6, head_dim=16, context_len=37, seed=5,
                           inter_layer_correlation=rho, heads=3)
    _assert_table_rows_equal_the_probes(cfg, 5, 7)


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("heads", [1, 3])
def test_reuse_layer_fidelity_equals_the_sensitivity_table_at_rho_one(heads, stride):
    # At rho = 1 every layer copies the one below, so a Reuse layer's inherited rows are its own top-k.
    cfg = SynthModelConfig(layers=7, head_dim=8, context_len=40, seed=3, inter_layer_correlation=1.0, heads=heads)
    model = generate_model(cfg)
    run = hybrid_decode(model, static_jump_policy(cfg.layers, stride), 6, 5)
    table = sensitivity_table(model, run_full_trace(model, 5, 6))
    reuse = [l for l, a in enumerate(run.policy.actions) if a is Action.REUSE]
    assert np.all(table[:, reuse] > 0.0)
    assert run.fidelity.per_step_layer[:, reuse].tobytes() == table[:, reuse].tobytes()


def test_sensitivity_profile_takes_the_trace_budget_rule():
    # A budget past the context length selects context_len tokens, as a trace does, at every step.
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=16, seed=5, inter_layer_correlation=0.7, heads=2)
    report = sensitivity_profile(generate_model(cfg), 2, cfg.context_len + 1)
    model = generate_model(cfg)
    table = sensitivity_table(model, run_full_trace(model, 3, cfg.context_len))
    assert (report.budget, report.steps) == (cfg.context_len + 1, 1)
    assert report.rnmse.tolist() == report.max_rnmse.tolist() == table[2].tolist()
    assert np.all(table[2] > 0.0)


def test_sensitivity_table_rejects_a_trace_of_another_model():
    cfg = SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=1)
    trace = run_full_trace(generate_model(cfg), 2, 4)
    other = generate_model(SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=2))
    with pytest.raises(InvalidInputError, match="another config"):
        sensitivity_table(other, trace)


def test_sensitivity_argument_validation():
    model = generate_model(SynthModelConfig(layers=2, head_dim=8, context_len=16, seed=0))
    with pytest.raises(InvalidInputError):
        sensitivity_profile(model, -1, 4)
    with pytest.raises(InvalidInputError):
        sensitivity_profile(model, 0, 0)


def test_adjacent_layers_dominate_distant_ones():
    # With a high similarity dial, neighbours agree more than layers four
    # apart; aggregated over 20 seeds.
    for rho in (0.75, 0.9):
        adjacent, lag4 = [], []
        for seed in range(20):
            cfg = SynthModelConfig(
                layers=8, head_dim=16, context_len=128, seed=seed, inter_layer_correlation=rho
            )
            m = build_similarity_matrix(run_full_trace(generate_model(cfg), 2, 16))
            adjacent.extend(m.values[j, j - 1] for j in range(1, 8))
            lag4.extend(m.values[j, j - 4] for j in range(4, 8))
        assert np.mean(adjacent) > np.mean(lag4)
