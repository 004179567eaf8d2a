"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
numbered criterion. Each test also prints a PASS summary on success (visible
with -s or in captured output).
"""

import time

import numpy as np
import pytest

from layerreuse import (
    Action,
    LayerPolicy,
    SimilarityMatrix,
    SynthModelConfig,
    brute_force_policy,
    build_similarity_matrix,
    cost_model,
    dp_optimize,
    generate_model,
    hybrid_decode,
    run_full_trace,
    sensitivity_profile,
    static_jump_policy,
)
from conftest import random_similarity_matrix

THETA_GRID = [x / 10 for x in range(10)]


def test_acceptance_01_planner_matches_exhaustive_search():
    rng = np.random.default_rng(20240817)
    started = time.monotonic()
    checked = 0
    for _ in range(1000):
        L = int(rng.integers(2, 9))
        matrix = random_similarity_matrix(rng, L)
        for theta in THETA_GRID:
            fast = dp_optimize(matrix, theta)
            slow = brute_force_policy(matrix, theta)
            assert fast.full_count == slow.full_count
            assert fast.cum_similarity == pytest.approx(
                slow.cum_similarity, abs=1e-12
            )
            assert fast.actions == slow.actions
            assert fast.sources == slow.sources
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"PASS 01: planner == exhaustive search on {checked} "
        f"matrix/threshold pairs in {elapsed:.1f}s"
    )


def test_acceptance_02_threshold_boundary_is_inclusive():
    for theta in (0.3, 0.5, 0.9):
        at = SimilarityMatrix(
            values=np.array([[1.0, 0.0], [theta, 1.0]]), budget=8
        )
        assert dp_optimize(at, theta).full_count == 1
        below = SimilarityMatrix(
            values=np.array([[1.0, 0.0], [theta - 1e-9, 1.0]]), budget=8
        )
        assert dp_optimize(below, theta).full_count == 2
    print("PASS 02: overlap == threshold admits reuse; 1e-9 below does not")


def test_acceptance_03_full_count_monotone_in_threshold():
    rng = np.random.default_rng(31)
    grid = THETA_GRID + [1.0]
    for _ in range(100):
        matrix = random_similarity_matrix(rng, 10)
        counts = [dp_optimize(matrix, theta).full_count for theta in grid]
        assert counts == sorted(counts)
    print("PASS 03: full-layer count is non-decreasing in the threshold "
          "on 100 random matrices")


def test_acceptance_04_degenerate_policies_are_exact():
    cfg = SynthModelConfig(layers=6, head_dim=32, context_len=96, seed=21,
                           inter_layer_correlation=0.85)
    model = generate_model(cfg)

    all_full = static_jump_policy(cfg.layers, 1)
    run = hybrid_decode(model, all_full, 12, 3)
    baseline = run_full_trace(model, 3, 12)
    assert np.array_equal(run.outputs, baseline.outputs)
    assert run.fidelity.aggregate == 0.0

    # A budget covering the whole cache makes reuse layers match full
    # attention; one step, so the budget equals the cache length throughout.
    covering = hybrid_decode(model, static_jump_policy(cfg.layers, 6),
                             cfg.context_len, 1)
    exact = run_full_trace(model, 1, cfg.context_len)
    np.testing.assert_allclose(covering.outputs, exact.outputs,
                               rtol=1e-6, atol=0)
    print("PASS 04: all-full policy is bit-identical; full-budget reuse "
          "matches within 1e-6 relative")


def test_acceptance_05_saturated_budget_has_zero_sensitivity():
    cfg = SynthModelConfig(layers=5, head_dim=16, context_len=64, seed=4,
                           inter_layer_correlation=0.6)
    report = sensitivity_profile(generate_model(cfg), 0, cfg.context_len)
    assert np.all(np.abs(report.rnmse) <= 1e-9)
    print("PASS 05: budget >= cache length gives rnmse within 1e-9 "
          "of zero on every layer")


def test_acceptance_06_overlap_structure_tracks_the_similarity_dial():
    cfg = SynthModelConfig(layers=6, head_dim=16, context_len=64, seed=12,
                           inter_layer_correlation=1.0)
    matrix = build_similarity_matrix(run_full_trace(generate_model(cfg), 3, 8))
    lower = np.tril_indices(6)
    assert np.all(matrix.values[lower] == 1.0)

    for rho in (0.75, 0.9):
        adjacent, lag4 = [], []
        for seed in range(20):
            cfg = SynthModelConfig(layers=8, head_dim=16, context_len=128,
                                   seed=seed, inter_layer_correlation=rho)
            m = build_similarity_matrix(
                run_full_trace(generate_model(cfg), 2, 16)
            )
            adjacent.extend(m.values[j, j - 1] for j in range(1, 8))
            lag4.extend(m.values[j, j - 4] for j in range(4, 8))
        assert np.mean(adjacent) > np.mean(lag4)
    print("PASS 06: fully correlated layers give an all-ones matrix; at "
          "rho >= 0.75 adjacent overlap beats lag-4 overlap over 20 seeds")


def test_acceptance_07_independent_layers_overlap_at_chance_level():
    k, n = 16, 128
    entries = []
    for seed in range(100):
        cfg = SynthModelConfig(layers=6, head_dim=32, context_len=n,
                               seed=seed, inter_layer_correlation=0.0)
        m = build_similarity_matrix(run_full_trace(generate_model(cfg), 1, k))
        entries.extend(
            m.values[j, i] for j in range(6) for i in range(j)
        )
    mean = float(np.mean(entries))
    assert abs(mean - k / n) <= 0.05
    print(f"PASS 07: uncorrelated layers overlap at {mean:.4f}, within "
          f"0.05 of the {k / n} chance level, over 100 seeds")


def test_acceptance_08_cost_model_matches_closed_form():
    actions = tuple(
        Action.FULL if l % 4 == 0 else Action.REUSE for l in range(32)
    )
    worked = LayerPolicy(
        actions=actions, theta=None, cum_similarity=None, matrix_hash=None,
    )
    assert cost_model(worked, 4096, 256, head_dim=64).bytes_ratio == 0.296875

    rng = np.random.default_rng(88)
    for _ in range(200):
        layers = int(rng.integers(1, 65))
        stride = int(rng.integers(1, 9))
        n = int(rng.integers(1, 10001))
        budget = int(rng.integers(1, 513))
        block_size = int(rng.integers(1, 65))
        policy = static_jump_policy(layers, stride)
        report = cost_model(policy, n, budget, block_size=block_size)
        covered = min(budget * block_size, n)
        expected = (
            policy.full_count * n + (layers - policy.full_count) * covered
        ) / (layers * n)
        assert report.bytes_ratio == pytest.approx(expected, rel=1e-12)
    print("PASS 08: bytes ratio equals the closed form to 1e-12 on 200 "
          "random inputs and 0.296875 exactly on the worked case")


def test_acceptance_09_offload_speedup_grows_with_context():
    policy = static_jump_policy(32, 4)
    lengths = [8192, 16384, 30720, 61440]
    speedups = [
        cost_model(policy, n, 256, head_dim=64).predicted_speedup
        for n in lengths
    ]
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
    print("PASS 09: predicted speedup rises strictly over context lengths "
          f"{lengths}: {[f'{s:.3f}' for s in speedups]}")


def test_acceptance_10_fidelity_improves_as_threshold_rises():
    grid = [x / 10 for x in range(11)]
    seeds = range(20)
    per_theta = np.zeros(len(grid))
    for seed in seeds:
        cfg = SynthModelConfig(layers=10, head_dim=32, context_len=128,
                               seed=seed, inter_layer_correlation=0.85)
        model = generate_model(cfg)
        matrix = build_similarity_matrix(run_full_trace(model, 4, 16))
        for gi, theta in enumerate(grid):
            policy = dp_optimize(matrix, theta)
            run = hybrid_decode(model, policy, 16, 4)
            per_theta[gi] += run.fidelity.aggregate
            if theta == 1.0:
                assert run.fidelity.aggregate == 0.0
    means = per_theta / len(list(seeds))
    inversions = sum(
        1 for a, b in zip(means, means[1:]) if b > a + 1e-12
    )
    assert inversions <= 2
    assert means[-1] == 0.0
    print(f"PASS 10: mean rnmse over 20 seeds is non-increasing in the "
          f"threshold ({inversions} inversions) and exactly 0 at 1.0")


def test_acceptance_11_instrumentation_counts_are_exact():
    cfg = SynthModelConfig(layers=8, head_dim=16, context_len=64, seed=5,
                           inter_layer_correlation=0.8)
    model = generate_model(cfg)
    matrix = build_similarity_matrix(run_full_trace(model, 3, 8))
    policy = dp_optimize(matrix, 0.5)
    budget, steps = 8, 3
    run = hybrid_decode(model, policy, budget, steps)
    assert run.reuse_full_scans == 0
    assert run.full_score_computations == (policy.full_count,) * steps
    for t in range(steps):
        n_t = cfg.context_len + t
        for l, action in enumerate(policy.actions):
            if action is Action.FULL:
                assert run.reuse_gathered_rows[t][l] is None
            else:
                assert run.reuse_gathered_rows[t][l] == min(budget, n_t)

    block_run = hybrid_decode(model, static_jump_policy(8, 2), 3, 2, block_size=16)
    assert block_run.reuse_full_scans == 0
    for t in range(2):
        n_t = cfg.context_len + t
        for l in range(8):
            sel = block_run.selections[t][l]
            expected = [
                tok
                for b in sel.block_indices
                for tok in range(b * 16, min((b + 1) * 16, n_t))
            ]
            if block_run.reuse_gathered_rows[t][l] is not None:
                assert block_run.reuse_gathered_rows[t][l] == len(expected)
                assert sel.token_coverage(n_t).tolist() == expected
    print("PASS 11: full-scan and gathered-row counters match the policy "
          "and budget exactly in token and block mode")
