import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerreuse import (
    Action,
    InvalidInputError,
    LayerPolicy,
    SimilarityMatrix,
    brute_force_policy,
    dp_optimize,
    static_jump_policy,
    validate_policy,
)
from conftest import random_similarity_matrix


def _matrix(entries):
    return SimilarityMatrix(values=np.array(entries), budget=4)


def test_low_offdiagonals_force_all_full():
    m = _matrix([[1.0, 0, 0], [0.1, 1.0, 0], [0.1, 0.1, 1.0]])
    policy = dp_optimize(m, 0.5)
    assert policy.actions == (Action.FULL, Action.FULL, Action.FULL)
    assert policy.full_count == 3
    assert policy.cum_similarity == 3.0


def test_high_overlap_chain_reuses_everything():
    m = _matrix([[1.0, 0, 0], [1.0, 1.0, 0], [1.0, 0.9, 1.0]])
    policy = dp_optimize(m, 0.5)
    assert policy.actions == (Action.FULL, Action.REUSE, Action.REUSE)
    assert policy.sources == (0, 0, 0)
    assert policy.full_count == 1
    assert policy.cum_similarity == pytest.approx(3.0, abs=1e-15)


def test_threshold_is_inclusive():
    m = _matrix([[1.0, 0], [0.6, 1.0]])
    assert dp_optimize(m, 0.6).full_count == 1
    below = _matrix([[1.0, 0], [0.6 - 1e-9, 1.0]])
    assert dp_optimize(below, 0.6).full_count == 2


def test_theta_zero_always_single_full_layer():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_similarity_matrix(rng, int(rng.integers(2, 10)))
        assert dp_optimize(m, 0.0).full_count == 1


def test_theta_one_on_random_matrices_is_all_full():
    rng = np.random.default_rng(6)
    for _ in range(20):
        L = int(rng.integers(2, 10))
        m = random_similarity_matrix(rng, L)
        policy = dp_optimize(m, 1.0)
        assert policy.full_count == L


def test_theta_validation():
    m = _matrix([[1.0, 0], [0.5, 1.0]])
    for theta in (-0.1, 1.1, float("nan")):
        with pytest.raises(InvalidInputError):
            dp_optimize(m, theta)
        with pytest.raises(InvalidInputError):
            brute_force_policy(m, theta)


def test_theta_refuses_a_boolean():
    # True would otherwise plan at theta 1.0.
    m = _matrix([[1.0, 0], [0.5, 1.0]])
    for plan in (dp_optimize, brute_force_policy):
        with pytest.raises(InvalidInputError):
            plan(m, True)
    with pytest.raises(InvalidInputError):
        validate_policy(static_jump_policy(2, 1), m, False)


def test_brute_force_layer_guard():
    rng = np.random.default_rng(0)
    m = random_similarity_matrix(rng, 15)
    with pytest.raises(InvalidInputError):
        brute_force_policy(m, 0.5)


def test_dp_equals_brute_force_on_random_matrices():
    rng = np.random.default_rng(777)
    for _ in range(200):
        L = int(rng.integers(2, 9))
        m = random_similarity_matrix(rng, L)
        for theta in (0.0, 0.3, 0.5, 0.8):
            a = dp_optimize(m, theta)
            b = brute_force_policy(m, theta)
            assert a.actions == b.actions
            assert a.sources == b.sources
            assert a.full_count == b.full_count
            assert a.cum_similarity == b.cum_similarity  # bit-identical accumulation


def test_dp_equals_brute_force_with_tied_entries():
    # Repeated values provoke exact ties; both planners must break them the
    # same way.
    rng = np.random.default_rng(31337)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for _ in range(200):
        L = int(rng.integers(2, 8))
        values = np.zeros((L, L))
        for j in range(L):
            values[j, j] = 1.0
            for i in range(j):
                values[j, i] = float(rng.choice(grid))
        m = SimilarityMatrix(values=values, budget=4)
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = dp_optimize(m, theta)
            b = brute_force_policy(m, theta)
            assert a.actions == b.actions
            assert a.sources == b.sources
            assert a.cum_similarity == b.cum_similarity


def test_full_count_monotone_in_theta():
    rng = np.random.default_rng(99)
    thetas = [x / 10 for x in range(11)]
    for _ in range(30):
        m = random_similarity_matrix(rng, 10)
        counts = [dp_optimize(m, th).full_count for th in thetas]
        assert counts == sorted(counts)


def test_policy_bounds():
    rng = np.random.default_rng(123)
    for _ in range(50):
        L = int(rng.integers(2, 11))
        m = random_similarity_matrix(rng, L)
        theta = float(rng.random())
        policy = dp_optimize(m, theta)
        assert 1 <= policy.full_count <= L
        assert policy.full_count <= policy.cum_similarity <= L + 1e-12
        assert validate_policy(policy, m, theta) == []


def test_deterministic_serialization():
    rng = np.random.default_rng(2024)
    m = random_similarity_matrix(rng, 8)
    a = dp_optimize(m, 0.4)
    b = dp_optimize(m, 0.4)
    assert a.canonical_payload() == b.canonical_payload()
    assert a.sha256() == b.sha256()
    assert a.matrix_hash == m.sha256()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    layers=st.integers(min_value=2, max_value=9),
    theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_dp_equals_brute_force_property(seed, layers, theta):
    m = random_similarity_matrix(np.random.default_rng(seed), layers)
    a = dp_optimize(m, theta)
    b = brute_force_policy(m, theta)
    assert a.actions == b.actions and a.sources == b.sources


def test_open_move_compares_credit_after_adding_the_full_layer():
    # Opening layer 4 from state (2, 3), credit 1 + 0.55 + 1 + 2/3, and from
    # (3, 3), credit 1 + 0.55 + 2/3 + 1, ties only once layer 4's 1.0 is added:
    # before it the second credit is one ulp larger. The tie goes to source 2.
    third = 1 / 3
    m = _matrix([
        [1, 0, 0, 0, 0, 0],
        [0.55, 1, 0, 0, 0, 0],
        [2 * third, 0.1, 1, 0, 0, 0],
        [third, 0.85, 2 * third, 1, 0, 0],
        [0.7, 0.9, 0.2, 0.3, 1, 0],
        [0.2, 2 * third, 0.85, 0.3, 0.9, 1],
    ])
    policy = dp_optimize(m, 0.5)
    oracle = brute_force_policy(m, 0.5)
    assert policy.actions == oracle.actions and policy.sources == oracle.sources
    assert "".join("F" if a is Action.FULL else "r" for a in policy.actions) == "FrFrFr"
    assert policy.sources == (0, 0, 2, 2, 4, 4)
    assert policy.cum_similarity == oracle.cum_similarity


# --- validate_policy ---


def test_validator_flags_first_layer_reuse():
    # The validator never sees a Reuse-first policy: the constructor refuses it.
    with pytest.raises(InvalidInputError, match="the first layer of a policy must run full attention"):
        LayerPolicy(
            actions=(Action.REUSE, Action.FULL), theta=0.5,
            cum_similarity=None, matrix_hash=None,
        )


def test_validator_flags_threshold_violation():
    m = _matrix([[1.0, 0], [0.2, 1.0]])
    # A policy with a theta records its credit: 1 for layer 0 plus M[1][0].
    policy = LayerPolicy(
        actions=(Action.FULL, Action.REUSE), theta=0.5,
        cum_similarity=1.2, matrix_hash=None,
    )
    assert validate_policy(policy, m, 0.5) == [(1, "threshold")]


def test_sources_and_full_count_follow_the_actions():
    F, R = Action.FULL, Action.REUSE
    policy = LayerPolicy(actions=(F, R, F, R, R), theta=None, cum_similarity=None, matrix_hash=None)
    assert policy.sources == (0, 0, 2, 2, 2)
    assert policy.full_count == 2
    assert dataclasses.replace(policy, actions=(F, F, R)).sources == (0, 1, 1)


def test_validator_requires_matching_shapes():
    m = _matrix([[1.0, 0], [0.9, 1.0]])
    policy = static_jump_policy(3, 1)
    with pytest.raises(InvalidInputError):
        validate_policy(policy, m, 0.5)


# --- static jump baseline ---


def test_static_jump_structure():
    policy = static_jump_policy(10, 3)
    fulls = [j for j, a in enumerate(policy.actions) if a is Action.FULL]
    assert fulls == [0, 3, 6, 9]
    assert policy.sources == (0, 0, 0, 3, 3, 3, 6, 6, 6, 9)
    assert policy.theta is None
    assert policy.cum_similarity is None
    assert policy.matrix_hash is None


def test_static_jump_stride_one_is_all_full():
    policy = static_jump_policy(4, 1)
    assert policy.actions == (Action.FULL,) * 4
    assert policy.full_count == 4


def test_static_jump_validation():
    with pytest.raises(InvalidInputError):
        static_jump_policy(0, 2)
    with pytest.raises(InvalidInputError):
        static_jump_policy(4, 0)


def test_layer_policy_shape_validation():
    with pytest.raises(InvalidInputError, match="at least one layer"):
        LayerPolicy(actions=(), theta=None, cum_similarity=None, matrix_hash=None)
    with pytest.raises(InvalidInputError, match="Action values"):
        LayerPolicy(actions=(Action.FULL, "reuse"), theta=None, cum_similarity=None, matrix_hash=None)
    with pytest.raises(InvalidInputError, match="theta"):
        LayerPolicy(actions=(Action.FULL,), theta=1.5, cum_similarity=None, matrix_hash=None)


def test_a_theta_comes_with_a_credit():
    # A planned policy records the credit its plan earned; the planners always set both.
    with pytest.raises(InvalidInputError, match="cumSimilarity is null"):
        LayerPolicy(actions=(Action.FULL, Action.REUSE), theta=0.5, cum_similarity=None, matrix_hash=None)
    planned = LayerPolicy(actions=(Action.FULL, Action.REUSE), theta=0.5, cum_similarity=1.5, matrix_hash=None)
    assert (planned.theta, planned.cum_similarity) == (0.5, 1.5)
