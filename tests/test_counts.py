"""Every public count refuses a bool and a float, and takes a numpy integer as the equal int."""

import dataclasses
import enum

import numpy as np
import pytest

from layerreuse import (
    InvalidInputError,
    SimilarityMatrix,
    SynthModelConfig,
    cost_model,
    generate_model,
    hybrid_decode,
    read_trace,
    run_full_trace,
    sensitivity_profile,
    sensitivity_table,
    static_jump_policy,
    write_trace,
)

_POLICY = static_jump_policy(3, 2)
_MATRIX = SimilarityMatrix(values=np.array([[1.0, 0.0], [0.5, 1.0]]), budget=2)

# Each public call: (call(model, **counts), a valid value of each count it takes).
_CALLS = {
    "hybrid_decode": (
        lambda m, budget, steps, block_size, include_sinks, include_recent: hybrid_decode(
            m, _POLICY, budget, steps, block_size=block_size, include_sinks=include_sinks,
            include_recent=include_recent),
        dict(budget=3, steps=2, block_size=1, include_sinks=1, include_recent=1),
    ),
    "hybrid_decode-blocks": (
        lambda m, budget, block_size, steps: hybrid_decode(m, _POLICY, budget, steps, block_size=block_size),
        dict(budget=2, block_size=2, steps=2),
    ),
    "cost_model": (
        lambda m, context_len, budget, block_size, head_dim: cost_model(
            _POLICY, context_len, budget, block_size=block_size, head_dim=head_dim),
        dict(context_len=64, budget=4, block_size=2, head_dim=8),
    ),
    "run_full_trace": (
        lambda m, steps, budget, block_size: run_full_trace(m, steps, budget, block_size),
        dict(steps=2, budget=3, block_size=2),
    ),
    "sensitivity_profile": (lambda m, step, budget: sensitivity_profile(m, step, budget), dict(step=1, budget=3)),
    "static_jump_policy": (
        lambda m, num_layers, stride: static_jump_policy(num_layers, stride), dict(num_layers=4, stride=2),
    ),
    "SyntheticModel.queries": (lambda m, steps: m.queries(steps), dict(steps=2)),
    "SyntheticModel.grown_arrays": (lambda m, steps: m.grown_arrays(steps), dict(steps=2)),
    "SimilarityMatrix.overlap": (lambda m, source, target: _MATRIX.overlap(source, target), dict(source=0, target=1)),
}
_CASES = [(name, count) for name, (_, counts) in _CALLS.items() for count in counts]


def _canonical(value):
    """A comparable form of a result, keeping each scalar's type, so an np.int64 kept in a result shows."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, _canonical(getattr(value, f.name))) for f in dataclasses.fields(value) if f.compare
        )
    if isinstance(value, (tuple, list)):
        return tuple(map(_canonical, value))
    if isinstance(value, enum.Enum):
        return value
    return type(value).__name__, value


@pytest.fixture(scope="module")
def model():
    return generate_model(SynthModelConfig(layers=3, head_dim=4, context_len=8, seed=3, heads=2))


@pytest.mark.parametrize("name,count", _CASES, ids=[f"{name}-{count}" for name, count in _CASES])
def test_every_public_count_refuses_bools_and_floats(model, name, count):
    call, counts = _CALLS[name]
    for bad in (True, 2.5):
        with pytest.raises(InvalidInputError, match=count):
            call(model, **{**counts, count: bad})
    want = _canonical(call(model, **counts))
    assert _canonical(call(model, **{**counts, count: np.int64(counts[count])})) == want


def test_config_of_numpy_integers_round_trips_through_a_trace(tmp_path):
    config = SynthModelConfig(layers=np.int64(3), head_dim=np.int32(4), context_len=8, seed=np.int64(-2))
    assert config == SynthModelConfig(layers=3, head_dim=4, context_len=8, seed=-2)
    assert type(config.layers) is int and type(config.seed) is int
    model = generate_model(config)
    trace = run_full_trace(model, 2, 3)
    trace = dataclasses.replace(trace, sensitivity=sensitivity_table(model, trace))
    path = str(tmp_path / "trace.json")
    write_trace(trace, path)
    back = read_trace(path)
    assert back.config == config
    assert np.array_equal(back.outputs, trace.outputs) and back.topk == trace.topk
