import hashlib
import math
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import recording_cells
from layerreuse import (
    InvalidInputError,
    LayerKvCache,
    NumericInputError,
    SynthModelConfig,
    TopKSet,
    block_max_of_logits,
    build_similarity_matrix,
    full_attention,
    generate_model,
    run_full_trace,
    sensitivity_profile,
    sensitivity_table,
    synthetic,
    topk_blocks,
    topk_of_logits,
)
from layerreuse.cli import main
from layerreuse.synthetic import _MASK64, _S_KEYS, _S_VALUES, _SPARE_ROWS, _rng

FIXTURE = SynthModelConfig(
    layers=8, head_dim=32, context_len=256, seed=11, inter_layer_correlation=0.9
)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SynthModelConfig(layers=1)
    with pytest.raises(InvalidInputError):
        SynthModelConfig(layers=4, context_len=1)
    with pytest.raises(InvalidInputError):
        SynthModelConfig(layers=4, inter_layer_correlation=1.5)
    with pytest.raises(InvalidInputError):
        SynthModelConfig(layers=4, inter_layer_correlation=-0.1)
    with pytest.raises(InvalidInputError):
        SynthModelConfig(layers=4, heads=0)


def test_rho_one_copies_tensors_across_layers_exactly():
    cfg = SynthModelConfig(layers=5, head_dim=16, context_len=64, seed=2, inter_layer_correlation=1.0)
    model = generate_model(cfg)
    keys, values = model.grown_arrays(3)
    queries = model.queries(3)
    for l in range(1, 5):
        assert np.array_equal(keys[l], keys[0])
        assert np.array_equal(values[l], values[0])
        assert np.array_equal(queries[:, l], queries[:, 0])


def test_rho_one_trace_has_identical_selections_per_step():
    cfg = SynthModelConfig(layers=5, head_dim=16, context_len=64, seed=2, inter_layer_correlation=1.0)
    trace = run_full_trace(generate_model(cfg), 3, 8)
    for t in range(3):
        for l in range(1, 5):
            assert trace.topk[t][l].indices == trace.topk[t][0].indices


def test_budget_equal_to_context_selects_everything():
    cfg = SynthModelConfig(layers=2, head_dim=8, context_len=16, seed=5, inter_layer_correlation=0.3)
    trace = run_full_trace(generate_model(cfg), 1, 16)
    assert trace.topk[0][0].indices == tuple(range(16))
    assert trace.topk[0][1].indices == tuple(range(16))


def test_trace_validates_arguments():
    model = generate_model(SynthModelConfig(layers=2, head_dim=8, context_len=16, seed=0))
    with pytest.raises(InvalidInputError):
        run_full_trace(model, 0, 4)
    with pytest.raises(InvalidInputError):
        run_full_trace(model, 1, 17)  # budget above context_len
    with pytest.raises(InvalidInputError):
        run_full_trace(model, 1, 0)


def test_cache_grows_one_row_per_step():
    cfg = SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=1, inter_layer_correlation=0.5)
    model = generate_model(cfg)
    keys, values = model.grown_arrays(4)
    assert keys.shape == (3, 1, 20, 8)
    cache0 = model.cache_at(0, 0)
    cache3 = model.cache_at(0, 3)
    assert cache0.length == 16
    assert cache3.length == 19
    # earlier rows are a stable prefix of later caches
    assert np.array_equal(cache3.keys[:, :16], cache0.keys)
    assert np.array_equal(cache3.keys, keys[0, :, :19])


def test_same_config_is_bit_identical_in_process():
    a = run_full_trace(generate_model(FIXTURE), 2, 32)
    b = run_full_trace(generate_model(FIXTURE), 2, 32)
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.outputs, b.outputs)
    assert a.topk == b.topk
    assert a.blocks == b.blocks


def test_same_config_is_bit_identical_across_processes():
    snippet = (
        "import hashlib, numpy as np\n"
        "from layerreuse import SynthModelConfig, generate_model, run_full_trace\n"
        "cfg = SynthModelConfig(layers=4, head_dim=16, context_len=64, seed=9,"
        " inter_layer_correlation=0.7)\n"
        "t = run_full_trace(generate_model(cfg), 2, 8)\n"
        "h = hashlib.sha256(t.outputs.tobytes() + t.queries.tobytes()).hexdigest()\n"
        "print(h + '|' + repr(t.topk))\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_multi_head_trace_records_one_set_per_layer():
    cfg = SynthModelConfig(
        layers=3, head_dim=8, context_len=32, seed=4, inter_layer_correlation=0.6, heads=2
    )
    trace = run_full_trace(generate_model(cfg), 2, 8)
    assert trace.queries.shape == (2, 3, 2, 8)
    assert trace.outputs.shape == (2, 3, 2, 8)
    assert len(trace.topk[0]) == 3
    assert all(s.size == 8 for s in trace.topk[0])


# Multi-head, and a context length that leaves the last block of width 8 short.
_ORDER = SynthModelConfig(
    layers=5, head_dim=8, context_len=37, seed=6, inter_layer_correlation=0.7, heads=3
)


def test_trace_runs_each_layers_steps_consecutively(monkeypatch):
    model = generate_model(_ORDER)
    steps = 4
    calls = []
    recording = recording_cells(calls, synthetic.full_attention, model.queries(steps), _ORDER.context_len)
    monkeypatch.setattr(synthetic, "full_attention", recording)
    run_full_trace(model, steps, 12, 8)
    # One call per layer, in layer order, serving all of the layer's steps in order.
    assert calls == [[(t, l) for t in range(steps)] for l in range(_ORDER.layers)]


def test_trace_equals_a_step_by_step_recomputation():
    model = generate_model(_ORDER)
    steps, k, width = 4, 12, 8
    trace = run_full_trace(model, steps, k, width)
    queries = model.queries(steps)
    outputs = np.empty_like(trace.outputs)
    for t in range(steps):
        n = _ORDER.context_len + t
        for l in range(_ORDER.layers):
            outputs[t, l], logits, _ = full_attention(queries[t, l], model.cache_at(l, t))
            summed = np.zeros(n)
            for row in logits:
                summed += row
            assert trace.topk[t][l] == TopKSet(indices=topk_of_logits(summed, k), budget=k)
            blocks = min(math.ceil(k / width), math.ceil(n / width))
            assert trace.blocks[t][l] == topk_blocks(block_max_of_logits(summed, width), blocks, width)
    assert trace.queries.tobytes() == queries.tobytes()
    assert trace.outputs.tobytes() == outputs.tobytes()


def test_golden_adjacent_overlap_regression():
    # Frozen from the first run of this implementation; guards against drift
    # in generation, attention, or selection.
    trace = run_full_trace(generate_model(FIXTURE), 4, 32)
    matrix = build_similarity_matrix(trace)
    adjacent = np.mean([matrix.values[j, j - 1] for j in range(1, 8)])
    assert adjacent == pytest.approx(0.9084821428571429, rel=1e-12)


def test_similarity_is_monotone_in_rho():
    # Mean pairwise overlap rises with the similarity dial; allow at most one
    # inversion across the ladder over 20 seeds.
    means = []
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        vals = []
        for seed in range(20):
            cfg = SynthModelConfig(
                layers=6, head_dim=16, context_len=128, seed=seed, inter_layer_correlation=rho
            )
            m = build_similarity_matrix(run_full_trace(generate_model(cfg), 2, 16))
            vals.extend(m.values[j, i] for j in range(6) for i in range(j))
        means.append(float(np.mean(vals)))
    inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
    assert inversions <= 1
    assert means[-1] == 1.0


# --- generator: seeding, row stability, golden ---


@pytest.mark.parametrize("seed", [0, 1, -3, 2**32, 2**40 + 7, 2**63, 2**64 + 5])
@pytest.mark.parametrize("key", [(0,), (5, 0, 3, 17), (2, 2**32, 0, 2**40 + 9), (7, 2**64 + 1)])
def test_rng_draws_the_bits_of_a_spawn_keyed_seed_sequence(seed, key):
    want = np.random.default_rng(np.random.SeedSequence(seed & _MASK64, spawn_key=key))
    got = _rng(seed, *key)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_normal(17), want.standard_normal(17))


def test_rng_rejects_negative_key_elements():
    with pytest.raises(InvalidInputError):
        _rng(3, 1, -1)


@pytest.mark.parametrize("seed", [0, 1, -7, 2**40 + 3, _MASK64])
def test_batched_seeding_draws_what_one_generator_per_row_draws(seed):
    rows = synthetic._fresh_rows(seed, 6, range(1, 4), 2, 6, 3, 16)
    assert rows.shape == (3, 4, 3, 16)
    for l in range(1, 4):
        for t in range(2, 6):
            for h in range(3):
                assert np.array_equal(rows[l - 1, t - 2, h], _rng(seed, 6, l, h, t).standard_normal(16))
    # Elements of 2**32 and above take two entropy words, in the shared prefix or in a row's tail.
    tails = np.array([(1, 0), (0, 2**32), (0, 0), (2**32 - 1, 9), (2**33 + 1, 2**32 + 5), (1, 3)])
    for prefix in ((), (5,), (5, 2**40 + 3), (2**32 - 1, 7), (0, 0, 0)):
        got = synthetic._normal_rows(seed, prefix, tails, 16)
        for r, tail in enumerate(tails.tolist()):
            assert np.array_equal(got[r], _rng(seed, *prefix, *tail).standard_normal(16))
    wide = synthetic._fresh_rows(seed, 5, range(2**32 - 1, 2**32 + 1), 2**32 - 1, 2**32 + 1, 2, 8)
    for l in range(2):
        for t in range(2):
            for h in range(2):
                want = _rng(seed, 5, 2**32 - 1 + l, h, 2**32 - 1 + t).standard_normal(8)
                assert np.array_equal(wide[l, t, h], want)


def test_growth_rows_and_queries_do_not_depend_on_step_count():
    cfg = SynthModelConfig(layers=4, head_dim=8, context_len=16, seed=6,
                           inter_layer_correlation=0.7, heads=2)
    model = generate_model(cfg)
    keys3, values3 = model.grown_arrays(3)
    keys6, values6 = model.grown_arrays(6)
    assert np.array_equal(keys3, keys6[:, :, : 16 + 3])
    assert np.array_equal(values3, values6[:, :, : 16 + 3])
    assert np.array_equal(model.queries(3), model.queries(6)[:3])


def test_generator_golden_digests():
    # Recorded before the generator drew whole layer blocks at once; any
    # change to seeding, draw order or blending changes these bytes.
    cfg = SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=2**40 + 3,
                           inter_layer_correlation=0.6, heads=2)
    model = generate_model(cfg)
    keys, values = model.grown_arrays(4)
    assert hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest() == (
        "39801925e44cf31ce449d7eaa5bf63330e62c71205143489aaf03456b36c7635"
    )
    assert hashlib.sha256(model.queries(4).tobytes()).hexdigest() == (
        "2a1cdae3956c81cd42c49e9f69689847140e60a438f5ea23c5583542039bc3cb"
    )


@pytest.mark.parametrize("rho, digest", [
    (0.0, "4249ce7907df7b9416c26819301682cdbda878f824e5255fac44d714b09bd219"),
    (1.0, "e8f30bb50356b7142e296d0f4c66c8abc8d1dea6c3575ced2559027356a476c0"),
])
def test_generator_golden_digests_at_the_ends_of_the_dial(rho, digest):
    # Recorded before the base caches were built in place by two concurrent
    # chains: rho 0 blends pure noise, rho 1 copies each layer exactly.
    cfg = SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=2**40 + 3,
                           inter_layer_correlation=rho, heads=2)
    keys, values = generate_model(cfg).grown_arrays(4)
    assert hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest() == digest


def test_models_built_at_once_from_four_threads_match_one_built_alone():
    cfg = SynthModelConfig(layers=4, head_dim=16, context_len=512, seed=9,
                           inter_layer_correlation=0.7, heads=2)
    want = generate_model(cfg).grown_arrays(3)
    barrier = threading.Barrier(4)
    results, errors = {}, []

    def build(i):
        try:
            barrier.wait(timeout=30)
            results[i] = generate_model(cfg).grown_arrays(3)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert errors == [] and sorted(results) == [0, 1, 2, 3]
    for keys, values in results.values():
        assert np.array_equal(keys, want[0]) and np.array_equal(values, want[1])


# --- one growable, checked-once buffer per model ---

_BUFFER = SynthModelConfig(layers=3, head_dim=8, context_len=16, seed=2**40 + 3,
                           inter_layer_correlation=0.6, heads=2)


def test_grown_arrays_are_read_only_views_of_one_buffer():
    model = generate_model(_BUFFER)
    keys2, values2 = model.grown_arrays(2)
    keys5, values5 = model.grown_arrays(5)
    assert np.shares_memory(keys2, keys5) and np.shares_memory(values2, values5)
    for arr in (keys2, values2, keys5, values5):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        keys5[0, 0, 0, 0] = 1.0
    cache = model.cache_at(2, 4)
    assert np.shares_memory(cache.keys, keys5) and np.shares_memory(cache.values, values5)


def test_growing_past_capacity_leaves_earlier_arrays_unchanged():
    model = generate_model(_BUFFER)
    keys, values = model.grown_arrays(3)
    before = keys.copy(), values.copy()
    big_keys, big_values = model.grown_arrays(_SPARE_ROWS * 3 + 1)
    assert not np.shares_memory(keys, big_keys)  # the buffer was reallocated
    assert np.array_equal(keys, before[0]) and np.array_equal(values, before[1])
    n = _BUFFER.context_len + 3
    assert np.array_equal(big_keys[:, :, :n], keys) and np.array_equal(big_values[:, :, :n], values)
    fresh_keys, fresh_values = generate_model(_BUFFER).grown_arrays(_SPARE_ROWS * 3 + 1)
    assert np.array_equal(big_keys, fresh_keys) and np.array_equal(big_values, fresh_values)


def test_non_finite_growth_rows_are_rejected_when_stored(monkeypatch):
    model = generate_model(_BUFFER)
    keys, _ = model.grown_arrays(2)
    real = synthetic._fresh_rows

    def poisoned(seed, stream, layer, first, stop, heads, d):
        rows = real(seed, stream, layer, first, stop, heads, d)
        rows[-1, -1, 0] = np.nan
        return rows

    monkeypatch.setattr(synthetic, "_fresh_rows", poisoned)
    with pytest.raises(NumericInputError):
        model.grown_arrays(4)
    with pytest.raises(NumericInputError):  # nothing was stored, so the rows are drawn again
        model.grown_arrays(3)
    monkeypatch.undo()
    # The failed call stored nothing a view covers; the model still grows correctly.
    want = generate_model(_BUFFER).grown_arrays(4)
    got = model.grown_arrays(4)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(keys, want[0][:, :, : _BUFFER.context_len + 2])


class _PoisonedDraws:
    """A generator whose draws are the real ones with one entry set to NaN."""

    def __init__(self, gen):
        self.gen = gen

    def standard_normal(self, *args, **kwargs):
        rows = self.gen.standard_normal(*args, **kwargs)
        rows[-1, -1] = np.nan
        return rows


@pytest.mark.parametrize("stream", [_S_KEYS, _S_VALUES], ids=["keys-chain", "values-chain"])
@pytest.mark.parametrize("layer", [0, _BUFFER.layers - 1])
def test_non_finite_base_rows_are_rejected_at_construction(monkeypatch, stream, layer):
    # Keys are built on the caller's thread and values on a worker thread;
    # either chain's failure reaches the caller, and no thread is left over.
    def poisoned(seed, *key):
        gen = _rng(seed, *key)
        return _PoisonedDraws(gen) if key == (stream, layer, 1) else gen

    threads = threading.active_count()
    monkeypatch.setattr(synthetic, "_rng", poisoned)
    with pytest.raises(NumericInputError, match="non-finite"):
        generate_model(_BUFFER)
    assert threading.active_count() == threads
    monkeypatch.undo()
    generate_model(_BUFFER)
    assert threading.active_count() == threads


def test_propagate_rejects_a_non_finite_output_row():
    model = generate_model(_BUFFER)
    outputs = np.ones((_BUFFER.layers, _BUFFER.heads, _BUFFER.head_dim))
    outputs[1, 1, 2] = np.inf
    with pytest.raises(NumericInputError):
        model.propagate(outputs, 0)


def test_a_buffer_that_does_not_fit_in_memory_is_invalid_input(monkeypatch, tmp_path):
    model = generate_model(_BUFFER)

    def refuse(shape):
        raise MemoryError(f"cannot allocate an array of shape {shape}")

    monkeypatch.setattr(synthetic, "_CheckedRows", refuse)
    with pytest.raises(InvalidInputError, match=re.escape(f"(3, 2, {16 + _SPARE_ROWS}, 8)")):
        generate_model(_BUFFER)
    # Growing past capacity reallocates, so it is refused the same way and stores nothing.
    with pytest.raises(InvalidInputError, match="does not fit in memory"):
        model.grown_arrays(_SPARE_ROWS + 1)
    assert main(["gen-traces", "--layers", "3", "--ctx", "16", "--head-dim", "8", "--steps", "2",
                 "--k", "4", "--out", str(tmp_path / "trace.json")]) == 2
    monkeypatch.undo()
    want = generate_model(_BUFFER).grown_arrays(_SPARE_ROWS + 1)
    got = model.grown_arrays(_SPARE_ROWS + 1)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_cache_at_does_not_rescan_checked_rows(monkeypatch):
    model = generate_model(_BUFFER)
    keys, values = model.grown_arrays(3)
    scans = []
    real = np.isfinite

    def counting(x, *args, **kwargs):
        scans.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    model.cache_at(1, 2)
    assert scans == []
    # A cache built from the caller's own arrays is still copied and scanned.
    LayerKvCache(keys=np.array(keys[1, 1]), values=np.array(values[1, 1]))
    assert len(scans) == 2


def test_sensitivity_profile_allocates_no_copy_of_the_base_cache():
    cfg = SynthModelConfig(layers=4, head_dim=32, context_len=4096, seed=3,
                           inter_layer_correlation=0.8, heads=2)
    model = generate_model(cfg)
    base_bytes = 2 * cfg.layers * cfg.heads * cfg.context_len * cfg.head_dim * 8

    def peak_bytes(probe, *args):
        tracemalloc.start()
        try:
            probe(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(sensitivity_profile, model, 2, 64) < base_bytes / 2
    # The table pass over every step of a trace shares the caches the same way.
    assert peak_bytes(sensitivity_table, model, run_full_trace(model, 3, 64)) < base_bytes / 2


def _no_draws(*args):
    raise AssertionError(f"growth rows drawn again: {args}")


def test_concurrent_growth_matches_a_fresh_model(monkeypatch):
    top = _SPARE_ROWS * 4
    want = generate_model(_BUFFER).grown_arrays(top)
    requests = (5, top, 1, _SPARE_ROWS + 3, _SPARE_ROWS * 2, 9, top - 1, 40)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            model = generate_model(_BUFFER)
            results, errors = [], []

            def grow(steps):
                try:
                    results.append((steps, model.grown_arrays(steps)))
                except Exception as exc:  # reported below, with the thread's request
                    errors.append((steps, exc))

            threads = [threading.Thread(target=grow, args=(s,)) for s in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert errors == [] and len(results) == len(requests)
            for steps, (keys, values) in results:
                n = _BUFFER.context_len + steps
                assert np.array_equal(keys, want[0][:, :, :n])
                assert np.array_equal(values, want[1][:, :, :n])
            # No lost update: every requested row is held, so nothing is drawn again.
            monkeypatch.setattr(synthetic, "_fresh_rows", _no_draws)
            model.grown_arrays(top)
            monkeypatch.undo()
    finally:
        sys.setswitchinterval(switch)


def test_arrays_beyond_numpys_maximum_size_are_invalid_input():
    # Each shape holds more than 2**63 bytes, which numpy refuses outright.
    with pytest.raises(InvalidInputError, match="maximum size"):
        generate_model(SynthModelConfig(layers=2**40, heads=2**20, head_dim=1024, context_len=2))
    model = generate_model(_BUFFER)
    for call in (model.queries, model.grown_arrays):
        with pytest.raises(InvalidInputError, match="maximum size"):
            call(2**60)
    # The refused growth drew and stored nothing.
    want = generate_model(_BUFFER).grown_arrays(3)
    got = model.grown_arrays(3)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
