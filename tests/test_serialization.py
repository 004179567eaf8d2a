import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from layerreuse import (
    InvalidInputError,
    SensitivityReport,
    SynthModelConfig,
    build_similarity_matrix,
    dp_optimize,
    generate_model,
    hybrid_decode,
    read_json,
    read_policy,
    read_run_result,
    read_sensitivity_report,
    read_similarity_matrix,
    read_trace,
    run_full_trace,
    sensitivity_table,
    static_jump_policy,
    write_policy,
    write_run_result,
    write_sensitivity_report,
    write_similarity_matrix,
    write_trace,
)
from layerreuse import formats
from layerreuse.cli import main
from conftest import TornFile, random_similarity_matrix

CFG = SynthModelConfig(layers=4, head_dim=16, context_len=40, seed=9,
                       inter_layer_correlation=0.7, heads=2)


@pytest.fixture(scope="module")
def trace():
    model = generate_model(CFG)
    trace = run_full_trace(model, 3, 8, 4)
    return dataclasses.replace(trace, sensitivity=sensitivity_table(model, trace))


def test_trace_round_trip(tmp_path, trace):
    path = str(tmp_path / "trace.json")
    write_trace(trace, path)
    assert os.path.exists(tmp_path / "trace.queries.bin")
    assert os.path.exists(tmp_path / "trace.outputs.bin")
    assert os.path.exists(tmp_path / "trace.sensitivity.bin")
    back = read_trace(path)
    assert back.config == trace.config
    assert back.budget == trace.budget
    assert back.block_size == trace.block_size
    assert np.array_equal(back.queries, trace.queries)
    assert np.array_equal(back.outputs, trace.outputs)
    assert back.topk == trace.topk
    assert back.blocks == trace.blocks
    assert back.sensitivity.tobytes() == trace.sensitivity.tobytes()
    assert not back.sensitivity.flags.writeable


def test_trace_without_its_sensitivity_table_is_not_written(tmp_path, trace):
    with pytest.raises(InvalidInputError, match="sensitivity table"):
        write_trace(dataclasses.replace(trace, sensitivity=None), str(tmp_path / "trace.json"))
    assert os.listdir(tmp_path) == []


def test_trace_rewrite_is_byte_identical(tmp_path, trace):
    # The JSON embeds the sidecar names, so identity holds per path.
    path = str(tmp_path / "a.json")
    write_trace(trace, path)
    first = Path(path).read_bytes()
    first_queries = (tmp_path / "a.queries.bin").read_bytes()
    write_trace(trace, path)
    assert Path(path).read_bytes() == first
    assert (tmp_path / "a.queries.bin").read_bytes() == first_queries


def test_trace_sidecar_length_is_checked(tmp_path, trace):
    path = str(tmp_path / "trace.json")
    write_trace(trace, path)
    raw = (tmp_path / "trace.queries.bin").read_bytes()
    (tmp_path / "trace.queries.bin").write_bytes(raw[:-8])
    with pytest.raises(InvalidInputError):
        read_trace(path)


def test_trace_rejects_empty_steps(tmp_path, trace):
    path = str(tmp_path / "trace.json")
    write_trace(trace, path)
    doc = read_json(path)
    doc["steps"] = []
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError):
        read_trace(path)


def test_version_and_kind_rejection(tmp_path, trace):
    path = str(tmp_path / "trace.json")
    write_trace(trace, path)

    doc = read_json(path)
    doc["version"] = "2.0"
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError):
        read_trace(path)

    # minor bumps within the same major are accepted
    doc["version"] = "1.7"
    Path(path).write_text(json.dumps(doc))
    read_trace(path)

    doc["kind"] = "similarity-matrix"
    Path(path).write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError):
        read_trace(path)


def test_similarity_matrix_round_trip(tmp_path):
    m = random_similarity_matrix(np.random.default_rng(4), 6)
    path = str(tmp_path / "matrix.json")
    write_similarity_matrix(m, path)
    back = read_similarity_matrix(path)
    assert np.array_equal(back.values, m.values)
    assert back.budget == m.budget
    assert back.sha256() == m.sha256()
    write_similarity_matrix(back, str(tmp_path / "again.json"))
    assert Path(path).read_bytes() == (tmp_path / "again.json").read_bytes()


def test_similarity_matrix_csv_rows(tmp_path):
    m = random_similarity_matrix(np.random.default_rng(4), 5)
    path = str(tmp_path / "m.json")
    write_similarity_matrix(m, path)
    out_dir = str(tmp_path / "report")
    assert main(["report", path, "--out-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "m.heatmap.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["target", "source", "overlap"]
    rows = rows[1:]
    assert len(rows) == 5 * 6 // 2
    assert rows[0] == ["0", "0", "1"]
    for j, i, v in rows:
        assert int(i) <= int(j)
        assert v == f"{m.values[int(j), int(i)]:.12g}"


def test_sensitivity_round_trip_with_nan(tmp_path):
    table = np.array([[0.25, math.nan], [0.5, 0.75], [0.125, 1.0]])
    report = SensitivityReport.of_table(table, 8)
    assert report.steps == 3
    assert report.rnmse[0] == (0.25 + 0.5 + 0.125) / 3 and report.max_rnmse[0] == 0.5
    path = str(tmp_path / "sens.json")
    write_sensitivity_report(report, path)
    assert b"NaN" not in Path(path).read_bytes()  # encoded as null, valid JSON
    back = read_sensitivity_report(path)
    assert back.budget == 8 and back.steps == 3
    assert back.rnmse[0] == report.rnmse[0] and back.max_rnmse[0] == 0.5
    assert math.isnan(back.rnmse[1]) and math.isnan(back.max_rnmse[1])


def test_policy_round_trip(tmp_path):
    m = random_similarity_matrix(np.random.default_rng(12), 7)
    policy = dp_optimize(m, 0.45)
    path = str(tmp_path / "policy.json")
    write_policy(policy, path)
    doc = read_json(path)
    # Full layers serialize their source as null
    for j, src in enumerate(doc["sources"]):
        if doc["actions"][j] == "full":
            assert src is None
        else:
            assert isinstance(src, int)
    back = read_policy(path)
    assert back == policy


def test_policy_without_theta_round_trips(tmp_path):
    policy = static_jump_policy(6, 2)
    path = str(tmp_path / "jump.json")
    write_policy(policy, path)
    back = read_policy(path)
    assert back == policy
    assert back.theta is None and back.matrix_hash is None


def test_run_result_document(tmp_path):
    model = generate_model(CFG)
    trace = run_full_trace(model, 2, 8)
    policy = dp_optimize(build_similarity_matrix(trace), 0.5)
    run = hybrid_decode(model, policy, 8, 2)
    path = str(tmp_path / "run.json")
    write_run_result(run, path, manifest_hash="cafe")
    doc = read_run_result(path)
    assert doc["kind"] == "decode-run"
    assert doc["manifest"] == "cafe"
    assert doc["theta"] == 0.5
    assert doc["policyHash"] == policy.sha256()
    assert doc["budget"] == 8 and doc["blockSize"] == 1 and doc["steps"] == 2
    counters = doc["counters"]
    assert counters["fullLayers"] == policy.full_count
    assert counters["reuseLayers"] == CFG.layers - policy.full_count
    assert counters["fullScoreComputationsPerStep"] == [policy.full_count] * 2
    assert counters["reuseFullScans"] == 0
    assert len(counters["reuseGatheredRows"]) == 2
    fid = doc["fidelity"]
    assert fid["aggregateRnmse"] == run.fidelity.aggregate
    assert fid["perLayerRnmse"] == list(run.fidelity.per_layer)
    assert len(fid["perStepLayerRnmse"]) == 2


def test_manifest_hash_is_embedded(tmp_path):
    m = random_similarity_matrix(np.random.default_rng(2), 4)
    path = str(tmp_path / "m.json")
    write_similarity_matrix(m, path, manifest_hash="deadbeef")
    doc = read_json(path)
    assert doc["manifest"] == "deadbeef"
    # the embedded manifest hash does not disturb reading
    back = read_similarity_matrix(path)
    assert back.sha256() == m.sha256()


def test_canonical_json_is_sorted_and_compact(tmp_path):
    m = random_similarity_matrix(np.random.default_rng(2), 3)
    path = str(tmp_path / "m.json")
    write_similarity_matrix(m, path)
    raw = Path(path).read_bytes()
    assert raw.endswith(b"\n")
    assert b": " not in raw and b", " not in raw
    doc = json.loads(raw)
    assert list(doc.keys()) == sorted(doc.keys())


def _sensitivity_doc(path):
    report = SensitivityReport(budget=4, steps=2, rnmse=np.array([0.5, 0.25]), max_rnmse=np.array([0.75, 0.5]))
    write_sensitivity_report(report, path)
    return read_sensitivity_report


# Artifacts that no CLI command reads; test_cli covers the ones that one does.
_REQUIRED = [
    *[(_sensitivity_doc, (key,)) for key in ("budget", "steps", "layers")],
    *[(_sensitivity_doc, ("layers", 1, key)) for key in ("rnmse", "maxRnmse")],
]


@pytest.mark.parametrize(
    "make,path", _REQUIRED,
    ids=[f"{m.__name__[1:]}:{'.'.join(map(str, p))}" for m, p in _REQUIRED],
)
def test_reader_rejects_missing_required_key(tmp_path, make, path):
    target = str(tmp_path / "artifact.json")
    reader = make(target)
    doc = read_json(target)
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    del parent[path[-1]]
    with open(target, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(InvalidInputError, match=str(path[-1])):
        reader(target)


_MISTYPED = [
    (_sensitivity_doc, ("budget",), 4.0),
    (_sensitivity_doc, ("layers",), {"rnmse": 0.5, "maxRnmse": 0.75}),
    (_sensitivity_doc, ("steps",), None),
    (_sensitivity_doc, ("layers", 1, "rnmse"), "0.5"),
]


@pytest.mark.parametrize(
    "make,path,value", _MISTYPED,
    ids=[f"{m.__name__[1:]}:{'.'.join(map(str, p))}={v!r}" for m, p, v in _MISTYPED],
)
def test_reader_rejects_wrongly_typed_value(tmp_path, make, path, value):
    target = str(tmp_path / "artifact.json")
    reader = make(target)
    doc = read_json(target)
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = value
    with open(target, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(InvalidInputError, match=str(path[-1])):
        reader(target)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "make,path", [(_sensitivity_doc, ("layers", 1, "maxRnmse"))], ids=["sensitivity:maxRnmse"],
)
def test_reader_rejects_non_finite_number(tmp_path, make, path, literal):
    # No CLI command reads this kind, so the reader is checked directly.
    target = str(tmp_path / "artifact.json")
    reader = make(target)
    doc = read_json(target)
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = "@non-finite@"
    with open(target, "w") as fh:
        fh.write(json.dumps(doc).replace('"@non-finite@"', literal))
    with pytest.raises(InvalidInputError, match=f"{path[-1]} must be a finite number"):
        reader(target)


def test_failed_rewrite_keeps_earlier_artifact_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "m.json")
    write_similarity_matrix(random_similarity_matrix(np.random.default_rng(2), 4), path)
    before = Path(path).read_bytes()
    monkeypatch.setattr(formats, "open", lambda *a, **kw: TornFile(open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        write_similarity_matrix(random_similarity_matrix(np.random.default_rng(3), 4), path)
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["m.json"]


def test_failed_trace_write_leaves_no_partial_sidecar(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(formats, "open", lambda *a, **kw: TornFile(open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        write_trace(trace, str(tmp_path / "t.json"))
    assert os.listdir(tmp_path) == []
