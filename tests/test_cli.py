import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import TornFile, random_similarity_matrix, rewrite_sidecar
from layerreuse import (
    Action,
    LayerPolicy,
    SynthModelConfig,
    cli,
    dp_optimize,
    formats,
    generate_model,
    hybrid_decode,
    read_json,
    read_policy,
    read_similarity_matrix,
    read_trace,
    static_jump_policy,
    write_policy,
    write_similarity_matrix,
)
from layerreuse._canon import payload_hash
from layerreuse.cli import main

MODEL_FLAGS = ["--layers", "5", "--ctx", "24", "--head-dim", "8",
               "--rho", "0.9", "--seed", "17"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pipeline in a shared directory."""
    root = tmp_path_factory.mktemp("pipeline")
    trace = str(root / "trace.json")
    matrix = str(root / "similarity.json")
    sens = str(root / "sensitivity.json")
    policy = str(root / "policy.json")
    run = str(root / "run.json")
    bench = str(root / "bench.csv")
    assert main(["gen-traces", *MODEL_FLAGS, "--steps", "2", "--k", "6",
                 "--out", trace]) == 0
    assert main(["profile", "--trace", trace, "--out-matrix", matrix,
                 "--out-sensitivity", sens]) == 0
    assert main(["plan", "--matrix", matrix, "--theta", "0.5",
                 "--out", policy]) == 0
    assert main(["decode", *MODEL_FLAGS, "--policy", policy, "--budget", "6",
                 "--steps", "2", "--out", run]) == 0
    assert main(["bench", "--policy", policy,
                 "--lengths", "8192,16384,30720,61440", "--budget", "256",
                 "--out", bench]) == 0
    return root


def test_pipeline_artifacts_exist(pipeline):
    for name in ("trace.json", "trace.queries.bin", "trace.outputs.bin", "trace.sensitivity.bin",
                 "similarity.json", "sensitivity.json", "policy.json",
                 "run.json", "bench.csv"):
        assert (pipeline / name).exists()
    for name in ("trace.json", "similarity.json", "policy.json", "run.json",
                 "bench.csv"):
        assert (pipeline / f"{name}.manifest.json").exists()


def test_manifest_hash_matches_embedded(pipeline):
    manifest = read_json(str(pipeline / "policy.json.manifest.json"))
    wall = manifest.pop("wallTimeSeconds")
    assert wall >= 0.0
    assert read_json(str(pipeline / "policy.json"))["manifest"] == payload_hash(manifest)
    assert manifest["kind"] == "run-manifest"
    assert manifest["command"] == "plan"
    assert manifest["inputs"] == ["similarity.json"]


def _refuse_non_finite(literal):
    raise AssertionError(f"an artifact holds {literal}, which no reader accepts")


def test_the_chain_writes_the_same_bytes_in_another_directory(tmp_path, monkeypatch):
    # Run once with absolute paths into a/, once from inside b/ with bare names.
    chain = [
        ["gen-traces", *MODEL_FLAGS, "--steps", "2", "--k", "6", "--out", "{d}trace.json"],
        ["profile", "--trace", "{d}trace.json", "--out-matrix", "{d}similarity.json",
         "--out-sensitivity", "{d}sensitivity.json"],
        ["plan", "--matrix", "{d}similarity.json", "--theta", "0.5", "--out", "{d}policy.json"],
        ["decode", *MODEL_FLAGS, "--policy", "{d}policy.json", "--budget", "6", "--steps", "2",
         "--out", "{d}run.json"],
        ["bench", "--policy", "{d}policy.json", "--lengths", "1024", "--out", "{d}bench.csv"],
        ["report", "{d}similarity.json", "{d}policy.json", "{d}run.json", "--out-dir", "{d}report"],
    ]
    written = []
    for root, prefix in ((tmp_path / "a", f"{tmp_path / 'a'}{os.sep}"), (tmp_path / "b", "")):
        root.mkdir()
        monkeypatch.chdir(root)
        for argv in chain:
            assert main([arg.format(d=prefix) for arg in argv]) == 0
        files = {}
        for path in filter(Path.is_file, root.rglob("*")):
            content = path.read_bytes()
            if path.suffix == ".json":
                json.loads(content, parse_constant=_refuse_non_finite)
            if path.name.endswith(".manifest.json"):
                # Wall time is the one field a manifest may change between runs.
                content = {**json.loads(content), "wallTimeSeconds": None}
            files[str(path.relative_to(root))] = content
        written.append(files)
    assert written[0] == written[1]
    assert "report/policies.md" in written[0] and "run.json.manifest.json" in written[0]


def test_gen_traces_applies_flags_and_defaults(pipeline):
    trace = read_trace(str(pipeline / "trace.json"))
    assert trace.config.layers == 5
    assert trace.config.context_len == 24
    assert trace.config.seed == 17
    assert trace.config.heads == 1  # untouched default
    assert trace.budget == 6
    assert trace.steps == 2


def test_rerun_is_byte_identical(pipeline, tmp_path):
    # Re-running with identical arguments (paths included, since the manifest
    # hash covers them) overwrites every artifact with the same bytes.
    trace = str(pipeline / "trace.json")
    before = {
        name: (pipeline / name).read_bytes()
        for name in ("trace.json", "trace.queries.bin", "similarity.json")
    }
    assert main(["gen-traces", *MODEL_FLAGS, "--steps", "2", "--k", "6",
                 "--out", trace]) == 0
    assert main(["profile", "--trace", trace,
                 "--out-matrix", str(pipeline / "similarity.json"),
                 "--out-sensitivity", str(pipeline / "sensitivity.json")]) == 0
    for name, raw in before.items():
        assert (pipeline / name).read_bytes() == raw

    # A different output path changes only the embedded manifest hash.
    matrix2 = str(tmp_path / "similarity.json")
    assert main(["profile", "--trace", trace, "--out-matrix", matrix2,
                 "--out-sensitivity", str(tmp_path / "sensitivity.json")]) == 0
    a = read_json(matrix2)
    b = read_json(str(pipeline / "similarity.json"))
    assert a.pop("manifest") != b.pop("manifest")
    assert a == b


def test_default_seed_is_zero(tmp_path):
    out = str(tmp_path / "t.json")
    assert main(["gen-traces", "--layers", "2", "--ctx", "8", "--head-dim", "4",
                 "--steps", "1", "--k", "2", "--out", out]) == 0
    assert read_trace(out).config.seed == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = str(tmp_path / "config.json")
    Path(cfg_path).write_text(json.dumps({"layers": 3, "seed": 7, "contextLen": 16, "headDim": 4}))
    out = str(tmp_path / "t.json")
    assert main(["gen-traces", "--config", cfg_path, "--seed", "3",
                 "--steps", "1", "--k", "2", "--out", out]) == 0
    trace = read_trace(out)
    assert trace.config.layers == 3  # from the config file
    assert trace.config.seed == 3  # the flag wins


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg_path = str(tmp_path / "config.json")
    Path(cfg_path).write_text(json.dumps({"layer_count": 3}))
    code = main(["gen-traces", "--config", cfg_path,
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "layer_count" in capsys.readouterr().err


def test_out_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("LAYERREUSE_OUT_DIR", str(tmp_path / "outputs"))
    os.makedirs(tmp_path / "outputs")
    assert main(["gen-traces", "--layers", "2", "--ctx", "8", "--head-dim", "4",
                 "--steps", "1", "--k", "2"]) == 0
    assert (tmp_path / "outputs" / "trace.json").exists()


# --- exit codes ---


def test_invalid_rho_exits_2(tmp_path, capsys):
    code = main(["gen-traces", "--rho", "1.5", "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_json_exits_2(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    Path(bad).write_text("{not json")
    assert main(["profile", "--trace", bad]) == 2


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["profile", "--trace", str(tmp_path / "nope.json")]) == 3
    assert "io error:" in capsys.readouterr().err


def test_wrong_artifact_kind_exits_2(pipeline, capsys):
    assert main(["plan", "--matrix", str(pipeline / "trace.json"),
                 "--theta", "0.5", "--out", "/tmp/unused.json"]) == 2


def test_empty_lengths_exits_2(pipeline, tmp_path, capsys):
    code = main(["bench", "--policy", str(pipeline / "policy.json"),
                 "--lengths", ",", "--out", str(tmp_path / "b.csv")])
    assert code == 2


def test_bad_theta_exits_2(pipeline, tmp_path):
    assert main(["plan", "--matrix", str(pipeline / "similarity.json"),
                 "--theta", "1.5", "--out", str(tmp_path / "p.json")]) == 2


def test_half_specified_block_mode_exits_2(pipeline, tmp_path):
    args = ["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"),
            "--steps", "1", "--out", str(tmp_path / "r.json")]
    assert main([*args, "--block-size", "4"]) == 2  # budget missing
    assert main([*args, "--block-size", "4", "--budget", "2"]) == 0


@pytest.mark.parametrize("k", ["0", "25"])
def test_gen_traces_k_outside_the_context_exits_2(tmp_path, capsys, k):
    out = tmp_path / "trace.json"
    assert main(["gen-traces", *MODEL_FLAGS, "--steps", "1", "--k", k, "--out", str(out)]) == 2
    assert "budget must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_block_size_past_int64_exits_0(pipeline, tmp_path):
    # A block at least as wide as the cache is one block, whatever the width's integer type.
    width = "99999999999999999999"
    assert main(["gen-traces", *MODEL_FLAGS, "--steps", "1", "--k", "2", "--block-size", width,
                 "--out", str(tmp_path / "trace.json")]) == 0
    assert main(["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"), "--steps", "1",
                 "--block-size", width, "--budget", "2", "--out", str(tmp_path / "r.json")]) == 0


def test_logit_scale_past_the_float_range_exits_2(pipeline, tmp_path, capsys):
    assert main(["decode", "--layers", "5", "--heads", "2", "--head-dim", "8", "--ctx", "24", "--seed", "3",
                 "--rho", "0.8", "--logit-scale", "1e308", "--policy", str(pipeline / "policy.json"),
                 "--budget", "2", "--out", str(tmp_path / "r.json")]) == 2
    assert "logit_scale" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_token_mode_without_budget_exits_2(pipeline, tmp_path):
    assert main(["decode", *MODEL_FLAGS, "--policy",
                 str(pipeline / "policy.json"), "--steps", "1",
                 "--out", str(tmp_path / "r.json")]) == 2


# --- behavior details ---


def test_plan_theta_extremes(tmp_path):
    # Needs a mid-rho model so overlaps sit strictly between 0 and 1.
    trace = str(tmp_path / "trace.json")
    matrix = str(tmp_path / "similarity.json")
    assert main(["gen-traces", "--layers", "5", "--ctx", "32", "--head-dim", "8",
                 "--rho", "0.4", "--seed", "2", "--steps", "2", "--k", "6",
                 "--out", trace]) == 0
    assert main(["profile", "--trace", trace, "--out-matrix", matrix,
                 "--out-sensitivity", str(tmp_path / "s.json")]) == 0
    low = str(tmp_path / "low.json")
    high = str(tmp_path / "high.json")
    assert main(["plan", "--matrix", matrix, "--theta", "0.0", "--out", low]) == 0
    assert main(["plan", "--matrix", matrix, "--theta", "1.0", "--out", high]) == 0
    assert read_policy(low).full_count == 1
    assert read_policy(high).full_count == 5


def test_negative_zero_writes_the_same_bytes_as_zero(pipeline, tmp_path):
    # -0.0 is 0.0 to every check, so it must be 0.0 in the policy, the config and the manifest hash too.
    for zero in ("-0", "0"):
        assert main(["plan", "--matrix", str(pipeline / "similarity.json"), "--theta", zero,
                     "--out", str(tmp_path / zero / "policy.json")]) == 0
        assert main(["gen-traces", "--layers", "3", "--ctx", "8", "--head-dim", "4", "--rho", zero,
                     "--steps", "1", "--k", "2", "--out", str(tmp_path / zero / "trace.json")]) == 0
    for name in ("policy.json", "trace.json"):
        assert (tmp_path / "-0" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()


def test_profile_refuses_one_path_for_both_outputs(pipeline, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["profile", "--trace", str(pipeline / "trace.json"),
                 "--out-matrix", out, "--out-sensitivity", out]) == 2
    assert out in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# The context holds 24 tokens: 24 units at block size 1 and 6 blocks at block size 4.
@pytest.mark.parametrize("block_size, budget, warned", [(1, 999, True), (1, 24, False),
                                                        (4, 1000, True), (4, 7, True), (4, 6, False)])
def test_decode_clamp_warning(pipeline, tmp_path, capsys, block_size, budget, warned):
    code = main(["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"),
                 "--budget", str(budget), "--steps", "1", "--block-size", str(block_size),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert ("clamping" in capsys.readouterr().err) == warned


def test_bench_csv_speedup_grows_with_context(pipeline):
    with open(pipeline / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["contextLen"]) for r in rows] == [8192, 16384, 30720, 61440]
    speedups = [float(r["predictedSpeedup"]) for r in rows]
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
    assert len({r["manifest"] for r in rows}) == 1


def test_report_heatmap_and_policies(pipeline, tmp_path):
    out_dir = str(tmp_path / "report")
    assert main(["report", str(pipeline / "similarity.json"),
                 str(pipeline / "policy.json"), "--out-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "similarity.heatmap.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["target", "source", "overlap"]
    assert len(rows) == 1 + 5 * 6 // 2
    # Every (target, source) pair of the lower triangle appears once, with the matrix's value.
    matrix = read_similarity_matrix(str(pipeline / "similarity.json"))
    pairs = [(int(j), int(i)) for j, i, _ in rows[1:]]
    assert sorted(pairs) == [(j, i) for j in range(5) for i in range(j + 1)]
    for j, i, value in rows[1:]:
        assert value == f"{matrix.values[int(j), int(i)]:.12g}"
    text = Path(out_dir, "policies.md").read_text()
    assert "policy.json" in text
    assert "| policy | layers | theta | fullCount | cumSimilarity |" in text


def test_report_theta_sweep(pipeline, tmp_path):
    out_dir = str(tmp_path / "sweep")
    runs = []
    for theta in ("0.3", "0.7"):
        pol = str(tmp_path / f"p{theta}.json")
        run = str(tmp_path / f"r{theta}.json")
        assert main(["plan", "--matrix", str(pipeline / "similarity.json"),
                     "--theta", theta, "--out", pol]) == 0
        assert main(["decode", *MODEL_FLAGS, "--policy", pol, "--budget", "6",
                     "--steps", "1", "--out", run]) == 0
        runs.append(run)
    assert main(["report", *runs, "--out-dir", out_dir]) == 0
    with open(os.path.join(out_dir, "theta_sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["theta"]) for r in rows] == [0.3, 0.7]
    for run in runs:
        stem = os.path.splitext(os.path.basename(run))[0]
        assert os.path.exists(os.path.join(out_dir, f"{stem}.rnmse.csv"))


def test_report_rejects_unknown_kind(pipeline, tmp_path, capsys):
    assert main(["report", str(pipeline / "sensitivity.json"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "unsupported artifact kind" in capsys.readouterr().err


# (artifact, key path removed, command reading it); {src} is the broken copy.
_READERS = {
    "trace.json": ["profile", "--trace", "{src}", "--out-dir", "{out}"],
    "similarity.json": ["plan", "--matrix", "{src}", "--theta", "0.5", "--out-dir", "{out}"],
    "policy.json": ["bench", "--policy", "{src}", "--lengths", "1024", "--out-dir", "{out}"],
    "run.json": ["report", "{src}", "--out-dir", "{out}"],
}
_REQUIRED = [
    *[("trace.json", (key,)) for key in ("config", "budget", "blockSize", "tensors")],
    *[("trace.json", ("config", key)) for key in
      ("layers", "headDim", "contextLen", "seed", "interLayerCorrelation", "heads")],
    ("trace.json", ("tensors", "queries")),
    ("trace.json", ("tensors", "outputs", "shape")),
    ("trace.json", ("tensors", "topk")),
    ("trace.json", ("tensors", "blocks", "shape")),
    *[("similarity.json", (key,)) for key in ("L", "k", "entries")],
    *[("policy.json", (key,)) for key in
      ("L", "theta", "actions", "sources", "fullCount", "cumSimilarity", "matrixHash")],
    *[("run.json", (key,)) for key in
      ("theta", "policyHash", "budget", "blockSize", "steps", "counters", "fidelity")],
    *[("run.json", ("fidelity", key)) for key in
      ("aggregateRnmse", "perLayerRnmse", "perStepLayerRnmse")],
]


@pytest.mark.parametrize(
    "artifact,path", _REQUIRED, ids=[f"{a}:{'.'.join(map(str, p))}" for a, p in _REQUIRED]
)
def test_missing_required_key_exits_2(pipeline, tmp_path, capsys, artifact, path):
    doc = read_json(str(pipeline / artifact))
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    del parent[path[-1]]
    src = tmp_path / artifact
    src.write_text(json.dumps(doc))
    _copy_sidecars(pipeline, tmp_path)
    argv = [arg.format(src=src, out=tmp_path / "out") for arg in _READERS[artifact]]
    assert main(argv) == 2
    assert str(path[-1]) in capsys.readouterr().err


# (artifact, key path, wrongly typed value); config.json is a --config file.
_MISTYPED = [
    ("config.json", ("layers",), "5"),
    ("config.json", ("seed",), True),
    ("trace.json", ("tensors", "queries", "shape"), None),
    ("trace.json", ("tensors", "outputs", "shape"), [2, "5", 1, 8]),
    ("trace.json", ("budget",), "6"),
    ("trace.json", ("config", "seed"), True),
    ("similarity.json", ("entries",), 5),
    ("similarity.json", ("entries", 0), None),
    ("policy.json", ("sources",), {"0": 0}),
    ("policy.json", ("sources", 1), [0]),
    ("policy.json", ("fullCount",), False),
    ("run.json", ("fidelity",), []),
    ("run.json", ("fidelity", "perLayerRnmse"), 5),
    ("run.json", ("fidelity", "perLayerRnmse", 0), [0.1]),
    ("run.json", ("fidelity", "perStepLayerRnmse", 1, 2), True),
    ("run.json", ("fidelity", "perStepLayerRnmse", 1), 5),
    ("run.json", ("counters", "reuseLayers"), "many"),
    ("run.json", ("counters", "fullLayers"), 1.0),
    ("run.json", ("counters", "fullScoreComputationsPerStep", 0), 1.5),
    ("run.json", ("counters", "reuseGatheredRows", 1, 2), "6"),
    ("trace.json", ("tensors", "blocks", "shape", 2), 1.5),
    ("policy.json", ("actions", 0), 1),
]
_CONFIG = {"layers": 5, "headDim": 8, "contextLen": 24, "seed": 17,
           "interLayerCorrelation": 0.9, "heads": 1}


@pytest.mark.parametrize(
    "artifact,path,value", _MISTYPED,
    ids=[f"{a}:{'.'.join(map(str, p))}={v!r}" for a, p, v in _MISTYPED],
)
def test_wrongly_typed_value_exits_2(pipeline, tmp_path, capsys, artifact, path, value):
    if artifact == "config.json":
        doc = dict(_CONFIG)
        argv = ["gen-traces", "--config", "{src}", "--steps", "1", "--k", "2", "--out-dir", "{out}"]
    else:
        doc = read_json(str(pipeline / artifact))
        argv = _READERS[artifact]
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = value
    src = tmp_path / artifact
    src.write_text(json.dumps(doc))
    _copy_sidecars(pipeline, tmp_path)
    assert main([arg.format(src=src, out=tmp_path / "out") for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert [part for part in path if isinstance(part, str)][-1] in err


# (artifact, key path, well-typed but invalid value), each refused with exit 2
# by a validation error. The trace, similarity and policy rows used to reach a
# ValueError inside numpy or the enum; the run.json rows used to be accepted.
_INVALID = [
    ("trace.json", ("tensors", "queries", "shape"), [-2, -5, 1, 8]),
    ("similarity.json", ("L",), -6),  # -6 * -5 / 2 matches the 15 entries of L=5
    ("policy.json", ("actions", 1), "skip"),
    # The pipeline's policy is F R R R R: L, fullCount and sources must restate it.
    ("policy.json", ("L",), 99),
    ("policy.json", ("fullCount",), 2),
    ("policy.json", ("sources", 2), 1),  # layer 1 is a Reuse layer
    ("policy.json", ("theta",), 7.5),
    ("run.json", ("theta",), 5.0),
    ("run.json", ("steps",), -3),
    ("run.json", ("budget",), 0),
    ("run.json", ("blockSize",), 0),
    # The pipeline's run has 2 steps of L = 5 layers; each array must restate them.
    ("run.json", ("steps",), 7),
    ("run.json", ("counters", "reuseLayers"), 9),
    ("run.json", ("counters", "reuseLayers"), -1),
    ("run.json", ("counters", "fullLayers"), 0),
    ("run.json", ("fidelity", "perLayerRnmse"), [0.1, 0.2, 0.3]),
    ("run.json", ("fidelity", "perStepLayerRnmse", 1), [0.1]),
    ("run.json", ("counters", "fullScoreComputationsPerStep"), [1]),
    ("run.json", ("counters", "reuseGatheredRows", 0), [None, 6]),
    ("run.json", ("counters", "reuseGatheredRows"), []),
]


@pytest.mark.parametrize(
    "artifact,path,value", _INVALID,
    ids=[f"{a}:{'.'.join(map(str, p))}={v!r}" for a, p, v in _INVALID],
)
def test_invalid_value_exits_2(pipeline, tmp_path, capsys, artifact, path, value):
    test_wrongly_typed_value_exits_2(pipeline, tmp_path, capsys, artifact, path, value)


_MALFORMED_FILES = {
    "malformed-json": b'{"layers": 5,',
    "non-ascii": '{"layers": 5, "note": "\u00e9"}'.encode("utf-8"),
    "undecodable": '{"layers": 5, "note": "\u00e9"}'.encode("latin-1"),
    "json-array": b"[1, 2, 3]",
}


@pytest.mark.parametrize("command", ["config", "report"])
@pytest.mark.parametrize("content", list(_MALFORMED_FILES), ids=list(_MALFORMED_FILES))
def test_malformed_file_exits_2(tmp_path, capsys, command, content):
    src = tmp_path / "input.json"
    src.write_bytes(_MALFORMED_FILES[content])
    if command == "config":
        argv = ["gen-traces", "--config", str(src), "--steps", "1", "--k", "2",
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["report", str(src), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_on_non_ascii_policy_name_exits_2(pipeline, tmp_path, capsys):
    src = tmp_path / "p\u00f3licy.json"
    src.write_bytes((pipeline / "policy.json").read_bytes())
    assert main(["report", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "ASCII" in capsys.readouterr().err
    assert not (tmp_path / "out" / "policies.md").exists()
    assert not (tmp_path / "out").exists()


def test_non_integer_lengths_exit_2(pipeline, tmp_path, capsys):
    code = main(["bench", "--policy", str(pipeline / "policy.json"),
                 "--lengths", "1024,4k", "--out", str(tmp_path / "b.csv")])
    assert code == 2
    assert "--lengths" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_internal_value_error_exits_4(pipeline, tmp_path, monkeypatch, capsys):
    def broken(matrix, theta):
        raise ValueError("planner bug")

    monkeypatch.setattr(cli, "dp_optimize", broken)
    code = main(["plan", "--matrix", str(pipeline / "similarity.json"),
                 "--theta", "0.5", "--out", str(tmp_path / "p.json")])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal error: ValueError: planner bug")


def test_report_theta_sweep_renders_null_aggregate(pipeline, tmp_path):
    runs = []
    for theta in ("0.7", "0.3"):
        pol = str(tmp_path / f"p{theta}.json")
        run = str(tmp_path / f"r{theta}.json")
        assert main(["plan", "--matrix", str(pipeline / "similarity.json"),
                     "--theta", theta, "--out", pol]) == 0
        assert main(["decode", *MODEL_FLAGS, "--policy", pol, "--budget", "6",
                     "--steps", "1", "--out", run]) == 0
        runs.append(run)
    doc = read_json(runs[1])
    kept = read_json(runs[0])["fidelity"]["aggregateRnmse"]
    doc["fidelity"]["aggregateRnmse"] = None  # a NaN aggregate is written as null
    with open(runs[1], "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    out_dir = tmp_path / "sweep"
    assert main(["report", *runs, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "theta_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["theta", "aggregateRnmse", "run"],
        ["0.3", "", "r0.3.json"],
        ["0.7", f"{kept:.12g}", "r0.7.json"],
    ]


@pytest.mark.parametrize("failing", ["bench.csv", "manifest"])
def test_failed_bench_rewrite_keeps_earlier_files(pipeline, tmp_path, monkeypatch, failing):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--policy", str(pipeline / "policy.json"), "--budget", "64", "--out", str(out)]
    assert main([*argv, "--lengths", "1024"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def torn_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return TornFile(fh) if failing in os.path.basename(path) else fh

    monkeypatch.setattr(formats, "open", torn_open, raising=False)
    assert main([*argv, "--lengths", "2048,4096"]) == 3
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if failing == "bench.csv":
        assert after == before
    else:
        assert set(after) == set(before)
        assert after["bench.csv.manifest.json"] == before["bench.csv.manifest.json"]


def test_report_torn_at_its_second_output_writes_no_report_file(pipeline, tmp_path, monkeypatch):
    # A report's files count as one artifact, so none is written unless all are.
    out = tmp_path / "out"
    argv = ["report", *(str(pipeline / name) for name in ("similarity.json", "run.json", "policy.json")),
            "--out-dir", str(out)]

    def torn_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return TornFile(fh) if os.path.basename(path).startswith(".run.rnmse.csv.") else fh

    monkeypatch.setattr(formats, "open", torn_open, raising=False)
    assert main(argv) == 3
    monkeypatch.undo()
    assert not out.exists() or os.listdir(out) == []


def test_every_file_the_chain_writes_goes_through_write_files(tmp_path, monkeypatch):
    written = []
    write_files = formats.write_files

    def recording(files):
        written.extend(os.path.abspath(path) for path in files)
        write_files(files)

    monkeypatch.setattr(formats, "write_files", recording)
    monkeypatch.setattr(cli, "write_files", recording)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen-traces", *MODEL_FLAGS, "--steps", "2", "--k", "6"],
        ["profile", "--trace", "trace.json"],
        ["plan", "--matrix", "similarity.json", "--theta", "0.5"],
        ["decode", *MODEL_FLAGS, "--policy", "policy.json", "--budget", "6", "--steps", "2"],
        ["bench", "--policy", "policy.json", "--lengths", "1024"],
        ["report", "similarity.json", "policy.json", "run.json", "--out-dir", "report"],
    ):
        assert main(argv) == 0
    files = sorted(str(path) for path in tmp_path.rglob("*") if path.is_file())
    assert len(files) == 20 and sorted(written) == files


# Each command asks for an array of more than 2**63 bytes, which numpy refuses outright.
_TOO_LARGE = {
    "shape": ["gen-traces", "--layers", "1099511627776", "--heads", "1048576",
              "--head-dim", "1024", "--ctx", "2", "--out", "{out}/trace.json"],
    "gen-traces-steps": ["gen-traces", *MODEL_FLAGS, "--steps", str(2**60), "--k", "2",
                         "--out", "{out}/trace.json"],
    "decode-steps": ["decode", *MODEL_FLAGS, "--policy", "{policy}", "--budget", "2",
                     "--steps", str(2**60), "--out", "{out}/run.json"],
}


@pytest.mark.parametrize("case", list(_TOO_LARGE))
def test_array_beyond_numpys_maximum_size_exits_2(pipeline, tmp_path, capsys, case):
    argv = [arg.format(out=tmp_path, policy=pipeline / "policy.json") for arg in _TOO_LARGE[case]]
    assert main(argv) == 2
    assert "maximum size" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# A valid JSON integer too large for a float, where the reader takes a number.
_OVERFLOWING = [
    ("similarity.json", ("entries", 0), 10**400),
    ("policy.json", ("theta",), 10**400),
    ("policy.json", ("cumSimilarity",), -(10**400)),
]


@pytest.mark.parametrize(
    "artifact,path,value", _OVERFLOWING,
    ids=[f"{a}:{'.'.join(map(str, p))}" for a, p, _ in _OVERFLOWING],
)
def test_integer_too_large_for_a_float_exits_2(pipeline, tmp_path, capsys, artifact, path, value):
    test_wrongly_typed_value_exits_2(pipeline, tmp_path, capsys, artifact, path, value)


# Literals json.loads reads as non-finite floats; 1e400 overflows to inf. Writers
# emit NaN as null, so no valid artifact holds one.
_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]
_FINITE_FIELDS = [
    ("policy.json", ("theta",)),
    ("policy.json", ("cumSimilarity",)),
    ("run.json", ("fidelity", "aggregateRnmse")),
    ("run.json", ("fidelity", "perLayerRnmse", 0)),
]


@pytest.mark.parametrize("literal", _NON_FINITE)
@pytest.mark.parametrize(
    "artifact,path", _FINITE_FIELDS,
    ids=[f"{a}:{'.'.join(map(str, p))}" for a, p in _FINITE_FIELDS],
)
def test_non_finite_number_exits_2(pipeline, tmp_path, capsys, artifact, path, literal):
    doc = read_json(str(pipeline / artifact))
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = "@non-finite@"
    src = tmp_path / artifact
    src.write_text(json.dumps(doc).replace('"@non-finite@"', literal))
    assert main([arg.format(src=src, out=tmp_path / "out") for arg in _READERS[artifact]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert [part for part in path if isinstance(part, str)][-1] in err


def _copy_sidecars(pipeline, dest):
    for sidecar in pipeline.glob("trace.*.bin"):
        (dest / sidecar.name).write_bytes(sidecar.read_bytes())


def _write_trace_copy(pipeline, tmp_path, edit):
    """A copy of the pipeline's trace, edited in place by edit(doc), with its sidecars."""
    doc = read_json(str(pipeline / "trace.json"))
    edit(doc)
    src = tmp_path / "trace.json"
    src.write_text(json.dumps(doc))
    _copy_sidecars(pipeline, tmp_path)
    return src


def test_overflowing_sidecar_shape_exits_2(pipeline, tmp_path, capsys):
    # 2**64 elements wrap to 0 in int64, which an empty sidecar used to match.
    def edit(doc):
        doc["tensors"]["queries"]["shape"] = [2**32, 2**32]

    src = _write_trace_copy(pipeline, tmp_path, edit)
    (tmp_path / "trace.queries.bin").write_bytes(b"")
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "expected 147573952589676412928" in capsys.readouterr().err


def _in_a_capped_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI with argv in a child process whose address space is capped at 512 MiB.

    A read that does not stop at the expected length then fails in the child
    with a MemoryError (exit 4), instead of taking the memory of the machine.
    """
    capped = (
        "import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
        "runpy.run_module('layerreuse', run_name='__main__')"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", capped, *argv], capture_output=True, text=True, env=env, timeout=120)


def _profile_in_a_capped_process(trace: Path, out: Path) -> subprocess.CompletedProcess:
    return _in_a_capped_process(["profile", "--trace", str(trace), "--out-dir", str(out)])


# Commands reading a JSON file named by a flag; {src} is the file.
_JSON_INPUTS = {
    "trace": ["profile", "--trace", "{src}"],
    "config": ["gen-traces", "--config", "{src}", "--steps", "1", "--k", "2"],
}


@pytest.mark.parametrize("source", ["/dev/zero", "fifo"])
@pytest.mark.parametrize("flag", list(_JSON_INPUTS))
def test_json_input_that_is_a_device_or_a_pipe_exits_2(tmp_path, flag, source):
    # /dev/zero never ends, and a blocking open of a fifo would wait for a writer.
    if source == "fifo":
        source = tmp_path / "fifo"
        os.mkfifo(source)
    argv = [arg.format(src=source) for arg in _JSON_INPUTS[flag]]
    done = _in_a_capped_process([*argv, "--out-dir", str(tmp_path / "out")])
    assert done.returncode == 2, done.stderr
    assert f"{source}: not an ASCII JSON file" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sidecar", ["/dev/zero", "../other/trace.queries.bin", "", ".."])
def test_sidecar_path_that_is_not_a_file_name_beside_the_trace_exits_2(pipeline, tmp_path, sidecar, name="queries"):
    def edit(doc):
        doc["tensors"][name]["path"] = sidecar

    (tmp_path / "trace").mkdir()
    src = _write_trace_copy(pipeline, tmp_path / "trace", edit)
    # The path names a valid sidecar, so only its form is refused.
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / f"trace.{name}.bin").write_bytes((pipeline / f"trace.{name}.bin").read_bytes())
    done = _profile_in_a_capped_process(src, tmp_path / "out")
    assert done.returncode == 2, done.stderr
    assert f"path {sidecar!r} is not a file name beside the trace" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sidecar", ["/dev/zero", "../other/trace.{}.bin", "", ".."], ids=["/dev/zero", "../other", "", ".."]
)
@pytest.mark.parametrize("name", ["topk", "blocks"])
def test_selection_sidecar_path_that_is_not_a_file_name_beside_the_trace_exits_2(pipeline, tmp_path, name, sidecar):
    test_sidecar_path_that_is_not_a_file_name_beside_the_trace_exits_2(pipeline, tmp_path, sidecar.format(name), name)


def test_sidecar_linked_to_an_endless_device_exits_2(pipeline, tmp_path, name="queries"):
    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    size = (tmp_path / f"trace.{name}.bin").stat().st_size
    (tmp_path / f"trace.{name}.bin").unlink()
    (tmp_path / f"trace.{name}.bin").symlink_to("/dev/zero")
    done = _profile_in_a_capped_process(src, tmp_path / "out")
    assert done.returncode == 2, done.stderr
    assert f"sidecar trace.{name}.bin holds 0 bytes, expected {size}" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["topk", "blocks"])
def test_selection_sidecar_linked_to_an_endless_device_exits_2(pipeline, tmp_path, name):
    test_sidecar_linked_to_an_endless_device_exits_2(pipeline, tmp_path, name)


@pytest.mark.parametrize("name", ["topk", "blocks"])
def test_selection_sidecar_cut_short_exits_2(pipeline, tmp_path, capsys, name):
    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    raw = (tmp_path / f"trace.{name}.bin").read_bytes()
    (tmp_path / f"trace.{name}.bin").write_bytes(raw[:-8])
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"sidecar trace.{name}.bin holds {len(raw) - 8} bytes, expected {len(raw)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A selection grid whose own shape, sidecar and sha256 agree, but whose layer or
# step count contradicts the rest of the trace: (change of the grid, the error).
_CONTRADICTING_GRIDS = {
    "topk": (lambda grid: grid[:, :4], "tensor topk has shape [2, 4, 6], expected [2, 5, 6] for the document"),
    "blocks": (lambda grid: grid[:1], "tensor blocks has shape [1, 5, 6], expected [2, 5, 6] for the document"),
}


@pytest.mark.parametrize("name", list(_CONTRADICTING_GRIDS))
def test_selection_shape_contradicting_the_document_exits_2(pipeline, tmp_path, capsys, name):
    change, message = _CONTRADICTING_GRIDS[name]
    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    rewrite_sidecar(src, name, change)
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sidecar_shapes_contradicting_the_document_exit_2(pipeline, tmp_path, capsys):
    # Sized to their shapes, these sidecars used to load and profile step 0 only.
    def edit(doc):
        doc["tensors"]["queries"]["shape"] = [1, 1]
        doc["tensors"]["outputs"]["shape"] = [1]

    src = _write_trace_copy(pipeline, tmp_path, edit)
    for sidecar in ("trace.queries.bin", "trace.outputs.bin"):
        (tmp_path / sidecar).write_bytes(bytes(8))
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "tensor queries has shape [1, 1], expected [2, 5, 1, 8]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_step_queries_in_a_two_step_trace_exit_2(pipeline, tmp_path, capsys):
    def edit(doc):
        doc["tensors"]["queries"]["shape"][0] = 1

    src = _write_trace_copy(pipeline, tmp_path, edit)
    queries = (pipeline / "trace.queries.bin").read_bytes()
    (tmp_path / "trace.queries.bin").write_bytes(queries[: len(queries) // 2])
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "tensor queries has shape [1, 5, 1, 8], expected [2, 5, 1, 8]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (selection sidecar, layer, the index written as the last of the layer's step-0
# selection); step 0 of the pipeline trace sees 24 tokens in 24 blocks of one token.
_OUT_OF_RANGE = {
    "topk-huge": ("topk", 1, 2**62),
    "topk-beyond-cache": ("topk", 1, 24 + 8),
    "block-beyond-cache": ("blocks", 3, 24),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
def test_out_of_range_trace_selection_exits_2(pipeline, tmp_path, capsys, case):
    name, layer, index = _OUT_OF_RANGE[case]

    def change(grid):
        grid[0, layer, -1] = index
        return grid

    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    rewrite_sidecar(src, name, change)
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace step 0 selects a ")
    assert not (tmp_path / "out").exists()


def _set_index(position, value):
    """Change of a selection grid writing value at position in layer 1's step-0 selection."""
    def change(grid):
        grid[0, 1, position] = value
        return grid
    return change


def _step_0_rows(change_rows):
    """Change of a selection grid applying change_rows to its step-0 rows, one per layer."""
    def change(grid):
        grid[0] = change_rows(grid[0])
        return grid
    return change


def _append(index):
    """Change of a selection grid appending index to every selection of every step."""
    return lambda grid: np.concatenate([grid, np.full(grid.shape[:2] + (1,), index)], axis=2)


# (selection sidecar, change of its grid, the error it must raise). Step 0 sees 24
# tokens in 24 blocks of one token; every selection holds 6 of them, the trace's budget.
_BAD_SELECTIONS = {
    "negative": ("topk", _set_index(0, -1), "selects a negative token index"),
    "negative-huge": ("topk", _set_index(0, -(2**63)), "selects a negative token index"),
    "unsorted": ("topk", _step_0_rows(lambda rows: rows[:, ::-1]), "not strictly ascending"),
    "duplicate": ("topk", _step_0_rows(lambda rows: np.concatenate([rows[:, :1], rows[:, :-1]], axis=1)),
                  "not strictly ascending"),
    "empty": ("topk", lambda grid: grid[..., :0], "holds an empty token selection"),
    "empty-blocks": ("blocks", lambda grid: grid[..., :0], "holds an empty block selection"),
    "over-budget": ("topk", _append(23), "7 token indices per selection, over its budget of 6"),
    "over-block-budget": ("blocks", _append(23), "over its budget of 6"),
    "beyond-cache": ("topk", _set_index(-1, 24), "selects a token beyond its 24 cached tokens"),
    "beyond-int64": ("topk", _set_index(-1, 2**63 - 1), "selects a token beyond its 24 cached tokens"),
    "beyond-blocks": ("blocks", _set_index(-1, 2**63 - 1), "selects a block beyond its 24 blocks"),
}


@pytest.mark.parametrize("case", list(_BAD_SELECTIONS))
def test_profile_refuses_a_bad_trace_selection_with_exit_2(pipeline, tmp_path, capsys, case):
    name, change, message = _BAD_SELECTIONS[case]
    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    rewrite_sidecar(src, name, change)
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace step 0 ") and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.inf, -5.0, -math.inf, math.nan])
def test_profile_refuses_an_infinite_or_negative_sensitivity_entry(pipeline, tmp_path, capsys, value):
    def change(table):
        table[1, 2] = value
        return table

    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    rewrite_sidecar(src, "sensitivity", change)
    out = tmp_path / "out"
    code = main(["profile", "--trace", str(src), "--out-dir", str(out)])
    if math.isnan(value):
        # NaN marks an undefined rnmse, which sensitivity.json records as null.
        assert code == 0 and read_json(str(out / "sensitivity.json"))["layers"][2]["rnmse"] is None
    else:
        assert code == 2
        assert "tensor sensitivity holds an infinite or negative rnmse" in capsys.readouterr().err
        assert not out.exists()


# policy.json sources that contradict the actions: (actions, sources as written).
_CONTRADICTING = {
    "chain": ("FFRR", [None, None, 0, 0]),  # layer 2 skips the Full layer 1
    "source-not-full": ("FRRR", [None, 3, 2, 1]),  # each points at a Reuse layer
}


@pytest.mark.parametrize("case", list(_CONTRADICTING))
def test_decode_rejects_policy_contradicting_its_sources(tmp_path, capsys, case):
    actions, sources = _CONTRADICTING[case]
    policy = LayerPolicy(
        actions=tuple(Action.FULL if a == "F" else Action.REUSE for a in actions),
        theta=None, cum_similarity=None, matrix_hash=None,
    )
    path = tmp_path / "policy.json"
    write_policy(policy, str(path))
    doc = read_json(str(path))
    doc["sources"] = sources
    path.write_text(json.dumps(doc))
    argv = ["decode", "--layers", "4", "--ctx", "24", "--head-dim", "8", "--policy", str(path),
            "--budget", "6", "--steps", "1", "--out", str(tmp_path / "run.json")]
    assert main(argv) == 2
    assert "layer-policy field sources does not match its actions" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_profile_reads_the_trace_table_and_builds_no_model(pipeline, tmp_path, monkeypatch):
    def refuse(config):
        raise AssertionError("profile generated a model")

    monkeypatch.setattr(cli, "generate_model", refuse)
    out = tmp_path / "out"
    assert main(["profile", "--trace", str(pipeline / "trace.json"), "--out-dir", str(out)]) == 0
    table = read_trace(str(pipeline / "trace.json")).sensitivity
    doc = read_json(str(out / "sensitivity.json"))
    assert doc["budget"] == 6 and doc["steps"] == 2
    assert [layer["rnmse"] for layer in doc["layers"]] == table.mean(axis=0).tolist()
    assert [layer["maxRnmse"] for layer in doc["layers"]] == table.max(axis=0).tolist()
    assert "step" not in read_json(str(out / "similarity.json.manifest.json"))["config"]


@pytest.mark.parametrize("step", [0, 2, -1, 10**12])
def test_profile_has_no_step_flag(pipeline, tmp_path, capsys, step):
    # Every step of the trace is profiled; there is no step to choose.
    argv = ["profile", "--trace", str(pipeline / "trace.json"), "--step", str(step),
            "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sidecar", ["queries", "outputs", "sensitivity", "topk", "blocks"])
def test_sidecar_with_a_flipped_byte_exits_2(pipeline, tmp_path, capsys, sidecar):
    src = _write_trace_copy(pipeline, tmp_path, lambda doc: None)
    raw = bytearray((tmp_path / f"trace.{sidecar}.bin").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (tmp_path / f"trace.{sidecar}.bin").write_bytes(bytes(raw))
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"sidecar trace.{sidecar}.bin does not match its recorded sha256" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_version_1_0_trace_without_a_table_exits_2(pipeline, tmp_path, capsys):
    def edit(doc):
        doc["version"] = "1.0"
        del doc["tensors"]["sensitivity"]
        for entry in doc["tensors"].values():
            del entry["sha256"]

    src = _write_trace_copy(pipeline, tmp_path, edit)
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "tensors is missing field(s) sensitivity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_version_1_1_trace_with_json_selections_exits_2(pipeline, tmp_path, capsys):
    # A 1.1 trace held its selections as JSON lists under steps, and no selection sidecars.
    trace = read_trace(str(pipeline / "trace.json"))

    def edit(doc):
        doc["version"] = "1.1"
        del doc["tensors"]["topk"], doc["tensors"]["blocks"]
        doc["steps"] = [
            {"layer": [{"topk": list(sel.indices), "blocks": list(blocks.block_indices)}
                       for sel, blocks in zip(step_topk, step_blocks)]}
            for step_topk, step_blocks in zip(trace.topk, trace.blocks)
        ]

    src = _write_trace_copy(pipeline, tmp_path, edit)
    for name in ("topk", "blocks"):
        (tmp_path / f"trace.{name}.bin").unlink()
    assert main(["profile", "--trace", str(src), "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: tensors is missing field(s) topk, blocks" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A planned credit is 1 per Full layer plus an overlap in [0, 1] per Reuse layer.
_IMPOSSIBLE_CREDITS = {
    "negative": (lambda doc: -5.0, "lies outside [fullCount, L]"),
    "below-full-count": (lambda doc: doc["fullCount"] - 0.25, "lies outside [fullCount, L]"),
    "above-layers": (lambda doc: doc["L"] + 0.25, "lies outside [fullCount, L]"),
    "null-with-theta": (lambda doc: None, "cumSimilarity is null"),
}


@pytest.mark.parametrize("case", list(_IMPOSSIBLE_CREDITS))
def test_report_refuses_a_credit_no_plan_can_give(pipeline, tmp_path, capsys, case):
    credit, message = _IMPOSSIBLE_CREDITS[case]
    doc = read_json(str(pipeline / "policy.json"))
    assert doc["theta"] is not None
    doc["cumSimilarity"] = credit(doc)
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_planned_policy_reads_back(tmp_path):
    rng = np.random.default_rng(2026)
    for case in range(24):
        matrix = random_similarity_matrix(rng, int(rng.integers(2, 13)))
        values = matrix.values.copy()
        lower = np.tril_indices(matrix.num_layers, k=-1)
        # Some overlaps at the ends of [0, 1], where the credit meets its bounds.
        pick = rng.random(len(lower[0])) < 0.3
        values[lower[0][pick], lower[1][pick]] = rng.choice([0.0, 1.0, 1.0 - 2**-52], pick.sum())
        matrix = type(matrix)(values=values, budget=matrix.budget)
        src = str(tmp_path / f"m{case}.json")
        write_similarity_matrix(matrix, src)
        for theta in (0.0, float(rng.random()), 0.9, 1.0):
            out = str(tmp_path / f"p{case}.json")
            assert main(["plan", "--matrix", src, "--theta", repr(theta), "--out", out]) == 0
            assert read_policy(out) == dp_optimize(matrix, theta)


# --- model settings come from formats.CONFIG_FIELDS ---

# A valid non-default value for every model setting, by SynthModelConfig field.
_NONDEFAULT = {"layers": 3, "head_dim": 4, "context_len": 16, "seed": 7,
               "inter_layer_correlation": 0.25, "heads": 2, "logit_scale": 2.0}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_model_setting_reaches_the_config_and_the_trace(tmp_path, source):
    assert set(_NONDEFAULT) == {field for field, *_ in formats.CONFIG_FIELDS}
    out = str(tmp_path / "t.json")
    argv = ["gen-traces", "--steps", "1", "--k", "2", "--out", out]
    if source == "flag":
        for field, _, flag, _, _ in formats.CONFIG_FIELDS:
            argv += [flag, str(_NONDEFAULT[field])]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: _NONDEFAULT[field] for field, key, *_ in formats.CONFIG_FIELDS}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    config = read_trace(out).config
    payload = read_json(out)["config"]
    for field, key, *_ in formats.CONFIG_FIELDS:
        assert _NONDEFAULT[field] != cli._MODEL_DEFAULTS[key]
        assert getattr(config, field) == _NONDEFAULT[field]
        assert payload[key] == _NONDEFAULT[field]


def _subparser(command: str) -> argparse.ArgumentParser:
    actions = cli.build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def _bench_values(argv: list[str], out) -> list[list[str]]:
    assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return [row[:3] for row in csv.reader(fh)]


def test_every_bench_value_flag_changes_bench_csv(tmp_path):
    base_policy, other_policy = str(tmp_path / "p3.json"), str(tmp_path / "p2.json")
    write_policy(static_jump_policy(6, 3), base_policy)
    write_policy(static_jump_policy(6, 2), other_policy)
    base = ["bench", "--policy", base_policy, "--lengths", "64,128", "--budget", "8"]
    # A second value for each flag; argparse keeps the last one given.
    others = {"--policy": other_policy, "--lengths": "64,256", "--budget": "16", "--block-size": "4"}
    flags = {action.option_strings[0] for action in _subparser("bench")._actions
             if action.dest not in ("help", "out", "out_dir")}
    # --head-dim is the one exception. The row width cancels out of both
    # bytesRatio and predictedSpeedup, so it changes no value, but the
    # pipeline-wide benchmark workload passes it, so bench keeps accepting it.
    assert flags - {"--head-dim"} == set(others)
    reference = _bench_values(base, tmp_path / "base.csv")
    assert _bench_values([*base, "--head-dim", "256"], tmp_path / "head.csv") == reference
    for flag, value in others.items():
        assert _bench_values([*base, flag, value], tmp_path / "other.csv") != reference, flag


@pytest.mark.parametrize("flag,value", [("--bytes-per-elem", "4"), ("--link-bandwidth", "1e6"),
                                        ("--hbm-bandwidth", "3e9")])
def test_removed_bench_flags_exit_2(pipeline, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--policy", str(pipeline / "policy.json"), "--lengths", "64",
              flag, value, "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--include-sinks", "3"), ("--include-recent", "5")])
def test_block_mode_merges_token_mode_flags(pipeline, tmp_path, flag, value):
    policy = read_policy(str(pipeline / "policy.json"))
    flags = ["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"), "--steps", "2",
             "--block-size", "4", "--budget", "2"]
    assert main([*flags, flag, value, "--out", str(tmp_path / "r.json")]) == 0
    assert main([*flags, "--out", str(tmp_path / "plain.json")]) == 0
    config = SynthModelConfig(layers=5, context_len=24, head_dim=8, inter_layer_correlation=0.9, seed=17)
    extra = {flag[2:].replace("-", "_"): int(value)}
    run = hybrid_decode(generate_model(config), policy, 2, 2, block_size=4, **extra)
    formats.write_run_result(run, str(tmp_path / "want.json"))
    got, want = read_json(str(tmp_path / "r.json")), read_json(str(tmp_path / "want.json"))
    for key in ("budget", "blockSize", "steps", "counters", "fidelity"):
        assert got[key] == want[key], key
    assert got["counters"] != read_json(str(tmp_path / "plain.json"))["counters"]


def test_block_mode_budget_counts_blocks(pipeline, tmp_path):
    out = tmp_path / "r.json"
    assert main(["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"), "--steps", "2",
                 "--block-size", "4", "--budget", "2", "--out", str(out)]) == 0
    config = SynthModelConfig(layers=5, context_len=24, head_dim=8, inter_layer_correlation=0.9, seed=17)
    run = hybrid_decode(generate_model(config), read_policy(str(pipeline / "policy.json")), 2, 2, block_size=4)
    formats.write_run_result(run, str(tmp_path / "want.json"))
    got, want = read_json(str(out)), read_json(str(tmp_path / "want.json"))
    assert got["budget"] == 2 and got["blockSize"] == 4
    for key in ("budget", "blockSize", "steps", "counters", "fidelity"):
        assert got[key] == want[key], key


def test_block_size_below_one_is_not_token_mode(pipeline, tmp_path, capsys):
    # A block size other than 1 selects block mode, which rejects it, so the
    # budget is not silently read as tokens by a token-mode run.
    assert main(["decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"), "--steps", "1",
                 "--block-size", "0", "--budget", "2", "--out", str(tmp_path / "r.json")]) == 2
    assert "block_size must be >= 1" in capsys.readouterr().err


def test_report_refuses_two_inputs_with_one_output(pipeline, tmp_path, capsys):
    runs = []
    for name in ("x", "y"):
        (tmp_path / name).mkdir()
        runs.append(str(tmp_path / name / "run.json"))
        shutil.copyfile(pipeline / "run.json", runs[-1])
    assert main(["report", *runs, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert runs[0] in err and runs[1] in err and "run.rnmse.csv" in err
    assert not (tmp_path / "out").exists()
    matrix = str(pipeline / "similarity.json")
    assert main(["report", matrix, matrix, "--out-dir", str(tmp_path / "out")]) == 2
    assert "similarity.heatmap.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_refuses_two_policies_with_one_name(pipeline, tmp_path, capsys):
    # policies.md names a row by file name, so two policy.json files would
    # share one; the clash is refused as the per-file CSVs refuse theirs.
    policies = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        policies.append(str(tmp_path / name / "policy.json"))
        shutil.copyfile(pipeline / "policy.json", policies[-1])
    assert main(["report", *policies, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert policies[0] in err and policies[1] in err and "policies.md" in err
    assert not (tmp_path / "out" / "policies.md").exists()
    assert not (tmp_path / "out").exists()


def _policy_with_credit(pipeline, tmp_path, credit):
    doc = read_json(str(pipeline / "policy.json"))
    doc["cumSimilarity"] = credit
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _runs_named(pipeline, tmp_path, *names):
    for name in names:
        shutil.copyfile(pipeline / "run.json", tmp_path / name)
    return [str(tmp_path / name) for name in names]


# Commands refused only once an input has been read or the work has begun;
# each is given (pipeline, tmp_path, out), out being a directory that does not exist.
_REFUSED_LATE = {
    "gen-traces-k": lambda pipeline, tmp_path, out: [
        "gen-traces", *MODEL_FLAGS, "--steps", "1", "--k", "99", "--out", f"{out}/trace.json"],
    "plan-theta": lambda pipeline, tmp_path, out: [
        "plan", "--matrix", str(pipeline / "similarity.json"), "--theta", "1.5", "--out", f"{out}/policy.json"],
    "decode-steps": lambda pipeline, tmp_path, out: [
        "decode", *MODEL_FLAGS, "--policy", str(pipeline / "policy.json"), "--budget", "6", "--steps", "0",
        "--out", f"{out}/run.json"],
    "bench-budget": lambda pipeline, tmp_path, out: [
        "bench", "--policy", str(pipeline / "policy.json"), "--lengths", "1024", "--budget", "0",
        "--out", f"{out}/bench.csv"],
    "report-matrix-then-impossible-credit": lambda pipeline, tmp_path, out: [
        "report", str(pipeline / "similarity.json"), _policy_with_credit(pipeline, tmp_path, -5.0),
        "--out-dir", str(out)],
    "report-runs-then-non-ascii-run": lambda pipeline, tmp_path, out: [
        "report", *_runs_named(pipeline, tmp_path, "r1.json", "r\u00e9.json"), "--out-dir", str(out)],
}


@pytest.mark.parametrize("case", list(_REFUSED_LATE))
def test_a_refused_command_creates_no_file_or_directory(pipeline, tmp_path, capsys, case):
    out = tmp_path / "new"
    assert main(_REFUSED_LATE[case](pipeline, tmp_path, out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-traces", "decode"])
def test_manifest_records_the_model_config_not_how_it_was_given(pipeline, tmp_path, command):
    # interLayerCorrelation 1 in a config file and --rho 1 build one model, so
    # they must give one manifest and one artifact.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_CONFIG, "interLayerCorrelation": 1}))
    flags = ["--layers", "5", "--head-dim", "8", "--ctx", "24", "--seed", "17", "--rho", "1", "--heads", "1"]
    out = str(tmp_path / "out" / "artifact.json")
    if command == "gen-traces":
        tail = ["--steps", "2", "--k", "6", "--out", out]
    else:
        tail = ["--policy", str(pipeline / "policy.json"), "--budget", "6", "--steps", "2", "--out", out]
    written = []
    for model in (["--config", str(config)], flags):
        assert main([command, *model, *tail]) == 0
        manifest = read_json(out + ".manifest.json")
        del manifest["wallTimeSeconds"]
        written.append((manifest, Path(out).read_bytes()))
    assert written[0] == written[1]
    assert written[0][0]["config"]["interLayerCorrelation"] == 1.0


# --- reader fuzz: one mutated leaf or one deleted key is invalid input or none ---

# (artifact, the command that reads it); {src} is the mutated copy.
_FUZZ_READERS = [
    ("trace.json", ["profile", "--trace", "{src}", "--out-dir", "{out}"]),
    ("similarity.json", ["plan", "--matrix", "{src}", "--theta", "0.5", "--out-dir", "{out}"]),
    ("policy.json", ["decode", *MODEL_FLAGS, "--policy", "{src}", "--budget", "6", "--steps", "2",
                     "--out-dir", "{out}"]),
    *[(name, ["report", "{src}", "--out-dir", "{out}"]) for name in ("similarity.json", "policy.json", "run.json")],
]
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 40), max_size=2),
)


def _json_paths(doc, path=()):
    """Every key path in doc: each container member's path, then its own members' paths."""
    members = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in members:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(reader=st.sampled_from(_FUZZ_READERS), data=st.data())
def test_a_mutated_artifact_is_read_or_refused_as_invalid_input(pipeline, reader, data):
    artifact, command = reader
    doc = read_json(str(pipeline / artifact))
    paths = list(_json_paths(doc))
    path = data.draw(st.sampled_from(paths), label="path")
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_LEAVES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, artifact)
        src.write_text(json.dumps(doc))
        _copy_sidecars(pipeline, Path(tmp))
        argv = [arg.format(src=src, out=Path(tmp, "out")) for arg in command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), err.getvalue()
