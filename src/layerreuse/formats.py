"""Versioned JSON artifact files with binary tensor sidecars.

Every artifact is a JSON object carrying "version" and "kind"; readers
reject unknown major versions. Large tensors live next to the JSON in flat
little-endian float64 sidecar files, referenced by relative path, shape and
sha256, which the reader verifies. Writing is canonical (sorted keys, fixed
separators), so identical inputs produce byte-identical files. NaN is
encoded as null. Every file is written to a temp file in its target
directory and renamed into place, so a crash never leaves a torn artifact.
Readers check each required field's JSON type, so a malformed artifact
raises InvalidInputError rather than a TypeError.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from ._canon import (
    FORMAT_VERSION,
    NULL,
    NUMBER,
    NUMBER_OR_NULL,
    V1_0,
    canonical_json_bytes,
    check_header,
    require_items,
    require_keys,
    sha256_hex,
)
from .attention import BlockSet, TopKSet
from .engine import DecodeRunResult
from .errors import InvalidInputError, InvalidSelectionError
from .policy import Action, LayerPolicy
from .profiling import SensitivityReport, SimilarityMatrix
from .synthetic import DecodeTrace, SynthModelConfig

__all__ = [
    "write_trace",
    "read_trace",
    "write_similarity_matrix",
    "read_similarity_matrix",
    "write_sensitivity_report",
    "read_sensitivity_report",
    "write_policy",
    "read_policy",
    "write_run_result",
    "read_run_result",
    "read_json",
]


def _null_nan(x: float) -> float | None:
    return None if math.isnan(x) else float(x)


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a temp file beside path; on a clean exit, os.replace it onto path.

    If the block raises, the temp file is removed and any earlier file at
    path is left as it was.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_doc(path: str, payload: dict, manifest_hash: str | None) -> None:
    doc = dict(payload)
    if manifest_hash is not None:
        doc["manifest"] = manifest_hash
    data = canonical_json_bytes(doc) + b"\n"
    with atomic_open(path) as fh:
        fh.write(data)


def read_json(path: str) -> dict:
    """Parse an ASCII JSON file, as every artifact and config file is.

    Raises:
        InvalidInputError: if the file is not ASCII or not valid JSON.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("ascii"))
    except ValueError as exc:
        # UnicodeDecodeError and json.JSONDecodeError are both ValueErrors.
        raise InvalidInputError(f"{path}: not an ASCII JSON file: {exc}") from exc


# One row per SynthModelConfig field: (field, artifact key, CLI flag, JSON
# type, help). The artifact codec below and the CLI's model flags both read it.
CONFIG_FIELDS = (
    ("layers", "layers", "--layers", int, "layer count"),
    ("head_dim", "headDim", "--head-dim", int, "per-head width"),
    ("context_len", "contextLen", "--ctx", int, "initial cache length"),
    ("seed", "seed", "--seed", int, "model seed"),
    ("inter_layer_correlation", "interLayerCorrelation", "--rho", NUMBER,
     "cross-layer similarity dial in [0, 1]"),
    ("heads", "heads", "--heads", int, "heads per layer"),
)


def config_payload(config: SynthModelConfig) -> dict:
    return {key: getattr(config, field) for field, key, *_ in CONFIG_FIELDS}


def config_from_payload(doc: dict) -> SynthModelConfig:
    require_keys(doc, {key: json_type for _, key, _, json_type, _ in CONFIG_FIELDS}, "config")
    return SynthModelConfig(**{field: doc[key] for field, key, *_ in CONFIG_FIELDS})


# A trace's sidecars, in the order they are written and read.
_TRACE_TENSORS = ("queries", "outputs", "sensitivity")


def _read_tensor(trace_path: str, name: str, entry: dict, expected: tuple[int, ...]) -> np.ndarray:
    """The sidecar of tensors[name], checked for length, then for the expected shape, then by sha256."""
    path = os.path.join(os.path.dirname(trace_path), entry["path"])
    shape = entry["shape"]
    if any(dim < 0 for dim in shape):
        raise InvalidInputError(f"sidecar {os.path.basename(path)} shape {shape} has a negative dimension")
    size = math.prod(shape) * 8
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != size:
        raise InvalidInputError(f"sidecar {os.path.basename(path)} holds {len(raw)} bytes, expected {size}")
    if tuple(shape) != expected:
        raise InvalidInputError(
            f"tensor {name} has shape {shape}, expected {list(expected)} for the document"
        )
    if sha256_hex(raw) != entry["sha256"]:
        raise InvalidInputError(f"sidecar {os.path.basename(path)} does not match its recorded sha256")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    arr.setflags(write=False)
    return arr


def write_trace(trace: DecodeTrace, path: str, manifest_hash: str | None = None) -> None:
    """Write a decode trace: JSON document plus .queries.bin, .outputs.bin and .sensitivity.bin sidecars.

    Each sidecar holds little-endian float64; the document records its file
    name, shape and sha256. A trace without its sensitivity table is refused.
    """
    if trace.sensitivity is None:
        raise InvalidInputError("a trace is written with its sensitivity table; attach sensitivity_table first")
    stem = os.path.basename(path[: -len(".json")] if path.endswith(".json") else path)
    tensors = {}
    for name in _TRACE_TENSORS:
        arr = getattr(trace, name)
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors[name] = {"path": f"{stem}.{name}.bin", "shape": list(arr.shape), "sha256": sha256_hex(data)}
        with atomic_open(os.path.join(os.path.dirname(path), tensors[name]["path"])) as fh:
            fh.write(data)
    payload = {
        "version": FORMAT_VERSION,
        "kind": "decode-trace",
        "config": config_payload(trace.config),
        "budget": trace.budget,
        "blockSize": trace.block_size,
        "steps": [
            {
                "layer": [
                    {
                        "topk": list(trace.topk[t][l].indices),
                        "blocks": list(trace.blocks[t][l].block_indices),
                    }
                    for l in range(trace.config.layers)
                ]
            }
            for t in range(trace.steps)
        ],
        "tensors": tensors,
    }
    _write_doc(path, payload, manifest_hash)


def read_trace(path: str) -> DecodeTrace:
    """Read a decode trace; the whole document is checked before any sidecar is read."""
    doc = read_json(path)
    check_header(doc, "decode-trace")
    require_keys(
        doc,
        {"config": dict, "budget": int, "blockSize": int, "steps": list, "tensors": dict},
        "decode-trace",
    )
    config = config_from_payload(doc["config"])
    tensors = doc["tensors"]
    require_keys(tensors, dict.fromkeys(_TRACE_TENSORS, dict), "tensors")
    for name in _TRACE_TENSORS:
        require_keys(tensors[name], {"path": str, "shape": list, "sha256": str}, f"tensor {name}")
        require_items(tensors[name]["shape"], int, f"tensor {name} shape")
    steps = doc["steps"]
    budget = doc["budget"]
    block_size = doc["blockSize"]
    if len(steps) < 1:
        raise InvalidInputError("trace holds no decode steps")
    topk_rows = []
    block_rows = []
    for t, step in enumerate(steps):
        require_keys(step, {"layer": list}, "trace step")
        layers = step["layer"]
        if len(layers) != config.layers:
            raise InvalidInputError("trace step does not cover every layer")
        for entry in layers:
            require_keys(entry, {"topk": list, "blocks": list}, "trace layer entry")
            require_items(entry["topk"], int, "topk")
            require_items(entry["blocks"], int, "blocks")
        topk = tuple(TopKSet(indices=tuple(entry["topk"]), budget=budget) for entry in layers)
        blocks = tuple(
            BlockSet(block_indices=tuple(entry["blocks"]), block_size=block_size) for entry in layers
        )
        # Step t sees context_len + t tokens; indices are ascending, so the last is the largest.
        n = config.context_len + t
        n_blocks = (n + block_size - 1) // block_size
        if any(sel.indices[-1] >= n for sel in topk):
            raise InvalidSelectionError(f"trace step {t} selects a token beyond its {n} cached tokens")
        if any(sel.block_indices[-1] >= n_blocks for sel in blocks):
            raise InvalidSelectionError(f"trace step {t} selects a block beyond its {n_blocks} blocks")
        topk_rows.append(topk)
        block_rows.append(blocks)
    cells = (len(steps), config.layers)
    rows = cells + (config.heads, config.head_dim)
    queries, outputs, sensitivity = (
        _read_tensor(path, name, tensors[name], shape) for name, shape in zip(_TRACE_TENSORS, (rows, rows, cells))
    )
    return DecodeTrace(
        config=config,
        budget=budget,
        block_size=block_size,
        queries=queries,
        outputs=outputs,
        topk=tuple(topk_rows),
        blocks=tuple(block_rows),
        sensitivity=sensitivity,
    )


def write_similarity_matrix(
    matrix: SimilarityMatrix, path: str, manifest_hash: str | None = None
) -> None:
    _write_doc(path, matrix.canonical_payload(), manifest_hash)


def read_similarity_matrix(path: str) -> SimilarityMatrix:
    doc = read_json(path)
    check_header(doc, "similarity-matrix")
    require_keys(doc, {"L": int, "k": int, "entries": list}, "similarity-matrix")
    require_items(doc["entries"], NUMBER, "entries")
    return SimilarityMatrix.from_flat(doc["L"], doc["k"], doc["entries"])


def write_sensitivity_report(
    report: SensitivityReport, path: str, manifest_hash: str | None = None
) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "kind": "sensitivity-report",
        "budget": report.budget,
        "steps": report.steps,
        "layers": [
            {"rnmse": _null_nan(mean), "maxRnmse": _null_nan(peak)}
            for mean, peak in zip(report.rnmse, report.max_rnmse)
        ],
    }
    _write_doc(path, payload, manifest_hash)


def read_sensitivity_report(path: str) -> SensitivityReport:
    doc = read_json(path)
    check_header(doc, "sensitivity-report")
    require_keys(doc, {"budget": int, "steps": int, "layers": list}, "sensitivity-report")
    for entry in doc["layers"]:
        require_keys(entry, {"rnmse": NUMBER_OR_NULL, "maxRnmse": NUMBER_OR_NULL}, "sensitivity layer entry")
    # A null (an undefined rnmse) becomes NaN.
    pairs = np.array([[entry["rnmse"], entry["maxRnmse"]] for entry in doc["layers"]], dtype=float)
    mean, peak = pairs.reshape(-1, 2).T
    return SensitivityReport(budget=doc["budget"], steps=doc["steps"], rnmse=mean, max_rnmse=peak)


def write_policy(policy: LayerPolicy, path: str, manifest_hash: str | None = None) -> None:
    _write_doc(path, policy.canonical_payload(), manifest_hash)


def read_policy(path: str) -> LayerPolicy:
    doc = read_json(path)
    check_header(doc, "layer-policy")
    require_keys(
        doc,
        {
            "L": int,
            "theta": NUMBER_OR_NULL,
            "actions": list,
            "sources": list,
            "fullCount": int,
            "cumSimilarity": NUMBER_OR_NULL,
            "matrixHash": (str, NULL),
        },
        "layer-policy",
    )
    require_items(doc["actions"], str, "actions")
    require_items(doc["sources"], (int, NULL), "sources")
    try:
        actions = tuple(Action(a) for a in doc["actions"])
    except ValueError as exc:
        raise InvalidInputError(f"layer-policy field actions: {exc}") from exc
    sources = tuple(j if src is None else src for j, src in enumerate(doc["sources"]))
    theta = doc["theta"]
    cum = doc["cumSimilarity"]
    return LayerPolicy(
        actions=actions,
        sources=sources,
        theta=None if theta is None else float(theta),
        full_count=doc["fullCount"],
        cum_similarity=None if cum is None else float(cum),
        matrix_hash=doc["matrixHash"],
    )


def write_run_result(result: DecodeRunResult, path: str, manifest_hash: str | None = None) -> None:
    """Write counters, fidelity tables, and the policy hash of a hybrid run."""
    payload = {
        "version": V1_0,
        "kind": "decode-run",
        "theta": result.policy.theta,
        "policyHash": result.policy.sha256(),
        "budget": result.budget,
        "blockSize": result.block_size,
        "steps": result.steps,
        "counters": {
            "fullLayers": result.full_layer_count,
            "reuseLayers": result.reuse_layer_count,
            "fullScoreComputationsPerStep": list(result.full_score_computations),
            "reuseFullScans": result.reuse_full_scans,
            "reuseGatheredRows": [list(row) for row in result.reuse_gathered_rows],
        },
        "fidelity": {
            "aggregateRnmse": _null_nan(result.fidelity.aggregate),
            "perLayerRnmse": [_null_nan(x) for x in result.fidelity.per_layer],
            "perStepLayerRnmse": [
                [_null_nan(x) for x in row] for row in result.fidelity.per_step_layer
            ],
        },
    }
    _write_doc(path, payload, manifest_hash)


def read_run_result(path: str) -> dict:
    """Run results are read back as plain documents; arrays stay lists."""
    doc = read_json(path)
    check_header(doc, "decode-run")
    require_keys(
        doc,
        {
            "theta": NUMBER_OR_NULL,
            "policyHash": str,
            "budget": int,
            "blockSize": int,
            "steps": int,
            "counters": dict,
            "fidelity": dict,
        },
        "decode-run",
    )
    fidelity = doc["fidelity"]
    require_keys(
        fidelity,
        {"aggregateRnmse": NUMBER_OR_NULL, "perLayerRnmse": list, "perStepLayerRnmse": list},
        "fidelity",
    )
    require_items(fidelity["perLayerRnmse"], NUMBER_OR_NULL, "perLayerRnmse")
    require_items(fidelity["perStepLayerRnmse"], list, "perStepLayerRnmse")
    for row in fidelity["perStepLayerRnmse"]:
        require_items(row, NUMBER_OR_NULL, "perStepLayerRnmse rows")
    return doc
