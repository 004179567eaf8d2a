"""Versioned JSON artifact files with binary tensor sidecars.

Every artifact is a JSON object carrying "version" and "kind"; readers
reject unknown major versions. A decode trace (1.2; the sensitivity report
is at 1.1, every other kind at 1.0) keeps its arrays next to the JSON in
flat little-endian sidecars, float64 tensors and int64 selections, each
referenced by file name, shape and sha256, which the reader verifies.
Writing is canonical (sorted keys, fixed separators), so identical inputs
produce byte-identical files. NaN is encoded as null, and no writer emits
NaN or Infinity. Every file goes through write_files: to a temp file beside
it, then renamed into place. If any write fails, each artifact is left as it
was, a trace and its sidecars counting as one artifact; a crash during the
renames can leave a trace whose sidecars do not match, which its reader refuses.
Each reader checks its whole document against one JSON shape (_read_doc)
before it reads a sidecar, so a malformed artifact raises
InvalidInputError, not a TypeError.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat

import numpy as np

from ._canon import (
    NULL,
    NUMBER,
    NUMBER_OR_NULL,
    V1_0,
    V1_1,
    V1_2,
    canonical_json_bytes,
    check_count,
    check_header,
    check_unit,
    require,
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


def write_files(files: dict[str, bytes]) -> None:
    """Write each path's bytes to a temp file beside it, creating a missing directory, then rename them all.

    If a write raises, every temp file is removed and no path is touched.
    The renames run in the order given, so a document listed last is
    committed after its sidecars.
    """
    temps = []
    try:
        for path, data in files.items():
            os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
            temps.append(os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp"))
            with open(temps[-1], "wb") as fh:
                fh.write(data)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _write_doc(path: str, payload: dict, manifest_hash: str | None, sidecars: dict | None = None) -> None:
    """Write the JSON document at path in one write_files call, after any sidecars (path -> bytes)."""
    doc = dict(payload)
    if manifest_hash is not None:
        doc["manifest"] = manifest_hash
    write_files({**(sidecars or {}), path: canonical_json_bytes(doc) + b"\n"})


def _read_file(path: str, size: int | None = None) -> bytes:
    """The bytes of the file at path; given a size, InvalidInputError for a file of another length.

    The length comes from fstat before any read, since read(n) allocates n
    bytes up front, and the read stops one byte past it. A device or a pipe
    has no length and reads as empty; the open does not block, so a pipe
    with no writer does not hold it up.
    """
    raw = b""
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
        info = os.fstat(fh.fileno())
        held = info.st_size if stat.S_ISREG(info.st_mode) else 0
        if held and size in (None, held):
            raw = fh.read(held + 1)
            held = len(raw)
    if size is not None and held != size:
        raise InvalidInputError(f"sidecar {os.path.basename(path)} holds {held} bytes, expected {size}")
    return raw


def read_json(path: str) -> dict:
    """Parse an ASCII JSON file, as every artifact and config file is; a device or a pipe reads as empty.

    Raises:
        InvalidInputError: if the file is not ASCII or not valid JSON.
    """
    raw = _read_file(path)
    try:
        return json.loads(raw.decode("ascii"))
    except ValueError as exc:
        # UnicodeDecodeError and json.JSONDecodeError are both ValueErrors.
        raise InvalidInputError(f"{path}: not an ASCII JSON file: {exc}") from exc


def _read_doc(path: str, kind: str, shape: dict) -> dict:
    """The JSON artifact at path, checked to be of kind, at a 1.x version, and of shape (see _canon.require)."""
    doc = read_json(path)
    check_header(doc, kind)
    require(doc, shape, kind)
    return doc


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
    ("logit_scale", "logitScale", "--logit-scale", NUMBER,
     "query scale, the sparsity dial; > 1 concentrates attention"),
)

# Keys a config payload leaves out at their default value, so every artifact of
# a model that keeps the default has the bytes and hash it had before the key existed.
_OMITTED_AT_DEFAULT = {"logitScale": 1.0}


def config_payload(config: SynthModelConfig) -> dict:
    payload = {key: getattr(config, field) for field, key, *_ in CONFIG_FIELDS}
    return {key: value for key, value in payload.items() if _OMITTED_AT_DEFAULT.get(key) != value}


def config_from_payload(doc: dict) -> SynthModelConfig:
    if isinstance(doc, dict):
        doc = {**_OMITTED_AT_DEFAULT, **doc}
    require(doc, {key: json_type for _, key, _, json_type, _ in CONFIG_FIELDS}, "config")
    return SynthModelConfig(**{field: doc[key] for field, key, *_ in CONFIG_FIELDS})


# A trace's sidecars and the little-endian type each holds, in the order they are written and read.
_TRACE_TENSORS = {"topk": "<i8", "blocks": "<i8", "queries": "<f8", "outputs": "<f8", "sensitivity": "<f8"}
# Each artifact's JSON shape (see _canon.require); config_from_payload checks a trace's config fields.
_TRACE_SHAPE = {"config": dict, "budget": int, "blockSize": int,
                "tensors": dict.fromkeys(_TRACE_TENSORS, {"path": str, "shape": [int], "sha256": str})}
_MATRIX_SHAPE = {"L": int, "k": int, "entries": [NUMBER]}
_SENSITIVITY_SHAPE = {"budget": int, "steps": int, "layers": [{"rnmse": NUMBER_OR_NULL, "maxRnmse": NUMBER_OR_NULL}]}
_POLICY_SHAPE = {"L": int, "theta": NUMBER_OR_NULL, "actions": [str], "sources": [(int, NULL)], "fullCount": int,
                 "cumSimilarity": NUMBER_OR_NULL, "matrixHash": (str, NULL)}
_RUN_SHAPE = {"theta": NUMBER_OR_NULL, "policyHash": str, "budget": int, "blockSize": int, "steps": int,
              "counters": {"fullLayers": int, "reuseLayers": int, "fullScoreComputationsPerStep": [int],
                           "reuseFullScans": int, "reuseGatheredRows": [[(int, NULL)]]},
              "fidelity": {"aggregateRnmse": NUMBER_OR_NULL, "perLayerRnmse": [NUMBER_OR_NULL],
                           "perStepLayerRnmse": [[NUMBER_OR_NULL]]}}


def _read_tensor(trace_path: str, name: str, entry: dict, expected: tuple[int, ...], dtype: str) -> np.ndarray:
    """The sidecar of tensors[name], checked for length, then for the expected shape, then by sha256.

    The sidecar is named by a bare file name, beside the trace, and read by
    _read_file. It holds dtype, the little-endian type _TRACE_TENSORS gives it.
    """
    sidecar = entry["path"]
    if sidecar in ("", os.curdir, os.pardir) or os.path.basename(sidecar) != sidecar:
        raise InvalidInputError(f"tensor {name} path {sidecar!r} is not a file name beside the trace")
    shape = entry["shape"]
    if any(dim < 0 for dim in shape):
        raise InvalidInputError(f"sidecar {sidecar} shape {shape} has a negative dimension")
    dtype = np.dtype(dtype)
    raw = _read_file(os.path.join(os.path.dirname(trace_path), sidecar), math.prod(shape) * dtype.itemsize)
    if tuple(shape) != expected:
        raise InvalidInputError(
            f"tensor {name} has shape {shape}, expected {list(expected)} for the document"
        )
    if sha256_hex(raw) != entry["sha256"]:
        raise InvalidInputError(f"sidecar {sidecar} does not match its recorded sha256")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
    arr.setflags(write=False)
    return arr


def _trace_shapes(config: SynthModelConfig, topk_shape, blocks_shape) -> tuple[tuple[int, ...], ...]:
    """The shapes of _TRACE_TENSORS, in order, given the selection grids'; topk's first is the step count."""
    steps = (list(topk_shape) or [0])[0]
    if steps < 1:
        raise InvalidInputError("trace holds no decode steps")
    cells = (steps, config.layers)
    rows = cells + (config.heads, config.head_dim)
    # A selection grid's width is checked against the budget with its values.
    return cells + tuple(topk_shape[-1:]), cells + tuple(blocks_shape[-1:]), rows, rows, cells


def _check_sensitivity(sensitivity: np.ndarray) -> None:
    # An rnmse is a norm quotient: NaN where it is undefined, else finite and non-negative.
    if ((sensitivity < 0) | (sensitivity == math.inf)).any():
        raise InvalidInputError("tensor sensitivity holds an infinite or negative rnmse")


def write_trace(trace: DecodeTrace, path: str, manifest_hash: str | None = None) -> None:
    """Write a decode trace: a JSON document plus one {stem}.{tensor}.bin sidecar per tensor.

    topk [S, L, k] and blocks [S, L, b] hold each step's selections as
    little-endian int64; queries, outputs and sensitivity hold little-endian
    float64. The document records each sidecar's file name, shape and sha256
    and is committed after them; a failed write leaves an earlier trace whole.
    A trace without its sensitivity table, whose selections of one kind
    differ in size, or that read_trace would refuse is refused before any
    file is written.
    """
    if trace.sensitivity is None:
        raise InvalidInputError("a trace is written with its sensitivity table; attach sensitivity_table first")
    try:
        grids = {
            "topk": np.array([[sel.indices for sel in step] for step in trace.topk], dtype="<i8"),
            "blocks": np.array([[sel.block_indices for sel in step] for step in trace.blocks], dtype="<i8"),
        }
    except ValueError as exc:
        raise InvalidInputError("a trace is written with selections of one size per kind") from exc
    budget, block_size = check_count("budget", trace.budget), check_count("block_size", trace.block_size)
    arrays = {name: grids[name] if name in grids else np.ascontiguousarray(getattr(trace, name), dtype=dtype)
              for name, dtype in _TRACE_TENSORS.items()}
    for (name, arr), shape in zip(arrays.items(), _trace_shapes(trace.config, *(g.shape for g in grids.values()))):
        if arr.shape != shape:
            raise InvalidInputError(f"tensor {name} has shape {list(arr.shape)}, expected {list(shape)} for the trace")
    _check_selections(*grids.values(), budget, block_size, trace.config.context_len)
    _check_sensitivity(arrays["sensitivity"])
    stem = os.path.basename(path[: -len(".json")] if path.endswith(".json") else path)
    tensors, sidecars = {}, {}
    for name, arr in arrays.items():
        data = arr.tobytes()
        tensors[name] = {"path": f"{stem}.{name}.bin", "shape": list(arr.shape), "sha256": sha256_hex(data)}
        sidecars[os.path.join(os.path.dirname(path), tensors[name]["path"])] = data
    payload = {
        "version": V1_2,
        "kind": "decode-trace",
        "config": config_payload(trace.config),
        "budget": budget,
        "blockSize": block_size,
        "tensors": tensors,
    }
    _write_doc(path, payload, manifest_hash, sidecars)


def _check_selections(topk: np.ndarray, blocks: np.ndarray, budget: int, block_size: int, context_len: int) -> None:
    """Check both [S, L, width] selection grids of a trace in one numpy pass.

    Each selection must hold 1 to budget tokens, or ceil(budget / block_size)
    blocks, as strictly ascending, non-negative indices below the token or
    block count of its step; step t sees context_len + t tokens. The counts
    stay Python ints, since a config's context length may exceed int64.

    Raises:
        InvalidSelectionError: naming the first step that breaks a rule, and
            the first rule it breaks, token rules before block rules.
    """
    tokens = [context_len + t for t in range(len(topk))]
    counts = {"token": tokens, "block": [-(-n // block_size) for n in tokens]}
    grids = (("token", "cached tokens", topk, budget), ("block", "blocks", blocks, -(-budget // block_size)))
    rules = []
    for kind, unit, grid, most in grids:
        width = grid.shape[-1]
        # Ascending rows hold their least index first and their largest last.
        lasts = grid[..., -1:].max(axis=(1, 2), initial=-1).tolist()
        rules += [
            (width == 0, f"holds an empty {kind} selection"),
            (width > most, f"holds {width} {kind} indices per selection, over its budget of {most}"),
            ((grid[..., :1] < 0).any(axis=(1, 2)), f"selects a negative {kind} index"),
            ((grid[..., 1:] <= grid[..., :-1]).any(axis=(1, 2)),
             f"holds {kind} indices that are not strictly ascending"),
            ([last >= n for last, n in zip(lasts, counts[kind])], f"selects a {kind} beyond its {{{kind}}} {unit}"),
        ]
    broken = np.array([np.broadcast_to(mask, len(tokens)) for mask, _ in rules])
    if broken.any():
        t = int(broken.any(axis=0).argmax())
        message = rules[int(broken[:, t].argmax())][1]
        # {token} and {block} in a message stand for step t's token and block counts.
        raise InvalidSelectionError(f"trace step {t} " + message.format(token=tokens[t], block=counts["block"][t]))


def read_trace(path: str) -> DecodeTrace:
    """Read a decode trace; the whole document is checked before any sidecar is read.

    The topk sidecar's recorded shape [S, L, k] gives the step count every
    other sidecar's shape must match (_trace_shapes). Both selection grids
    are then checked at once with numpy (_check_selections), and their rows
    become TopKSet and BlockSet objects without a second check. The
    sensitivity table may hold NaN, an undefined rnmse, but no infinite or
    negative one. write_trace runs the same checks before it writes.
    """
    doc = _read_doc(path, "decode-trace", _TRACE_SHAPE)
    config = config_from_payload(doc["config"])
    tensors = doc["tensors"]
    budget = check_count("budget", doc["budget"])
    block_size = check_count("block_size", doc["blockSize"])
    expected = _trace_shapes(config, tensors["topk"]["shape"], tensors["blocks"]["shape"])
    topk, blocks, queries, outputs, sensitivity = (
        _read_tensor(path, name, tensors[name], shape, dtype)
        for (name, dtype), shape in zip(_TRACE_TENSORS.items(), expected)
    )
    _check_selections(topk, blocks, budget, block_size, config.context_len)
    _check_sensitivity(sensitivity)
    return DecodeTrace(
        config=config,
        budget=budget,
        block_size=block_size,
        queries=queries,
        outputs=outputs,
        topk=tuple(tuple(TopKSet._canonical(tuple(row), budget) for row in step) for step in topk.tolist()),
        blocks=tuple(tuple(BlockSet._canonical(tuple(row), block_size) for row in step) for step in blocks.tolist()),
        sensitivity=sensitivity,
    )


def write_similarity_matrix(matrix: SimilarityMatrix, path: str, manifest_hash: str | None = None) -> None:
    _write_doc(path, matrix.canonical_payload(), manifest_hash)


def read_similarity_matrix(path: str) -> SimilarityMatrix:
    doc = _read_doc(path, "similarity-matrix", _MATRIX_SHAPE)
    return SimilarityMatrix.from_flat(doc["L"], doc["k"], doc["entries"])


def write_sensitivity_report(report: SensitivityReport, path: str, manifest_hash: str | None = None) -> None:
    payload = {
        "version": V1_1,
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
    """A sensitivity report, which SensitivityReport checks; a null (an undefined rnmse) becomes NaN."""
    doc = _read_doc(path, "sensitivity-report", _SENSITIVITY_SHAPE)
    mean, peak = np.array([[e["rnmse"], e["maxRnmse"]] for e in doc["layers"]], dtype=float).reshape(-1, 2).T
    return SensitivityReport(budget=doc["budget"], steps=doc["steps"], rnmse=mean, max_rnmse=peak)


def write_policy(policy: LayerPolicy, path: str, manifest_hash: str | None = None) -> None:
    _write_doc(path, policy.canonical_payload(), manifest_hash)


def read_policy(path: str) -> LayerPolicy:
    doc = _read_doc(path, "layer-policy", _POLICY_SHAPE)
    try:
        actions = tuple(Action(a) for a in doc["actions"])
    except ValueError as exc:
        raise InvalidInputError(f"layer-policy field actions: {exc}") from exc
    policy = LayerPolicy(
        actions=actions, theta=doc["theta"], cum_similarity=doc["cumSimilarity"], matrix_hash=doc["matrixHash"]
    )
    # L, sources and fullCount restate the actions, so a file whose copy differs is refused.
    derived = policy.canonical_payload()
    for key in ("L", "sources", "fullCount"):
        if doc[key] != derived[key]:
            raise InvalidInputError(f"layer-policy field {key} does not match its actions")
    return policy


def write_run_result(result: DecodeRunResult, path: str, manifest_hash: str | None = None) -> None:
    """Write counters, fidelity tables, and the policy hash of a hybrid run.

    The document takes read_run_result's checks first, so a run it would
    refuse writes no file.
    """
    payload = {
        "version": V1_0,
        "kind": "decode-run",
        "theta": result.policy.theta,
        "policyHash": result.policy.sha256(),
        "budget": result.budget,
        "blockSize": result.block_size,
        "steps": result.steps,
        "counters": {
            "fullLayers": result.policy.full_count,
            "reuseLayers": result.policy.num_layers - result.policy.full_count,
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
    require(payload, _RUN_SHAPE, "decode-run")
    _write_doc(path, _check_run(payload), manifest_hash)


def _check_run(doc: dict) -> dict:
    """A decode-run document of _RUN_SHAPE, checked to describe one run.

    A set theta lies in [0, 1], every count is >= 1 (reuseLayers >= 0), and
    each per-step or per-layer array holds steps rows or L = fullLayers +
    reuseLayers items.
    """
    if doc["theta"] is not None:
        check_unit("theta", doc["theta"])
    for key in ("budget", "blockSize", "steps"):
        check_count(key, doc[key])
    counters, fidelity = doc["counters"], doc["fidelity"]
    layers = check_count("fullLayers", counters["fullLayers"]) + check_count("reuseLayers", counters["reuseLayers"], 0)
    rows, items = (doc["steps"], "steps"), (layers, "L = fullLayers + reuseLayers")
    for key, table, dims in (
        ("perLayerRnmse", fidelity["perLayerRnmse"], (items,)),
        ("perStepLayerRnmse", fidelity["perStepLayerRnmse"], (rows, items)),
        ("fullScoreComputationsPerStep", counters["fullScoreComputationsPerStep"], (rows,)),
        ("reuseGatheredRows", counters["reuseGatheredRows"], (rows, items)),
    ):
        # A ragged table's rows give more than one length, so its shape has three parts.
        shape = (len(table), *{len(row) for row in table}) if len(dims) == 2 else (len(table),)
        if shape != tuple(n for n, _ in dims):
            want = " rows of ".join(f"{name} = {n}" for n, name in dims)
            raise InvalidInputError(f"decode-run field {key} must hold {want} items")
    return doc


def read_run_result(path: str) -> dict:
    """A run result as a plain document, arrays as lists, checked to describe one run (_check_run)."""
    return _check_run(_read_doc(path, "decode-run", _RUN_SHAPE))
