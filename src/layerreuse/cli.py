"""Command-line pipeline: generate traces, profile, plan, decode, bench, report.

Every command writes a run manifest next to its primary output and embeds the
manifest hash in each artifact; _Manifest states what it records. Re-running
a command on identical inputs produces byte-identical artifacts, in the same
directory or another.

A command reads and checks every input and does all of its work before it
creates a file or a directory, so a command that exits non-zero writes no
file, short of an I/O error while writing. Every file goes through
formats.write_files, so a failed write leaves each artifact as it was: a
trace and its sidecars, or a report's files, count as one artifact, though
an earlier artifact of the same command may already be written. A crash
during the renames is caught when the file is read (see formats).

Exit codes: 0 success, 2 validation error (bad flag or file content), 3 I/O
error, 4 internal invariant violation.

Option values win over config-file values, which win over built-in defaults.
The config file is JSON with the same camelCase keys the artifacts use. The
LAYERREUSE_OUT_DIR environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._canon import V1_0, payload_hash
from .engine import cost_model, hybrid_decode
from .errors import InvalidInputError, LayerReuseError
from .formats import (
    CONFIG_FIELDS,
    config_from_payload,
    config_payload,
    read_json,
    read_policy,
    read_run_result,
    read_similarity_matrix,
    read_trace,
    write_files,
    write_policy,
    write_run_result,
    write_sensitivity_report,
    write_similarity_matrix,
    write_trace,
)
from .policy import dp_optimize
from .profiling import SensitivityReport, build_similarity_matrix, sensitivity_table
from .synthetic import SynthModelConfig, generate_model, run_full_trace

_MODEL_DEFAULTS = {key: getattr(SynthModelConfig(layers=10), field) for field, key, *_ in CONFIG_FIELDS}


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("LAYERREUSE_OUT_DIR", ".")


def _resolve(args, flag_value: str | None, default_name: str) -> str:
    return flag_value or os.path.join(_out_dir(args), default_name)


def _effective_model_config(args) -> SynthModelConfig:
    """Merge defaults, config file, and explicit flags into a model config.

    Manifests record config_payload of the result, so one model gets one
    manifest whether a value came from a flag or from the file.
    """
    merged = dict(_MODEL_DEFAULTS)
    if getattr(args, "config", None):
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise InvalidInputError("config file must hold a JSON object")
        unknown = set(doc) - set(_MODEL_DEFAULTS)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    for field, key, *_ in CONFIG_FIELDS:
        value = getattr(args, field)
        if value is not None:
            merged[key] = value
    return config_from_payload(merged)


class _Manifest:
    """One command's provenance, written next to its primary output, outputs[0].

    args names the command and holds the time main started it. inputs maps
    each config key that names an input to its path, or list of paths. Every
    path the manifest records, in its config as in its inputs and outputs, is
    relative to the primary output's directory, so a chain run in another
    directory records the same bytes. hash covers the command, config,
    paths, seed and tool version; wallTimeSeconds, counted from that start
    time, is left out so identical runs hash identically. Two outputs, the
    manifest included, that resolve to one path raise InvalidInputError.
    """

    def __init__(self, args, outputs: list[str], inputs: dict, config: dict, seed: int | None = None) -> None:
        base = os.path.dirname(outputs[0]) or os.curdir

        def relative(value):
            return os.path.relpath(value, base) if isinstance(value, str) else [relative(p) for p in value]

        named = {key: relative(value) for key, value in inputs.items()}
        paths = [path for value in named.values() for path in ([value] if isinstance(value, str) else value)]
        self.path = outputs[0] + ".manifest.json"
        resolved = [os.path.abspath(path) for path in [*outputs, self.path]]
        for i, path in enumerate(resolved):
            if path in resolved[:i]:
                raise InvalidInputError(f"{path} would be written twice; give each output its own path")
        self.started = args.started
        self.payload = {
            "version": V1_0,
            "kind": "run-manifest",
            "command": args.command,
            "config": {**config, **named},
            "inputs": sorted(paths),
            "outputs": sorted(relative(outputs)),
            "seed": seed,
            "toolVersion": __version__,
        }
        self.hash = payload_hash(self.payload)

    def write(self) -> None:
        doc = {**self.payload, "wallTimeSeconds": time.monotonic() - self.started}
        write_files({self.path: (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")})


def _cmd_gen_traces(args) -> int:
    config = _effective_model_config(args)
    model = generate_model(config)
    trace = run_full_trace(model, args.steps, args.k, args.block_size)
    trace = dataclasses.replace(trace, sensitivity=sensitivity_table(model, trace))
    out = _resolve(args, args.out, "trace.json")
    settings = {**config_payload(config), "steps": args.steps, "k": args.k, "blockSize": args.block_size}
    manifest = _Manifest(args, [out], {}, settings, config.seed)
    write_trace(trace, out, manifest.hash)
    manifest.write()
    print(f"wrote {out}")
    return 0


def _cmd_profile(args) -> int:
    trace = read_trace(args.trace)
    matrix = build_similarity_matrix(trace)
    report = SensitivityReport.of_table(trace.sensitivity, trace.budget)
    out_matrix = _resolve(args, args.out_matrix, "similarity.json")
    out_sens = _resolve(args, args.out_sensitivity, "sensitivity.json")
    manifest = _Manifest(
        args, [out_matrix, out_sens], {"trace": args.trace}, config_payload(trace.config), trace.config.seed
    )
    write_similarity_matrix(matrix, out_matrix, manifest.hash)
    write_sensitivity_report(report, out_sens, manifest.hash)
    manifest.write()
    print(f"wrote {out_matrix} and {out_sens}")
    return 0


def _cmd_plan(args) -> int:
    policy = dp_optimize(read_similarity_matrix(args.matrix), args.theta)
    out = _resolve(args, args.out, "policy.json")
    manifest = _Manifest(args, [out], {"matrix": args.matrix}, {"theta": policy.theta})
    write_policy(policy, out, manifest.hash)
    manifest.write()
    print(
        f"wrote {out}: fullCount={policy.full_count} cumSimilarity={policy.cum_similarity:.6f}"
    )
    return 0


def _cmd_decode(args) -> int:
    config = _effective_model_config(args)
    policy = read_policy(args.policy)
    if args.budget is None:
        raise InvalidInputError("decode requires --budget")
    model = generate_model(config)
    # budget counts units of block_size tokens, the final one truncated by the context end.
    units = -(-config.context_len // max(args.block_size, 1))
    if args.block_size >= 1 and args.budget > units:
        within = "" if args.block_size == 1 else f"the {units} blocks of {args.block_size} tokens in "
        print(
            f"warning: budget {args.budget} exceeds {within}context length "
            f"{config.context_len}; clamping per step",
            file=sys.stderr,
        )
    result = hybrid_decode(model, policy, args.budget, args.steps, block_size=args.block_size,
                           include_sinks=args.include_sinks, include_recent=args.include_recent)
    out = _resolve(args, args.out, "run.json")
    settings = {
        **config_payload(config),
        "budget": args.budget,
        "steps": args.steps,
        "blockSize": args.block_size,
        "includeSinks": args.include_sinks,
        "includeRecent": args.include_recent,
    }
    manifest = _Manifest(args, [out], {"policy": args.policy}, settings, config.seed)
    write_run_result(result, out, manifest.hash)
    manifest.write()
    print(f"wrote {out}: aggregate rnmse {result.fidelity.aggregate:.3e}")
    return 0


def _cmd_bench(args) -> int:
    policy = read_policy(args.policy)
    lengths = [part for part in args.lengths.split(",") if part.strip()]
    if not lengths:
        raise InvalidInputError("--lengths must name at least one context length")
    try:
        parsed = [int(part) for part in lengths]
    except ValueError as exc:
        raise InvalidInputError(f"--lengths must be comma-separated integers: {exc}") from exc
    out = _resolve(args, args.out, "bench.csv")
    settings = {"lengths": parsed, "budget": args.budget, "blockSize": args.block_size,
                "headDim": args.head_dim}
    manifest = _Manifest(args, [out], {"policy": args.policy}, settings)
    rows = []
    for n in parsed:
        report = cost_model(policy, n, args.budget, block_size=args.block_size, head_dim=args.head_dim)
        rows.append([n, _num(report.bytes_ratio), _num(report.predicted_speedup), manifest.hash])
    write_files({out: _csv(["contextLen", "bytesRatio", "predictedSpeedup", "manifest"], rows)})
    manifest.write()
    print(f"wrote {out}")
    return 0


def _num(value: float | None) -> str:
    """A CSV number cell: 12 significant digits, or empty for a null."""
    return "" if value is None else f"{value:.12g}"


def _csv(header: list[str], rows) -> bytes:
    """ASCII CSV text: the header line, then one line per row."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("ascii")


def _ascii_name(path: str) -> str:
    """File name of an artifact, for an ASCII report file that names it."""
    name = os.path.basename(path)
    if not name.isascii():
        raise InvalidInputError(f"{path}: a report names this artifact, so its file name must be ASCII")
    return name


def _cmd_report(args) -> int:
    # Every report file is rendered and checked before the first is written.
    out_dir = _out_dir(args)
    policies = {}  # policies.md row name -> (artifact, policy)
    runs = []
    rendered = {}  # per-artifact report file -> the artifact it renders
    outputs = {}  # report file -> its bytes
    for path in args.artifacts:
        doc = read_json(path)
        kind = doc.get("kind") if isinstance(doc, dict) else None
        stem = os.path.splitext(os.path.basename(path))[0]
        if kind == "layer-policy":
            name = _ascii_name(path)
            if name in policies:
                raise InvalidInputError(f"{policies[name][0]} and {path} are both named {name} in policies.md")
            policies[name] = (path, read_policy(path))
            continue
        if kind == "similarity-matrix":
            matrix = read_similarity_matrix(path)
            out = os.path.join(out_dir, f"{stem}.heatmap.csv")
            header = ["target", "source", "overlap"]
            targets, sources = np.tril_indices(matrix.num_layers)
            rows = zip(targets.tolist(), sources.tolist(), map(_num, matrix.flat_entries()))
        elif kind == "decode-run":
            doc = read_run_result(path)
            runs.append((path, doc))
            out = os.path.join(out_dir, f"{stem}.rnmse.csv")
            header = ["layer", "rnmse"]
            rows = enumerate(map(_num, doc["fidelity"]["perLayerRnmse"]))
        else:
            raise InvalidInputError(f"{path}: unsupported artifact kind {kind!r}")
        if out in rendered:
            raise InvalidInputError(f"{rendered[out]} and {path} both render to {out}")
        rendered[out] = path
        outputs[out] = _csv(header, rows)
    if policies:
        table = "| policy | layers | theta | fullCount | cumSimilarity |\n| --- | --- | --- | --- | --- |\n"
        for name, (_, pol) in policies.items():
            theta = "n/a" if pol.theta is None else f"{pol.theta:.4g}"
            cum = "n/a" if pol.cum_similarity is None else f"{pol.cum_similarity:.6g}"
            table += f"| {name} | {pol.num_layers} | {theta} | {pol.full_count} | {cum} |\n"
        outputs[os.path.join(out_dir, "policies.md")] = table.encode("ascii")
    if len(runs) > 1:
        swept = sorted((run for run in runs if run[1]["theta"] is not None), key=lambda run: run[1]["theta"])
        # A null aggregate (NaN rnmse) is an empty cell, as in the per-layer CSV.
        rows = (
            (_num(doc["theta"]), _num(doc["fidelity"]["aggregateRnmse"]), _ascii_name(path))
            for path, doc in swept
        )
        outputs[os.path.join(out_dir, "theta_sweep.csv")] = _csv(["theta", "aggregateRnmse", "run"], rows)
    manifest = _Manifest(args, list(outputs), {"artifacts": args.artifacts}, {})
    write_files(outputs)
    manifest.write()
    for out in outputs:
        print(f"wrote {out}")
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    for field, key, flag, json_type, text in CONFIG_FIELDS:
        parser.add_argument(
            flag,
            dest=field,
            type=json_type if json_type is int else float,
            help=f"{text} (default {_MODEL_DEFAULTS[key]})",
        )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerreuse",
        description="Profile top-k selection overlap, plan layer policies, and decode hybrids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes the output directory its default paths resolve in.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out-dir", help="output directory (default $LAYERREUSE_OUT_DIR or .)")

    p = sub.add_parser("gen-traces", parents=[shared],
                       help="decode with full attention; record selections and sensitivity")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, default=4, help="decode steps (default 4)")
    p.add_argument("--k", type=int, default=32, help="token top-k budget (default 32)")
    p.add_argument("--block-size", type=int, default=1, help="block width for block sets (default 1)")
    p.add_argument("--out", help="trace path (default <out-dir>/trace.json)")
    p.set_defaults(handler=_cmd_gen_traces)

    p = sub.add_parser("profile", parents=[shared],
                       help="build the similarity matrix and sensitivity report from the trace alone")
    p.add_argument("--trace", required=True, help="trace written by gen-traces")
    p.add_argument("--out-matrix", help="matrix path (default <out-dir>/similarity.json)")
    p.add_argument("--out-sensitivity", help="report path (default <out-dir>/sensitivity.json)")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("plan", parents=[shared], help="compute the optimal layer policy for a threshold")
    p.add_argument("--matrix", required=True, help="similarity matrix written by profile")
    p.add_argument("--theta", type=float, required=True, help="reuse admission threshold in [0, 1]")
    p.add_argument("--out", help="policy path (default <out-dir>/policy.json)")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("decode", parents=[shared], help="run hybrid decoding under a policy")
    _add_model_flags(p)
    p.add_argument("--policy", required=True, help="policy written by plan")
    p.add_argument("--budget", type=int,
                   help="selection budget: tokens at --block-size 1, blocks above that (required)")
    p.add_argument("--steps", type=int, default=4, help="decode steps (default 4)")
    p.add_argument("--block-size", type=int, default=1,
                   help="selection width in tokens; above 1, Full layers select blocks of it (default 1)")
    p.add_argument("--include-sinks", type=int, default=0,
                   help="force the first n tokens, or the blocks holding them, into reused selections")
    p.add_argument("--include-recent", type=int, default=0,
                   help="force the last n tokens, or the blocks holding them, into reused selections")
    p.add_argument("--out", help="run result path (default <out-dir>/run.json)")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("bench", parents=[shared], help="sweep the cost model over context lengths")
    p.add_argument("--policy", required=True, help="policy file; supplies L and fullCount")
    p.add_argument("--lengths", required=True, help="comma-separated context lengths")
    p.add_argument("--budget", type=int, default=64, help="selection budget (default 64)")
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--head-dim", type=int, default=64, help="total per-layer KV width")
    p.add_argument("--out", help="CSV path (default <out-dir>/bench.csv)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("report", parents=[shared], help="render artifacts to CSV and markdown summaries")
    p.add_argument("artifacts", nargs="+", help="matrix, policy, or run-result files")
    p.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.monotonic()  # a manifest's wallTimeSeconds counts from here
    try:
        return args.handler(args)
    except LayerReuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - internal invariant escape hatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
