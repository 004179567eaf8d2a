"""Command-line pipeline: generate traces, profile, plan, decode, bench, report.

Every command writes a run manifest next to its primary output and embeds the
manifest hash in each artifact. The hash covers the command, the effective
config, input and output paths, seed, and tool version, but not wall time.
Paths are recorded relative to the primary output's directory, so re-running
a command on identical inputs produces byte-identical artifacts, in the same
directory or another.

Every file is written atomically: to a temp file beside it, then renamed
into place.

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
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._canon import V1_0, payload_hash
from .engine import cost_model, hybrid_decode, hybrid_decode_blocks
from .errors import InvalidInputError, LayerReuseError
from .formats import (
    CONFIG_FIELDS,
    atomic_open,
    config_from_payload,
    config_payload,
    read_json,
    read_policy,
    read_run_result,
    read_similarity_matrix,
    read_trace,
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
    path = flag_value if flag_value else os.path.join(_out_dir(args), default_name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


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


def _relative(path: str, out_dir: str) -> str:
    """path as a manifest records it: relative to out_dir, the primary output's directory."""
    return os.path.relpath(path, out_dir or os.curdir)


class _Manifest:
    """Collects one command's provenance and writes it next to the primary output.

    out_dir is the primary output's directory. Inputs and outputs are
    recorded relative to it, and callers pass each path in config through
    _relative(path, out_dir) too.
    """

    def __init__(self, command: str, out_dir: str, config: dict, seed: int | None) -> None:
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.seed = seed
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._started = time.monotonic()

    def payload(self) -> dict:
        return {
            "version": V1_0,
            "kind": "run-manifest",
            "command": self.command,
            "config": self.config,
            "inputs": sorted(_relative(path, self.out_dir) for path in self.inputs),
            "outputs": sorted(_relative(path, self.out_dir) for path in self.outputs),
            "seed": self.seed,
            "toolVersion": __version__,
        }

    def hash(self) -> str:
        # Wall time is excluded so identical runs hash identically.
        return payload_hash(self.payload())

    def write(self, primary_output: str) -> None:
        doc = self.payload()
        doc["wallTimeSeconds"] = time.monotonic() - self._started
        path = primary_output + ".manifest.json"
        with atomic_open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _cmd_gen_traces(args) -> int:
    config = _effective_model_config(args)
    out = _resolve(args, args.out, "trace.json")
    manifest = _Manifest(
        "gen-traces",
        os.path.dirname(out),
        {**config_payload(config), "steps": args.steps, "k": args.k, "blockSize": args.block_size},
        config.seed,
    )
    manifest.outputs.append(out)
    model = generate_model(config)
    trace = run_full_trace(model, args.steps, args.k, args.block_size)
    trace = dataclasses.replace(trace, sensitivity=sensitivity_table(model, trace))
    write_trace(trace, out, manifest.hash())
    manifest.write(out)
    print(f"wrote {out}")
    return 0


def _cmd_profile(args) -> int:
    trace = read_trace(args.trace)
    out_matrix = _resolve(args, args.out_matrix, "similarity.json")
    out_sens = _resolve(args, args.out_sensitivity, "sensitivity.json")
    base = os.path.dirname(out_matrix)
    config = {"trace": _relative(args.trace, base), **config_payload(trace.config)}
    manifest = _Manifest("profile", base, config, trace.config.seed)
    manifest.inputs.append(args.trace)
    manifest.outputs.extend([out_matrix, out_sens])
    matrix = build_similarity_matrix(trace)
    report = SensitivityReport.of_table(trace.sensitivity, trace.budget)
    write_similarity_matrix(matrix, out_matrix, manifest.hash())
    write_sensitivity_report(report, out_sens, manifest.hash())
    manifest.write(out_matrix)
    print(f"wrote {out_matrix} and {out_sens}")
    return 0


def _cmd_plan(args) -> int:
    matrix = read_similarity_matrix(args.matrix)
    out = _resolve(args, args.out, "policy.json")
    base = os.path.dirname(out)
    manifest = _Manifest("plan", base, {"matrix": _relative(args.matrix, base), "theta": args.theta}, None)
    manifest.inputs.append(args.matrix)
    manifest.outputs.append(out)
    policy = dp_optimize(matrix, args.theta)
    write_policy(policy, out, manifest.hash())
    manifest.write(out)
    print(
        f"wrote {out}: fullCount={policy.full_count} cumSimilarity={policy.cum_similarity:.6f}"
    )
    return 0


def _cmd_decode(args) -> int:
    config = _effective_model_config(args)
    policy = read_policy(args.policy)
    block_mode = args.block_size != 1
    if args.budget is None:
        raise InvalidInputError("decode requires --budget")
    if block_mode and (args.include_sinks or args.include_recent):
        raise InvalidInputError(
            "--include-sinks and --include-recent are token-mode flags; block mode refuses them"
        )
    out = _resolve(args, args.out, "run.json")
    base = os.path.dirname(out)
    manifest = _Manifest(
        "decode",
        base,
        {
            **config_payload(config),
            "policy": _relative(args.policy, base),
            "budget": args.budget,
            "steps": args.steps,
            "blockSize": args.block_size,
            "includeSinks": args.include_sinks,
            "includeRecent": args.include_recent,
        },
        config.seed,
    )
    manifest.inputs.append(args.policy)
    manifest.outputs.append(out)
    model = generate_model(config)
    if block_mode:
        result = hybrid_decode_blocks(model, policy, args.budget, args.block_size, args.steps)
    else:
        if args.budget > config.context_len:
            print(
                f"warning: budget {args.budget} exceeds context length "
                f"{config.context_len}; clamping per step",
                file=sys.stderr,
            )
        result = hybrid_decode(
            model,
            policy,
            args.budget,
            args.steps,
            include_sinks=args.include_sinks,
            include_recent=args.include_recent,
        )
    write_run_result(result, out, manifest.hash())
    manifest.write(out)
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
    base = os.path.dirname(out)
    manifest = _Manifest(
        "bench",
        base,
        {
            "policy": _relative(args.policy, base),
            "lengths": parsed,
            "budget": args.budget,
            "blockSize": args.block_size,
            "headDim": args.head_dim,
        },
        None,
    )
    manifest.inputs.append(args.policy)
    manifest.outputs.append(out)
    digest = manifest.hash()
    rows = []
    for n in parsed:
        report = cost_model(policy, n, args.budget, block_size=args.block_size, head_dim=args.head_dim)
        rows.append([n, _num(report.bytes_ratio), _num(report.predicted_speedup), digest])
    _write_csv(out, ["contextLen", "bytesRatio", "predictedSpeedup", "manifest"], rows)
    manifest.write(out)
    print(f"wrote {out}")
    return 0


def _num(value: float | None) -> str:
    """A CSV number cell: 12 significant digits, or empty for a null."""
    return "" if value is None else f"{value:.12g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with atomic_open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ascii_name(path: str) -> str:
    """File name of an artifact, for an ASCII report file that names it."""
    name = os.path.basename(path)
    if not name.isascii():
        raise InvalidInputError(f"{path}: a report names this artifact, so its file name must be ASCII")
    return name


def _cmd_report(args) -> int:
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    # Every report file is written in out_dir, the primary output among them.
    artifacts = [_relative(path, out_dir) for path in args.artifacts]
    manifest = _Manifest("report", out_dir, {"artifacts": artifacts}, None)
    manifest.inputs.extend(args.artifacts)
    policies = {}  # policies.md row name -> (artifact, policy)
    runs = []
    rendered = {}  # report file -> the artifact it renders
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
        _write_csv(out, header, rows)
    written = list(rendered)
    if policies:
        out = os.path.join(out_dir, "policies.md")
        with atomic_open(out, "w", encoding="ascii") as fh:
            fh.write("| policy | layers | theta | fullCount | cumSimilarity |\n")
            fh.write("| --- | --- | --- | --- | --- |\n")
            for name, (_, pol) in policies.items():
                theta = "n/a" if pol.theta is None else f"{pol.theta:.4g}"
                cum = "n/a" if pol.cum_similarity is None else f"{pol.cum_similarity:.6g}"
                fh.write(
                    f"| {name} | {pol.num_layers} | {theta} "
                    f"| {pol.full_count} | {cum} |\n"
                )
        written.append(out)
    if len(runs) > 1:
        out = os.path.join(out_dir, "theta_sweep.csv")
        swept = sorted((run for run in runs if run[1]["theta"] is not None), key=lambda run: run[1]["theta"])
        # A null aggregate (NaN rnmse) is an empty cell, as in the per-layer CSV.
        rows = (
            (_num(doc["theta"]), _num(doc["fidelity"]["aggregateRnmse"]), _ascii_name(path))
            for path, doc in swept
        )
        _write_csv(out, ["theta", "aggregateRnmse", "run"], rows)
        written.append(out)
    if not written:
        raise InvalidInputError("no reportable artifacts given")
    manifest.outputs.extend(written)
    manifest.write(written[0])
    for path in written:
        print(f"wrote {path}")
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
    p.add_argument("--block-size", type=int, default=1, help="block width; > 1 switches to block mode")
    p.add_argument("--include-sinks", type=int, default=0, help="force the first n tokens into reused selections")
    p.add_argument("--include-recent", type=int, default=0, help="force the last n tokens into reused selections")
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
