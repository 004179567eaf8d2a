"""Canonical JSON encoding and content hashing for artifact payloads."""

from __future__ import annotations

import hashlib
import json

from .errors import InvalidInputError

FORMAT_VERSION = "1.0"


def canonical_json_bytes(payload: dict) -> bytes:
    """Stable byte encoding: sorted keys, compact separators, ASCII only."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode(
        "ascii"
    )


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_hash(payload: dict) -> str:
    return sha256_hex(canonical_json_bytes(payload))


def check_header(doc: dict, kind: str) -> None:
    """Reject documents of the wrong kind or an unknown major version."""
    if not isinstance(doc, dict):
        raise InvalidInputError("artifact must be a JSON object")
    got_kind = doc.get("kind")
    if got_kind != kind:
        raise InvalidInputError(f"expected a {kind!r} artifact, got kind {got_kind!r}")
    version = doc.get("version")
    if not isinstance(version, str):
        raise InvalidInputError("artifact is missing its version field")
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise InvalidInputError(f"unsupported major version {version!r}")


def require_keys(doc, keys: tuple[str, ...], where: str) -> None:
    """Reject an artifact object that is not a JSON object or lacks any of keys."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise InvalidInputError(f"{where} is missing field(s) {', '.join(missing)}")
