"""Canonical JSON encoding, content hashing, and the checks every public count and ratio takes."""

from __future__ import annotations

import hashlib
import json
import math
import numbers

from .errors import InvalidInputError

# 1.1 changed only the decode trace and the sensitivity report. Every other kind
# still writes 1.0, so its bytes and content hash stay; readers accept any 1.x.
FORMAT_VERSION = "1.1"
V1_0 = "1.0"


def check_count(name: str, value, least: int | None = 1) -> int:
    """value as an int, refusing a bool, any other non-integer, and a value below least.

    A bool is an int to isinstance, but never a count, as a JSON boolean is
    never a number to the artifact readers. numpy integers are accepted.
    """
    # An exact int, the common case, skips the ABC check, several times slower than a type test.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_unit(name: str, value) -> float:
    """value as a float, refusing a bool, any other non-number, and a value outside [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


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


# Expected JSON value types for require_keys and require_items. A JSON
# number may be written without a fraction, so NUMBER takes int as well.
# Types match exactly, so a JSON true or false never counts as a number.
NUMBER = (int, float)
NULL = type(None)
NUMBER_OR_NULL = (int, float, NULL)
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object", bool: "a boolean", NULL: "null"}


# The least integer that float() rounds to infinity.
_FLOAT_LIMIT = 2**1024 - 2**970


def _check_value(value, types: tuple, where: str) -> None:
    """Reject a value whose JSON type is not in types, or a number that is not a finite float.

    json.loads reads NaN, Infinity and an out-of-range literal such as 1e400
    as non-finite floats; writers never emit them (NaN is written as null).
    """
    if type(value) not in types:
        want = " or ".join(_JSON_NAMES[t] for t in types)
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise InvalidInputError(f"{where} must be {want}, got {got}")
    if type(value) is int and float in types and abs(value) >= _FLOAT_LIMIT:
        raise InvalidInputError(f"{where} must be a finite number, got an integer of {value.bit_length()} bits")
    if type(value) is float and not math.isfinite(value):
        raise InvalidInputError(f"{where} must be a finite number, got {value}")


def require_keys(doc, fields: dict, where: str) -> None:
    """Reject an artifact object that is not a JSON object, lacks a field, or types one wrongly.

    fields maps each required key to its expected type or tuple of types.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    missing = [key for key in fields if key not in doc]
    if missing:
        raise InvalidInputError(f"{where} is missing field(s) {', '.join(missing)}")
    for key, types in fields.items():
        _check_value(doc[key], types if isinstance(types, tuple) else (types,), f"{where} field {key}")


def _finite_numbers(items: list) -> bool:
    """True unless an item is a non-finite float or an integer float() rounds to infinity.

    Zeros and nulls are dropped unchecked; every other item must be a number.
    """
    try:
        return all(map(math.isfinite, filter(None, items)))
    except OverflowError:
        return False


def require_items(items: list, types, where: str) -> None:
    """Reject a JSON array holding an item of the wrong type, or a number that is not a finite float.

    A well-typed array is accepted by passes that run in C; the item-by-item
    check runs only to find and name the first bad item.
    """
    types = types if isinstance(types, tuple) else (types,)
    if set(map(type, items)).issubset(types) and (float not in types or _finite_numbers(items)):
        return
    for item in items:
        if type(item) not in types or (type(item) is int and float in types) or type(item) is float:
            _check_value(item, types, f"every item of {where}")
