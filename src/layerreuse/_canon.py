"""Canonical JSON encoding, content hashing, artifact versions, and the checks every input takes.

check_count and check_unit guard every public count and ratio; require
checks a parsed JSON document against one shape. Canonical JSON holds only
finite numbers. SimilarityMatrix, SensitivityReport and LayerPolicy check
what their readers check, and write_trace and write_run_result run their
readers' checks on what they write, so no writer emits what its reader
refuses.

Each artifact kind writes the version of its own last format change, so the
others keep their bytes and hashes; readers accept any 1.x. The decode trace
is at 1.2 (int64 selection sidecars beside its float64 ones), the sensitivity
report at 1.1, and every other kind at 1.0.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers

from .errors import InvalidInputError

V1_0, V1_1, V1_2 = "1.0", "1.1", "1.2"


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
    """value as a float, refusing a bool, any other non-number, and a value outside [0, 1].

    -0.0 comes back as 0.0, so both spellings of zero write the same artifact bytes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
    return float(value) + 0.0


def canonical_json_bytes(payload: dict) -> bytes:
    """Stable byte encoding: sorted keys, compact separators, ASCII only; InvalidInputError for NaN or an infinity."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"an artifact holds a number JSON cannot encode: {exc}") from exc
    return text.encode("ascii")


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
    if version.split(".", 1)[0] != "1":
        raise InvalidInputError(f"unsupported major version {version!r}")


# Leaf types of a JSON shape (see require). A JSON number may be written
# without a fraction, so NUMBER takes int as well. Types match exactly, so a
# JSON true or false never counts as a number.
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


def require(value, shape, where: str) -> None:
    """Reject a parsed JSON value that does not have shape; where names the value in each message.

    A shape is one of:
      - a type or tuple of types, checked by _check_value;
      - a dict mapping each required key to its shape (other keys are allowed);
      - a one-item list, for an array whose every item has that item's shape.

    A nested object is named by its own key, any other member as
    "{where} field {key}", and an array's items as "every item of {where}".
    """
    if isinstance(shape, dict):
        _check_value(value, (dict,), where)
        missing = [key for key in shape if key not in value]
        if missing:
            raise InvalidInputError(f"{where} is missing field(s) {', '.join(missing)}")
        for key, inner in shape.items():
            require(value[key], inner, key if isinstance(inner, dict) else f"{where} field {key}")
    elif isinstance(shape, list):
        _check_value(value, (list,), where)
        (inner,) = shape
        where = f"every item of {where}"
        for item in value:
            require(item, inner, where)
    else:
        _check_value(value, shape if isinstance(shape, tuple) else (shape,), where)
