"""Canonical byte and JSON encodings.

Everything that lands on the ledger or in a report goes through these
helpers so that identical runs serialize to identical bytes: JSON with
sorted keys and fixed separators, byte strings as 0x-prefixed lowercase hex,
except transaction payloads, which are text with one character per byte
(``to_text``) so that the JSON calls they hold stay readable.
Every JSON file the package writes is written whole by
``write_canonical_json``; a chain export is read back whole, with
``json.loads`` (``audit.parse_export``).
"""

from __future__ import annotations

import json
from typing import Any


def to_hex(b: bytes) -> str:
    return "0x" + b.hex()


def from_hex(s: str) -> bytes:
    if not isinstance(s, str) or not s.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {s!r}")
    return bytes.fromhex(s[2:])


def to_text(b: bytes) -> str:
    """``b`` as text with one character per byte, byte 0xNN as U+00NN (Latin-1)."""
    return b.decode("latin-1")


def from_text(s: str) -> bytes:
    """The bytes ``to_text`` spelled as ``s``: TypeError for anything but a
    string, ValueError (UnicodeEncodeError) for a character above U+00FF."""
    return str.encode(s, "latin-1")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_canonical_json(path, obj: Any) -> None:
    """Write ``canonical_json(obj) + "\n"`` to ``path`` as UTF-8, byte for byte."""
    with open(path, "wb") as out:
        out.write(canonical_json(obj).encode("utf-8"))
        out.write(b"\n")


def canonical_json_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("utf-8")


def load_json_bytes(raw: bytes) -> Any:
    return json.loads(raw.decode("utf-8"))


def same_json(expected: Any, actual: Any) -> bool:
    """JSON equality that also tells true from 1 and 1 from 1.0."""
    if type(expected) is not type(actual) or expected != actual:
        return False
    if type(expected) is dict:
        return all(same_json(value, actual[key]) for key, value in expected.items())
    if type(expected) is list:
        # equal strings are strictly equal; only other values need a look
        return set(map(type, expected)) <= {str} or all(map(same_json, expected, actual))
    return True
