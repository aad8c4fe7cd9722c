"""Canonical byte and JSON encodings.

Everything that lands on the ledger or in a report goes through these
helpers so that identical runs serialize to identical bytes: JSON with
sorted keys and fixed separators, byte strings as 0x-prefixed lowercase hex,
except transaction payloads, which are text with one character per byte
(``to_text``) so that the JSON calls they hold stay readable.
Every JSON file the package writes is written by ``write_canonical_json``,
which streams it; a chain export is read back whole, with ``json.loads``
(``audit.parse_export``).
"""

from __future__ import annotations

import json
from typing import Any


def to_hex(b: bytes) -> str:
    return "0x" + b.hex()


class HexMemo(dict):
    """``memo[raw]`` is ``to_hex(raw)``, rendered once per distinct ``raw``.

    Equal inputs get the same ``str`` object back, so an address named in
    many lists is held in memory once for as long as the memo lives.
    """

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = to_hex(raw)
        return text


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


def _canonical_chunks(obj: Any, levels: int):
    """``canonical_json(obj)`` in pieces that join to it: the containers of
    the top ``levels`` levels are written here, everything below them whole."""
    if not levels or not obj or type(obj) not in (dict, list):
        yield canonical_json(obj)
    elif type(obj) is list:
        opener = "["
        for item in obj:
            yield opener
            yield from _canonical_chunks(item, levels - 1)
            opener = ","
        yield "]"
    else:
        opener = "{"
        for key in sorted(obj):
            yield opener + json.encoder.encode_basestring(key) + ":"
            yield from _canonical_chunks(obj[key], levels - 1)
            opener = ","
        yield "}"


def write_canonical_json(path, obj: Any) -> None:
    """Write ``canonical_json(obj) + "\n"`` to ``path`` as UTF-8, byte for byte.

    The text is never whole in memory: the top two levels are written piece
    by piece, and each value below them is encoded on its own (a block or a
    disclosed contract of a chain export, a row of an audit report's gas
    trace or timeline, a field of each report in a list). Keys must be
    strings.
    """
    with open(path, "wb") as out:
        for chunk in _canonical_chunks(obj, 2):
            out.write(chunk.encode("utf-8"))
        out.write(b"\n")


def canonical_json_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("utf-8")


def load_json_bytes(raw: bytes) -> Any:
    return json.loads(raw.decode("utf-8"))
