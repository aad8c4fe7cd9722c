"""Canonical byte and JSON encodings.

Everything that lands on the ledger or in a report goes through these
helpers so that identical runs serialize to identical bytes: JSON with
sorted keys and fixed separators, byte strings as 0x-prefixed lowercase hex.
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


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("utf-8")


def load_json_bytes(raw: bytes) -> Any:
    return json.loads(raw.decode("utf-8"))
