"""Canonical byte and JSON encodings.

Everything that lands on the ledger or in a report goes through these
helpers so that identical runs serialize to identical bytes: JSON with
sorted keys and fixed separators, byte strings as 0x-prefixed lowercase hex,
except transaction payloads, which are text with one character per byte
(``to_text``) so that the JSON calls they hold stay readable.
Every JSON file the package writes is written by ``write_canonical_json``.
"""

from __future__ import annotations

import codecs
import json
from json.decoder import WHITESPACE
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


_READ_SIZE = 1 << 16


class _Reader:
    """A JSON document read from a binary UTF-8 file one window at a time."""

    def __init__(self, file):
        keys: dict[str, str] = {}  # one str per distinct key, as json.loads keeps them
        self.make_object = lambda pairs: {keys.setdefault(k, k): v for k, v in pairs}
        self.scan = json.JSONDecoder(object_pairs_hook=self.make_object).raw_decode
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.file, self.text, self.pos, self.offset, self.eof = file, "", 0, 0, False

    def refill(self) -> bool:
        """Append a read as long as the unread text or longer (so a value that
        spans many reads is scanned O(log n) times); False at the end."""
        if self.eof:
            return False
        self.text, self.pos, self.offset = self.text[self.pos:], 0, self.offset + self.pos
        data = self.file.read(max(_READ_SIZE, len(self.text)))
        self.eof = not data
        data = self.decode(data, final=self.eof)  # frees the bytes before the join
        self.text += data
        return True

    def next(self, tokens: tuple | None = None) -> str:
        """The next non-space character, "" at the end; given ``tokens``, it must be one, and
        is taken."""
        self.pos = WHITESPACE.match(self.text, self.pos).end()
        while self.pos == len(self.text) and self.refill():
            self.pos = WHITESPACE.match(self.text, self.pos).end()
        token = self.text[self.pos:self.pos + 1]
        if tokens is not None and token not in tokens:
            raise ValueError(f"expected one of {tokens!r} at character {self.offset + self.pos}")
        self.pos += tokens is not None
        return token

    def value(self, levels: int):
        opener = self.next()
        if levels and opener in ("{", "["):
            self.pos += 1
            closer, items = "]" if opener == "[" else "}", []
            token = self.next((closer,)) if self.next() == closer else ","
            while token == ",":
                if opener == "[":
                    items.append(self.value(levels - 1))
                else:
                    key = self.value(0) if self.next() == '"' else self.next(('"',))
                    self.next((":",))
                    items.append((key, self.value(levels - 1)))
                token = self.next((",", closer))
            return self.make_object(items) if opener == "{" else items
        while True:
            try:
                value, end = self.scan(self.text, self.pos)
            except json.JSONDecodeError as exc:
                # an error near the window's end (-Infinity) or at a string's quote may be a cut
                cut = exc.pos >= len(self.text) - 9 or self.text[exc.pos:exc.pos + 1] == '"'
                if not (cut and self.refill()):
                    raise ValueError(f"{exc.msg} at character {self.offset + exc.pos}") from None
                continue
            # a number may go on past the window: 1|.5, 1e|+5
            if type(value) not in (int, float) or len(self.text) - end > 2 or not self.refill():
                self.pos = end
                return value


def read_json(file) -> Any:
    """``json.loads(file.read().decode("utf-8"))``, the mirror of
    ``write_canonical_json``: the top two levels are read token by token and
    each value below them (a block or a disclosed contract of an export) is
    decoded on its own, so neither the bytes nor the text is ever whole.
    Objects share one ``str`` per distinct key. Raises ValueError, or
    RecursionError, where json.loads would."""
    reader = _Reader(file)
    doc = reader.value(2)
    if reader.next():
        raise ValueError(f"extra data at character {reader.offset + reader.pos}")
    return doc


def canonical_json_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("utf-8")


def load_json_bytes(raw: bytes) -> Any:
    return json.loads(raw.decode("utf-8"))
