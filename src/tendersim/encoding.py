"""Canonical byte and JSON encodings.

Everything that lands on the ledger or in a report goes through these
helpers so that identical runs serialize to identical bytes: JSON with
sorted keys and fixed separators, byte strings as 0x-prefixed lowercase hex,
except transaction payloads, which are text with one character per byte
(``to_text``) so that the JSON calls they hold stay readable.
Every JSON file the package writes is written whole by
``write_canonical_json``; every JSON text it reads, a chain export, a
scenario, a call or an off-ledger document, is read whole by ``load_json``,
which refuses one that nests deeper than ``MAX_JSON_DEPTH`` or holds a lone
surrogate, then by ``read_object`` against a table of the keys read, each mapped
to the reader of its value (and its default, if it may be left out). A refusal,
``Refused``, carries the keys and indices down to the value it refuses, which
``json_path`` writes as ``$.a[0].b``, or ``$.a["b.c"]`` for a key no identifier.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, NamedTuple

# How deep a JSON text the package reads may nest arrays and objects, its top level the
# first (an honest call nests 4, an export or a scenario 5): the audit recurses into values.
MAX_JSON_DEPTH = 32


def to_hex(b: bytes) -> str:
    return "0x" + b.hex()


def from_hex(s: str) -> bytes:
    """The bytes of ``0x`` and two hex digits per byte; ValueError for a space between."""
    if not isinstance(s, str) or not s.startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {s!r}")
    if len(raw := bytes.fromhex(s[2:])) * 2 + 2 != len(s):
        raise ValueError("expected two hex digits per byte, and no space")
    return raw


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


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # \uD800-\uDFFF; payloads hold \u00XX
# each escape of a JSON text in turn, a surrogate pair as one; group 1 is a lone surrogate
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)")


def load_json(text: str) -> Any:
    """``json.loads(text)``; ValueError for a text that is not JSON, that nests deeper
    than ``MAX_JSON_DEPTH``, the same however deep the caller's stack is, or that holds a
    lone surrogate, a ``\\u`` escape that UTF-8 cannot encode and ``canonical_json`` never
    writes, named at its line, column and character offset in ``text``."""
    try:
        deep = nests_deeper(value := json.loads(text), MAX_JSON_DEPTH)
    except RecursionError:  # json.loads met Python's limit on the caller's stack first
        deep = True
    if deep:
        raise ValueError(f"nests arrays and objects more than {MAX_JSON_DEPTH} levels deep")
    if _SURROGATE_ESCAPE.search(text) and (
            lone := next((m for m in _ESCAPE.finditer(text) if m[1]), None)):
        at = lone.start()
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise ValueError(f"lone surrogate \\{lone[1]}, which UTF-8 cannot encode: "
                         f"line {line} column {column} (char {at})")
    return value


def load_json_bytes(raw: bytes) -> Any:
    return load_json(raw.decode("utf-8"))


def nests_deeper(value: Any, limit: int) -> bool:
    """Whether arrays and objects in ``value``, as ``json.loads`` gives it, nest more than
    ``limit`` levels deep, ``value`` the first; counted a level at a time, not recursively."""
    layer = [value] if type(value) is dict or type(value) is list else []
    for _ in range(limit):
        layer = [v for node in layer for v in (node.values() if type(node) is dict else node)
                 if type(v) is dict or type(v) is list]
        if not layer:
            return False
    return True


def same_json(expected: Any, actual: Any) -> bool:
    """JSON equality that also tells true from 1 and 1 from 1.0."""
    if type(expected) is not type(actual) or expected != actual:
        return False
    if type(expected) is dict:
        return all(same_json(value, actual[key]) for key, value in expected.items())
    if type(expected) is list:
        return all(map(same_json, expected, actual))
    return True


class Refused(ValueError):
    """A value a reader refuses, at ``path``: the keys and indices that lead to it from the
    value read, outermost first. One key down it reads ``key: reason``."""

    def __init__(self, reason: str, path: tuple = ()):
        super().__init__(reason, path)
        self.reason, self.path = reason, path

    def __str__(self) -> str:
        where = json_path(self.path)[1:].lstrip(".")
        return f"{where}: {self.reason}" if where else self.reason


def json_path(path: tuple) -> str:
    """``$``, then ``[i]`` for each index of ``path``, ``.key`` for each key that is an
    identifier and ``["key"]``, the key as a JSON string, for any other, such as ``b.c``."""
    return "$" + "".join(f"[{step}]" if type(step) is int else f".{step}" if step.isidentifier()
                         else f"[{json.dumps(step, ensure_ascii=False)}]" for step in path)


def read_at(step, read, value):
    """``read(value)``; a refusal of it, as one a ``step`` further down."""
    try:
        return read(value)
    except Refused as exc:
        raise Refused(exc.reason, (step, *exc.path)) from None
    except ValueError as exc:
        raise Refused(str(exc), (step,)) from None


def reader(test, parse=lambda value: value, refusal: str = "value refused"):
    """The reader that gives ``parse(value)`` when ``test`` accepts it; ValueError else."""
    def read(value):
        if not test(value := parse(value)):
            raise ValueError(refusal)
        return value
    return read


class optional(NamedTuple):
    """The reader of a key that an object may leave out, and ``default``, the JSON value
    it reads in its place, each time afresh; with none (``...``), the key is left out."""
    read: Callable
    default: Any = ...


def read_object(obj: Any, table: dict) -> dict:
    """Each key of ``table`` that ``obj`` holds or has a default for, mapped to what its reader
    gives for the value. Refused for a non-object; at the key, for a key not in ``table``; at
    ``obj``, for a missing key not ``optional``; at the key, for a value its reader refuses."""
    if type(obj) is not dict:
        raise Refused("must be an object")
    if not obj.keys() <= table.keys():
        unread = next(key for key in obj if key not in table)
        raise Refused(f"not read here; the keys read are {', '.join(table)}", (unread,))
    values = {}
    for key, read in table.items():
        if key in obj:
            values[key] = read_at(key, read.read if type(read) is optional else read, obj[key])
        elif type(read) is not optional:
            raise Refused(f"missing required key {key!r}")
        elif read.default is not ...:
            values[key] = read_at(key, read.read, read.default)
    return values


def read_list(read):
    """The reader of an array, each item read by ``read``, refused at the item's index."""
    def read_items(value) -> list:
        if type(value) is not list:
            raise Refused("must be a list")
        return [read_at(i, read, item) for i, item in enumerate(value)]
    return read_items


def read_map(read):
    """The reader of an object of any keys, each value read by ``read``."""
    return lambda value: read_object(value, dict.fromkeys(value, read)
                                     if type(value) is dict else {})


STRING = reader(lambda value: type(value) is str, refusal="must be a string")
