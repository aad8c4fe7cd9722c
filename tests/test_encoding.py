"""The JSON writer, which writes canonical_json's text and a newline, the
reader, which refuses nesting past one bound, and the chain export it writes,
read back whole."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts
from tendersim.cli import main
from tendersim.encoding import (MAX_JSON_DEPTH, Refused, canonical_json, from_hex, json_path,
                                load_json, load_json_bytes, optional, read_list, read_map,
                                read_object, reader, write_canonical_json)
from tendersim.scenario import run_scenario

from conftest import SCENARIO_DIR, run_honest_tender, two_bid_docs

_json = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
    | st.text(max_size=6) | st.sampled_from(["é", "中文", " ", "\\\"", "\x00"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=30)


@pytest.mark.parametrize("text, value", [("0x", b""), ("0xaB", b"\xab"), ("0x00ff", b"\x00\xff")])
def test_hex_is_two_digits_per_byte_of_either_case(text, value):
    assert from_hex(text) == value


@pytest.mark.parametrize("text", ["0x00 ff", "0x 00", "0x00 ", "0x00\n", "00ff", "0x0", 7, None])
def test_hex_with_a_space_or_a_lone_digit_is_refused(text):
    # bytes.fromhex skips whitespace between digit pairs; a call's spaces would go unread
    with pytest.raises(ValueError):
        from_hex(text)


@pytest.mark.parametrize("text, value", [
    ("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH, None),
    ('{"a":' * (MAX_JSON_DEPTH - 1) + "[]" + "}" * (MAX_JSON_DEPTH - 1), None),
    ("5", 5), ('"[[["', "[[["),
])
def test_the_reader_takes_json_nested_up_to_the_bound(text, value):
    assert load_json(text) == (json.loads(text) if value is None else value)


@pytest.mark.parametrize("text, where", [
    ('"\\ud800"', "\\ud800, which UTF-8 cannot encode: line 1 column 2 (char 1)"),
    ('{"a":\n ["\\uDFFF"]}', "\\uDFFF, which UTF-8 cannot encode: line 2 column 4 (char 9)"),
    ('{"\\ud83d\\ude00": "\\\\ud800", "b": "\\ud83d"}',  # a pair; a backslash, then text
     "\\ud83d, which UTF-8 cannot encode: line 1 column 35 (char 34)"),
])
def test_the_reader_refuses_a_lone_surrogate_where_the_text_holds_it(text, where):
    # json.loads reads one as a str that UTF-8 cannot encode, so no writer could write it
    with pytest.raises(ValueError, match=f"^lone surrogate {re.escape(where)}$"):
        load_json(text)
    with pytest.raises(ValueError, match=re.escape(where)):
        load_json_bytes(text.encode("utf-8"))


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH + 1, 980, 100_000])
@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")])
def test_the_reader_refuses_json_nested_past_the_bound_alike_on_any_stack(depth, opening,
                                                                          closing):
    # json.loads itself meets Python's recursion limit somewhere in between, at a
    # depth that depends on the caller's stack; the refusal does not
    text = opening * depth + "1" + closing * depth
    with pytest.raises(ValueError, match=f"^nests arrays and objects more than "
                                         f"{MAX_JSON_DEPTH} levels deep$"):
        load_json(text)


_TABLE = {"n": reader(lambda value: type(value) is int), "hex": from_hex}


def test_read_object_gives_what_each_reader_gives():
    assert read_object({"hex": "0x01", "n": 2}, _TABLE) == {"n": 2, "hex": b"\x01"}
    assert read_object({}, {}) == {}


@pytest.mark.parametrize("obj, message", [
    ([["n", 2], ["hex", "0x"]], "must be an object"),
    (None, "must be an object"),
    ({"n": 2}, "missing required key 'hex'"),  # at the object that lacks it
    ({"n": 2, "hex": "0x", "note": 1}, "note: not read here; the keys read are n, hex"),
    ({"note": 1}, "note: not read here; the keys read are n, hex"),  # before a missing key
    ({"n": True, "hex": "0x"}, "n: value refused"),
    ({"n": 2, "hex": "0x00 "}, "hex: expected two hex digits per byte, and no space"),
])
def test_read_object_refuses_other_keys_and_values_its_readers_refuse(obj, message):
    with pytest.raises(ValueError) as err:
        read_object(obj, _TABLE)
    assert str(err.value) == message


def test_an_optional_key_may_be_left_out_and_is_read_when_there():
    table = {"n": optional(_TABLE["n"]), "hex": from_hex}
    assert read_object({"hex": "0x"}, table) == {"hex": b""}
    assert read_object({"hex": "0x", "n": 3}, table) == {"n": 3, "hex": b""}
    with pytest.raises(Refused, match="^n: value refused$"):
        read_object({"hex": "0x", "n": None}, table)


def test_an_optional_key_left_out_reads_its_default_afresh_each_time():
    table = {"items": optional(read_list(from_hex), []), "n": optional(_TABLE["n"], 0)}
    first, second = read_object({}, table), read_object({}, table)
    assert first == second == {"items": [], "n": 0}
    first["items"].append(b"")  # no value read is shared between reads, or with the table
    assert read_object({}, table)["items"] == second["items"] == []
    # the default is read as the value would be: a null default is read, not left out
    assert read_object({}, {"hex": optional(from_hex, "0x01")}) == {"hex": b"\x01"}
    assert read_object({}, {"n": optional(lambda value: value, None)}) == {"n": None}
    assert read_object({"n": 5}, table) == {"items": [], "n": 5}


_NESTED = {"items": read_list(lambda value: read_object(value, _TABLE)),
           "map": optional(read_map(from_hex))}


@pytest.mark.parametrize("obj, path, reason", [
    ({"items": [{"n": 1, "hex": "0x"}, {"n": 1, "hex": "0x00 "}]}, ("items", 1, "hex"),
     "expected two hex digits per byte, and no space"),
    ({"items": [{"n": 1, "hex": "0x"}, {"n": 1}]}, ("items", 1), "missing required key 'hex'"),
    ({"items": [7]}, ("items", 0), "must be an object"),
    ({"items": {"0": {}}}, ("items",), "must be a list"),
    ({"items": [], "map": {"a": "0x", "b.c": 5}}, ("map", "b.c"),
     "expected 0x-prefixed hex string, got 5"),
    ({"items": [{"n": 1, "hex": "0x", "x": 1}]}, ("items", 0, "x"),
     "not read here; the keys read are n, hex"),
])
def test_a_refusal_carries_the_keys_and_indices_down_to_the_value(obj, path, reason):
    with pytest.raises(Refused) as err:
        read_object(obj, _NESTED)
    assert (err.value.path, err.value.reason) == (path, reason)
    assert str(err.value) == f"{json_path(path)[2:]}: {reason}"
    if "b.c" in path:  # a key that is not an identifier is written as a JSON string
        assert str(err.value) == f'map["b.c"]: {reason}'


def test_a_json_path_names_keys_after_dots_and_indices_in_brackets():
    assert json_path(()) == "$"
    assert json_path(("blocks", 1, "transactions", 0, "gas_price")) == \
        "$.blocks[1].transactions[0].gas_price"
    assert str(Refused("must be a list", ())) == "must be a list"
    assert str(Refused("must be a list", (3, "a"))) == "[3].a: must be a list"
    # a key that is not an identifier, as a JSON string in brackets
    assert json_path(("map", "b.c", "0x01", "", 'q"[', "é", "é.x", "_a1")) == \
        '$.map["b.c"]["0x01"][""]["q\\"["].é["é.x"]._a1'
    assert str(Refused("must be a list", ("b.c", 0))) == '["b.c"][0]: must be a list'


def test_a_reader_tests_the_value_it_parsed():
    read = reader(lambda raw: len(raw) == 1, from_hex)
    assert read("0x0a") == b"\n"
    with pytest.raises(ValueError, match="^value refused$"):
        read("0x0a0b")


@given(_json)
@settings(max_examples=300, deadline=None)
def test_streamed_writer_equals_canonical_json(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("w") / "out.json"
    write_canonical_json(path, obj)
    assert path.read_bytes() == (canonical_json(obj) + "\n").encode("utf-8")


def _spammed_full_track(honest: int, spam_per_bid: int) -> dict:
    """The export of a FULL_TRACK tender where each honest bid is followed by
    a block of certificate-invalid ones, as in the full_track_spam benchmark."""
    doc = json.loads((SCENARIO_DIR / "spam_full_track.json").read_text(encoding="utf-8"))
    doc["bidders"] = [{"id": f"B{i}", "submit_at_ms": 60_000 * (i + 1),
                       "fields": {"price": 100_000 - i, "delivery_days": 30},
                       "free_text": f"offer {i}"} for i in range(honest)]
    doc["adversarial"] = [{"action": "SPAM_INVALID_CERTS", "count": spam_per_bid,
                           "at_ms": 60_000 * (i + 1) + 30_000} for i in range(honest)]
    doc["tender"]["length_ms"] = 60_000 * (honest + 1)
    doc["expected"] = {"winner_id": f"B{honest - 1}"}
    return run_scenario(doc).export


def test_export_grows_linearly_with_the_bids():
    # each record links to the one before it instead of repeating the bid
    # array, so twice the records make about twice the file (3.0x when every
    # record wrote its array out)
    small, large = (len(canonical_json(_spammed_full_track(honest, 3)).encode("utf-8"))
                    for honest in (24, 48))
    assert large < 2.2 * small, (small, large)


def test_every_byte_of_a_payload_survives_the_export(tmp_path):
    # one character per byte: \", \\, \u00XX and the two UTF-8 bytes of
    # U+0080 to U+00FF each come back as the byte they spell
    raw = bytes(range(256))
    chain, rft, orch, _ = run_honest_tender("STATELESS", two_bid_docs(), publish=False)
    chain.submit_transaction(orch.bidders["B1"].address, rft, raw)
    odd = chain.mine_block(chain.now()).transactions[-1]
    assert odd.error == contracts.MALFORMED_PAYLOAD
    orch.publish_results(orch.close_and_evaluate())
    path = tmp_path / "chain.json"
    write_canonical_json(path, chain.export())
    expected = json.loads(path.read_text(encoding="utf-8"))
    with path.open("rb") as file:
        parsed = audit.parse_export(file)
    assert parsed == expected
    payloads = [tx.payload for block in audit.read_ledger(parsed) for tx in block.transactions]
    assert payloads == [tx.payload for block in chain.blocks for tx in block.transactions]
    assert raw in payloads
    assert main(["audit", str(path)]) == 0
