"""One property over every table that reads a document from outside the program.

Each writer's document, read by its table (``contracts.CALLS`` on a ledger,
``orchestrator.TENDER_DATA``, ``CRITERIA`` and ``BID_DOCUMENT``, ``audit.EXPORT``
and ``scenario.SCENARIO``), reads back and re-writes byte for byte. One edit of it
is refused where it was made: a leaf replaced by a value of another JSON type, or
an added key, at that path or an ancestor's; a lone surrogate at its line and
column; a call, with a rejected receipt. Three edits are accepted by design, each
named in ``_accepted_by_design``.
"""

import copy
import functools
import io
import json
import math
import operator
import re
from dataclasses import replace
from random import Random
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts, crypto
from tendersim.chain import EXPORT_FORMAT, Chain, ChainConfig, transaction_json
from tendersim.encoding import (Refused, canonical_json, canonical_json_bytes, json_path,
                                load_json, read_object, to_hex)
from tendersim.errors import TenderSimError
from tendersim.orchestrator import BidDocument, EvaluationCriteria, TenderSpec, account_address
from tendersim.scenario import run_scenario, validate_scenario

import ledger_ops
from conftest import BUNDLED_SCENARIOS, HALF_A, SCENARIO_DIR, leaf_paths, price_criteria


class Format(NamedTuple):
    doc: Callable[[], dict]  # the document as its writer writes it
    # the document's text read by its table, and what was read re-written; None when the
    # program has no writer of the format. A refusal raises.
    read: Callable[[str], bytes | None]
    leaves: Callable[[dict], list]  # the paths of the leaves the table reads
    objects: Callable[[dict], list]  # the paths of the objects it reads key by key
    call: bool = False  # refused with a rejected receipt, at no path
    at_leaf: bool = False  # each leaf has a reader of its own, which names it in a refusal


# --- contract calls, each mined on a ledger -------------------------------------------------

_KEYS = crypto.generate_keypair(Random(3))
_SENT_TO_A_TENDER = ("place_bid", "reveal_key_half", "publish_results")


def _mined(op: str, payload: bytes):
    """The transaction ``payload`` makes, sent to a new FULL_TRACK tender for an op of a
    tender and as a deployment else, by the tender's deployer."""
    chain = Chain(ChainConfig())
    sender = chain.register_account(account_address(b"writer"))
    target = None
    if op in _SENT_TO_A_TENDER:
        target = ledger_ops.init_tender(chain, sender, 600_000, _KEYS.public_key, 2,
                                        contracts.SCHEME_FULL)
    stamp = chain.head().timestamp + chain.config.block_interval_ms
    chain.advance_to(stamp)
    chain.submit_transaction(sender, target, payload)
    return chain.mine_block(stamp).transactions[-1]


def _call_format(op: str, **values) -> Format:
    def read(text: str) -> bytes:
        tx = _mined(op, text.encode("utf-8"))
        if tx.status != "OK":
            raise ledger_ops.Rejected(tx.error)
        call = load_json(text)
        return canonical_json_bytes(contracts.call(op, **read_object(
            {key: value for key, value in call.items() if key != "op"}, contracts.CALLS[op])))

    # each value is read whole, a published result too: its keys are the audit's to read
    return Format(lambda: contracts.call(op, **values), read,
                  leaves=lambda doc: [(key,) for key in doc], objects=lambda doc: [()],
                  call=True)


_CALLS = {
    "deploy_data": dict(data=b"terms of the tender"),
    "deploy_rft": dict(scheme=contracts.SCHEME_FULL, length_ms=600_000,
                       pubk=_KEYS.public_key, limit=2, tender_data=account_address(b"data")),
    "place_bid": dict(id="B1", data_addr=account_address(b"bid"), v=27, r=bytes(range(32)),
                      s=bytes(range(32, 64)), sealed_half_a=HALF_A),
    "reveal_key_half": dict(bid_addr=account_address(b"record"), half_b=HALF_A),
    "publish_results": dict(result={"format": "tender-result/3", "winner_id": None,
                                    "winner_bid_address": None, "bids": {}}),
}
assert _CALLS.keys() == contracts.CALLS.keys(), "an op the property does not call"


# --- off-ledger documents -------------------------------------------------------------------

_SPEC = TenderSpec(title="Carriageway resurfacing", terms=b"Resurface 4.2 km",
                   criteria=price_criteria(max_days=90), length_ms=600_000, limit=2,
                   scheme=contracts.SCHEME_FULL)
_BID = BidDocument("B1", {"price": 100.0, "delivery_days": 30.0}, b"first offer")


def _read_data_blob(text: str) -> bytes:
    title, terms, criteria = TenderSpec.parse_data_blob(text.encode("utf-8"))
    return replace(_SPEC, title=title, terms=terms, criteria=criteria).data_blob()


def _read_criteria(text: str) -> bytes:
    return canonical_json_bytes(EvaluationCriteria.from_dict(load_json(text)).to_dict())


def _every_leaf(doc) -> list:
    return list(leaf_paths(doc))


def _every_object(node, path=()) -> list:
    """The path to every object at or below ``node``."""
    children = node.items() if type(node) is dict else enumerate(node)
    return [path] * (type(node) is dict) + [
        found for key, child in children if type(child) in (dict, list)
        for found in _every_object(child, path + (key,))]


# --- the chain export -----------------------------------------------------------------------

@functools.cache
def _export() -> dict:
    return run_scenario(SCENARIO_DIR / "full_track_10_bids.json").export


def _read_export(text: str) -> bytes:
    export = audit.parse_export(io.BytesIO(text.encode("utf-8")))
    blocks = [{"height": block.height, "timestamp": block.timestamp,
               "block_hash": to_hex(block.block_hash),
               "transactions": [{**tx.receipt, **transaction_json(tx),
                                 "tx_hash": to_hex(tx.tx_hash)} for tx in block.transactions]}
              for block in audit.read_ledger(export)]
    return canonical_json_bytes({"format": EXPORT_FORMAT, "blocks": blocks,
                                 "contracts": export["contracts"]})


def _block_and_signed_leaves(export) -> list:
    # each leaf of a block, and of a transaction but its receipt; the tx_hash is recomputed
    return [("blocks", i, key) for i in range(len(export["blocks"]))
            for key in ("height", "timestamp", "block_hash")] + [
        ("blocks", i, "transactions", j, key) for i, block in enumerate(export["blocks"])
        for j in range(len(block["transactions"]))
        for key in ("sender", "target", "payload", "nonce", "tx_hash")]


def _blocks_and_transactions(export) -> list:
    return [()] + [("blocks", i) for i in range(len(export["blocks"]))] + [
        ("blocks", i, "transactions", j) for i, block in enumerate(export["blocks"])
        for j in range(len(block["transactions"]))]


def _read_scenario(text: str) -> None:
    # the program writes no scenario, so nothing is re-written
    validate_scenario(load_json(text))


FORMATS = {
    **{f"call-{op}": _call_format(op, **values) for op, values in _CALLS.items()},
    "data-blob": Format(lambda: json.loads(_SPEC.data_blob()), _read_data_blob,
                        _every_leaf, _every_object),
    "criteria": Format(_SPEC.criteria.to_dict, _read_criteria, _every_leaf, _every_object),
    "bid-document": Format(lambda: json.loads(_BID.to_bytes()),
                           lambda text: BidDocument.from_bytes(text.encode("utf-8")).to_bytes(),
                           _every_leaf, _every_object, at_leaf=True),
    "chain-export": Format(_export, _read_export, _block_and_signed_leaves,
                           _blocks_and_transactions, at_leaf=True),
    **{f"scenario-{name}": Format(lambda doc=doc: doc, _read_scenario, _every_leaf,
                                  _every_object)
       for name, doc in BUNDLED_SCENARIOS.items()},
}

# a value of each JSON type; among the numbers, ints no count or 64-bit field takes
_OTHER_TYPES = [2**64, -1, 0.5, math.nan, True, None, "0x00", [1], {"x": 1}]
# an added key's value: no number, which a map of bid fields would read
_ADDED = [True, None, "0x00", [1], {"x": 1}]
_NULLABLE = (("expected", "winner_id"), ("expected", "recomputed_winner"))
_ESCAPED_SURROGATE = "\\ud800"  # as json.dumps writes "\ud800"


def _read_as_a_number(path: tuple) -> bool:
    """Whether ``orchestrator.number`` reads the leaf at ``path``: a bid field, or a
    criterion's weight or threshold."""
    return (len(path) >= 2 and path[-2] == "fields"
            or len(path) >= 3 and (path[-3], path[-1]) in {("numeric_fields", 1),
                                                            ("feasibility", 2)})


def _accepted_by_design(path: tuple, new) -> bool:
    """The edits a table accepts by design: a null ``tender_data``, a tender with no tender
    data; a finite number where ``orchestrator.number`` reads one, which takes an int where
    the writer writes a float (and a float where a bundled scenario has an int); a null
    expected winner, a scenario that expects none."""
    if new is None:
        return path == ("tender_data",) or path in _NULLABLE
    return _read_as_a_number(path) and type(new) in (int, float) and math.isfinite(new)


def _refused_at(fmt: Format, text: str) -> str | None:
    """Where ``fmt``'s table refuses ``text``: the JSON path, or the line and column, that the
    refusal names, or a rejected call's receipt error; None when it reads ``text``."""
    try:
        fmt.read(text)
    except ledger_ops.Rejected as exc:
        return exc.code
    except Refused as exc:
        return json_path(exc.path)
    except (ValueError, TenderSimError) as exc:
        named = re.search(r"\bat (\$[^:\s]*): |(line \d+ column \d+) \(char \d+\)$", str(exc))
        assert named, exc
        return named[1] or named[2]
    return None


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_a_reader_table_reads_its_writers_document_and_refuses_any_edit_where_made(name, data):
    fmt = FORMATS[name]
    doc = copy.deepcopy(fmt.doc())
    written = canonical_json(doc)
    assert fmt.read(written) == (None if name.startswith("scenario-")
                                 else written.encode("utf-8"))

    edit = data.draw(st.sampled_from(["other-type", "lone-surrogate", "added-key"]), label="edit")
    path = data.draw(st.sampled_from(fmt.objects(doc) if edit == "added-key" else fmt.leaves(doc)),
                     label="path")
    node = functools.reduce(operator.getitem, path if edit == "added-key" else path[:-1], doc)
    if edit == "added-key":
        path += ("added",)
        node["added"] = data.draw(st.sampled_from(_ADDED), label="value")
    elif edit == "lone-surrogate":
        node[path[-1]] = "\ud800"
    else:
        node[path[-1]] = new = data.draw(st.sampled_from(
            [value for value in _OTHER_TYPES if type(value) is not type(node[path[-1]])]),
            label="value")
    text = json.dumps(doc)  # ASCII: a lone surrogate as its \u escape, on one line
    where = _refused_at(fmt, text)

    if edit == "other-type" and _accepted_by_design(path, new):
        assert where is None
    elif fmt.call:  # no path: a call is refused whole, unless its op names no call
        assert where == (contracts.UNKNOWN_CONTRACT_CALL
                         if edit == "other-type" and path == ("op",)
                         else contracts.MALFORMED_PAYLOAD)
    elif edit == "lone-surrogate":  # the text is refused before any value is read
        assert where == f"line 1 column {text.index(_ESCAPED_SURROGATE) + 1}"
    elif fmt.at_leaf:
        assert where == json_path(path)
    else:  # at the leaf or the added key, or at an object or list that holds it
        assert where in {json_path(path[:k]) for k in range(len(path) + 1)}
