import ast
import dataclasses
import json
import math
import re
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

import tendersim
from tendersim import audit, contracts, crypto
from tendersim.chain import MAX_DATA_BITS, Chain, ChainConfig
from tendersim.encoding import canonical_json, canonical_json_bytes, from_hex, to_hex
from tendersim.errors import (
    AuthFailed,
    DecryptionFailed,
    EvaluationBeforeDeadline,
    RepublishForbidden,
    ScenarioError,
)
from tendersim.orchestrator import (
    STATUS_INFEASIBLE,
    STATUS_MALFORMED,
    STATUS_SCORED,
    STATUS_UNREVEALED,
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
)

import ledger_ops
from conftest import price_criteria, run_honest_tender, two_bid_docs
from winner_oracle import brute_force_winner


def _make_orch(scheme="FULL_TRACK", seed=3, criteria=None, limit=2, length_ms=600_000):
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, Random(seed))
    spec = TenderSpec(title="supply tender", terms=b"deliver the goods",
                      criteria=criteria or price_criteria(max_days=30),
                      length_ms=length_ms, limit=limit, scheme=scheme)
    rft, data_addr = orch.open_tender(spec)
    return chain, orch, rft, data_addr


def test_open_tender_places_spec_and_key_on_ledger():
    chain, orch, rft, data_addr = _make_orch()
    rft_state = chain.export()["contracts"][to_hex(rft)]
    assert rft_state["pubk"] == to_hex(orch.to.keys.public_key)
    assert rft_state["tender_data"] == to_hex(data_addr)
    title, terms, criteria = TenderSpec.parse_data_blob(
        chain.get_contract(data_addr).data)
    assert title == "supply tender"
    assert terms == b"deliver the goods"
    assert criteria == price_criteria(max_days=30)  # round-trips exactly


def test_criteria_serialization_round_trip():
    criteria = EvaluationCriteria(
        numeric_fields=(("price", 1.0, "MINIMIZE"), ("quality", 0.25, "MAXIMIZE")),
        feasibility_predicates=(("delivery_days", "<=", 30.0),))
    assert EvaluationCriteria.from_dict(criteria.to_dict()) == criteria


def test_bid_document_round_trips_byte_exactly():
    doc = BidDocument("B1", {"price": 99.5, "delivery_days": 12.0}, b"free text \x00\xff")
    raw = doc.to_bytes()
    assert BidDocument.from_bytes(raw) == doc
    assert BidDocument.from_bytes(raw).to_bytes() == raw


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1", None])
def test_bid_document_refuses_non_finite_fields(value):
    # as its reader refuses them: NaN cannot be scored, and true would be written as 1.0
    with pytest.raises(ValueError, match="^fields.price: must be a finite number$"):
        BidDocument("B1", {"price": value})


def test_bid_document_fields_are_the_floats_it_writes():
    doc = BidDocument("B1", {"price": 5, "days": 2.5})
    assert doc.fields == {"price": 5.0, "days": 2.5}
    assert type(doc.fields["price"]) is float


@pytest.mark.parametrize("threshold", [math.nan, -math.inf, "nan"],
                         ids=["nan", "minus-infinity", "nan-string"])
def test_criteria_refuse_a_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="^feasibility: must be a finite number$"):
        EvaluationCriteria.from_dict({"numeric_fields": [["price", 1, "MINIMIZE"]],
                                      "feasibility": [["days", "<=", threshold]],
                                      "tie_break": "LOWEST_BID_ADDRESS"})


def test_criteria_read_a_json_int_as_the_float_they_write():
    criteria = EvaluationCriteria.from_dict({"numeric_fields": [["price", 1, "MINIMIZE"]],
                                             "feasibility": [["days", "<=", 90]],
                                             "tie_break": "LOWEST_BID_ADDRESS"})
    # written 1.0 and 90.0, byte for byte as criteria built of floats write them
    assert canonical_json(criteria.to_dict()) == (
        '{"feasibility":[["days","<=",90.0]],"numeric_fields":[["price",1.0,"MINIMIZE"]],'
        '"tie_break":"LOWEST_BID_ADDRESS"}')


_CRITERIA = {"numeric_fields": [["price", 1.0, "MINIMIZE"]],
             "feasibility": [["days", "<=", 90.0]], "tie_break": "LOWEST_BID_ADDRESS"}


@pytest.mark.parametrize("key, value, message", [
    ("numeric_fields", [], "numeric_fields: must be a list of at least 1 rows of 3 values"),
    ("numeric_fields", [["price", 1.0]], "numeric_fields: must be a list of at least 1 rows"),
    ("numeric_fields", ["price"], "numeric_fields: must be a list of at least 1 rows"),
    ("numeric_fields", [7], "numeric_fields: must be a list of at least 1 rows"),
    ("numeric_fields", {"price": 1.0}, "numeric_fields: must be a list of at least 1 rows"),
    ("numeric_fields", [["price", True, "MINIMIZE"]], "numeric_fields: must be a finite number"),
    ("numeric_fields", [["price", "1", "MINIMIZE"]], "numeric_fields: must be a finite number"),
    ("numeric_fields", [[7, 1.0, "MINIMIZE"]], "numeric_fields: must be a string"),
    ("numeric_fields", [[["price"], 1.0, "MINIMIZE"]], "numeric_fields: must be a string"),
    ("numeric_fields", [["price", 1.0, "minimize"]], "numeric_fields: value refused"),
    ("numeric_fields", [["price", 1.0, ["MINIMIZE"]]], "numeric_fields: value refused"),
    ("feasibility", [["days", "=<", 90.0]], "feasibility: value refused"),
    ("feasibility", [["days", ["<="], 90.0]], "feasibility: value refused"),
    ("feasibility", [["days", "<=", 10**400]], "feasibility: must be a finite number"),
    ("feasibility", None, "feasibility: must be a list of at least 0 rows"),
    ("feasibility", [None], "feasibility: must be a list of at least 0 rows"),
    ("tie_break", "HIGHEST_BID_ADDRESS", "tie_break: value refused"),
    ("tie_break", None, "tie_break: value refused"),
])
def test_criteria_refuse_a_value_their_table_does_not_read(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        EvaluationCriteria.from_dict({**_CRITERIA, key: value})


_THREE_KEYS = "not read here; the keys read are numeric_fields, feasibility, tie_break"


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.pop("tie_break"), "missing required key 'tie_break'"),
    (lambda c: c.pop("feasibility"), "missing required key 'feasibility'"),
    (lambda c: c.update(weights=[]), f"weights: {_THREE_KEYS}"),
    (lambda c: c.update(feasability=c.pop("feasibility")), f"feasability: {_THREE_KEYS}"),
], ids=["no-tie-break", "no-feasibility", "unread-key", "misspelt-key"])
def test_criteria_are_an_object_of_exactly_their_three_keys(edit, message):
    criteria = dict(_CRITERIA)
    edit(criteria)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EvaluationCriteria.from_dict(criteria)


@pytest.mark.parametrize("fields", [{"price": 1e308, "q": -1e308}, {"price": -1e308, "q": 0.0}],
                         ids=["nan", "overflow"])
def test_a_score_that_is_not_finite_is_graded_infeasible(fields):
    # each field is finite, but the weighted sum is NaN or overflows
    criteria = EvaluationCriteria(numeric_fields=(("price", 10.0, "MINIMIZE"),
                                                  ("q", 10.0, "MINIMIZE")))
    docs = [BidDocument("B1", fields), BidDocument("B2", {"price": 5.0, "q": 1.0})]
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", docs, criteria=criteria)
    result = orch.close_and_evaluate()
    entry = result.bids[subs["B1"].record_address]
    assert entry["status"] == STATUS_INFEASIBLE and "score" not in entry
    assert result.winner_id == "B2"
    assert audit.replay_and_audit(chain.export(), rft).ok()


@pytest.mark.parametrize("title, length_ms, message", [
    pytest.param("t" * 700, 600_000, "tender data deployment rejected: DATA_TOO_LARGE",
                 id="data-over-max-data-bits"),
    pytest.param("supply tender", 0, "tender deployment rejected: MALFORMED_PAYLOAD",
                 id="length-ms-0"),
])
def test_open_tender_reports_a_rejected_deployment(title, length_ms, message):
    orch = TenderOrchestrator(Chain(ChainConfig()), Random(3))
    spec = TenderSpec(title=title, terms=b"deliver the goods",
                      criteria=price_criteria(), length_ms=length_ms, limit=2,
                      scheme="FULL_TRACK")
    with pytest.raises(ScenarioError, match=message):
        orch.open_tender(spec)


@pytest.mark.parametrize("edit", [
    lambda spec: dataclasses.replace(spec, criteria=EvaluationCriteria(
        numeric_fields=(("price", math.nan, "MINIMIZE"),))),
    lambda spec: dataclasses.replace(spec, criteria=EvaluationCriteria(
        numeric_fields=(("price", True, "MINIMIZE"),))),
    lambda spec: dataclasses.replace(spec, criteria=EvaluationCriteria(
        numeric_fields=(("price", 1.0, "MINIMIZE"),),
        feasibility_predicates=(("days", "<=", math.inf),))),
    lambda spec: dataclasses.replace(spec, criteria=EvaluationCriteria(numeric_fields=())),
    lambda spec: dataclasses.replace(spec, title=5),
], ids=["weight-nan", "weight-true", "threshold-infinity", "no-numeric-field", "title-5"])
def test_open_tender_refuses_tender_data_its_reader_would_refuse(edit):
    # criteria built in Python are read as the evaluation and the audit read them,
    # before anything reaches the ledger
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, Random(3))
    spec = edit(TenderSpec(title="t", terms=b"x", criteria=price_criteria(), length_ms=600_000,
                           limit=2, scheme="FULL_TRACK"))
    with pytest.raises(ValueError):
        orch.open_tender(spec)
    assert chain.head().height == 0


def test_data_deployment_holds_at_most_max_data_bits_on_ledger_and_in_replay():
    assert MAX_DATA_BITS == 5000
    chain = Chain(ChainConfig())
    sender = chain.register_account(b"\x01" * 20)
    txs = {}
    for size in (MAX_DATA_BITS // 8, MAX_DATA_BITS // 8 + 1):  # 625 and 626 bytes
        chain.submit_transaction(sender, None,
                                 canonical_json_bytes(contracts.call("deploy_data",
                                                                     data=b"d" * size)))
        txs[size] = chain.mine_block(chain.head().timestamp + 1).transactions[0]
    assert (txs[625].status, txs[625].error) == ("OK", None)
    assert (txs[626].status, txs[626].error) == ("REJECTED", "DATA_TOO_LARGE")
    replay = audit.replay_chain(chain.export())
    assert replay.findings == []
    assert list(replay.state) == [txs[625].created_address]
    assert len(replay.state[txs[625].created_address].data) == 625


def test_a_rejected_bid_ciphertext_stops_the_bid():
    chain, orch, _, _ = _make_orch()
    orch.register_bidder("B1")
    with pytest.raises(ScenarioError, match="bid ciphertext deployment rejected: DATA_TOO_LARGE"):
        orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0}, b"x" * 400))


def test_register_bidder_and_domain_binding():
    chain, orch, rft, _ = _make_orch()
    bidder = orch.register_bidder("B1")
    cert = bidder.certificate
    assert crypto.certificate_matches(orch.to.keys.public_key, "B1", rft,
                                      cert.v, cert.r, cert.s)
    again = orch.register_bidder("B1")  # re-registration is allowed
    assert again is bidder

    chain2, orch2, rft2, _ = _make_orch(seed=4)
    assert not crypto.certificate_matches(orch.to.keys.public_key, "B1", rft2,
                                          cert.v, cert.r, cert.s)


def test_submit_sealed_bid_produces_valid_record():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    sub = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                          "delivery_days": 5.0}))
    record = chain.get_contract(sub.record_address)
    assert record.validity is True
    assert record.sealed_half_a == sub.sealed.half_a
    ciphertext = chain.get_contract(sub.data_address).data
    assert crypto.decrypt_bid(ciphertext, sub.bid_key) == sub.document.to_bytes()


def test_protected_bid_with_another_tenders_certificate_is_rejected():
    chain, orch, _, _ = _make_orch(scheme="PROTECTED")
    other = TenderOrchestrator(chain, Random(4))
    other.open_tender(orch.spec)
    orch.register_bidder("B1").certificate = other.register_bidder("B1").certificate
    with pytest.raises(ScenarioError, match="bid placement rejected: CERTIFICATE_REJECTED"):
        orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                        "delivery_days": 5.0}))


def test_pre_deadline_secrecy_and_cross_bidder_confidentiality():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    s2 = orch.submit_sealed_bid("B2", BidDocument("B2", {"price": 11.0,
                                                         "delivery_days": 6.0}))
    # the organisation holds only the on-ledger halves: every decryption fails
    assert orch.pre_deadline_decryption_probe() == {s1.record_address: False,
                                                    s2.record_address: False}
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(s1.sealed.half_a, orch.to.keys.private_key)
    # neither bidder can read the other's ciphertext with their own key
    with pytest.raises(AuthFailed):
        crypto.decrypt_bid(chain.get_contract(s2.data_address).data, s1.bid_key)


def test_evaluation_before_deadline_refused():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                    "delivery_days": 5.0}))
    with pytest.raises(EvaluationBeforeDeadline):
        orch.close_and_evaluate()
    chain.advance_to(chain.get_contract(rft).bidding_end)  # boundary is still sealed
    with pytest.raises(EvaluationBeforeDeadline):
        orch.close_and_evaluate()


def test_minimize_price_winner_matches_brute_force():
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs())
    result = orch.close_and_evaluate()
    documents = {to_hex(sub.record_address): {"fields": sub.document.fields}
                 for sub in subs.values()}
    oracle = brute_force_winner(documents, {"numeric_fields": [["price", 1.0, "MINIMIZE"]]})
    assert to_hex(result.winner_bid_address) == oracle
    assert result.winner_id == "B2"
    assert result.bids[subs["B1"].record_address]["status"] == STATUS_SCORED


def test_exact_tie_goes_to_lowest_bid_address():
    docs = [BidDocument("B1", {"price": 100.0, "delivery_days": 1.0}),
            BidDocument("B2", {"price": 100.0, "delivery_days": 1.0})]
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", docs)
    lowest = min(subs["B1"].record_address, subs["B2"].record_address)
    assert orch.close_and_evaluate().winner_bid_address == lowest


def test_feasibility_predicate_excludes_bid():
    criteria = price_criteria(max_days=30)
    docs = [BidDocument("B1", {"price": 100.0, "delivery_days": 45.0}),  # infeasible
            BidDocument("B2", {"price": 120.0, "delivery_days": 10.0})]
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", docs, criteria=criteria)
    result = orch.close_and_evaluate()
    assert result.winner_id == "B2"
    assert result.bids[subs["B1"].record_address]["status"] == STATUS_INFEASIBLE
    documents = {to_hex(s.record_address): {"fields": s.document.fields}
                 for s in subs.values()}
    oracle = brute_force_winner(documents, {
        "numeric_fields": [["price", 1.0, "MINIMIZE"]],
        "feasibility": [["delivery_days", "<=", 30.0]]})
    assert to_hex(result.winner_bid_address) == oracle


def test_unrevealed_bid_excluded_not_failed():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    s2 = orch.submit_sealed_bid("B2", BidDocument("B2", {"price": 9.0,
                                                         "delivery_days": 5.0}))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)  # B2 withholds
    result = orch.close_and_evaluate()
    assert result.bids[s2.record_address]["status"] == STATUS_UNREVEALED
    assert result.winner_id == "B1"


def test_tampered_ciphertext_flagged_without_aborting():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    s2 = orch.submit_sealed_bid("B2", BidDocument("B2", {"price": 9.0,
                                                         "delivery_days": 5.0}))
    data_contract = chain.get_contract(s2.data_address)
    tampered = bytearray(data_contract.data)
    tampered[15] ^= 1
    data_contract.data = bytes(tampered)
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", s2)
    result = orch.close_and_evaluate()
    assert result.bids[s2.record_address]["status"] == STATUS_MALFORMED
    assert result.winner_id == "B1"


def test_wrongly_shaped_bid_document_is_graded_malformed():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    # B2 seals JSON that authenticates but is not a bid document
    raw = b'{"bidder_id":"B2","fields":[],"free_text":"0x"}'
    s2 = orch.submit_sealed_bid("B2", SimpleNamespace(to_bytes=lambda: raw))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", s2)
    result = orch.close_and_evaluate()
    assert result.bids[s2.record_address]["status"] == STATUS_MALFORMED
    assert result.winner_id == "B1"
    orch.publish_results(result)


# bid documents that name B2 and that only a coercing reader would take
_COERCED_BIDS = {
    "price-a-string": b'{"bidder_id":"B2","fields":{"delivery_days":5.0,"price":"9.0"},'
                      b'"free_text":"0x"}',
    "price-true": b'{"bidder_id":"B2","fields":{"delivery_days":5.0,"price":true},'
                  b'"free_text":"0x"}',
    "unread-key": b'{"bidder_id":"B2","fields":{"delivery_days":5.0,"price":9.0},'
                  b'"free_text":"0x","note":"x"}',
    "no-free-text": b'{"bidder_id":"B2","fields":{"delivery_days":5.0,"price":9.0}}',
    "bidder-id-a-list": b'{"bidder_id":["B2"],"fields":{"delivery_days":5.0,"price":9.0},'
                        b'"free_text":"0x"}',
    # a lone surrogate, which to_bytes cannot write, as its \u escape
    "field-key-lone-surrogate": b'{"bidder_id":"B2","fields":{"delivery_days":5.0,'
                                b'"price":9.0,"\\ud800":1.0},"free_text":"0x"}',
    "bidder-id-lone-surrogate": b'{"bidder_id":"B2\\udc00","fields":{"delivery_days":5.0,'
                                b'"price":9.0},"free_text":"0x"}',
}


@pytest.mark.parametrize("raw", _COERCED_BIDS.values(), ids=_COERCED_BIDS)
def test_a_bid_document_its_table_does_not_read_is_graded_malformed(raw):
    with pytest.raises(ValueError):
        BidDocument.from_bytes(raw)
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    s2 = orch.submit_sealed_bid("B2", SimpleNamespace(to_bytes=lambda: raw))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", s2)
    result = orch.close_and_evaluate()
    assert result.bids[s2.record_address] == {"status": STATUS_MALFORMED,
                                              "bid_key": s2.bid_key}
    assert result.winner_id == "B1"


def test_tender_data_is_read_by_its_table():
    spec = TenderSpec(title="supply tender", terms=b"goods", criteria=price_criteria(30),
                      length_ms=1, limit=1, scheme="FULL_TRACK")
    blob = json.loads(spec.data_blob())
    assert TenderSpec.parse_data_blob(canonical_json_bytes(blob)) == \
        ("supply tender", b"goods", price_criteria(30))
    for edit in ({"format": "nonsense"}, {"format": "tender-spec/2"}, {"title": 5},
                 {"terms": "goods"}, {"criteria": {**blob["criteria"], "weights": []}},
                 {"note": "x"}):
        with pytest.raises(ValueError):
            TenderSpec.parse_data_blob(canonical_json_bytes({**blob, **edit}))
    with pytest.raises(ValueError, match="^missing required key 'title'$"):
        TenderSpec.parse_data_blob(canonical_json_bytes(
            {k: v for k, v in blob.items() if k != "title"}))
    # a lone surrogate, which data_blob cannot write, is not read from its \u escape
    with pytest.raises(UnicodeEncodeError):
        dataclasses.replace(spec, title="\ud800").data_blob()
    with pytest.raises(ValueError, match="^lone surrogate \\\\ud800, which UTF-8 cannot encode"):
        TenderSpec.parse_data_blob(json.dumps({**blob, "title": "\ud800"}).encode("ascii"))


def test_document_naming_another_bidder_is_graded_malformed():
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    # B2 seals a well-formed, cheaper document that names B1
    s2 = orch.submit_sealed_bid("B2", BidDocument("B1", {"price": 9.0,
                                                         "delivery_days": 5.0}))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", s2)
    result = orch.close_and_evaluate()
    assert result.bids[s2.record_address]["status"] == STATUS_MALFORMED
    assert result.winner_id == "B1"
    orch.publish_results(result)
    # the citizen grades the same bid by the same rule
    report = audit.replay_and_audit(chain.export(), rft)
    assert [v.tag for v in report.violations] == ["UNDECRYPTABLE_BID"]
    assert report.requirements["R3"]["verdict"] == "FAIL"
    assert report.winner_match


def test_bid_documents_are_opened_only_in_open_bid():
    # The organisation's evaluation and the citizen's audit must open bids by
    # one rule; a second caller of BidDocument.from_bytes is a second copy of it.
    callers = []
    for path in Path(tendersim.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "from_bytes"
                    and "BidDocument" in ast.unparse(node.value)):
                continue
            scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                scope = parents[scope]
            callers.append((path.stem, getattr(scope, "name", None)))
    assert callers == [("orchestrator", "open_bid")]


def _tender_with_a_bid_naming_itself():
    """B1's honest bid, and a certified bid B2 placed by hand whose data
    address is the tender itself; both key halves delivered.

    Returns (chain, orch, rft, B1's record address, B2's record address).
    """
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    b2 = orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    cert = b2.certificate
    sealed = crypto.seal_bid_key(bytes(32), orch.to.keys.public_key, Random(2))
    addr = ledger_ops.place_bid_full(chain, rft, b2.address, "B2", rft, cert.v, cert.r,
                                     cert.s, sealed.half_a)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", SimpleNamespace(record_address=addr, sealed=sealed))
    return chain, orch, rft, s1.record_address, addr


def test_bid_naming_a_non_data_contract_is_graded_malformed():
    chain, orch, rft, _, addr = _tender_with_a_bid_naming_itself()
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    result = orch.close_and_evaluate()
    assert result.bids[addr]["status"] == STATUS_MALFORMED
    assert result.winner_id == "B1"


def test_probe_finds_no_ciphertext_behind_a_non_data_contract():
    chain, orch, rft, honest, addr = _tender_with_a_bid_naming_itself()
    assert orch.pre_deadline_decryption_probe() == {honest: True, addr: False}


def test_publish_results_and_republish_forbidden():
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs())
    published = chain.get_contract(rft).results
    assert published["winner_id"] == "B2"
    for entry in published["bids"].values():
        assert entry["bid_key"]  # keys are on the ledger for everyone
    with pytest.raises(RepublishForbidden):
        orch.publish_results(orch.close_and_evaluate())


def test_reveal_and_publish_return_the_hash_of_the_transaction_they_mined():
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    # a transaction already pending is mined first, in the same block
    chain.submit_transaction(orch.to.address, rft, b"not a call")
    reveal_id = orch.reveal_key_half_on_chain("B1", subs["B1"])
    _, reveal = chain.head().transactions
    assert (reveal.kind, to_hex(reveal.tx_hash)) == ("reveal_key_half", reveal_id)
    publish_id = orch.publish_results(orch.close_and_evaluate())
    [publish] = chain.head().transactions
    assert (publish.kind, to_hex(publish.tx_hash)) == ("publish_results", publish_id)


def test_published_keys_decrypt_every_valid_bid():
    # Each opened bid publishes its key and no key half: the record's on-ledger
    # half and the half its bidder handed over unseal to the published bid key.
    for scheme in contracts.SCHEMES:
        chain, rft, orch, subs = run_honest_tender(scheme, two_bid_docs())
        published = chain.get_contract(rft).results
        assert published["format"] == "tender-result/3"
        for sub in subs.values():
            entry = published["bids"][to_hex(sub.record_address)]
            assert sorted(entry) == ["bid_key", "score", "status"], scheme
            bid_key = from_hex(entry["bid_key"])
            record = chain.get_contract(sub.record_address)
            assert crypto.unseal_bid_key(record.sealed_half_a + sub.sealed.half_b,
                                         orch.to.keys.private_key) == bid_key, scheme
            ciphertext = chain.get_contract(sub.data_address).data
            plaintext = crypto.decrypt_bid(ciphertext, bid_key)
            assert BidDocument.from_bytes(plaintext) == sub.document, scheme


def test_rigged_publication_is_accepted_on_ledger():
    # the ledger does not police the organisation; the auditor does
    chain, orch, rft, _ = _make_orch()
    orch.register_bidder("B1")
    orch.register_bidder("B2")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 10.0,
                                                         "delivery_days": 5.0}))
    s2 = orch.submit_sealed_bid("B2", BidDocument("B2", {"price": 9.0,
                                                         "delivery_days": 5.0}))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.deliver_key_half("B2", s2)
    result = orch.close_and_evaluate()
    result.winner_id = "B1"
    result.winner_bid_address = s1.record_address
    orch.publish_results(result)
    assert chain.get_contract(rft).results["winner_id"] == "B1"


def test_stateless_flow_uses_handoff():
    chain, rft, orch, subs = run_honest_tender("STATELESS", two_bid_docs())
    assert orch.to.known_bids == [s.record_address for s in subs.values()]
    assert orch.close_and_evaluate().winner_id == "B2"


def test_identical_runs_produce_byte_identical_chains():
    def export_bytes():
        chain, rft, orch, _ = run_honest_tender("PROTECTED", two_bid_docs(), seed=99)
        return canonical_json(chain.export())

    assert export_bytes() == export_bytes()
