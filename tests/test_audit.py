import copy
import gc
from random import Random

import pytest

from tendersim import audit, contracts
from tendersim.chain import Chain, ChainConfig
from tendersim.cli import main
from tendersim.encoding import canonical_json, canonical_json_bytes, to_hex
from tendersim.errors import ResultsNotPublished
from tendersim.orchestrator import BidDocument, TenderOrchestrator, TenderSpec
from tendersim.scenario import run_scenario

import chain_surgery
from conftest import SCENARIO_DIR, price_criteria, run_honest_tender, two_bid_docs


def _honest_export(scheme="FULL_TRACK", seed=21, docs=None):
    chain, rft, orch, subs = run_honest_tender(scheme, docs or two_bid_docs(), seed=seed)
    return chain.export(), to_hex(rft), subs, orch


# --- honest behaviour ---------------------------------------------------------------


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_honest_run_passes_with_no_violations(scheme):
    export, rft_hex, _, _ = _honest_export(scheme)
    report = audit.replay_and_audit(export, rft_hex)
    assert report.winner_match
    assert report.violations == []
    assert report.recomputed_winner == report.published_winner == "B2"
    assert report.one_line().startswith("AUDIT PASS")


def test_requirement_matrix_matches_scheme():
    for scheme, r4, r5 in (("FULL_TRACK", "PARTIAL", "PARTIAL"),
                           ("PROTECTED", "PARTIAL", "PARTIAL"),
                           ("STATELESS", "PASS", "PASS")):
        export, rft_hex, _, _ = _honest_export(scheme)
        reqs = audit.replay_and_audit(export, rft_hex).requirements
        assert reqs["R1"]["verdict"] == "PASS"
        assert reqs["R2"]["verdict"] == "PARTIAL"
        assert reqs["R3"]["verdict"] == "PASS"
        assert reqs["R4"]["verdict"] == r4
        assert reqs["R5"]["verdict"] == r5
        assert reqs["R6"]["verdict"] == "PASS"


def test_audit_requires_published_results():
    chain, rft, orch, _ = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    with pytest.raises(ResultsNotPublished):
        audit.replay_and_audit(chain, rft)


def test_audit_consumes_no_gas_and_is_deterministic():
    chain, rft, orch, _ = run_honest_tender("FULL_TRACK", two_bid_docs())
    gas_before = chain.total_gas()
    first = audit.replay_and_audit(chain, rft)
    second = audit.replay_and_audit(chain, rft)
    assert chain.total_gas() == gas_before
    assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())


def test_audit_needs_no_private_actor_state():
    export, rft_hex, _, orch = _honest_export()
    baseline = canonical_json(audit.replay_and_audit(export, rft_hex).to_dict())
    del orch
    gc.collect()
    again = canonical_json(audit.replay_and_audit(copy.deepcopy(export), rft_hex).to_dict())
    assert again == baseline


def test_gas_trace_and_timeline_present():
    export, rft_hex, subs, _ = _honest_export()
    report = audit.replay_and_audit(export, rft_hex)
    kinds = [k for k, _ in report.gas_trace]
    assert kinds.count("bid_full") == 2
    assert "publish_results" in kinds
    events = [e["event"] for e in report.timeline]
    assert events[0] == "tender_deployed"
    assert "bidding_end" in events
    assert events[-1] == "results_published"


# --- the eight-fault catalog ------------------------------------------------------------


def test_fault_late_bid_marked_valid():
    chain, orch, rft = _tender_with_late_bid()
    export = chain.export()
    late_addr = chain.read_state(rft)["bids_placed"][-1]
    export["contracts"][late_addr]["validity"] = True  # host lies about the flag
    report = audit.replay_and_audit(export, to_hex(rft))
    assert any(v.tag == "R3" and late_addr in v.description for v in report.violations)


def _tender_with_late_bid():
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, Random(31))
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                      length_ms=300_000, limit=2, scheme="FULL_TRACK")
    rft, _ = orch.open_tender(spec)
    orch.register_bidder("B1")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 5.0}))
    end = chain.get_contract(rft).bidding_end
    orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 1.0}), at=end + 1000)
    chain.advance_to(chain.head().timestamp + 1)
    orch.deliver_key_half("B1", s1)
    orch.publish_results(orch.close_and_evaluate())
    return chain, orch, rft


def test_fault_erased_bid():
    export, rft_hex, _, _ = _honest_export()
    export["contracts"][rft_hex]["bids_placed"].pop(0)
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "ERASURE" for v in report.violations)


def test_fault_mutated_tender_data():
    export, rft_hex, _, _ = _honest_export()
    chain_surgery.flip_contract_data_bit(
        export, export["contracts"][rft_hex]["tender_data"], bit=3)
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R1" for v in report.violations)
    assert report.requirements["R1"]["verdict"] == "FAIL"


def test_fault_forged_certificate_accepted():
    # a spam bid recorded invalid, then the host claims it was valid
    export, spam_addr, rft_hex = _run_with_one_spam_bid()
    export["contracts"][spam_addr]["validity"] = True
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R3" and spam_addr in v.description for v in report.violations)


def _run_with_one_spam_bid():
    # honest tender plus one certificate-invalid bid placed before the deadline
    rng = Random(44)
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, rng)
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                      length_ms=600_000, limit=2, scheme="FULL_TRACK")
    rft, _ = orch.open_tender(spec)
    orch.register_bidder("B1")
    s1 = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 5.0}))
    from tendersim.encoding import canonical_json_bytes

    spammer = chain.register_account(b"\x66" * 20)
    call = contracts.place_bid_call("EVE", b"\x01" * 20, rng.randbytes(32), 27,
                                    rng.randbytes(32), rng.randbytes(32), b"aa")
    chain.submit_transaction(spammer, rft, canonical_json_bytes(call))
    block = chain.mine_block(chain.now() + 30_000)
    spam_addr = to_hex(block.transactions[0].created_address)
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    orch.publish_results(orch.close_and_evaluate())
    return chain.export(), spam_addr, to_hex(rft)


def test_fault_rigged_winner():
    chain, rft, orch = _rigged_run()
    report = audit.replay_and_audit(chain, rft)
    assert not report.winner_match
    assert report.recomputed_winner == "B2"
    assert report.published_winner == "B1"
    assert any(v.tag == "WINNER_MISMATCH" for v in report.violations)


def _rigged_run():
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, Random(51))
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                      length_ms=600_000, limit=2, scheme="FULL_TRACK")
    rft, _ = orch.open_tender(spec)
    subs = {}
    for bidder_id, price in (("B1", 100.0), ("B2", 90.0)):
        orch.register_bidder(bidder_id)
        subs[bidder_id] = orch.submit_sealed_bid(bidder_id,
                                                 BidDocument(bidder_id, {"price": price}))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    for bidder_id, sub in subs.items():
        orch.deliver_key_half(bidder_id, sub)
    result = orch.close_and_evaluate()
    result.winner_id = "B1"
    result.winner_bid_address = subs["B1"].record_address
    orch.publish_results(result)
    return chain, rft, orch


def test_fault_republished_results():
    export, rft_hex, _, _ = _honest_export()
    chain_surgery.duplicate_publish(export, rft_hex)
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R1" and "REPUBLISH" in v.description for v in report.violations)


def test_fault_backdated_block():
    export, rft_hex, _, _ = _honest_export()
    earlier = export["blocks"][2]["timestamp"] - 1
    chain_surgery.backdate_block(export, 3, earlier)
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R6" and "increasing" in v.description for v in report.violations)
    assert report.requirements["R6"]["verdict"] == "FAIL"


def test_fault_spam_flood_flagged_on_full_track():
    export, spam_addr, rft_hex = _run_with_one_spam_bid()
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R5" and "certificate-invalid" in v.description
               for v in report.violations)
    assert report.requirements["R5"]["verdict"] == "PARTIAL"


# --- further tamper routes ----------------------------------------------------------


def test_payload_tamper_breaks_hash_chain():
    export, rft_hex, _, _ = _honest_export()
    chain_surgery.flip_payload_bit(export, height=2, tx_index=0, bit=11)
    violations = audit.verify_ledger_hashes(export)
    assert any("hash mismatch" in v.description for v in violations)
    report = audit.replay_and_audit(export, rft_hex)
    assert report.requirements["R6"]["verdict"] == "FAIL"


def test_ciphertext_tamper_detected_via_published_key():
    export, rft_hex, subs, _ = _honest_export()
    data_hex = to_hex(subs["B1"].data_address)
    chain_surgery.flip_contract_data_bit(export, data_hex, bit=200)
    report = audit.replay_and_audit(export, rft_hex)
    tags = {v.tag for v in report.violations}
    assert "UNDECRYPTABLE_BID" in tags  # published key no longer authenticates
    assert "R3" in tags  # and the bytes differ from the deployment payload


def test_nonreceipt_detection_in_stateless_scheme():
    # the auctioneer acknowledges a bid, then leaves it out of the evaluation
    rng = Random(61)
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, rng)
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                      length_ms=600_000, limit=2, scheme="STATELESS")
    rft, _ = orch.open_tender(spec)
    subs = {}
    for bidder_id, price in (("B1", 100.0), ("B2", 90.0)):
        orch.register_bidder(bidder_id)
        subs[bidder_id] = orch.submit_sealed_bid(bidder_id,
                                                 BidDocument(bidder_id, {"price": price}))
    receipt = subs["B2"].receipt
    assert receipt is not None
    orch.to.known_bids.remove(subs["B2"].record_address)  # "we never got it"
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", subs["B1"])
    orch.publish_results(orch.close_and_evaluate())
    report = audit.replay_and_audit(chain, rft, presented_receipts=[receipt])
    assert any(v.tag == "NONRECEIPT" for v in report.violations)


def test_early_reveal_shows_in_r2_evidence():
    rng = Random(71)
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, rng)
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                      length_ms=600_000, limit=2, scheme="FULL_TRACK")
    rft, _ = orch.open_tender(spec)
    orch.register_bidder("B1")
    sub = orch.submit_sealed_bid("B1", BidDocument("B1", {"price": 5.0}))
    orch.reveal_key_half_on_chain("B1", sub)  # well before the deadline
    assert orch.pre_deadline_decryption_probe()[sub.record_address] is True
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.publish_results(orch.close_and_evaluate())
    report = audit.replay_and_audit(chain, rft)
    assert report.requirements["R2"]["verdict"] == "PARTIAL"
    assert "before the deadline" in report.requirements["R2"]["evidence"]
    assert report.violations == []


# --- one replay through the contract rules -----------------------------------------------


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_replay_rederives_the_ledger_state(scheme):
    export, _, _, _ = _honest_export(scheme)
    replay = audit.replay_chain(export)
    assert {to_hex(a): c.snapshot() for a, c in replay.state.items()} == export["contracts"]
    assert replay.receipt_findings == [] and replay.state_findings == []


def _audit_with_raw_tx(make_payload, target=lambda rft: rft):
    """Audit an honest FULL_TRACK run that also carries one raw transaction,
    mined after the deadline and before the results; returns the report and
    the raw transaction's receipt."""
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    tx_id = chain.submit_transaction(orch.bidders["B1"].address, target(rft),
                                     make_payload(subs))
    chain.mine_block(chain.now())
    orch.publish_results(orch.close_and_evaluate())
    return audit.replay_and_audit(chain.export(), rft), chain.get_transaction(tx_id)


def test_reveal_with_uppercase_hex_audits_clean():
    def payload(subs):
        sub = subs["B1"]
        return canonical_json_bytes({"op": "reveal_key_half",
                                     "bid_addr": to_hex(sub.record_address),
                                     "half_b": "0x" + sub.sealed.half_b.hex().upper()})

    report, tx = _audit_with_raw_tx(payload)
    assert tx.status == "OK"
    assert report.violations == []


def test_non_canonical_call_to_missing_address_audits_clean():
    payload = b'{"op": "set_field",   "field": "limit"}'
    report, tx = _audit_with_raw_tx(lambda subs: payload, target=lambda rft: b"\x42" * 20)
    assert tx.error == "NO_SUCH_CONTRACT"
    assert tx.gas_used == 2 * 8 * len(payload)  # metered on the payload as sent
    assert report.violations == []


def test_reveal_with_non_hex_bid_address_audits_clean():
    call = {"op": "reveal_key_half", "bid_addr": "0xnot-hex", "half_b": "0x00"}
    report, tx = _audit_with_raw_tx(lambda subs: canonical_json_bytes(call))
    assert tx.error == "MALFORMED_PAYLOAD"
    assert report.violations == []


def test_tender_deployment_with_non_hex_data_address_audits_clean():
    call = contracts.rft_deploy_call("FULL_TRACK", 600_000, b"\x01" * 64, 2)
    call["tender_data"] = "0xnot-hex"
    report, tx = _audit_with_raw_tx(lambda subs: canonical_json_bytes(call),
                                    target=lambda rft: None)
    assert tx.error == "INVALID_TENDER_PARAMS"
    assert report.violations == []


def _three_tender_export(rigged_scheme=None):
    """One chain with a tender per scheme, and the tender address per scheme;
    ``rigged_scheme``'s published winner is rigged."""
    chain = Chain(ChainConfig())
    tenders = []
    for i, scheme in enumerate(contracts.SCHEMES):
        orch = TenderOrchestrator(chain, Random(80 + i))
        spec = TenderSpec(title=scheme, terms=b"x", criteria=price_criteria(),
                          length_ms=600_000, limit=2, scheme=scheme)
        rft, _ = orch.open_tender(spec)
        subs = {}
        for bidder_id, price in ((f"T{i}B1", 100.0), (f"T{i}B2", 90.0)):
            orch.register_bidder(bidder_id)
            subs[bidder_id] = orch.submit_sealed_bid(bidder_id,
                                                     BidDocument(bidder_id, {"price": price}))
        tenders.append((scheme, orch, rft, subs))
    chain.advance_to(max(chain.get_contract(rft).bidding_end for _, _, rft, _ in tenders) + 1)
    for scheme, orch, rft, subs in tenders:
        for bidder_id, sub in subs.items():
            orch.deliver_key_half(bidder_id, sub)
        result = orch.close_and_evaluate()
        if scheme == rigged_scheme:
            loser_id, loser = next(iter(subs.items()))
            result.winner_id = loser_id
            result.winner_bid_address = loser.record_address
        orch.publish_results(result)
    return chain.export(), {scheme: to_hex(rft) for scheme, _, rft, _ in tenders}


def test_cli_audits_every_deployed_tender_despite_relabelled_kind(tmp_path, capsys):
    export, addresses = _three_tender_export("PROTECTED")
    rigged = addresses["PROTECTED"]
    export["contracts"][rigged]["kind"] = "tender_data"  # hide it from a label-based search
    path = tmp_path / "chain.json"
    path.write_text(canonical_json(export) + "\n", encoding="utf-8")
    code = main(["audit", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 3
    assert [line for line in lines if line.startswith("AUDIT FAIL")] == \
        [line for line in lines if f"tender={rigged} " in line]


def test_findings_stay_with_their_tender():
    export, addresses = _three_tender_export("FULL_TRACK")
    rigged = addresses["FULL_TRACK"]
    replay = audit.replay_chain(export)
    reports = {addr: audit.replay_and_audit(replay, addr)
               for addr in replay.tender_addresses()}
    assert len(reports) == 3
    assert [addr for addr, r in reports.items() if not r.ok()] == [rigged]
    assert {v.tag for v in reports[rigged].violations} == {"WINNER_MISMATCH"}


def test_receipt_findings_go_to_the_tender_or_to_every_report():
    export, addresses = _three_tender_export()
    tampered = addresses["PROTECTED"]
    txs = [tx for _, tx in audit.iter_transactions(export)]
    bid = next(tx for tx in txs if tx["target"] == tampered)
    deploy = next(tx for tx in txs if tx["kind"] == "deploy_data")
    bid["gas_used"] += 1
    deploy["gas_used"] += 1
    replay = audit.replay_chain(export)
    for addr in replay.tender_addresses():
        hashes = [tx["tx_hash"] for tx in (bid, deploy)
                  if any(tx["tx_hash"] in v.description
                         for v in audit.replay_and_audit(replay, addr).violations)]
        assert hashes == ([bid["tx_hash"]] if addr == tampered else []) + [deploy["tx_hash"]]


def test_stateless_tender_disclosing_a_bid_array_is_flagged():
    export, rft_hex, _, _ = _honest_export("STATELESS")
    export["contracts"][rft_hex]["bids_placed"] = []
    report = audit.replay_and_audit(export, rft_hex)
    assert [(v.tag, v.description) for v in report.violations] == \
        [("R3", "stateless tender discloses a bid array")]


@pytest.fixture(scope="module")
def full_track_10():
    outcome = run_scenario(SCENARIO_DIR / "full_track_10_bids.json")
    return outcome.export, outcome.report.tender_address


def test_bid_validity_must_be_a_json_boolean(full_track_10):
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    record = export["contracts"][rft_hex]["bids_placed"][0]
    assert export["contracts"][record]["validity"] is True
    export["contracts"][record]["validity"] = 1
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R3" and record in v.description and "validity" in v.description
               for v in report.violations)


def test_changed_data_contract_owner_is_flagged(full_track_10):
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    record = export["contracts"][rft_hex]["bids_placed"][0]
    data_hex = export["contracts"][record]["data_addr"]
    export["contracts"][data_hex]["owner"] = "0x" + "11" * 20
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R3" and data_hex in v.description and "owner" in v.description
               for v in report.violations)


def test_changed_receipt_kind_is_flagged(full_track_10):
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    tx = next(tx for _, tx in audit.iter_transactions(export) if tx["kind"] == "bid_full")
    tx["kind"] = "bid_stateless"
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R6" and tx["tx_hash"] in v.description for v in report.violations)
