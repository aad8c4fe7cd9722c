import copy
import dataclasses
import gc
import io
import json
import re
import tracemalloc
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts, crypto
from tendersim import chain as chain_module
from tendersim.chain import Chain, ChainConfig
from tendersim.cli import main
from tendersim.encoding import canonical_json, canonical_json_bytes, from_hex, to_hex
from tendersim.errors import (
    MalformedAddress,
    MalformedExport,
    NoSuchContract,
    RepublishForbidden,
    ResultsNotPublished,
    TenderSimError,
)
from tendersim.orchestrator import (
    STATUS_SCORED,
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
)
from tendersim.scenario import run_scenario

import chain_surgery
import ledger_ops
from conftest import (
    SCENARIO_DIR,
    account,
    expand_prior_bids,
    json_values,
    make_tender,
    price_criteria,
    run_honest_tender,
    two_bid_docs,
)


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
        audit.replay_and_audit(chain.export(), rft)


def test_audit_of_an_address_with_no_tender_names_no_contract():
    chain, rft, orch, _ = run_honest_tender("FULL_TRACK", two_bid_docs())
    for address in (bytes(20), to_hex(bytes(20)), rft[:19]):
        with pytest.raises(NoSuchContract):
            audit.replay_and_audit(chain.export(), address)


@pytest.mark.parametrize("text", ["", "0x", "0x12", "zz" * 21, "0x" + "g" * 40,
                                  "0x" + "00 " * 20, "0x" + "00" * 21, "00" * 20])
def test_malformed_tender_address_is_refused(text):
    with pytest.raises(MalformedAddress):
        audit.parse_address(text)


def test_tender_address_is_read_in_either_case():
    chain, rft, orch, _ = run_honest_tender("FULL_TRACK", two_bid_docs())
    assert audit.parse_address(to_hex(rft).upper()) == rft
    report = audit.replay_and_audit(chain.export(), "0x" + rft.hex().upper())
    assert report.tender_address == to_hex(rft) and report.ok()


def test_audit_consumes_no_gas_and_is_deterministic():
    chain, rft, orch, _ = run_honest_tender("FULL_TRACK", two_bid_docs())
    gas_before = [t.gas_used for b in chain.blocks for t in b.transactions]
    first = audit.replay_and_audit(chain.export(), rft)
    second = audit.replay_and_audit(chain.export(), rft)
    assert [t.gas_used for b in chain.blocks for t in b.transactions] == gas_before
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
    late_addr = export["contracts"][to_hex(rft)]["bids_placed"][-1]
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


def _run_with_one_spam_bid(rig=lambda result, spam: None):
    # honest tender plus one certificate-invalid bid placed before the deadline;
    # rig(result, spam) may edit the evaluation before it is published
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
    spam = block.transactions[0].created_address
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", s1)
    result = orch.close_and_evaluate()
    rig(result, spam)
    orch.publish_results(result)
    return chain.export(), to_hex(spam), to_hex(rft)


def test_fault_rigged_winner():
    chain, rft, orch = _rigged_run()
    report = audit.replay_and_audit(chain.export(), rft)
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
    violations = audit.verify_ledger_hashes(audit.read_ledger(export))
    assert any("hash mismatch" in v.description for v in violations)
    report = audit.replay_and_audit(export, rft_hex)
    assert report.requirements["R6"]["verdict"] == "FAIL"


def _r6_findings(export, rft_hex) -> set[str]:
    return {v.description for v in audit.replay_and_audit(export, rft_hex).violations
            if v.tag == "R6"}


def test_block_hash_edited_without_re_mining_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    head = export["blocks"][-1]
    head["block_hash"] = to_hex(bytes(32))
    assert _r6_findings(export, rft_hex) == {"block hash mismatch"}


# An export writes no parent hash: a block mined over another parent fails
# its own hash check, since the auditor hashes it over the block before it.
def test_genesis_block_with_a_parent_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    chain_surgery.reseal(export, 0, parent_hash=b"\x01" * 32)
    assert _r6_findings(export, rft_hex) == {"block hash mismatch"}
    assert [v.height for v in audit.verify_ledger_hashes(audit.read_ledger(export))] == [0]


def test_block_linked_to_the_wrong_parent_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    chain_surgery.reseal(export, 2, parent_hash=from_hex(export["blocks"][0]["block_hash"]))
    assert _r6_findings(export, rft_hex) == {"block hash mismatch"}
    assert [v.height for v in audit.verify_ledger_hashes(audit.read_ledger(export))] == [2]


def test_chain_that_starts_above_height_0_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    for block in export["blocks"]:
        block["height"] += 1
    chain_surgery.remine(export, 0)
    assert _r6_findings(export, rft_hex) == {"malformed genesis block"}


def test_block_with_a_skipped_height_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    head = export["blocks"][-1]
    chain_surgery.reseal(export, len(export["blocks"]) - 1, height=head["height"] + 1)
    assert _r6_findings(export, rft_hex) == {"non-sequential block height"}


def _findings(export, rft_hex) -> set[tuple[str, str]]:
    return {(v.tag, v.description)
            for v in audit.replay_and_audit(export, rft_hex).violations}


def test_invalid_bid_published_as_scored_is_flagged():
    def rig(result, spam):
        result.statuses[spam] = STATUS_SCORED
    export, spam_hex, rft_hex = _run_with_one_spam_bid(rig)
    assert ("R3", f"invalid bid {spam_hex} was scored by the published evaluation") \
        in _findings(export, rft_hex)


def _published_export(rig) -> tuple[dict, str, str]:
    """An honest two-bid tender whose organisation edits the published
    results with ``rig(results, loser)`` before publishing them, where loser
    is the losing bid's address: (export, tender address, loser)."""
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    results = orch.close_and_evaluate().to_dict()
    loser = to_hex(subs["B1"].record_address)
    assert results["winner_id"] == "B2" and results["statuses"][loser] == STATUS_SCORED
    rig(results, loser)
    orch.publish_results(mock.Mock(to_dict=lambda: results))
    return chain.export(), to_hex(rft), loser


def test_bid_scored_without_a_published_key_is_flagged():
    export, rft_hex, loser = _published_export(
        lambda results, loser: results["revealed_keys"].pop(loser))
    assert ("R3", f"bid {loser} scored without a published key") in _findings(export, rft_hex)


@pytest.mark.parametrize("entry", [{"sealed": "0x00"}, {"sealed": "0x00", "bid_key": 7},
                                   "0x00"])
def test_malformed_published_key_entry_is_flagged(entry):
    export, rft_hex, loser = _published_export(
        lambda results, loser: results["revealed_keys"].update({loser: entry}))
    assert ("R3", f"published key entry for {loser} is malformed") \
        in _findings(export, rft_hex)


def test_published_sealed_key_that_does_not_extend_the_ledger_half_is_flagged():
    def rig(results, loser):
        sealed = results["revealed_keys"][loser]["sealed"]
        results["revealed_keys"][loser]["sealed"] = \
            f"0x{int(sealed[2:4], 16) ^ 1:02x}{sealed[4:]}"
    export, rft_hex, loser = _published_export(rig)
    assert ("R3", f"published sealed key for {loser} does not extend the on-ledger half") \
        in _findings(export, rft_hex)


def test_bid_record_disclosing_an_unexpected_field_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    record = export["contracts"][rft_hex]["bids_placed"][0]
    export["contracts"][record]["note"] = 1
    assert _findings(export, rft_hex) == \
        {("R3", f"bid record {record} discloses unexpected field note")}


def test_published_score_that_keeps_the_winner_is_still_checked():
    export, rft_hex, loser = _published_export(
        lambda results, loser: results["scores"].update({loser: results["scores"][loser] - 1}))
    report = audit.replay_and_audit(export, rft_hex)
    assert report.winner_match
    assert any(v.tag == "R3" and v.description == f"published score for {loser} differs "
               f"from recomputation" for v in report.violations)


def test_disclosed_tender_data_deleted_from_the_export_is_flagged():
    export, rft_hex, _, _ = _honest_export()
    data_hex = export["contracts"][rft_hex]["tender_data"]
    del export["contracts"][data_hex]
    assert ("R1", f"contract {data_hex} created on-ledger is missing from disclosed state") \
        in _findings(export, rft_hex)


def test_ciphertext_tamper_detected_via_published_key():
    export, rft_hex, subs, _ = _honest_export()
    data_hex = to_hex(subs["B1"].data_address)
    chain_surgery.flip_contract_data_bit(export, data_hex, bit=200)
    report = audit.replay_and_audit(export, rft_hex)
    tags = {v.tag for v in report.violations}
    assert "UNDECRYPTABLE_BID" in tags  # published key no longer authenticates
    assert "R3" in tags  # and the bytes differ from the deployment payload


def test_nonreceipt_detection_in_stateless_scheme():
    # the auctioneer is handed a bid's address, then leaves it out of the evaluation;
    # the replay finds the bid from its placement on the ledger alone
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
    orch.to.known_bids.remove(subs["B2"].record_address)  # "we never got it"
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    orch.deliver_key_half("B1", subs["B1"])
    orch.publish_results(orch.close_and_evaluate())
    report = audit.replay_and_audit(chain.export(), rft)
    assert [v.tag for v in report.violations] == ["NONRECEIPT"]


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
    report = audit.replay_and_audit(chain.export(), rft)
    assert report.requirements["R2"]["verdict"] == "PARTIAL"
    assert "before the deadline" in report.requirements["R2"]["evidence"]
    assert report.violations == []


# --- one replay through the contract rules -----------------------------------------------


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_read_ledger_gives_the_ledger_blocks_field_by_field(scheme):
    chain, _, _, _ = run_honest_tender(scheme, two_bid_docs(), seed=21)
    export = chain.export()
    blocks = audit.read_ledger(export)
    assert len(blocks) == len(chain.blocks)
    for read, block, disclosed in zip(blocks, chain.blocks, export["blocks"]):
        assert (read.height, read.parent_hash, read.timestamp, read.block_hash) == \
            (block.height, block.parent_hash, block.timestamp, block.block_hash)
        assert len(read.transactions) == len(block.transactions)
        for tx, ledger_tx, receipt in zip(read.transactions, block.transactions,
                                          disclosed["transactions"]):
            assert (tx.sender, tx.target, tx.payload, tx.nonce, tx.tx_hash) == \
                (ledger_tx.sender, ledger_tx.target, ledger_tx.payload, ledger_tx.nonce,
                 ledger_tx.tx_hash)
            assert tx.receipt is receipt


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_replay_rederives_the_ledger_state(scheme):
    export, _, _, _ = _honest_export(scheme)
    replay = audit.replay_chain(export)
    assert {to_hex(a): contracts.disclose(c, replay.state, replay.calls.get)
            for a, c in replay.state.items()} == export["contracts"]
    assert replay.receipt_findings == [] and replay.state_findings == []


def _audit_with_raw_tx(make_payload, target=lambda rft: rft):
    """Audit an honest FULL_TRACK run that also carries one raw transaction,
    mined after the deadline and before the results; returns the report and
    the raw transaction's receipt."""
    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    chain.submit_transaction(orch.bidders["B1"].address, target(rft), make_payload(subs))
    tx = chain.mine_block(chain.now()).transactions[-1]
    orch.publish_results(orch.close_and_evaluate())
    return audit.replay_and_audit(chain.export(), rft), tx


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
    reports = {to_hex(addr): audit.replay_and_audit(replay, addr) for addr in replay.tenders}
    assert len(reports) == 3
    assert [addr for addr, r in reports.items() if not r.ok()] == [rigged]
    assert {v.tag for v in reports[rigged].violations} == {"WINNER_MISMATCH"}


def test_receipt_findings_go_to_the_tender_or_to_every_report():
    export, addresses = _three_tender_export()
    tampered = addresses["PROTECTED"]
    txs = [tx for block in export["blocks"] for tx in block["transactions"]]
    bid = next(tx for tx in txs if tx["target"] == tampered)
    deploy = next(tx for tx in txs if tx["kind"] == "deploy_data")
    bid["gas_used"] += 1
    deploy["gas_used"] += 1
    replay = audit.replay_chain(export)
    for addr in map(to_hex, replay.tenders):
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


# --- every receipt code ---------------------------------------------------------------


def _bid_call(to_keys, rft, cert_for=None, **edits):
    cert = crypto.issue_certificate(to_keys.private_key, "B1", cert_for or rft)
    call = contracts.place_bid_call("B1", account("data"), cert.msg_hash, cert.v, cert.r,
                                    cert.s, b"half-a")
    return {**call, **edits}


def _republish(chain, rft, owner, to_keys):
    ledger_ops.run_single(chain, owner, rft, contracts.publish_results_call({}))
    return owner, rft, contracts.publish_results_call({})


# (scheme of the tender on the chain, (chain, rft, owner, to_keys) -> the
# rejected transaction's (sender, target, call), its receipt's error code)
RECEIPT_CASES = [
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (o, rft, {"no_op": 1}),
                 contracts.MALFORMED_PAYLOAD, id="no-op"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, rft, {"op": "reveal_key_half", "bid_addr": "0xnot-hex", "half_b": "0x00"}),
        contracts.MALFORMED_PAYLOAD, id="reveal-fields"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, rft, {"op": "publish_results", "result": []}),
        contracts.MALFORMED_PAYLOAD, id="publish-fields"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, None, {"op": "deploy_data", "data": "0xzz"}),
        contracts.MALFORMED_PAYLOAD, id="deploy-data-fields"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (o, rft, _bid_call(k, rft, r="0x00")),
                 contracts.MALFORMED_CERTIFICATE, id="short-r"),
    pytest.param("PROTECTED", lambda c, rft, o, k: (
        o, rft, _bid_call(k, rft, cert_for=account("other-tender"))),
        contracts.CERTIFICATE_REJECTED, id="other-tender-cert"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, None, contracts.rft_deploy_call("FULL_TRACK", 1000, k.public_key, 0)),
        contracts.INVALID_TENDER_PARAMS, id="limit-0"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, None, contracts.data_deploy_call(b"\x42" * 626)),
        contracts.DATA_TOO_LARGE, id="5008-bits"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        o, rft, {"op": "set_field", "field": "limit", "value": 9}),
        contracts.IMMUTABLE_STATE, id="set-field"),
    pytest.param("STATELESS", lambda c, rft, o, k: (o, rft, {"op": "withdraw"}),
                 contracts.UNKNOWN_CONTRACT_CALL, id="tender-op"),
    pytest.param("STATELESS", lambda c, rft, o, k: (o, None, {"op": "deploy_token"}),
                 contracts.UNKNOWN_CONTRACT_CALL, id="deploy-op"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (
        c.register_account(account("stranger")), rft, contracts.publish_results_call({})),
        contracts.UNAUTHORIZED_PUBLISHER, id="stranger-publishes"),
    pytest.param("FULL_TRACK", lambda c, rft, o, k: (o, account("ghost"), {"op": "x"}),
                 NoSuchContract.code, id="no-target"),
    pytest.param("FULL_TRACK", _republish, RepublishForbidden.code, id="republish"),
]


@pytest.mark.parametrize("scheme, make_tx, code", RECEIPT_CASES)
def test_every_receipt_code_is_recorded_and_replays_clean(to_keys, scheme, make_tx, code):
    chain = Chain(ChainConfig())
    rft, owner = make_tender(chain, to_keys, scheme)
    sender, target, call = make_tx(chain, rft, owner, to_keys)
    with pytest.raises(ledger_ops.Rejected, match=code):
        ledger_ops.run_single(chain, sender, target, call)
    replay = audit.replay_chain(chain.export())
    assert replay.receipt_findings == [] and replay.ledger_findings == []


# --- reused nonces ----------------------------------------------------------------------


def _audit_cli(tmp_path, capsys, export) -> tuple[int, list[str]]:
    path = tmp_path / "chain.json"
    path.write_text(canonical_json(export) + "\n", encoding="utf-8")
    code = main(["audit", str(path)])
    out = capsys.readouterr()
    assert out.err == ""
    return code, out.out.splitlines()


def test_bid_replayed_into_another_tender_under_its_nonce_is_flagged(tmp_path, capsys):
    export, addresses = _three_tender_export()
    height, index = next((block["height"], j) for block in export["blocks"]
                         for j, tx in enumerate(block["transactions"])
                         if tx["kind"] == "bid_protected")
    copy_tx = chain_surgery.reuse_nonce(export, height, index, addresses["FULL_TRACK"])
    code, lines = _audit_cli(tmp_path, capsys, export)
    assert code == 1 and len(lines) == 3
    assert all(line.startswith("AUDIT FAIL") and " R6=FAIL" in line for line in lines)
    report = audit.replay_and_audit(export, addresses["FULL_TRACK"])
    r6 = [v.description for v in report.violations if v.tag == "R6"]
    assert f"transaction {copy_tx['tx_hash']} carries nonce {copy_tx['nonce']} but its " \
           f"sender's next nonce is {copy_tx['nonce'] + 1}" in r6
    assert f"transaction {copy_tx['tx_hash']} creates a contract at " \
           f"{copy_tx['created_address']}, an address already in use" in r6


def test_tender_data_redeployed_under_a_reused_nonce_is_flagged(tmp_path, capsys):
    chain, rft, orch, _ = run_honest_tender("STATELESS", two_bid_docs(), publish=False)
    flipped = EvaluationCriteria(numeric_fields=(("price", 1.0, "MAXIMIZE"),),
                                 feasibility_predicates=())
    chain._nonces[orch.to.address] = 0  # a host re-mining with the organisation's key
    ledger_ops.run_single(chain, orch.to.address, None, contracts.data_deploy_call(
        dataclasses.replace(orch.spec, criteria=flipped).data_blob()))
    orch.publish_results(orch.close_and_evaluate())
    export = chain.export()
    code, lines = _audit_cli(tmp_path, capsys, export)
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("AUDIT FAIL") and " R6=FAIL" in lines[0]
    report = audit.replay_and_audit(export, rft)
    assert (report.published_winner, report.recomputed_winner) == ("B1", "B2")
    assert {"R1", "R6", "WINNER_MISMATCH"} <= {v.tag for v in report.violations}


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
    data_hex = chain_surgery.bid_record(export, record)["data_addr"]
    export["contracts"][data_hex]["owner"] = "0x" + "11" * 20
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R3" and data_hex in v.description and "owner" in v.description
               for v in report.violations)


def test_changed_receipt_kind_is_flagged(full_track_10):
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    tx = next(tx for block in export["blocks"] for tx in block["transactions"]
              if tx["kind"] == "bid_full")
    tx["kind"] = "bid_stateless"
    report = audit.replay_and_audit(export, rft_hex)
    assert any(v.tag == "R6" and tx["tx_hash"] in v.description for v in report.violations)


# --- parsing an export: one str per repeated key ------------------------------------------


def test_parse_export_shares_the_keys_its_blocks_repeat(full_track_10):
    export, rft_hex = full_track_10
    parsed = audit.parse_export(io.BytesIO(canonical_json_bytes(export)))
    assert canonical_json(parsed) == canonical_json(export)
    # each block is decoded on its own, and still the blocks share their keys
    assert all(a is b for a, b in zip(parsed["blocks"][1], parsed["blocks"][2]))


def test_parse_export_frees_the_bytes_before_the_parse(tmp_path):
    # one string of `size` characters: the bytes, the decoded text and the
    # parsed string are `size` each, and only two need to be alive at once
    size = 4_000_000
    path = tmp_path / "blob.json"
    path.write_text(f'{{"blob": "{"x" * size}"}}', encoding="ascii")
    tracemalloc.start()
    try:
        with path.open("rb") as file:
            parsed = audit.parse_export(file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed["blob"]) == size
    assert peak < 2.5 * size


@pytest.mark.parametrize("text, where", [
    (r'["\ud83d\ude00", "\\ud800"]', None),  # a surrogate pair; a backslash, then text
    (r'["\\\ud800"]', "line 1 column 5 (char 4)"),
    ('{"a":\n "\\ud800\\u0041"}', "line 2 column 3 (char 8)"),  # high, then no low
    (r'["\udc00"]', "line 1 column 3 (char 2)"),
    (r'{"\ud800": 1}', "line 1 column 3 (char 2)"),
])
def test_parse_export_names_the_first_lone_surrogate_where_the_file_holds_it(text, where):
    file = io.BytesIO(text.encode("ascii"))
    if where is None:
        canonical_json_bytes(audit.parse_export(file))
    else:
        with pytest.raises(MalformedExport, match=re.escape(where)):
            audit.parse_export(file)


@given(st.lists(json_values, max_size=6))
@settings(max_examples=150, deadline=None)
def test_parse_export_keeps_hostile_lists_as_they_are(values):
    # lists of mixed types, nested lists and objects, wherever the export allows them
    export = {"blocks": values, "contracts": {"0x01": {"prior_bids": values,
                                                         "x": {"y": values}}},
              "max_data_bits": 5000}
    parsed = audit.parse_export(io.BytesIO(canonical_json_bytes(export)))
    assert canonical_json(parsed) == canonical_json(export)


@given(json_values)
@settings(max_examples=150, deadline=None)
def test_read_ledger_rejects_hostile_blocks_with_a_coded_error(block):
    raw = canonical_json_bytes({"format": "tendersim-chain/6", "blocks": [block],
                                "contracts": {}, "max_data_bits": 5000})
    with pytest.raises(MalformedExport):
        audit.read_ledger(audit.parse_export(io.BytesIO(raw)))


@pytest.mark.parametrize("key, where", [("parent_hash", "block 1"),
                                        ("gas_price", "block 1 transaction 0")])
def test_a_field_tendersim_chain_5_wrote_is_named_and_refused(full_track_10, key, where):
    export = copy.deepcopy(full_track_10[0])
    owner = export["blocks"][1]
    if key == "gas_price":
        owner = owner["transactions"][0]
    owner[key] = 1
    with pytest.raises(MalformedExport, match=f"^{where} field '{key}' is not one the audit"):
        audit.replay_chain(export)


def _link(c, rec, **fields):
    c[rec]["prior_bids"] = {"extends": None, "then": [], **fields}


def _cycle(c, rft):
    first, second = c[rft]["bids_placed"][3:5]
    _link(c, first, extends=second)
    _link(c, second, extends=first)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda c, rft, rec: c[rft]["bids_placed"].append([1, {}]),
                 id="array-holds-a-list"),
    pytest.param(lambda c, rft, rec: c[rft].update(bids_placed=True), id="array-true"),
    pytest.param(lambda c, rft, rec: c[rec].update(prior_bids=1.5), id="prior-bids-a-float"),
    pytest.param(lambda c, rft, rec: _link(c, rec, extends=rec), id="extends-itself"),
    pytest.param(lambda c, rft, rec: _cycle(c, rft), id="two-extend-each-other"),
    pytest.param(lambda c, rft, rec: _link(c, rec, extends="0x" + "44" * 20),
                 id="extends-an-unknown-address"),
    pytest.param(lambda c, rft, rec: _link(c, rec, extends=c[rft]["tender_data"]),
                 id="extends-the-tender-data"),
    pytest.param(lambda c, rft, rec: _link(c, rec, extends=7), id="extends-a-number"),
    pytest.param(lambda c, rft, rec: c[rec]["prior_bids"].pop("then"), id="then-missing"),
    pytest.param(lambda c, rft, rec: c[rec]["prior_bids"].pop("extends"),
                 id="extends-missing"),
    pytest.param(lambda c, rft, rec: c[rec]["prior_bids"].update(x=1), id="extra-key"),
    pytest.param(lambda c, rft, rec: c[rec]["prior_bids"].update(then=rec),
                 id="then-a-string"),
    pytest.param(lambda c, rft, rec: c[rec].update(prior_bids=c[rft]["bids_placed"][:3]),
                 id="prior-bids-a-plain-list"),
])
def test_hostile_disclosed_arrays_are_graded_not_raised(full_track_10, tmp_path, capsys, edit):
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    disclosed = export["contracts"]
    edit(disclosed, rft_hex, disclosed[rft_hex]["bids_placed"][3])
    parsed = audit.parse_export(io.BytesIO(canonical_json_bytes(export)))
    report = audit.replay_and_audit(parsed, rft_hex)
    assert {"R3", "ERASURE"} & {v.tag for v in report.violations}
    path = tmp_path / "chain.json"
    path.write_bytes(canonical_json_bytes(export))
    assert main(["audit", str(path)]) in (0, 1, 2)
    capsys.readouterr()


@pytest.fixture(scope="module")
def two_tenders():
    """(export, first tender, second tender) of two published FULL_TRACK tenders
    on one chain, with a rejected second publication of the first."""
    chain = Chain(ChainConfig())
    spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(), length_ms=600_000,
                      limit=2, scheme="FULL_TRACK")
    orchs = [TenderOrchestrator(chain, Random(seed)) for seed in (81, 82)]
    rfts = [orch.open_tender(spec)[0] for orch in orchs]
    subs = []
    for orch in orchs:
        for doc in two_bid_docs():
            orch.register_bidder(doc.bidder_id)
            subs.append((orch, doc.bidder_id, orch.submit_sealed_bid(doc.bidder_id, doc)))
    chain.advance_to(max(chain.get_contract(rft).bidding_end for rft in rfts) + 1)
    for orch, bidder_id, sub in subs:
        orch.deliver_key_half(bidder_id, sub)
    results = [orch.close_and_evaluate() for orch in orchs]
    for orch, result in zip(orchs, results):
        orch.publish_results(result)
    with pytest.raises(RepublishForbidden):
        orchs[0].publish_results(results[0])
    export = chain.export()
    for rft in rfts:
        assert audit.replay_and_audit(export, rft).violations == []
    return export, to_hex(rfts[0]), to_hex(rfts[1])


def _tx_hash_of(export, other_than=None, **fields) -> str:
    return next(tx["tx_hash"] for b in export["blocks"] for tx in b["transactions"]
                if all(tx[k] == v for k, v in fields.items()) and tx["tx_hash"] != other_than)


def _first_record(e, rft):
    return e["contracts"][rft]["bids_placed"][0]


# each linked field: where it sits in an export for a given tender, as
# (address, key), and the finding an edit of it gives
_LINKED_FIELDS = {
    "results": (lambda e, rft: (rft, "results"),
                ("R1", "disclosed results differ from the published payload")),
    "tender-data": (lambda e, rft: (e["contracts"][rft]["tender_data"], "data"),
                    ("R1", "tender data at {addr} differs from the bytes in its deployment")),
    "bid-ciphertext": (lambda e, rft: (chain_surgery.bid_record(e, _first_record(e, rft))
                                       ["data_addr"], "data"),
                       ("R3", "bid ciphertext at {addr} differs from the bytes in its "
                              "deployment")),
    "bid-record": (lambda e, rft: (_first_record(e, rft), "placed_by"),
                   ("R3", "bid record {addr} field placed_by differs from recomputed value")),
}
_LINK_EDITS = {
    "unknown-tx": lambda e, own, other: {"in_tx": "0x" + "55" * 32},
    "rejected-tx": lambda e, own, other: {"in_tx": _tx_hash_of(e, status="REJECTED")},
    "other-tenders-tx": lambda e, own, other: other,
    "place-bid-tx": lambda e, own, other: {"in_tx": _tx_hash_of(e, own["in_tx"],
                                                                kind="bid_full")},
    "in-tx-a-number": lambda e, own, other: {"in_tx": 7},
    "in-tx-missing": lambda e, own, other: {},
    "extra-key": lambda e, own, other: {**own, "x": 1},
    "a-list": lambda e, own, other: [own],
}


@pytest.mark.parametrize("field", list(_LINKED_FIELDS))
@pytest.mark.parametrize("edit", [*_LINK_EDITS, "written-whole"])
def test_hostile_transaction_links_are_graded_not_raised(two_tenders, tmp_path, capsys,
                                                         field, edit):
    export, first, second = copy.deepcopy(two_tenders[0]), two_tenders[1], two_tenders[2]
    locate, (tag, text) = _LINKED_FIELDS[field]
    addr, key = locate(export, first)
    other_addr, _ = locate(export, second)
    own, other = export["contracts"][addr][key], export["contracts"][other_addr][key]
    assert set(own) == {"in_tx"} and own != other
    if edit != "written-whole":
        export["contracts"][addr][key] = _LINK_EDITS[edit](export, own, other)
    elif key == "placed_by":  # the tendersim-chain/5 spelling
        export["contracts"][addr] = chain_surgery.bid_record(export, addr)
    else:  # the tendersim-chain/3 spelling
        export["contracts"][addr][key] = chain_surgery.carried(export, own["in_tx"])[
            "result" if key == "results" else "data"]
    parsed = audit.parse_export(io.BytesIO(canonical_json_bytes(export)))
    report = audit.replay_and_audit(parsed, first)
    assert any(v.tag == tag and v.description.startswith(text.format(addr=addr))
               for v in report.violations), report.violations
    path = tmp_path / "chain.json"
    path.write_bytes(canonical_json_bytes(export))
    assert main(["audit", str(path)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field", list(_LINKED_FIELDS))
def test_a_ledger_edit_of_linked_state_is_written_whole_and_flagged(field):
    chain, rft, _, _ = run_honest_tender("FULL_TRACK", two_bid_docs(), seed=21)
    locate, (tag, text) = _LINKED_FIELDS[field]
    addr, key = locate(chain.export(), to_hex(rft))
    contract = chain.get_contract(from_hex(addr))
    if key == "results":
        contract.results["winner_id"] = "B9"
    elif key == "placed_by":  # one of the three arguments the record keeps
        contract.bidder_id = "B9"
    else:
        contract.data = bytes([contract.data[0] ^ 1]) + contract.data[1:]
    disclosed = chain.export()["contracts"][addr]
    if key == "placed_by":
        assert key not in disclosed and disclosed["id"] == "B9"
    else:
        assert disclosed[key] == (contract.results if key == "results"
                                  else to_hex(contract.data))
    report = audit.replay_and_audit(chain.export(), rft)
    assert any(v.tag == tag and v.description.startswith(text.format(addr=addr))
               for v in report.violations), report.violations


def test_a_long_chain_of_forged_links_is_graded_in_linear_memory(full_track_10):
    # a disclosed link is compared with the ledger's, never followed, so
    # links that no transaction created cost memory in proportion to their number
    export, rft_hex = full_track_10

    def audit_with_forged_links(count):
        forged = copy.deepcopy(export)
        fakes = [f"0x{k:040x}" for k in range(1, count + 1)]
        for before, fake in zip([None, *fakes], fakes):
            forged["contracts"][fake] = {"prior_bids": {"extends": before, "then": []}}
        raw = canonical_json_bytes(forged)
        gc.collect()
        tracemalloc.start()
        try:
            report = audit.replay_and_audit(audit.parse_export(io.BytesIO(raw)), rft_hex)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum("never created" in v.description for v in report.violations) == count
        return peak

    honest = audit_with_forged_links(0)
    growth = (audit_with_forged_links(3000) - honest) / (audit_with_forged_links(1500) - honest)
    assert growth < 2.2, growth


@pytest.mark.parametrize("name", ["full_track_10_bids", "protected_10_bids"])
def test_expanded_export_lists_equal_the_ledger_records(name):
    chains = []
    export = Chain.export
    with mock.patch.object(Chain, "export", lambda self: chains.append(self) or export(self)):
        outcome = run_scenario(SCENARIO_DIR / f"{name}.json")
    (chain,) = chains
    records = [chain.get_contract(a) for a in
               chain.get_contract(bytes.fromhex(outcome.report.tender_address[2:])).bids_placed]
    assert len(records) == 10
    for record in records:
        assert expand_prior_bids(outcome.export["contracts"], to_hex(record.address)) == \
            [to_hex(a) for a in record.prior_bids]


@pytest.mark.parametrize("field", ["statuses", "revealed_keys", "scores"])
def test_published_results_with_a_list_for_an_object_are_graded(field):
    chain, rft, _, _ = run_honest_tender("FULL_TRACK", two_bid_docs(), publish=False)
    addrs = [to_hex(a) for a in chain.get_contract(rft).bids_placed]
    result = {"statuses": {a: "SCORED" for a in addrs},
              "revealed_keys": {a: {"sealed": "0x00", "bid_key": "0x00"} for a in addrs}}
    result[field] = addrs
    ledger_ops.run_single(chain, chain.get_contract(rft).deployer, rft,
                          contracts.publish_results_call(result))
    report = audit.replay_and_audit(chain.export(), rft)
    assert not report.ok()


# --- any single edit of an export is seen --------------------------------------------------

# A deleted or retyped setting is refused, but an edited one may admit the
# same data contracts, so its edits need not be seen.
_SETTINGS = ("max_data_bits",)
_OTHER_TYPES = [None, True, 7, 7.5, "x", [], {}]


def _value_paths(node, path=()):
    """The path to every value below ``node``: object keys and list indices."""
    items = node.items() if type(node) is dict else \
        enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def _mutate(export: dict, path: tuple, how: str, pick: int) -> None:
    parent = export
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if how == "add":  # a key next to the value
        if type(parent) is not dict:
            assume(False)
        parent[f"added{pick}"] = pick
    elif how == "delete":
        del parent[key]
    elif how == "retype":
        others = [v for v in _OTHER_TYPES if type(v) is not type(value)]
        parent[key] = copy.deepcopy(others[pick % len(others)])
    elif type(value) is bool:
        parent[key] = not value
    elif type(value) in (int, float):
        parent[key] = value + 1 + pick % 3
    elif type(value) is str and value.startswith("0x") and len(value) > 2:
        i = 2 + pick % (len(value) - 2)  # one hex digit, spelled as to_hex would
        digit = "0123456789abcdef"[("0123456789abcdef".find(value[i]) + 1) & 15]
        parent[key] = value[:i] + digit + value[i + 1:]
    elif type(value) is str:
        parent[key] = value + "x"
    else:
        assume(False)  # a null, an object or a list has no edit of its own


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_single_field_edit_of_an_export_is_seen(full_track_10, data):
    export, rft_hex = full_track_10
    raw = canonical_json_bytes(export)
    path = data.draw(st.sampled_from(list(_value_paths(export))), label="path")
    how = data.draw(st.sampled_from(["retype", "delete", "edit", "add"]), label="how")
    mutated = audit.parse_export(io.BytesIO(raw))
    _mutate(mutated, path, how, data.draw(st.integers(0, 1 << 16), label="pick"))
    settings_refused = path[0] in _SETTINGS and how in ("retype", "delete")
    try:
        report = audit.replay_and_audit(audit.replay_chain(mutated), rft_hex)
    except MalformedExport:
        return
    except TenderSimError:
        assert not settings_refused
        return
    assert not settings_refused
    if path[0] in _SETTINGS and how == "edit":
        return
    assert report.violations, f"{how} of {path} audits clean"


def test_gas_tripled_with_the_schedule_that_meters_it_is_not_passed(full_track_10, tmp_path,
                                                                     capsys):
    # every receipt's gas tripled, and the gas schedule a tendersim-chain/4
    # export carried (each GAS_ figure of chain, named without its prefix)
    # tripled with it: the replay meters with its own figures, not the file's
    export, rft_hex = copy.deepcopy(full_track_10[0]), full_track_10[1]
    txs = [tx for block in export["blocks"] for tx in block["transactions"]]
    for tx in txs:
        tx["gas_used"] *= 3
    export["gas_schedule"] = {name[4:].lower(): 3 * value for name, value in
                              vars(chain_module).items()
                              if name.startswith("GAS_") and name != "GAS_PRICE"}
    assert len(export["gas_schedule"]) == 8
    path = tmp_path / "chain.json"
    path.write_bytes(canonical_json_bytes(export))
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error[MALFORMED_EXPORT]")
    del export["gas_schedule"]
    path.write_bytes(canonical_json_bytes(export))
    assert main(["audit", str(path)]) == 1
    assert "R6=FAIL" in capsys.readouterr().out
    report = audit.replay_and_audit(export, rft_hex)
    gas_findings = [v.description for v in report.violations
                    if v.tag == "R6" and v.description.startswith("gas_used")]
    assert [text.split()[-1] for text in gas_findings] == [tx["tx_hash"] for tx in txs]


# --- any single byte edit of an export is seen -----------------------------------------------


def _outside_settings(doc) -> str:
    """``doc`` with the values of its settings left out, as canonical JSON."""
    if type(doc) is dict:
        doc = {k: None if k in _SETTINGS else v for k, v in doc.items()}
    return canonical_json(doc)


@pytest.fixture(scope="module")
def bundled_exports(tmp_path_factory):
    """The chain.json bytes of two small bundled scenarios."""
    exports = {}
    for name in ("forged_cert", "stateless_10_bids"):
        out = tmp_path_factory.mktemp(name)
        run_scenario(SCENARIO_DIR / f"{name}.json", out)
        exports[name] = (out / "chain.json").read_bytes()
    return exports


@pytest.mark.parametrize("name", ["forged_cert", "stateless_10_bids"])
def test_every_single_byte_edit_of_an_export_is_seen(bundled_exports, tmp_path, capsys, name):
    # replace, delete or insert one byte: the audit may pass only the
    # original document, apart from the values of its settings
    original = bundled_exports[name]
    original_tree = _outside_settings(json.loads(original))
    rng = Random(13)
    path = tmp_path / "chain.json"
    for _ in range(150):
        at = rng.randrange(len(original))
        how = rng.choice(["replace", "delete", "insert"])
        byte = bytes([rng.randrange(256)])
        mutated = original[:at] + (b"" if how == "delete" else byte) \
            + original[at + (how != "insert"):]
        path.write_bytes(mutated)
        code = main(["audit", str(path)])
        capsys.readouterr()
        assert code in (0, 1, 2), (how, at, byte)
        if code == 0:
            tree = json.loads(mutated.decode("utf-8"))
            assert _outside_settings(tree) == original_tree, (how, at, byte)
