"""The streamed JSON writer, which writes the same bytes as canonical_json
with less memory, and the chain export it writes, read back whole."""

import json
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts
from tendersim.chain import Chain, ChainConfig
from tendersim.cli import main
from tendersim.encoding import canonical_json, write_canonical_json
from tendersim.orchestrator import BidDocument, TenderOrchestrator, TenderSpec
from tendersim.scenario import run_scenario

from conftest import SCENARIO_DIR, price_criteria, run_honest_tender, two_bid_docs

_json = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
    | st.text(max_size=6) | st.sampled_from(["é", "中文", " ", "\\\"", "\x00"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=30)


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


@pytest.fixture(scope="module")
def four_tenders():
    """The export of four FULL_TRACK tenders run at once on one chain, 24
    honest bids each: 96 records, and no value much larger than another."""
    chain = Chain(ChainConfig())
    rng = Random(5)
    runs = []
    for t in range(4):
        orch = TenderOrchestrator(chain, Random(rng.getrandbits(64)))
        rft, _ = orch.open_tender(TenderSpec(title=f"tender {t}", terms=b"deliver the goods",
                                             criteria=price_criteria(), length_ms=3_600_000,
                                             limit=2, scheme="FULL_TRACK"))
        runs.append((orch, rft, {}))
    for i in range(24):
        for orch, _, subs in runs:
            orch.register_bidder(f"B{i}")
            subs[f"B{i}"] = orch.submit_sealed_bid(
                f"B{i}", BidDocument(f"B{i}", {"price": 100.0 + i, "delivery_days": 10.0}))
    chain.advance_to(max(chain.get_contract(rft).bidding_end for _, rft, _ in runs) + 1)
    for orch, _, subs in runs:
        for bidder_id, sub in subs.items():
            orch.deliver_key_half(bidder_id, sub)
        orch.publish_results(orch.close_and_evaluate())
    return chain.export()


def test_export_grows_linearly_with_the_bids():
    # each record links to the one before it instead of repeating the bid
    # array, so twice the records make about twice the file (3.0x when every
    # record wrote its array out)
    small, large = (len(canonical_json(_spammed_full_track(honest, 3)).encode("utf-8"))
                    for honest in (24, 48))
    assert large < 2.2 * small, (small, large)


def test_streamed_writer_holds_no_copy_of_a_full_track_export(tmp_path, four_tenders):
    # 96 records. The writer's peak is about four times its largest block or
    # contract (json.dumps holds several times what it encodes); the file is
    # made of many such values, so it outgrows the peak.
    export = four_tenders
    assert sum(c["kind"] == "bid_record" for c in export["contracts"].values()) == 96
    path = tmp_path / "chain.json"
    tracemalloc.start()
    try:
        write_canonical_json(path, export)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    largest = max(len(canonical_json(value).encode("utf-8"))
                  for value in (*export["blocks"], *export["contracts"].values()))
    assert path.read_bytes() == (canonical_json(export) + "\n").encode("utf-8")
    assert peak < size / 4, (peak, size)
    assert peak < 5 * largest, (peak, largest)


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
