import hashlib
from pathlib import Path
from random import Random

import pytest

from tendersim import crypto
from tendersim.chain import Chain, ChainConfig
from tendersim.orchestrator import (
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
)

import ledger_ops

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def chain():
    return Chain(ChainConfig())


@pytest.fixture
def rng():
    return Random(0xC0FFEE)


@pytest.fixture
def to_keys(rng):
    return crypto.generate_keypair(rng)


def account(tag: str) -> bytes:
    return hashlib.sha256(b"account|" + tag.encode()).digest()[-20:]


def make_tender(chain, to_keys, scheme, length_ms=600_000, limit=2):
    """Deploy a bare tender (no orchestrator); returns (rft_address, to_account)."""
    sender = account("TO")
    chain.register_account(sender)
    rft = ledger_ops.init_tender(chain, sender, length_ms, to_keys.public_key,
                                 limit, scheme)
    return rft, sender


def price_criteria(max_days=None):
    predicates = (("delivery_days", "<=", float(max_days)),) if max_days else ()
    return EvaluationCriteria(numeric_fields=(("price", 1.0, "MINIMIZE"),),
                              feasibility_predicates=predicates)


def run_honest_tender(scheme, docs, seed=7, length_ms=600_000, limit=2,
                      criteria=None, publish=True):
    """Full lifecycle with one bid per document; returns (chain, rft, orch, subs)."""
    rng = Random(seed)
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, rng)
    spec = TenderSpec(title="supply tender", terms=b"deliver the goods",
                      criteria=criteria or price_criteria(),
                      length_ms=length_ms, limit=limit, scheme=scheme)
    rft, _ = orch.open_tender(spec)
    subs = {}
    for doc in docs:
        orch.register_bidder(doc.bidder_id)
        subs[doc.bidder_id] = orch.submit_sealed_bid(doc.bidder_id, doc)
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    for bidder_id, sub in subs.items():
        orch.deliver_key_half(bidder_id, sub)
    if publish:
        result = orch.close_and_evaluate()
        orch.publish_results(result)
    return chain, rft, orch, subs


def two_bid_docs():
    return [
        BidDocument("B1", {"price": 100.0, "delivery_days": 10.0}),
        BidDocument("B2", {"price": 90.0, "delivery_days": 20.0}),
    ]
