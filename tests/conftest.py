import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import strategies as st

from tendersim import crypto
from tendersim.chain import Chain, ChainConfig
from tendersim.encoding import canonical_json_bytes
from tendersim.orchestrator import (
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
    account_address,
)

import ledger_ops

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED_SCENARIOS = {p.stem: json.loads(p.read_text())
                     for p in sorted(SCENARIO_DIR.glob("*.json"))}

# Hostile JSON: every JSON type, nested, with strings that look like addresses.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["0x01", "0x02"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=12)


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
    return account_address(tag.encode())


# A stand-in for the half of a sealed bid key a bid puts on the ledger, of the length
# the ledger reads.
HALF_A = b"half-a".ljust(crypto.SEALED_HALF_LEN, b".")


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


def expand_prior_bids(disclosed: dict, record_hex: str) -> list[str]:
    """The list an exported record's ``prior_bids`` link stands for: the
    ``extends`` chain followed back to the record that extends nothing."""
    parts = []
    while record_hex is not None:
        link = disclosed[record_hex]["prior_bids"]
        parts.append(link["then"])
        record_hex = link["extends"]
        if record_hex is not None:
            parts.append([record_hex])
    return [a for part in reversed(parts) for a in part]


def leaf_paths(node, path=()):
    """The path to every value below ``node`` that is neither an object nor a list."""
    if type(node) not in (dict, list):
        yield path
        return
    for key, child in node.items() if type(node) is dict else enumerate(node):
        yield from leaf_paths(child, path + (key,))


def _refuse(constant: str):
    raise ValueError(f"{constant} is not a JSON token")


def assert_strict_canonical_json(raw: bytes) -> None:
    """``raw`` is JSON by RFC 8259, no ``NaN`` or infinity token in it, and
    exactly the canonical JSON of what it holds, plus a newline."""
    assert raw == canonical_json_bytes(json.loads(raw, parse_constant=_refuse)) + b"\n"
