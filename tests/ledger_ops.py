"""One-shot ledger operations for tests: submit one call and mine it alone.

Each helper raises ``Rejected`` with the receipt's error code when the
transaction is rejected, so a test can ``pytest.raises(Rejected, match=code)``
for the contract rule it exercises.
"""

from tendersim import contracts, crypto, secp256k1
from tendersim.chain import Chain
from tendersim.encoding import canonical_json_bytes
from tendersim.errors import TenderSimError


class Rejected(TenderSimError):
    """A transaction the ledger rejected; ``code`` is its receipt's error."""

    def __init__(self, code: str):
        super().__init__(f"transaction rejected: {code}")
        self.code = code


def run_single(chain: Chain, sender: bytes, target: bytes | None, call: dict,
               at: int | None = None):
    ts = at if at is not None else max(chain.now(),
                                       chain.head().timestamp + chain.config.block_interval_ms)
    chain.advance_to(ts)
    chain.submit_transaction(sender, target, canonical_json_bytes(call))
    tx = chain.mine_block(ts).transactions[-1]
    if tx.status != "OK":
        raise Rejected(tx.error)
    return tx


def init_tender(chain: Chain, sender: bytes, length_ms: int, pubk: bytes, limit: int,
                scheme: str, tender_data_addr: bytes | None = None,
                at: int | None = None) -> bytes:
    call = contracts.rft_deploy_call(scheme, length_ms, pubk, limit, tender_data_addr)
    return run_single(chain, sender, None, call, at).created_address


def deploy_tender_data(chain: Chain, sender: bytes, data: bytes, at: int | None = None) -> bytes:
    return run_single(chain, sender, None, contracts.data_deploy_call(data), at).created_address


def _place_bid(chain: Chain, rft_addr: bytes, sender: bytes, expect_scheme: str,
               bidder_id: str, data_addr: bytes, msg_hash: bytes, v: int, r: bytes,
               s: bytes, sealed_half_a: bytes, at: int | None = None) -> bytes:
    rft = chain.get_contract(rft_addr)
    if rft.kind != "request_for_tender" or rft.scheme != expect_scheme:
        raise TenderSimError(f"target is not a {expect_scheme} tender")
    call = contracts.place_bid_call(bidder_id, data_addr, msg_hash, v, r, s, sealed_half_a)
    return run_single(chain, sender, rft_addr, call, at).created_address


def place_bid_full(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                   sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, contracts.SCHEME_FULL, bidder_id, data_addr,
                      msg_hash, v, r, s, sealed_half_a, at)


def place_bid_protected(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                        sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, contracts.SCHEME_PROTECTED, bidder_id,
                      data_addr, msg_hash, v, r, s, sealed_half_a, at)


def place_bid_stateless(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                        sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, contracts.SCHEME_STATELESS, bidder_id,
                      data_addr, msg_hash, v, r, s, sealed_half_a, at)


def req_bids(chain: Chain, rft_addr: bytes) -> tuple[bytes, ...]:
    return chain.get_contract(rft_addr).req_bids(chain.now())


def collect_valid_bid_data(chain: Chain, rft_addr: bytes) -> list[bytes]:
    """Data addresses of valid bids, in placement order; linear in bid count."""
    out = []
    for addr in req_bids(chain, rft_addr):
        record = chain.get_contract(addr)
        if record.validity:
            out.append(record.data_addr)
    return out


def verify_receipt(public_key: bytes, bid_address: bytes, v: int, r: bytes, s: bytes) -> bool:
    return secp256k1.verify_digest(public_key, crypto.receipt_digest(bid_address), v, r, s)
