"""One-shot ledger operations for tests: submit one call and mine it alone.

Each helper raises the coded error of a rejected transaction, so a test can
``pytest.raises`` the contract rule it exercises.
"""

from tendersim import contracts, crypto
from tendersim.chain import Chain
from tendersim.encoding import canonical_json_bytes
from tendersim.errors import (
    CertificateRejected,
    DataTooLarge,
    ImmutableState,
    InvalidTenderParams,
    MalformedCertificate,
    NoSuchContract,
    RepublishForbidden,
    TenderSimError,
    UnknownContractCall,
)

ERRORS_BY_CODE = {e.code: e for e in (
    MalformedCertificate, CertificateRejected, DataTooLarge, InvalidTenderParams,
    RepublishForbidden, ImmutableState, NoSuchContract, UnknownContractCall,
)}


def run_single(chain: Chain, sender: bytes, target: bytes | None, call: dict,
               at: int | None = None):
    ts = at if at is not None else max(chain.now(),
                                       chain.head().timestamp + chain.config.block_interval_ms)
    chain.advance_to(ts)
    tx_id = chain.submit_transaction(sender, target, canonical_json_bytes(call))
    chain.mine_block(ts)
    tx = chain.get_transaction(tx_id)
    if tx.status != "OK":
        exc = ERRORS_BY_CODE.get(tx.error, TenderSimError)
        raise exc(f"transaction rejected: {tx.error}")
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


def verify_acknowledgement(public_key: bytes, bid_address: bytes,
                           receipt: contracts.Receipt) -> bool:
    return crypto.verify_receipt(public_key, bid_address, receipt.v, receipt.r, receipt.s)
