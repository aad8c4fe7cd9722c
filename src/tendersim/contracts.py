"""The tender contract family as deterministic state machines.

Three bid-placement schemes over the same request-for-tender shape:

* FULL_TRACK records every placed bid, valid or not, and appends its
  record address to the on-contract array; each record carries a snapshot
  of the array as it stood at creation, so an erased entry stays provable.
* PROTECTED refuses to record a bid whose certificate fails, otherwise
  behaves like FULL_TRACK (late or over-limit bids are recorded invalid).
* STATELESS keeps no bid array at all; records hold only id, data address
  and validity, and record addresses are handed to the auctioneer
  off-ledger, acknowledged with a signed receipt.

Validity of a bid is the conjunction of: certificate verifies against the
tender's public key (and binds this bidder id to this tender address), the
including block's timestamp is strictly before the deadline, and the
bidder's tally is strictly below the per-id limit. The tally only moves
on valid bids, so junk placed under someone else's id cannot lock them out.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .chain import Chain, ExecOutcome, ExecutionContext, contract_address, meter_gas
from .encoding import canonical_json_bytes, from_hex, to_hex
from .errors import (
    BiddingStillOpen,
    CertificateRejected,
    DataTooLarge,
    ImmutableState,
    InvalidTenderParams,
    MalformedCertificate,
    NoSuchContract,
    RepublishForbidden,
    SchemeHasNoState,
    TenderSimError,
    UnknownContractCall,
)

SCHEME_FULL = "FULL_TRACK"
SCHEME_PROTECTED = "PROTECTED"
SCHEME_STATELESS = "STATELESS"
SCHEMES = (SCHEME_FULL, SCHEME_PROTECTED, SCHEME_STATELESS)

_DEPLOY_KIND = {
    SCHEME_FULL: "deploy_rft_full",
    SCHEME_PROTECTED: "deploy_rft_protected",
    SCHEME_STATELESS: "deploy_rft_stateless",
}
_BID_KIND = {
    SCHEME_FULL: "bid_full",
    SCHEME_PROTECTED: "bid_protected",
    SCHEME_STATELESS: "bid_stateless",
}
_BID_REJECT_KIND = {
    SCHEME_FULL: "bid_rejected_full",
    SCHEME_PROTECTED: "bid_rejected_protected",
    SCHEME_STATELESS: "bid_rejected_stateless",
}


# --- contract objects --------------------------------------------------------

class TenderDataContract:
    """Immutable byte blob, used for tender terms and encrypted bid documents."""

    kind = "tender_data"

    def __init__(self, address: bytes, owner: bytes, data: bytes):
        self.address = address
        self.owner = owner
        self.data = data

    def execute(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        return _reject_call(ctx, call)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "owner": to_hex(self.owner), "data": to_hex(self.data)}


class BidRecordContract:
    """One placed bid; immutable after creation."""

    kind = "bid_record"

    def __init__(self, address: bytes, scheme: str, bidder_id: str, data_addr: bytes,
                 validity: bool, sealed_half_a: bytes,
                 prior_bids: tuple[bytes, ...] | None, bidding_end_copy: int | None):
        self.address = address
        self.scheme = scheme
        self.bidder_id = bidder_id
        self.data_addr = data_addr
        self.validity = validity
        self.sealed_half_a = sealed_half_a
        self.prior_bids = prior_bids
        self.bidding_end_copy = bidding_end_copy

    def execute(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        return _reject_call(ctx, call)

    def snapshot(self) -> dict:
        snap = {
            "kind": self.kind,
            "scheme": self.scheme,
            "id": self.bidder_id,
            "data_addr": to_hex(self.data_addr),
            "validity": self.validity,
            "sealed_half_a": to_hex(self.sealed_half_a),
        }
        if self.prior_bids is not None:
            snap["prior_bids"] = [to_hex(a) for a in self.prior_bids]
        if self.bidding_end_copy is not None:
            snap["bidding_end_copy"] = self.bidding_end_copy
        return snap


class RequestForTenderContract:
    """Deadline, per-id bid limit, public key, and (scheme-dependent) bid array."""

    kind = "request_for_tender"

    def __init__(self, address: bytes, scheme: str, bidding_end: int, limit: int,
                 pubk: bytes, tender_data_addr: bytes | None, deployer: bytes):
        self.address = address
        self.scheme = scheme
        self.bidding_end = bidding_end
        self.limit = limit
        self.pubk = pubk
        self.tender_data_addr = tender_data_addr
        self.deployer = deployer
        self.bid_count: dict[str, int] = {}
        self.bids_placed: list[bytes] | None = None if scheme == SCHEME_STATELESS else []
        self.reveals: list[dict] = []
        self.results: dict | None = None

    # -- ledger entry points --

    def execute(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        op = call.get("op")
        if op == "place_bid":
            return self._place_bid(ctx, call)
        if op == "reveal_key_half":
            return self._reveal_key_half(ctx, call)
        if op == "publish_results":
            return self._publish_results(ctx, call)
        return _reject_call(ctx, call)

    def _place_bid(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        schedule = ctx.chain.gas_schedule
        try:
            bidder_id = call["id"]
            data_addr = from_hex(call["data_addr"])
            msg_hash = from_hex(call["msg_hash"])
            v = int(call["v"])
            r = from_hex(call["r"])
            s = from_hex(call["s"])
            sealed_half_a = from_hex(call["sealed_half_a"])
            if not isinstance(bidder_id, str) or len(data_addr) != 20:
                raise MalformedCertificate("bad id or data address")
            crypto.check_component_shapes(msg_hash, v, r, s)
        except (KeyError, ValueError, TypeError, MalformedCertificate):
            return ExecOutcome(kind=_BID_REJECT_KIND[self.scheme],
                               gas_used=meter_gas(schedule, _BID_REJECT_KIND[self.scheme]),
                               error=MalformedCertificate.code)

        valid_hash = crypto.certificate_matches(self.pubk, bidder_id, self.address,
                                                msg_hash, v, r, s)
        valid_time = ctx.block_timestamp < self.bidding_end
        allowed = self.bid_count.get(bidder_id, 0) < self.limit

        if self.scheme == SCHEME_PROTECTED and not valid_hash:
            # Protected scheme refuses to record certificate failures at all.
            return ExecOutcome(kind=_BID_REJECT_KIND[self.scheme],
                               gas_used=meter_gas(schedule, _BID_REJECT_KIND[self.scheme]),
                               error=CertificateRejected.code)

        validity = valid_hash and valid_time and allowed
        if validity:
            self.bid_count[bidder_id] = self.bid_count.get(bidder_id, 0) + 1

        if self.scheme == SCHEME_STATELESS:
            gas = meter_gas(schedule, "bid_stateless")
            prior = None
            end_copy = None
        else:
            gas = meter_gas(schedule, _BID_KIND[self.scheme],
                            prior_recorded_bids=len(self.bids_placed))
            prior = tuple(self.bids_placed)
            end_copy = self.bidding_end

        record_addr = contract_address(ctx.sender, ctx.tx_nonce)
        record = BidRecordContract(address=record_addr, scheme=self.scheme,
                                   bidder_id=bidder_id, data_addr=data_addr,
                                   validity=validity, sealed_half_a=sealed_half_a,
                                   prior_bids=prior, bidding_end_copy=end_copy)
        ctx.chain.install_contract(record_addr, record)
        if self.bids_placed is not None:
            self.bids_placed.append(record_addr)
        return ExecOutcome(kind=_BID_KIND[self.scheme], gas_used=gas,
                           created_address=record_addr)

    def _reveal_key_half(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        schedule = ctx.chain.gas_schedule
        try:
            bid_addr = from_hex(call["bid_addr"])
            half_b = from_hex(call["half_b"])
        except (KeyError, ValueError, TypeError):
            return _reject_call(ctx, call, error="MALFORMED_PAYLOAD")
        self.reveals.append({
            "bid_addr": to_hex(bid_addr),
            "half_b": to_hex(half_b),
            "height": ctx.block_height,
            "timestamp": ctx.block_timestamp,
        })
        return ExecOutcome(kind="reveal_key_half",
                           gas_used=meter_gas(schedule, "reveal_key_half",
                                              data_bits=len(half_b) * 8))

    def _publish_results(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        schedule = ctx.chain.gas_schedule
        result = call.get("result")
        if not isinstance(result, dict):
            return _reject_call(ctx, call, error="MALFORMED_PAYLOAD")
        if self.results is not None:
            return ExecOutcome(kind="rejected_call",
                               gas_used=meter_gas(schedule, "rejected_call",
                                                  data_bits=_call_bits(call)),
                               error=RepublishForbidden.code)
        if ctx.sender != self.deployer:
            return ExecOutcome(kind="rejected_call",
                               gas_used=meter_gas(schedule, "rejected_call",
                                                  data_bits=_call_bits(call)),
                               error="UNAUTHORIZED_PUBLISHER")
        self.results = result
        return ExecOutcome(kind="publish_results",
                           gas_used=meter_gas(schedule, "publish_results",
                                              data_bits=_call_bits(call)))

    # -- zero-gas reads --

    def req_bids(self, now_ms: int) -> tuple[bytes, ...]:
        """Bid record addresses, only disclosed strictly after the deadline."""
        if self.scheme == SCHEME_STATELESS:
            raise SchemeHasNoState("stateless tender stores no bid array")
        if now_ms <= self.bidding_end:
            raise BiddingStillOpen(f"bidding open until {self.bidding_end}")
        return tuple(self.bids_placed)

    def snapshot(self) -> dict:
        snap = {
            "kind": self.kind,
            "scheme": self.scheme,
            "bidding_end": self.bidding_end,
            "limit": self.limit,
            "pubk": to_hex(self.pubk),
            "tender_data": to_hex(self.tender_data_addr) if self.tender_data_addr else None,
            "deployer": to_hex(self.deployer),
            "bid_count": dict(sorted(self.bid_count.items())),
            "reveals": [dict(r) for r in self.reveals],
            "results": self.results,
        }
        if self.bids_placed is not None:
            snap["bids_placed"] = [to_hex(a) for a in self.bids_placed]
        return snap


def _call_bits(call: dict) -> int:
    return len(canonical_json_bytes(call)) * 8


def _reject_call(ctx: ExecutionContext, call: dict, error: str | None = None) -> ExecOutcome:
    if error is None:
        error = ImmutableState.code if call.get("op") == "set_field" else UnknownContractCall.code
    return ExecOutcome(kind="rejected_call",
                       gas_used=meter_gas(ctx.chain.gas_schedule, "rejected_call",
                                          data_bits=_call_bits(call)),
                       error=error)


# --- deployment dispatch -------------------------------------------------------

def execute_deploy(ctx: ExecutionContext, call: dict) -> ExecOutcome:
    chain = ctx.chain
    schedule = chain.gas_schedule
    op = call.get("op")
    if op == "deploy_data":
        try:
            data = from_hex(call["data"])
        except (KeyError, ValueError, TypeError):
            return _reject_call(ctx, call, error="MALFORMED_PAYLOAD")
        bits = len(data) * 8
        if bits > chain.config.max_data_bits:
            return _reject_call(ctx, call, error=DataTooLarge.code)
        addr = contract_address(ctx.sender, ctx.tx_nonce)
        chain.install_contract(addr, TenderDataContract(addr, ctx.sender, data))
        return ExecOutcome(kind="deploy_data",
                           gas_used=meter_gas(schedule, "deploy_data", data_bits=bits),
                           created_address=addr)
    if op == "deploy_rft":
        try:
            scheme = call["scheme"]
            length_ms = int(call["length_ms"])
            pubk = from_hex(call["pubk"])
            limit = int(call["limit"])
            data_field = call.get("tender_data")
            tender_data_addr = from_hex(data_field) if data_field else None
            if scheme not in SCHEMES or length_ms <= 0 or limit < 1 or len(pubk) != 64:
                raise ValueError("bad tender parameters")
        except (KeyError, ValueError, TypeError):
            return _reject_call(ctx, call, error=InvalidTenderParams.code)
        addr = contract_address(ctx.sender, ctx.tx_nonce)
        rft = RequestForTenderContract(
            address=addr, scheme=scheme,
            bidding_end=ctx.block_timestamp + length_ms,
            limit=limit, pubk=pubk, tender_data_addr=tender_data_addr,
            deployer=ctx.sender)
        chain.install_contract(addr, rft)
        return ExecOutcome(kind=_DEPLOY_KIND[scheme],
                           gas_used=meter_gas(schedule, _DEPLOY_KIND[scheme]),
                           created_address=addr)
    return _reject_call(ctx, call, error=UnknownContractCall.code)


# --- call payload builders -------------------------------------------------------

def data_deploy_call(data: bytes) -> dict:
    return {"op": "deploy_data", "data": to_hex(data)}


def rft_deploy_call(scheme: str, length_ms: int, pubk: bytes, limit: int,
                    tender_data_addr: bytes | None = None) -> dict:
    if scheme not in SCHEMES:
        raise InvalidTenderParams(f"unknown scheme {scheme!r}")
    if length_ms <= 0 or limit < 1:
        raise InvalidTenderParams("length_ms must be > 0 and limit >= 1")
    return {
        "op": "deploy_rft",
        "scheme": scheme,
        "length_ms": length_ms,
        "pubk": to_hex(pubk),
        "limit": limit,
        "tender_data": to_hex(tender_data_addr) if tender_data_addr else None,
    }


def place_bid_call(bidder_id: str, data_addr: bytes, msg_hash: bytes, v: int,
                   r: bytes, s: bytes, sealed_half_a: bytes) -> dict:
    return {
        "op": "place_bid",
        "id": bidder_id,
        "data_addr": to_hex(data_addr),
        "msg_hash": to_hex(msg_hash),
        "v": v,
        "r": to_hex(r),
        "s": to_hex(s),
        "sealed_half_a": to_hex(sealed_half_a),
    }


def reveal_call(bid_addr: bytes, half_b: bytes) -> dict:
    return {"op": "reveal_key_half", "bid_addr": to_hex(bid_addr), "half_b": to_hex(half_b)}


def publish_results_call(result: dict) -> dict:
    return {"op": "publish_results", "result": result}


def mutation_call(field_name: str, value) -> dict:
    return {"op": "set_field", "field": field_name, "value": value}


# --- one-shot convenience operations (submit + mine one block) -------------------

_ERRORS_BY_CODE = {e.code: e for e in (
    MalformedCertificate, CertificateRejected, DataTooLarge, InvalidTenderParams,
    RepublishForbidden, ImmutableState, NoSuchContract, UnknownContractCall,
)}


def _run_single(chain: Chain, sender: bytes, target: bytes | None, call: dict,
                at: int | None = None) -> tuple:
    ts = at if at is not None else max(chain.now(),
                                       chain.head().timestamp + chain.config.block_interval_ms)
    chain.advance_to(ts)
    tx_id = chain.submit_transaction(sender, target, canonical_json_bytes(call))
    chain.mine_block(ts)
    tx = chain.get_transaction(tx_id)
    if tx.status != "OK":
        exc = _ERRORS_BY_CODE.get(tx.error, TenderSimError)
        raise exc(f"transaction rejected: {tx.error}")
    return tx


def init_tender(chain: Chain, sender: bytes, length_ms: int, pubk: bytes, limit: int,
                scheme: str, tender_data_addr: bytes | None = None,
                at: int | None = None) -> bytes:
    call = rft_deploy_call(scheme, length_ms, pubk, limit, tender_data_addr)
    return _run_single(chain, sender, None, call, at).created_address


def deploy_tender_data(chain: Chain, sender: bytes, data: bytes, at: int | None = None) -> bytes:
    return _run_single(chain, sender, None, data_deploy_call(data), at).created_address


def _place_bid(chain: Chain, rft_addr: bytes, sender: bytes, expect_scheme: str,
               bidder_id: str, data_addr: bytes, msg_hash: bytes, v: int, r: bytes,
               s: bytes, sealed_half_a: bytes, at: int | None = None) -> bytes:
    rft = chain.get_contract(rft_addr)
    if rft.kind != "request_for_tender" or rft.scheme != expect_scheme:
        raise TenderSimError(f"target is not a {expect_scheme} tender")
    call = place_bid_call(bidder_id, data_addr, msg_hash, v, r, s, sealed_half_a)
    return _run_single(chain, sender, rft_addr, call, at).created_address


def place_bid_full(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                   sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, SCHEME_FULL, bidder_id, data_addr,
                      msg_hash, v, r, s, sealed_half_a, at)


def place_bid_protected(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                        sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, SCHEME_PROTECTED, bidder_id, data_addr,
                      msg_hash, v, r, s, sealed_half_a, at)


def place_bid_stateless(chain, rft_addr, sender, bidder_id, data_addr, msg_hash, v, r, s,
                        sealed_half_a, at=None) -> bytes:
    return _place_bid(chain, rft_addr, sender, SCHEME_STATELESS, bidder_id, data_addr,
                      msg_hash, v, r, s, sealed_half_a, at)


def req_bids(chain: Chain, rft_addr: bytes) -> tuple[bytes, ...]:
    rft = chain.get_contract(rft_addr)
    return rft.req_bids(chain.now())


def collect_valid_bid_data(chain: Chain, rft_addr: bytes) -> list[bytes]:
    """Data addresses of valid bids, in placement order; linear in bid count."""
    addresses = req_bids(chain, rft_addr)
    out = []
    for addr in addresses:
        record = chain.get_contract(addr)
        if record.validity:
            out.append(record.data_addr)
    return out


# --- stateless-scheme acknowledgements -------------------------------------------

@dataclass(frozen=True)
class Receipt:
    bid_address: bytes
    v: int
    r: bytes
    s: bytes

    def to_dict(self) -> dict:
        return {"bid_address": to_hex(self.bid_address), "v": self.v,
                "r": to_hex(self.r), "s": to_hex(self.s)}


def acknowledge_bid(chain: Chain, auctioneer_private_key: bytes, bid_address: bytes) -> Receipt:
    if not chain.has_contract(bid_address):
        raise NoSuchContract(f"no bid record at {to_hex(bid_address)}")
    v, r, s = crypto.sign_receipt(auctioneer_private_key, bid_address)
    return Receipt(bid_address=bid_address, v=v, r=r, s=s)


def verify_acknowledgement(public_key: bytes, bid_address: bytes, receipt: Receipt) -> bool:
    return crypto.verify_receipt(public_key, bid_address, receipt.v, receipt.r, receipt.s)
