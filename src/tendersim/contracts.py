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

This module is the only statement of these rules. Each outcome is a
function of the target contract, the decoded call (or the raw payload) and
the transaction's ExecutionContext, and returns the receipt outcome plus
the contract the transaction creates, if any. The ledger reaches them
through ``Chain._execute``, ``execute_deploy`` and ``Contract.execute``,
which also install what was created; the auditor replays a chain export
through ``transition`` into its own address-to-contract map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .chain import Chain, ExecOutcome, ExecutionContext, contract_address, meter_gas
from .encoding import canonical_json_bytes, from_hex, load_json_bytes, to_hex
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

# Calls that try to change what a tender fixed at deployment or publication;
# the auditor grades a wrong receipt for one as an immutability breach.
OUTCOME_FIXING_OPS = ("publish_results", "set_field")

# The target of a deployment transaction.
DEPLOY = object()

# A transaction's receipt outcome and the contract it creates, if any.
Transition = tuple[ExecOutcome, "Contract | None"]


# --- contract objects --------------------------------------------------------

class Contract:
    """A contract answers calls through ``transition``; it rejects every call
    unless a subclass says otherwise."""

    def execute(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        """Ledger entry point: apply the call and install what it creates."""
        return _install(ctx, self.transition(call, ctx))

    def transition(self, call: dict, ctx: ExecutionContext) -> Transition:
        return reject_call(call, ctx), None


class TenderDataContract(Contract):
    """Immutable byte blob, used for tender terms and encrypted bid documents."""

    kind = "tender_data"

    def __init__(self, address: bytes, owner: bytes, data: bytes):
        self.address = address
        self.owner = owner
        self.data = data

    def snapshot(self) -> dict:
        return {"kind": self.kind, "owner": to_hex(self.owner), "data": to_hex(self.data)}


class BidRecordContract(Contract):
    """One placed bid; immutable after creation.

    ``certificate_valid`` remembers the certificate half of the validity
    check; it is not part of the disclosed state.
    """

    kind = "bid_record"

    def __init__(self, address: bytes, scheme: str, bidder_id: str, data_addr: bytes,
                 validity: bool, certificate_valid: bool, sealed_half_a: bytes,
                 prior_bids: tuple[bytes, ...] | None, bidding_end_copy: int | None):
        self.address = address
        self.scheme = scheme
        self.bidder_id = bidder_id
        self.data_addr = data_addr
        self.validity = validity
        self.certificate_valid = certificate_valid
        self.sealed_half_a = sealed_half_a
        self.prior_bids = prior_bids
        self.bidding_end_copy = bidding_end_copy

    def snapshot(self) -> dict:
        snap = self.snapshot_without_prior_bids()
        if self.prior_bids is not None:
            snap["prior_bids"] = [to_hex(a) for a in self.prior_bids]
        return snap

    def snapshot_without_prior_bids(self) -> dict:
        """The snapshot less its copy of the bid array, which costs O(bids) to render."""
        snap = {
            "kind": self.kind,
            "scheme": self.scheme,
            "id": self.bidder_id,
            "data_addr": to_hex(self.data_addr),
            "validity": self.validity,
            "sealed_half_a": to_hex(self.sealed_half_a),
        }
        if self.bidding_end_copy is not None:
            snap["bidding_end_copy"] = self.bidding_end_copy
        return snap


class RequestForTenderContract(Contract):
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

    def transition(self, call: dict, ctx: ExecutionContext) -> Transition:
        op = call.get("op")
        if op == "place_bid":
            return self.place_bid(call, ctx)
        if op == "reveal_key_half":
            return self.reveal_key_half(call, ctx), None
        if op == "publish_results":
            return self.publish_results(call, ctx), None
        return reject_call(call, ctx), None

    def place_bid(self, call: dict, ctx: ExecutionContext) -> Transition:
        schedule = ctx.gas_schedule
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
                               error=MalformedCertificate.code), None

        valid_hash = crypto.certificate_matches(self.pubk, bidder_id, self.address,
                                                msg_hash, v, r, s)
        valid_time = ctx.block_timestamp < self.bidding_end
        allowed = self.bid_count.get(bidder_id, 0) < self.limit

        if self.scheme == SCHEME_PROTECTED and not valid_hash:
            # Protected scheme refuses to record certificate failures at all.
            return ExecOutcome(kind=_BID_REJECT_KIND[self.scheme],
                               gas_used=meter_gas(schedule, _BID_REJECT_KIND[self.scheme]),
                               error=CertificateRejected.code), None

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
                                   validity=validity, certificate_valid=valid_hash,
                                   sealed_half_a=sealed_half_a,
                                   prior_bids=prior, bidding_end_copy=end_copy)
        if self.bids_placed is not None:
            self.bids_placed.append(record_addr)
        return ExecOutcome(kind=_BID_KIND[self.scheme], gas_used=gas,
                           created_address=record_addr), record

    def reveal_key_half(self, call: dict, ctx: ExecutionContext) -> ExecOutcome:
        try:
            bid_addr = from_hex(call["bid_addr"])
            half_b = from_hex(call["half_b"])
        except (KeyError, ValueError, TypeError):
            return reject_call(call, ctx, error="MALFORMED_PAYLOAD")
        self.reveals.append({
            "bid_addr": to_hex(bid_addr),
            "half_b": to_hex(half_b),
            "height": ctx.block_height,
            "timestamp": ctx.block_timestamp,
        })
        return ExecOutcome(kind="reveal_key_half",
                           gas_used=meter_gas(ctx.gas_schedule, "reveal_key_half",
                                              data_bits=len(half_b) * 8))

    def publish_results(self, call: dict, ctx: ExecutionContext) -> ExecOutcome:
        result = call.get("result")
        if not isinstance(result, dict):
            return reject_call(call, ctx, error="MALFORMED_PAYLOAD")
        if self.results is not None:
            return reject_call(call, ctx, error=RepublishForbidden.code)
        if ctx.sender != self.deployer:
            return reject_call(call, ctx, error="UNAUTHORIZED_PUBLISHER")
        self.results = result
        return ExecOutcome(kind="publish_results",
                           gas_used=meter_gas(ctx.gas_schedule, "publish_results",
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


# --- decoding and rejection -------------------------------------------------------

def decode_call(payload: bytes) -> dict | None:
    """The call object a payload encodes, or None if it encodes none."""
    try:
        call = load_json_bytes(payload)
    except (ValueError, RecursionError):  # ValueError covers UnicodeDecodeError
        return None
    return call if isinstance(call, dict) and "op" in call else None


def malformed_payload(payload: bytes, ctx: ExecutionContext) -> ExecOutcome:
    return _rejected(ctx, len(payload) * 8, "MALFORMED_PAYLOAD")


def missing_target(payload: bytes, ctx: ExecutionContext) -> ExecOutcome:
    return _rejected(ctx, len(payload) * 8, NoSuchContract.code)


def reject_call(call: dict, ctx: ExecutionContext, error: str | None = None) -> ExecOutcome:
    """A call the target does not accept: immutable state or an unknown op."""
    if error is None:
        error = ImmutableState.code if call.get("op") == "set_field" else UnknownContractCall.code
    return _rejected(ctx, _call_bits(call), error)


def _rejected(ctx: ExecutionContext, data_bits: int, error: str) -> ExecOutcome:
    return ExecOutcome(kind="rejected_call",
                       gas_used=meter_gas(ctx.gas_schedule, "rejected_call",
                                          data_bits=data_bits),
                       error=error)


def _call_bits(call: dict) -> int:
    return len(canonical_json_bytes(call)) * 8


# --- deployments ------------------------------------------------------------------

def deploy(call: dict, ctx: ExecutionContext) -> Transition:
    op = call.get("op")
    if op == "deploy_data":
        return deploy_data(call, ctx)
    if op == "deploy_rft":
        return deploy_rft(call, ctx)
    return reject_call(call, ctx, error=UnknownContractCall.code), None


def deploy_data(call: dict, ctx: ExecutionContext) -> Transition:
    try:
        data = from_hex(call["data"])
    except (KeyError, ValueError, TypeError):
        return reject_call(call, ctx, error="MALFORMED_PAYLOAD"), None
    bits = len(data) * 8
    if bits > ctx.config.max_data_bits:
        return reject_call(call, ctx, error=DataTooLarge.code), None
    addr = contract_address(ctx.sender, ctx.tx_nonce)
    return (ExecOutcome(kind="deploy_data",
                        gas_used=meter_gas(ctx.gas_schedule, "deploy_data", data_bits=bits),
                        created_address=addr),
            TenderDataContract(addr, ctx.sender, data))


def deploy_rft(call: dict, ctx: ExecutionContext) -> Transition:
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
        return reject_call(call, ctx, error=InvalidTenderParams.code), None
    addr = contract_address(ctx.sender, ctx.tx_nonce)
    rft = RequestForTenderContract(
        address=addr, scheme=scheme,
        bidding_end=ctx.block_timestamp + length_ms,
        limit=limit, pubk=pubk, tender_data_addr=tender_data_addr,
        deployer=ctx.sender)
    return (ExecOutcome(kind=_DEPLOY_KIND[scheme],
                        gas_used=meter_gas(ctx.gas_schedule, _DEPLOY_KIND[scheme]),
                        created_address=addr),
            rft)


# --- one transaction, on the ledger or off it -----------------------------------------

def transition(target, call: dict | None, payload: bytes, ctx: ExecutionContext) -> Transition:
    """The outcome of one transaction and the contract it creates, if any.

    ``target`` is DEPLOY for a deployment, else the contract the transaction
    is sent to, or None when no contract lives at that address; ``call`` is
    ``decode_call(payload)``. ``Chain._execute`` makes the same choices.
    """
    if call is None:
        return malformed_payload(payload, ctx), None
    if target is DEPLOY:
        return deploy(call, ctx)
    if target is None:
        return missing_target(payload, ctx), None
    return target.transition(call, ctx)


def execute_deploy(ctx: ExecutionContext, call: dict) -> ExecOutcome:
    """Ledger entry point for deployments."""
    return _install(ctx, deploy(call, ctx))


def _install(ctx: ExecutionContext, result: Transition) -> ExecOutcome:
    outcome, created = result
    if created is not None:
        ctx.chain.install_contract(created.address, created)
    return outcome


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
