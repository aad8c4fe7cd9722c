"""The tender contract family as deterministic state machines.

Three bid-placement schemes over the same request-for-tender shape:

* FULL_TRACK records every placed bid, valid or not, and appends its
  record address to the on-contract array; each record carries a snapshot
  of the array as it stood at creation, so an erased entry stays provable.
* PROTECTED refuses to record a bid whose certificate fails, otherwise
  behaves like FULL_TRACK (late or over-limit bids are recorded invalid).
* STATELESS keeps no bid array at all; records hold only id, data address,
  validity and the on-ledger key half, and record addresses are handed to
  the auctioneer off-ledger, with no receipt: each record is created by a
  ``place_bid`` sent to the tender, so the auditor finds it on the ledger.

Validity of a bid is the conjunction of: the call's certificate ``(v, r, s)``
is the tender key's signature over ``crypto.cert_message_hash`` of the call's
id and this tender's address (the call carries no hash; the contract rebuilds
it), the including block's timestamp is strictly before the deadline, and the
bidder's tally is strictly below the per-id limit. The tally only moves
on valid bids, so junk placed under someone else's id cannot lock them out.

This module is the only statement of these rules, of the gas each receipt
charges (the ``chain.GAS_*`` figures, applied where its kind is chosen), of
the error code each rejected receipt carries (the constants below), and of
the format of each op's call (``CALLS``, which ``call`` writes and one
dispatcher reads for every target). Each outcome is a function of the target
contract, the decoded call (or the raw payload) and the transaction's
ExecutionContext, and returns the receipt outcome plus the contract the
transaction creates, if any. The ledger
reaches them through ``Chain._execute``, ``execute_deploy`` and
``Contract.execute``, which also install what was created; the auditor
replays a chain export through ``transition`` into its own
address-to-contract map.
"""

from __future__ import annotations

from . import crypto
from .chain import (ADDRESS_LEN, GAS_BID_BASE_FULL, GAS_BID_BASE_PROTECTED,
                    GAS_BID_FLAT_STATELESS, GAS_DATA_CONTRACT_PER_BIT, GAS_DEPLOY_RFT_FULL,
                    GAS_DEPLOY_RFT_PROTECTED, GAS_DEPLOY_RFT_STATELESS, GAS_PER_PRIOR_BID_COPY,
                    MAX_DATA_BITS, ExecOutcome, ExecutionContext, contract_address)
from .encoding import (canonical_json_bytes, from_hex, load_json_bytes, read_object, reader,
                       same_json, to_hex)
from .errors import BiddingStillOpen, NoSuchContract, RepublishForbidden, SchemeHasNoState

SCHEME_FULL = "FULL_TRACK"
SCHEME_PROTECTED = "PROTECTED"
SCHEME_STATELESS = "STATELESS"
SCHEMES = (SCHEME_FULL, SCHEME_PROTECTED, SCHEME_STATELESS)

# The error codes of rejected receipts; a missing target gets NoSuchContract's
# code and a second publication RepublishForbidden's.
MALFORMED_PAYLOAD = "MALFORMED_PAYLOAD"
CERTIFICATE_REJECTED = "CERTIFICATE_REJECTED"
DATA_TOO_LARGE = "DATA_TOO_LARGE"
IMMUTABLE_STATE = "IMMUTABLE_STATE"
UNKNOWN_CONTRACT_CALL = "UNKNOWN_CONTRACT_CALL"
UNAUTHORIZED_PUBLISHER = "UNAUTHORIZED_PUBLISHER"
MAX_ID_BYTES = 64  # the longest bidder id, in UTF-8 bytes

# scheme -> receipt kinds of its deployment, a recorded bid and a refused bid, then
# the deployment's gas and a bid's base gas: a refused or stateless bid pays the base,
# a recorded tracked bid the base plus one array copy per bid recorded before it
_KINDS = {
    SCHEME_FULL: ("deploy_rft_full", "bid_full", "bid_rejected_full",
                  GAS_DEPLOY_RFT_FULL, GAS_BID_BASE_FULL),
    SCHEME_PROTECTED: ("deploy_rft_protected", "bid_protected", "bid_rejected_protected",
                       GAS_DEPLOY_RFT_PROTECTED, GAS_BID_BASE_PROTECTED),
    SCHEME_STATELESS: ("deploy_rft_stateless", "bid_stateless", "bid_rejected_stateless",
                       GAS_DEPLOY_RFT_STATELESS, GAS_BID_FLAT_STATELESS),
}

# Each scheme's receipt kind of a tender's deployment, and of a recorded bid
DEPLOY_KINDS = tuple(kinds[0] for kinds in _KINDS.values())
BID_KINDS = tuple(kinds[1] for kinds in _KINDS.values())

# Calls that try to change what a tender fixed at deployment or publication;
# the auditor grades a wrong receipt for one as an immutability breach.
OUTCOME_FIXING_OPS = ("publish_results", "set_field")

# The accepted receipt kinds of the calls whose arguments a contract keeps,
# which the export writes as a link to the transaction (``disclose``).
LINKED_KINDS = ("deploy_data", "publish_results") + BID_KINDS

# The arguments of a ``place_bid`` call that its bid record keeps, by snapshot key.
PLACED_ARGS = ("id", "data_addr", "sealed_half_a")

# The target of a deployment transaction.
DEPLOY = object()

# A transaction's receipt outcome and the contract it creates, if any.
Transition = tuple[ExecOutcome, "Contract | None"]


# --- contract objects --------------------------------------------------------

class Contract:
    """A contract answers calls through ``transition``; it rejects every call
    unless a subclass says otherwise.

    ``snapshot()`` is the disclosed state as a JSON value, apart from a
    tracked bid record's copy of the bid array (see ``disclose``).
    """

    def execute(self, ctx: ExecutionContext, call: dict) -> ExecOutcome:
        """Ledger entry point: apply the call and install what it creates."""
        return _install(ctx, self.transition(call, ctx))

    def transition(self, call: dict, ctx: ExecutionContext) -> Transition:
        return reject_call(call), None


class TenderDataContract(Contract):
    """Immutable byte blob, used for tender terms and encrypted bid documents.

    ``tx_hash`` names the deployment that carried the bytes."""

    kind = "tender_data"

    def __init__(self, address: bytes, owner: bytes, data: bytes, tx_hash: bytes):
        self.address = address
        self.owner = owner
        self.data = data
        self.tx_hash = tx_hash

    def snapshot(self) -> dict:
        return {"kind": self.kind, "owner": to_hex(self.owner), "data": to_hex(self.data)}


class BidRecordContract(Contract):
    """One placed bid; immutable after creation.

    ``certificate_valid`` remembers the certificate half of the validity
    check; it is not part of the disclosed state. ``tx_hash`` names the
    ``place_bid`` transaction that created the record.
    """

    kind = "bid_record"

    def __init__(self, address: bytes, scheme: str, bidder_id: str, data_addr: bytes,
                 validity: bool, certificate_valid: bool, sealed_half_a: bytes,
                 prior_bids: tuple[bytes, ...] | None, bidding_end_copy: int | None,
                 tx_hash: bytes):
        self.address = address
        self.scheme = scheme
        self.bidder_id = bidder_id
        self.data_addr = data_addr
        self.validity = validity
        self.certificate_valid = certificate_valid
        self.sealed_half_a = sealed_half_a
        self.prior_bids = prior_bids
        self.bidding_end_copy = bidding_end_copy
        self.tx_hash = tx_hash

    def snapshot(self) -> dict:
        """The record's state less its copy of the bid array, which costs
        O(bids) to render: ``disclose`` writes that copy as a link, and the
        auditor compares it with the tender's own array."""
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


def disclose(contract: Contract, state: dict, call_of) -> dict:
    """``contract``'s state as a chain export writes it: its snapshot, except
    that a value the export already holds elsewhere is written as a link.

    A data contract's ``data`` and a tender's ``results`` are written as
    ``{"in_tx": <hash of the transaction that set it>}`` when they equal, as
    strictly as the auditor compares, what that transaction carried: its
    call's ``data`` or ``result``. A bid record's ``id``, ``data_addr`` and
    ``sealed_half_a`` are written as one ``"placed_by": {"in_tx": <hash>}``
    when all three equal the arguments of the ``place_bid`` call that created
    it. ``call_of`` gives the decoded call of a transaction hash, and must
    give it for every accepted ``deploy_data``, ``publish_results`` and
    ``place_bid`` transaction (``LINKED_KINDS``), else None. A value that
    differs, as after an edit of the ledger, is written whole.

    A tracked bid record's ``prior_bids`` is ``{"extends": E, "then": [...]}``,
    which stands for E's own list, then E, then ``then``; ``"extends": None``
    stands for the empty list. A record whose list is the list of the record
    before it plus that record, as on every ledger, is written
    ``{"extends": <that record>, "then": []}``, so the export grows linearly
    with the bids; any other list is written whole in ``then``.

    The auditor calls it on its re-derived state and compares strictly, never
    following a link, so each value has one spelling. ``state`` is the
    address-to-contract map ``contract`` belongs to.
    """
    snap = contract.snapshot()
    if isinstance(contract, TenderDataContract):
        snap["data"] = linked(contract.tx_hash, call_of, data=snap["data"]) or snap["data"]
    elif isinstance(contract, RequestForTenderContract):
        snap["results"] = linked(contract.results_tx, call_of,
                                 result=snap["results"]) or snap["results"]
    if not isinstance(contract, BidRecordContract):
        return snap
    placed = {arg: snap.pop(arg) for arg in PLACED_ARGS}
    link = linked(contract.tx_hash, call_of, **placed)
    snap.update({"placed_by": link} if link else placed)
    prior = contract.prior_bids
    if prior is None:
        return snap
    before = state.get(prior[-1]) if prior else None
    if isinstance(before, BidRecordContract) and before.prior_bids == prior[:-1]:
        snap["prior_bids"] = {"extends": to_hex(prior[-1]), "then": []}
    else:
        snap["prior_bids"] = {"extends": None, "then": [to_hex(a) for a in prior]}
    return snap


def linked(tx_hash: bytes | None, call_of, **args) -> dict | None:
    """A link to transaction ``tx_hash`` if its call, ``call_of(tx_hash)``,
    carried each of ``args``, else None."""
    call = call_of(tx_hash)
    if call is not None and all(same_json(call.get(arg), value) for arg, value in args.items()):
        return {"in_tx": to_hex(tx_hash)}
    return None


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
        self.results_tx: bytes | None = None  # the publication that set ``results``

    def transition(self, call: dict, ctx: ExecutionContext) -> Transition:
        return _dispatch(call, ctx, {"place_bid": self.place_bid,
                                     "reveal_key_half": self.reveal_key_half,
                                     "publish_results": self.publish_results}) \
            or super().transition(call, ctx)

    def place_bid(self, call: dict, ctx: ExecutionContext, *, id: str, data_addr: bytes,
                  v: int, r: bytes, s: bytes, sealed_half_a: bytes) -> Transition:
        _, bid_kind, refused_kind, _, base_gas = _KINDS[self.scheme]
        certified = crypto.certificate_matches(self.pubk, id, self.address, v, r, s)
        if self.scheme == SCHEME_PROTECTED and not certified:
            # Protected scheme refuses to record certificate failures at all.
            return ExecOutcome(kind=refused_kind, gas_used=base_gas,
                               error=CERTIFICATE_REJECTED), None

        valid_time = ctx.block_timestamp < self.bidding_end
        allowed = self.bid_count.get(id, 0) < self.limit
        validity = certified and valid_time and allowed
        if validity:
            self.bid_count[id] = self.bid_count.get(id, 0) + 1

        if self.scheme == SCHEME_STATELESS:
            gas = base_gas
            prior = None
            end_copy = None
        else:
            gas = base_gas + GAS_PER_PRIOR_BID_COPY * len(self.bids_placed)
            prior = tuple(self.bids_placed)
            end_copy = self.bidding_end

        record_addr = contract_address(ctx.sender, ctx.tx_nonce)
        record = BidRecordContract(address=record_addr, scheme=self.scheme,
                                   bidder_id=id, data_addr=data_addr,
                                   validity=validity, certificate_valid=certified,
                                   sealed_half_a=sealed_half_a,
                                   prior_bids=prior, bidding_end_copy=end_copy,
                                   tx_hash=ctx.tx_hash)
        if self.bids_placed is not None:
            self.bids_placed.append(record_addr)
        return ExecOutcome(kind=bid_kind, gas_used=gas,
                           created_address=record_addr), record

    def reveal_key_half(self, call: dict, ctx: ExecutionContext, *, bid_addr: bytes,
                        half_b: bytes) -> Transition:
        self.reveals.append({
            "bid_addr": to_hex(bid_addr),
            "half_b": to_hex(half_b),
            "height": ctx.block_height,
            "timestamp": ctx.block_timestamp,
        })
        return ExecOutcome(kind="reveal_key_half",
                           gas_used=GAS_DATA_CONTRACT_PER_BIT * len(half_b) * 8), None

    def publish_results(self, call: dict, ctx: ExecutionContext, *, result: dict) -> Transition:
        if self.results is not None:
            return reject_call(call, error=RepublishForbidden.code), None
        if ctx.sender != self.deployer:
            return reject_call(call, error=UNAUTHORIZED_PUBLISHER), None
        self.results = result
        self.results_tx = ctx.tx_hash
        return ExecOutcome(kind="publish_results",
                           gas_used=GAS_DATA_CONTRACT_PER_BIT * _call_bits(call)), None

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


# --- calls ----------------------------------------------------------------------------

def _hex(size: int):
    return reader(lambda raw: len(raw) == size, from_hex)


_ADDRESS = _hex(ADDRESS_LEN)
# leaf readers a scenario shares: JSON true is no count
COUNT = reader(lambda value: type(value) is int and value >= 1, refusal="must be an integer >= 1")
SCHEME = reader(lambda value: value in SCHEMES, refusal=f"must be one of {', '.join(SCHEMES)}")
BIDDER_ID = reader(lambda value: type(value) is str and len(value.encode("utf-8")) <= MAX_ID_BYTES,
                   refusal=f"must be a string of at most {MAX_ID_BYTES} UTF-8 bytes")

# Each op's call: every key but ``op``, mapped to the reader of the value its handler gets;
# ``from_hex`` reads a ``data`` of any size, and its size is DATA_TOO_LARGE's rule.
CALLS = {
    "deploy_data": {"data": from_hex},
    "deploy_rft": {"scheme": SCHEME, "length_ms": COUNT,
                   "pubk": _hex(64), "limit": COUNT,
                   "tender_data": lambda value: None if value is None else _ADDRESS(value)},
    "place_bid": {"id": BIDDER_ID, "data_addr": _ADDRESS,
                  "v": reader(lambda value: type(value) is int and value in (27, 28)),
                  "r": _hex(32), "s": _hex(32), "sealed_half_a": _hex(crypto.SEALED_HALF_LEN)},
    "reveal_key_half": {"bid_addr": _ADDRESS, "half_b": _hex(crypto.SEALED_HALF_LEN)},
    "publish_results": {"result": reader(lambda value: type(value) is dict)},
}


def _dispatch(call: dict, ctx: ExecutionContext, handlers: dict) -> Transition | None:
    """The one reading of a call, for a target whose ``handlers`` map each op it answers
    to its handler: None for another op; a MALFORMED_PAYLOAD when ``read_object`` refuses
    the call less its ``op`` by the op's ``CALLS``; else what the handler makes of it."""
    op = call["op"]
    if type(op) is not str or op not in handlers:
        return None
    try:
        values = read_object({key: call[key] for key in call if key != "op"}, CALLS[op])
    except ValueError:
        return reject_call(call, error=MALFORMED_PAYLOAD), None
    return handlers[op](call, ctx, **values)


def call(op: str, **values) -> dict:
    """The call of ``op`` with ``values``, bytes written as hex and any other value as it
    is, so a hostile one can be written too; TypeError when the keys are not ``CALLS[op]``'s."""
    if values.keys() != CALLS[op].keys():
        raise TypeError(f"{op} takes {', '.join(CALLS[op])}, not {', '.join(values)}")
    return {"op": op, **{key: to_hex(value) if isinstance(value, bytes) else value
                         for key, value in values.items()}}


# --- decoding and rejection -------------------------------------------------------

def decode_call(payload: bytes) -> dict | None:
    """The call object a payload encodes, or None if it encodes none."""
    try:
        call = load_json_bytes(payload)  # refuses deep nesting and a lone surrogate
    except ValueError:  # covers UnicodeDecodeError
        return None
    return call if isinstance(call, dict) and "op" in call else None


def malformed_payload(payload: bytes) -> ExecOutcome:
    return _rejected(len(payload) * 8, MALFORMED_PAYLOAD)


def missing_target(payload: bytes) -> ExecOutcome:
    return _rejected(len(payload) * 8, NoSuchContract.code)


def reject_call(call: dict, error: str | None = None) -> ExecOutcome:
    """A call the target does not accept: immutable state or an unknown op."""
    if error is None:
        error = IMMUTABLE_STATE if call.get("op") == "set_field" else UNKNOWN_CONTRACT_CALL
    return _rejected(_call_bits(call), error)


def _rejected(data_bits: int, error: str) -> ExecOutcome:
    return ExecOutcome(kind="rejected_call", gas_used=GAS_DATA_CONTRACT_PER_BIT * data_bits,
                       error=error)


def _call_bits(call: dict) -> int:
    return len(canonical_json_bytes(call)) * 8


# --- deployments ------------------------------------------------------------------

def deploy(call: dict, ctx: ExecutionContext) -> Transition:
    return (_dispatch(call, ctx, {"deploy_data": deploy_data, "deploy_rft": deploy_rft})
            or (reject_call(call, error=UNKNOWN_CONTRACT_CALL), None))


def deploy_data(call: dict, ctx: ExecutionContext, *, data: bytes) -> Transition:
    bits = len(data) * 8
    if bits > MAX_DATA_BITS:
        return reject_call(call, error=DATA_TOO_LARGE), None
    addr = contract_address(ctx.sender, ctx.tx_nonce)
    return (ExecOutcome(kind="deploy_data", gas_used=GAS_DATA_CONTRACT_PER_BIT * bits,
                        created_address=addr),
            TenderDataContract(addr, ctx.sender, data, ctx.tx_hash))


def deploy_rft(call: dict, ctx: ExecutionContext, *, scheme: str, length_ms: int,
               pubk: bytes, limit: int, tender_data: bytes | None) -> Transition:
    addr = contract_address(ctx.sender, ctx.tx_nonce)
    rft = RequestForTenderContract(
        address=addr, scheme=scheme,
        bidding_end=ctx.block_timestamp + length_ms,
        limit=limit, pubk=pubk, tender_data_addr=tender_data,
        deployer=ctx.sender)
    kind, _, _, gas, _ = _KINDS[scheme]
    return ExecOutcome(kind=kind, gas_used=gas, created_address=addr), rft


# --- one transaction, on the ledger or off it -----------------------------------------

def transition(target, call: dict | None, payload: bytes, ctx: ExecutionContext) -> Transition:
    """The outcome of one transaction and the contract it creates, if any.

    ``target`` is DEPLOY for a deployment, else the contract the transaction
    is sent to, or None when no contract lives at that address; ``call`` is
    ``decode_call(payload)``. ``Chain._execute`` makes the same choices.
    """
    if call is None:
        return malformed_payload(payload), None
    if target is DEPLOY:
        return deploy(call, ctx)
    if target is None:
        return missing_target(payload), None
    return target.transition(call, ctx)


def execute_deploy(ctx: ExecutionContext, call: dict) -> ExecOutcome:
    """Ledger entry point for deployments."""
    return _install(ctx, deploy(call, ctx))


def _install(ctx: ExecutionContext, result: Transition) -> ExecOutcome:
    outcome, created = result
    if created is not None:
        ctx.chain.install_contract(created.address, created)
    return outcome
