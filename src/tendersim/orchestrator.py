"""End-to-end tender lifecycle: open, register, seal-and-submit, close, publish.

The orchestrator plays every actor. The tendering organisation holds the
curve key pair; bidders hold their certificates, bid keys and withheld key
halves. Actors talk only through ledger
transactions and direct off-ledger handoffs (record addresses, key
halves), so nothing privileged leaks into what the auditor later reads.

Evaluation criteria are declarative (weighted numeric fields plus
feasibility predicates) rather than arbitrary code: a citizen re-running
them over the decrypted documents must land on the same winner.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from dataclasses import dataclass, field
from random import Random

from . import contracts, crypto
from . import secp256k1 as curve
from .chain import Chain
from .encoding import (STRING, canonical_json_bytes, from_hex, load_json_bytes, read_at,
                       read_map, read_object, reader, to_hex)
from .errors import (
    AuthFailed,
    DecryptionFailed,
    EvaluationBeforeDeadline,
    NoSuchContract,
    RepublishForbidden,
    ScenarioError,
)

MINIMIZE = "MINIMIZE"
MAXIMIZE = "MAXIMIZE"
TIE_LOWEST_ADDRESS = "LOWEST_BID_ADDRESS"

STATUS_SCORED = "SCORED"
STATUS_UNREVEALED = "UNREVEALED"
STATUS_MALFORMED = "MALFORMED_CIPHERTEXT"
STATUS_INFEASIBLE = "INFEASIBLE"

_COMPARATORS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
                "==": operator.eq}


def number(value) -> float:
    """A finite JSON int or float as a float; ValueError else (true, NaN, 10**400, ...)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError("must be a finite number")
    return float(value)


def _rows(least: int, *cells):
    """The reader of a list of ``least`` or more rows of one value per reader of ``cells``."""
    def read(rows):
        if type(rows) is not list or len(rows) < least or not all(
                type(row) is list and len(row) == len(cells) for row in rows):
            raise ValueError(f"must be a list of at least {least} rows of {len(cells)} values")
        return tuple(tuple(read(value) for read, value in zip(cells, row)) for row in rows)
    return read


TENDER_DATA_FORMAT = "tender-spec/1"

# Each off-ledger document: every key its writer writes, mapped to the reader of its value.
CRITERIA = {
    "numeric_fields": _rows(1, STRING, number,
                            reader(lambda value: value in (MINIMIZE, MAXIMIZE))),
    "feasibility": _rows(0, STRING, reader(lambda value: type(value) is str
                                            and value in _COMPARATORS), number),
    "tie_break": reader(lambda value: value == TIE_LOWEST_ADDRESS),
}
TENDER_DATA = {"format": reader(lambda value: value == TENDER_DATA_FORMAT), "title": STRING,
               "terms": from_hex, "criteria": lambda value: EvaluationCriteria.from_dict(value)}
BID_FIELDS = read_map(number)  # a bid's fields by name, each read as a finite float
# the fields pass through to the document's constructor, which reads them with BID_FIELDS
BID_DOCUMENT = {"bidder_id": STRING, "fields": lambda fields: fields, "free_text": from_hex}


@dataclass(frozen=True)
class EvaluationCriteria:
    numeric_fields: tuple[tuple[str, float, str], ...]
    feasibility_predicates: tuple[tuple[str, str, float], ...] = ()
    tie_break: str = TIE_LOWEST_ADDRESS

    def feasible(self, fields: dict[str, float]) -> bool:
        named = self.numeric_fields + self.feasibility_predicates
        if any(entry[0] not in fields for entry in named):
            return False
        return all(_COMPARATORS[cmp](fields[name], threshold)
                   for name, cmp, threshold in self.feasibility_predicates)

    def score(self, fields: dict[str, float]) -> float:
        total = 0.0
        for name, weight, direction in self.numeric_fields:
            value = fields[name]
            total += weight * (value if direction == MAXIMIZE else -value)
        return total

    def to_dict(self) -> dict:
        return {
            "numeric_fields": [[n, w, d] for n, w, d in self.numeric_fields],
            "feasibility": [[n, c, t] for n, c, t in self.feasibility_predicates],
            "tie_break": self.tie_break,
        }

    @classmethod
    def from_dict(cls, obj) -> "EvaluationCriteria":
        """The criteria ``to_dict`` wrote, read by ``CRITERIA`` in the order of the fields."""
        return cls(*read_object(obj, CRITERIA).values())


@dataclass(frozen=True)
class BidDocument:
    bidder_id: str
    fields: dict[str, float]
    free_text: bytes = b""

    def __post_init__(self):  # the one reading of the fields, however the document is made
        object.__setattr__(self, "fields", read_at("fields", BID_FIELDS, self.fields))

    def to_bytes(self) -> bytes:
        return canonical_json_bytes({
            "bidder_id": self.bidder_id,
            "fields": self.fields,
            "free_text": to_hex(self.free_text),
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BidDocument":
        """The document ``to_bytes`` wrote, read by ``BID_DOCUMENT``; ValueError else."""
        return cls(**read_object(load_json_bytes(raw), BID_DOCUMENT))


@dataclass(frozen=True)
class TenderSpec:
    title: str
    terms: bytes
    criteria: EvaluationCriteria
    length_ms: int
    limit: int
    scheme: str

    def data_blob(self) -> bytes:
        """What goes into the tender data contract: terms plus evaluation criteria."""
        return canonical_json_bytes({
            "format": TENDER_DATA_FORMAT,
            "title": self.title,
            "terms": to_hex(self.terms),
            "criteria": self.criteria.to_dict(),
        })

    @staticmethod
    def parse_data_blob(raw: bytes) -> tuple[str, bytes, EvaluationCriteria]:
        """(title, terms, criteria) of what ``data_blob`` wrote, read by ``TENDER_DATA``."""
        return tuple(read_object(load_json_bytes(raw), TENDER_DATA).values())[1:]


@dataclass
class TenderResult:
    """The outcome the organisation publishes: the winner, and one entry per valid
    bid, address -> {"status", "bid_key"?, "score"?}: ``bid_key`` for a bid whose
    key was unsealed, ``score`` for a scored one. No key half is written: the first
    is on the ledger, and only the organisation's key could check the second."""

    winner_id: str | None
    winner_bid_address: bytes | None
    bids: dict[bytes, dict]

    def to_dict(self) -> dict:
        return {
            "format": "tender-result/3",
            "winner_id": self.winner_id,
            "winner_bid_address": to_hex(self.winner_bid_address)
            if self.winner_bid_address else None,
            "bids": {to_hex(a): {k: to_hex(v) if isinstance(v, bytes) else v
                                 for k, v in entry.items()}
                     for a, entry in sorted(self.bids.items())},
        }


def open_bid(criteria: EvaluationCriteria, bidder_id: str, ciphertext: bytes,
             bid_key: bytes) -> dict:
    """The published entry of a bid whose key unsealed to ``bid_key``: status
    STATUS_MALFORMED unless the key opens ``ciphertext`` into a bid document of
    ``bidder_id``; then STATUS_SCORED with its score, or STATUS_INFEASIBLE for one
    that fails the criteria or whose weighted sum is not finite, which JSON cannot
    hold. The evaluation and the audit both grade bids here."""
    entry = {"status": STATUS_MALFORMED, "bid_key": bid_key}
    try:
        document = BidDocument.from_bytes(crypto.decrypt_bid(ciphertext, bid_key))
    except (AuthFailed, ValueError):
        return entry
    if document.bidder_id != bidder_id:
        return entry
    score = criteria.score(document.fields) if criteria.feasible(document.fields) else math.nan
    if not math.isfinite(score):
        return {**entry, "status": STATUS_INFEASIBLE}
    return {**entry, "status": STATUS_SCORED, "score": score}


def tender_result(bids: dict[bytes, dict], bidder_id_of) -> TenderResult:
    """The result of the entries ``bids``: the highest score wins, exact ties go
    to the lowest bid-record address; ``bidder_id_of(address)`` names the
    winner. The evaluation and the audit both write results here."""
    scored = [a for a, entry in bids.items() if "score" in entry]
    winner = min(scored, key=lambda a: (-bids[a]["score"], a), default=None)
    return TenderResult(winner_id=None if winner is None else bidder_id_of(winner),
                        winner_bid_address=winner, bids=bids)


# --- actors -------------------------------------------------------------------

@dataclass
class BidSubmission:
    record_address: bytes
    data_address: bytes
    document: BidDocument
    bid_key: bytes
    sealed: crypto.SealedBidKey


@dataclass
class Bidder:
    bidder_id: str
    address: bytes
    certificate: crypto.Certificate | None = None


@dataclass
class TenderingOrganisation:
    keys: crypto.KeyPair
    address: bytes
    received_halves: dict[bytes, bytes] = field(default_factory=dict)
    known_bids: list[bytes] = field(default_factory=list)


def _ciphertext(chain: Chain, record) -> bytes:
    """A bid may name any address as its data; only a data contract holds bytes."""
    try:
        return getattr(chain.get_contract(record.data_addr), "data", b"")
    except NoSuchContract:
        return b""


def account_address(tag: bytes) -> bytes:
    """The address of the account that ``tag`` names (a public key, a bidder id)."""
    return hashlib.sha256(b"account|" + tag).digest()[-20:]


class TenderOrchestrator:
    """Drives one tender on one chain; all randomness comes from the seeded rng."""

    def __init__(self, chain: Chain, rng: Random):
        self.chain = chain
        self.rng = rng
        keys = crypto.generate_keypair(self.rng)
        self.to = TenderingOrganisation(keys=keys, address=account_address(keys.public_key))
        chain.register_account(self.to.address)
        self.bidders: dict[str, Bidder] = {}
        self.rft_address: bytes | None = None
        self.spec: TenderSpec | None = None
        # the organisation key every bid of the tender is sealed to, prepared once
        self.sealing_key: curve.FixedBase | None = None

    # -- lifecycle --

    def _step(self, at: int | None, *calls: tuple[bytes, bytes | None, dict]) -> tuple:
        """Submit each ``(sender, target, call)`` in order and mine them in one block.

        The block is stamped ``at``, by default one block interval from now.
        Returns the mined transactions of these calls, in the same order.
        """
        ts = at if at is not None else self.chain.now() + self.chain.config.block_interval_ms
        self.chain.advance_to(ts)
        for sender, target, call in calls:
            self.chain.submit_transaction(sender, target, canonical_json_bytes(call))
        return self.chain.mine_block(ts).transactions[-len(calls):]

    def open_tender(self, spec: TenderSpec, at: int | None = None) -> tuple[bytes, bytes]:
        TenderSpec.parse_data_blob(spec.data_blob())  # ValueError for data TENDER_DATA refuses
        data_addr = self.chain.peek_contract_address(self.to.address)
        rft_call = contracts.call("deploy_rft", scheme=spec.scheme, length_ms=spec.length_ms,
                                  pubk=self.to.keys.public_key, limit=spec.limit,
                                  tender_data=data_addr)
        data_tx, rft_tx = self._step(
            at, (self.to.address, None, contracts.call("deploy_data", data=spec.data_blob())),
            (self.to.address, None, rft_call))
        for what, tx in (("tender data deployment", data_tx), ("tender deployment", rft_tx)):
            if tx.status != "OK":
                raise ScenarioError(f"{what} rejected: {tx.error}")
        self.rft_address = rft_tx.created_address
        self.spec = spec
        self.sealing_key = curve.prepare_public_key(self.to.keys.public_key)
        return self.rft_address, data_addr

    def register_bidder(self, bidder_id: str) -> Bidder:
        if self.rft_address is None:
            raise ScenarioError("open the tender before registering bidders")
        cert = crypto.issue_certificate(self.to.keys.private_key, bidder_id, self.rft_address)
        bidder = self.bidders.get(bidder_id)
        if bidder is None:
            bidder = Bidder(bidder_id=bidder_id,
                            address=account_address(b"bidder|" + bidder_id.encode()))
            self.chain.register_account(bidder.address)
            self.bidders[bidder_id] = bidder
        bidder.certificate = cert  # re-registration simply refreshes the certificate
        return bidder

    def submit_sealed_bid(self, bidder_id: str, document: BidDocument,
                          at: int | None = None) -> BidSubmission:
        """Encrypt, deploy the ciphertext, and place the bid, all in one block."""
        bidder = self.bidders[bidder_id]
        cert = bidder.certificate
        bid_key = crypto.new_bid_key(self.rng)
        ciphertext = crypto.encrypt_bid(document.to_bytes(), bid_key, self.rng)
        sealed = crypto.seal_bid_key(bid_key, self.sealing_key, self.rng)

        data_addr = self.chain.peek_contract_address(bidder.address)
        bid_call = contracts.call("place_bid", id=bidder_id, data_addr=data_addr, v=cert.v,
                                  r=cert.r, s=cert.s, sealed_half_a=sealed.half_a)
        data_tx, bid_tx = self._step(
            at, (bidder.address, None, contracts.call("deploy_data", data=ciphertext)),
            (bidder.address, self.rft_address, bid_call))
        for what, tx in (("bid ciphertext deployment", data_tx), ("bid placement", bid_tx)):
            if tx.status != "OK":
                raise ScenarioError(f"{what} rejected: {tx.error}")
        if self.spec.scheme == contracts.SCHEME_STATELESS:
            # Off-ledger handoff: the tender keeps no bid array, so the record
            # address goes to the auctioneer directly.
            self.to.known_bids.append(bid_tx.created_address)
        return BidSubmission(record_address=bid_tx.created_address, data_address=data_addr,
                             document=document, bid_key=bid_key, sealed=sealed)

    def deliver_key_half(self, bidder_id: str, submission: BidSubmission) -> None:
        """Off-ledger delivery of the withheld half to the tendering organisation."""
        self.to.received_halves[submission.record_address] = submission.sealed.half_b

    def reveal_key_half_on_chain(self, bidder_id: str, submission: BidSubmission,
                                 at: int | None = None) -> str:
        """Post the withheld half to the ledger (also hands it to the organisation)."""
        call = contracts.call("reveal_key_half", bid_addr=submission.record_address,
                              half_b=submission.sealed.half_b)
        [tx] = self._step(at, (self.bidders[bidder_id].address, self.rft_address, call))
        self.to.received_halves[submission.record_address] = submission.sealed.half_b
        return to_hex(tx.tx_hash)

    # -- organisation-side probes and evaluation --

    def pre_deadline_decryption_probe(self) -> dict[bytes, bool]:
        """Can the organisation decrypt each recorded bid right now?

        Honest runs must come back all-False before key delivery; an early
        on-ledger revelation flips its bid to True.
        """
        rft = self.chain.get_contract(self.rft_address)
        stateless = rft.scheme == contracts.SCHEME_STATELESS
        outcome = {}
        for addr in self.to.known_bids if stateless else rft.bids_placed:
            record = self.chain.get_contract(addr)
            sealed = record.sealed_half_a + self.to.received_halves.get(addr, b"")
            try:
                key = crypto.unseal_bid_key(sealed, self.to.keys.private_key)
                crypto.decrypt_bid(_ciphertext(self.chain, record), key)
                outcome[addr] = True
            except (DecryptionFailed, AuthFailed):
                outcome[addr] = False
        return outcome

    def close_and_evaluate(self) -> TenderResult:
        return evaluate_tender(self.chain, self.rft_address, self.to.keys.private_key,
                               self.to.received_halves,
                               known_bids=self.to.known_bids)

    def publish_results(self, result: TenderResult, at: int | None = None) -> str:
        call = contracts.call("publish_results", result=result.to_dict())
        [tx] = self._step(at, (self.to.address, self.rft_address, call))
        if tx.status != "OK":
            if tx.error == RepublishForbidden.code:
                raise RepublishForbidden("results already published for this tender")
            raise ScenarioError(f"publish rejected: {tx.error}")
        return to_hex(tx.tx_hash)


def evaluate_tender(chain: Chain, rft_address: bytes, to_private_key: bytes,
                    revealed_halves: dict[bytes, bytes],
                    known_bids: list[bytes]) -> TenderResult:
    """Decrypt, score, and pick the winner over the recorded bids.

    Each valid bid gets an entry with its status; it stays out of the ranking
    when it is unrevealed, fails decryption or is infeasible. Its withheld half
    is the one in ``revealed_halves``, else the last revealed on the ledger. An
    invalid bid gets no entry: the auditor re-derives validity from the ledger.
    A stateless tender's bids are ``known_bids``, the record addresses handed
    to the organisation off-ledger; a tracked tender's are its own bid array.
    """
    rft = chain.get_contract(rft_address)
    now = chain.now()
    if now <= rft.bidding_end:
        raise EvaluationBeforeDeadline(
            f"bidding open until {rft.bidding_end}, now {now}")
    if rft.scheme == contracts.SCHEME_STATELESS:
        addresses = known_bids
    else:
        addresses = list(rft.req_bids(now))

    _, _, criteria = TenderSpec.parse_data_blob(
        chain.get_contract(rft.tender_data_addr).data)

    on_ledger = {from_hex(r["bid_addr"]): from_hex(r["half_b"]) for r in rft.reveals}
    bids: dict[bytes, dict] = {}
    for addr in addresses:
        record = chain.get_contract(addr)
        if not record.validity:
            continue
        half_b = revealed_halves.get(addr, on_ledger.get(addr))
        if half_b is None:
            bids[addr] = {"status": STATUS_UNREVEALED}
            continue
        try:
            bid_key = crypto.unseal_bid_key(record.sealed_half_a + half_b, to_private_key)
        except DecryptionFailed:
            bids[addr] = {"status": STATUS_MALFORMED}
            continue
        bids[addr] = open_bid(criteria, record.bidder_id, _ciphertext(chain, record), bid_key)
    return tender_result(bids, lambda addr: chain.get_contract(addr).bidder_id)
