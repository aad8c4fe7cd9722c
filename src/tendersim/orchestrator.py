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
from dataclasses import dataclass, field
from random import Random

from . import contracts, crypto
from . import secp256k1 as curve
from .chain import Chain
from .encoding import canonical_json_bytes, from_hex, load_json_bytes, to_hex
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
STATUS_INVALID = "INVALID"
STATUS_UNREVEALED = "UNREVEALED"
STATUS_MALFORMED = "MALFORMED_CIPHERTEXT"
STATUS_INFEASIBLE = "INFEASIBLE"

_COMPARATORS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}

# what indexing, iterating or converting a JSON value of the wrong shape raises
_SHAPE_ERRORS = (KeyError, TypeError, AttributeError, RecursionError, OverflowError)


@dataclass(frozen=True)
class EvaluationCriteria:
    numeric_fields: tuple[tuple[str, float, str], ...]
    feasibility_predicates: tuple[tuple[str, str, float], ...] = ()
    tie_break: str = TIE_LOWEST_ADDRESS

    def __post_init__(self):
        if not self.numeric_fields:
            raise ValueError("criteria need at least one numeric field")
        for name, weight, direction in self.numeric_fields:
            if not math.isfinite(weight):
                raise ValueError(f"weight for {name!r} must be finite")
            if direction not in (MINIMIZE, MAXIMIZE):
                raise ValueError(f"direction for {name!r} must be MINIMIZE or MAXIMIZE")
        for name, comparator, _ in self.feasibility_predicates:
            if comparator not in _COMPARATORS:
                raise ValueError(f"unknown comparator {comparator!r} for {name!r}")
        if self.tie_break != TIE_LOWEST_ADDRESS:
            raise ValueError(f"unknown tie break {self.tie_break!r}")

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
        """The criteria ``to_dict`` wrote; ValueError for any other JSON value."""
        try:
            return cls(
                numeric_fields=tuple((str(n), float(w), str(d))
                                     for n, w, d in obj["numeric_fields"]),
                feasibility_predicates=tuple((str(n), str(c), float(t))
                                             for n, c, t in obj.get("feasibility", [])),
                tie_break=obj.get("tie_break", TIE_LOWEST_ADDRESS),
            )
        except _SHAPE_ERRORS as exc:
            raise ValueError(f"malformed evaluation criteria: {exc!r}") from None


@dataclass(frozen=True)
class BidDocument:
    bidder_id: str
    fields: dict[str, float]
    free_text: bytes = b""

    def __post_init__(self):
        for name, value in self.fields.items():
            if not math.isfinite(value):  # NaN or Infinity cannot be scored
                raise ValueError(f"bid field {name!r} must be finite")

    def to_bytes(self) -> bytes:
        return canonical_json_bytes({
            "bidder_id": self.bidder_id,
            "fields": {k: float(v) for k, v in self.fields.items()},
            "free_text": to_hex(self.free_text),
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BidDocument":
        """The document ``to_bytes`` wrote; ValueError for any other bytes."""
        try:
            obj = load_json_bytes(raw)
            return cls(bidder_id=obj["bidder_id"],
                       fields={k: float(v) for k, v in obj["fields"].items()},
                       free_text=from_hex(obj["free_text"]))
        except _SHAPE_ERRORS as exc:
            raise ValueError(f"malformed bid document: {exc!r}") from None


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
            "format": "tender-spec/1",
            "title": self.title,
            "terms": to_hex(self.terms),
            "criteria": self.criteria.to_dict(),
        })

    @staticmethod
    def parse_data_blob(raw: bytes) -> tuple[str, bytes, EvaluationCriteria]:
        """What ``data_blob`` wrote; ValueError for any other bytes."""
        try:
            obj = load_json_bytes(raw)
            criteria = EvaluationCriteria.from_dict(obj["criteria"])
            return obj["title"], from_hex(obj["terms"]), criteria
        except _SHAPE_ERRORS as exc:
            raise ValueError(f"malformed tender data: {exc!r}") from None


@dataclass
class TenderResult:
    winner_id: str | None
    winner_bid_address: bytes | None
    scores: dict[bytes, float]
    statuses: dict[bytes, str]
    revealed_keys: dict[bytes, dict]  # addr -> {"sealed": bytes, "bid_key": bytes}

    def to_dict(self) -> dict:
        return {
            "format": "tender-result/1",
            "winner_id": self.winner_id,
            "winner_bid_address": to_hex(self.winner_bid_address)
            if self.winner_bid_address else None,
            "scores": {to_hex(a): s for a, s in sorted(self.scores.items())},
            "statuses": {to_hex(a): s for a, s in sorted(self.statuses.items())},
            "revealed_keys": {
                to_hex(a): {"sealed": to_hex(k["sealed"]), "bid_key": to_hex(k["bid_key"])}
                for a, k in sorted(self.revealed_keys.items())
            },
        }


def open_bid(criteria: EvaluationCriteria, bidder_id: str, ciphertext: bytes,
             bid_key: bytes) -> tuple[str, float | None]:
    """(STATUS_MALFORMED, None) unless ``bid_key`` opens ``ciphertext`` into a
    bid document of ``bidder_id``; then (STATUS_INFEASIBLE, None) or
    (STATUS_SCORED, score). The evaluation and the audit both grade bids here."""
    try:
        document = BidDocument.from_bytes(crypto.decrypt_bid(ciphertext, bid_key))
    except (AuthFailed, ValueError):
        return STATUS_MALFORMED, None
    if document.bidder_id != bidder_id:
        return STATUS_MALFORMED, None
    if not criteria.feasible(document.fields):
        return STATUS_INFEASIBLE, None
    return STATUS_SCORED, criteria.score(document.fields)


def pick_winner(scored: dict[bytes, float]) -> bytes | None:
    """Highest score wins; exact ties go to the lowest bid-record address."""
    if not scored:
        return None
    return min(scored, key=lambda a: (-scored[a], a))


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


def _account_address(tag: bytes) -> bytes:
    return hashlib.sha256(b"account|" + tag).digest()[-20:]


class TenderOrchestrator:
    """Drives one tender on one chain; all randomness comes from the seeded rng."""

    def __init__(self, chain: Chain, rng: Random):
        self.chain = chain
        self.rng = rng
        keys = crypto.generate_keypair(self.rng)
        self.to = TenderingOrganisation(keys=keys, address=_account_address(keys.public_key))
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
        data_addr = self.chain.peek_contract_address(self.to.address)
        rft_call = contracts.rft_deploy_call(spec.scheme, spec.length_ms,
                                             self.to.keys.public_key, spec.limit, data_addr)
        data_tx, rft_tx = self._step(
            at, (self.to.address, None, contracts.data_deploy_call(spec.data_blob())),
            (self.to.address, None, rft_call))
        if data_tx.status != "OK":
            raise ScenarioError("tender data deployment rejected (payload too large?)")
        if rft_tx.status != "OK":
            raise ScenarioError(f"tender deployment rejected: {rft_tx.error}")
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
                            address=_account_address(b"bidder|" + bidder_id.encode()))
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
        bid_call = contracts.place_bid_call(bidder_id, data_addr, cert.msg_hash,
                                            cert.v, cert.r, cert.s, sealed.half_a)
        _, bid_tx = self._step(at, (bidder.address, None, contracts.data_deploy_call(ciphertext)),
                               (bidder.address, self.rft_address, bid_call))
        if bid_tx.status != "OK":
            raise ScenarioError(f"bid placement rejected: {bid_tx.error}")
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
        call = contracts.reveal_call(submission.record_address, submission.sealed.half_b)
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
        call = contracts.publish_results_call(result.to_dict())
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

    Bids stay out of the ranking when they are invalid, unrevealed, or fail
    decryption; each gets a status instead of aborting the evaluation. A
    stateless tender's bids are ``known_bids``, the record addresses handed to
    the organisation off-ledger; a tracked tender's are its own bid array.
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

    scores: dict[bytes, float] = {}
    statuses: dict[bytes, str] = {}
    revealed_keys: dict[bytes, dict] = {}
    for addr in addresses:
        record = chain.get_contract(addr)
        if not record.validity:
            statuses[addr] = STATUS_INVALID
            continue
        half_b = revealed_halves.get(addr)
        if half_b is None:
            statuses[addr] = STATUS_UNREVEALED
            continue
        sealed = record.sealed_half_a + half_b
        try:
            bid_key = crypto.unseal_bid_key(sealed, to_private_key)
        except DecryptionFailed:
            statuses[addr] = STATUS_MALFORMED
            continue
        revealed_keys[addr] = {"sealed": sealed, "bid_key": bid_key}
        statuses[addr], score = open_bid(criteria, record.bidder_id,
                                         _ciphertext(chain, record), bid_key)
        if score is not None:
            scores[addr] = score

    winner_addr = pick_winner(scores)
    winner_id = chain.get_contract(winner_addr).bidder_id if winner_addr else None
    return TenderResult(winner_id=winner_id, winner_bid_address=winner_addr,
                        scores=scores, statuses=statuses, revealed_keys=revealed_keys)
