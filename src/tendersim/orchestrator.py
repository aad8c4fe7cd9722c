"""End-to-end tender lifecycle: open, register, seal-and-submit, close, publish.

The orchestrator plays every actor. The tendering organisation holds the
curve key pair and an off-ledger roster; bidders hold their certificates,
bid keys and withheld key halves. Actors talk only through ledger
transactions and direct off-ledger handoffs (record addresses, receipts,
key halves), so nothing privileged leaks into what the auditor later reads.

Evaluation criteria are declarative (weighted numeric fields plus
feasibility predicates) rather than arbitrary code: a citizen re-running
them over the decrypted documents must land on the same winner.
"""

from __future__ import annotations

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

    def required_fields(self) -> set[str]:
        names = {name for name, _, _ in self.numeric_fields}
        names.update(name for name, _, _ in self.feasibility_predicates)
        return names

    def feasible(self, fields: dict[str, float]) -> bool:
        if not self.required_fields().issubset(fields):
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
    def from_dict(cls, obj: dict) -> "EvaluationCriteria":
        return cls(
            numeric_fields=tuple((str(n), float(w), str(d))
                                 for n, w, d in obj["numeric_fields"]),
            feasibility_predicates=tuple((str(n), str(c), float(t))
                                         for n, c, t in obj.get("feasibility", [])),
            tie_break=obj.get("tie_break", TIE_LOWEST_ADDRESS),
        )


@dataclass(frozen=True)
class BidDocument:
    bidder_id: str
    fields: dict[str, float]
    free_text: bytes = b""

    def to_bytes(self) -> bytes:
        return canonical_json_bytes({
            "bidder_id": self.bidder_id,
            "fields": {k: float(v) for k, v in self.fields.items()},
            "free_text": to_hex(self.free_text),
        })

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BidDocument":
        obj = load_json_bytes(raw)
        return cls(bidder_id=obj["bidder_id"],
                   fields={k: float(v) for k, v in obj["fields"].items()},
                   free_text=from_hex(obj["free_text"]))


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
        obj = load_json_bytes(raw)
        return obj["title"], from_hex(obj["terms"]), EvaluationCriteria.from_dict(obj["criteria"])


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
    receipt: contracts.Receipt | None = None


@dataclass
class Bidder:
    bidder_id: str
    address: bytes
    certificate: crypto.Certificate | None = None
    submissions: list[BidSubmission] = field(default_factory=list)


@dataclass
class TenderingOrganisation:
    keys: crypto.KeyPair
    address: bytes
    roster: dict[str, crypto.Certificate] = field(default_factory=dict)
    received_halves: dict[bytes, bytes] = field(default_factory=dict)
    known_bids: list[bytes] = field(default_factory=list)


def _account_address(tag: bytes) -> bytes:
    import hashlib

    return hashlib.sha256(b"account|" + tag).digest()[-20:]


class TenderOrchestrator:
    """Drives one tender on one chain; all randomness comes from the seeded rng."""

    def __init__(self, chain: Chain, rng: Random | None = None):
        self.chain = chain
        self.rng = rng or Random()
        keys = crypto.generate_keypair(self.rng)
        self.to = TenderingOrganisation(keys=keys, address=_account_address(keys.public_key))
        chain.register_account(self.to.address)
        self.bidders: dict[str, Bidder] = {}
        self.rft_address: bytes | None = None
        self.tender_data_address: bytes | None = None
        self.spec: TenderSpec | None = None
        # the organisation key every bid of the tender is sealed to, prepared once
        self.sealing_key: curve.FixedBase | None = None
        self.result: TenderResult | None = None

    # -- lifecycle --

    def open_tender(self, spec: TenderSpec, at: int | None = None) -> tuple[bytes, bytes]:
        ts = at if at is not None else self.chain.now() + self.chain.config.block_interval_ms
        self.chain.advance_to(ts)
        blob = spec.data_blob()
        data_addr = self.chain.peek_contract_address(self.to.address, 0)
        self.chain.submit_transaction(self.to.address, None,
                                      canonical_json_bytes(contracts.data_deploy_call(blob)))
        rft_call = contracts.rft_deploy_call(spec.scheme, spec.length_ms,
                                             self.to.keys.public_key, spec.limit, data_addr)
        rft_id = self.chain.submit_transaction(self.to.address, None,
                                               canonical_json_bytes(rft_call))
        self.chain.mine_block(ts)
        if not self.chain.has_contract(data_addr):
            raise ScenarioError("tender data deployment rejected (payload too large?)")
        rft_tx = self.chain.get_transaction(rft_id)
        if rft_tx.status != "OK":
            raise ScenarioError(f"tender deployment rejected: {rft_tx.error}")
        self.rft_address = rft_tx.created_address
        self.tender_data_address = data_addr
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
        self.to.roster[bidder_id] = cert
        return bidder

    def submit_sealed_bid(self, bidder_id: str, document: BidDocument,
                          at: int | None = None,
                          certificate: crypto.Certificate | None = None) -> BidSubmission:
        """Encrypt, deploy the ciphertext, and place the bid, all in one block."""
        bidder = self.bidders[bidder_id]
        cert = certificate or bidder.certificate
        if cert is None:
            raise ScenarioError(f"bidder {bidder_id} holds no certificate")
        ts = at if at is not None else self.chain.now() + self.chain.config.block_interval_ms
        self.chain.advance_to(ts)

        bid_key = crypto.new_bid_key(self.rng)
        ciphertext = crypto.encrypt_bid(document.to_bytes(), bid_key, self.rng)
        sealed = crypto.seal_bid_key(bid_key, self.sealing_key, self.rng)

        data_addr = self.chain.peek_contract_address(bidder.address, 0)
        self.chain.submit_transaction(
            bidder.address, None,
            canonical_json_bytes(contracts.data_deploy_call(ciphertext)))
        bid_call = contracts.place_bid_call(bidder_id, data_addr, cert.msg_hash,
                                            cert.v, cert.r, cert.s, sealed.half_a)
        bid_id = self.chain.submit_transaction(bidder.address, self.rft_address,
                                               canonical_json_bytes(bid_call))
        self.chain.mine_block(ts)
        bid_tx = self.chain.get_transaction(bid_id)
        if bid_tx.status != "OK":
            raise ScenarioError(f"bid placement rejected: {bid_tx.error}")
        submission = BidSubmission(record_address=bid_tx.created_address,
                                   data_address=data_addr, document=document,
                                   bid_key=bid_key, sealed=sealed)
        bidder.submissions.append(submission)
        if self.spec.scheme == contracts.SCHEME_STATELESS:
            # Off-ledger handoff: the record address goes to the auctioneer, who
            # signs a receipt so non-delivery can later be proven.
            self.to.known_bids.append(bid_tx.created_address)
            submission.receipt = contracts.acknowledge_bid(
                self.chain, self.to.keys.private_key, bid_tx.created_address)
        return submission

    def deliver_key_half(self, bidder_id: str, submission: BidSubmission) -> None:
        """Off-ledger delivery of the withheld half to the tendering organisation."""
        self.to.received_halves[submission.record_address] = submission.sealed.half_b

    def reveal_key_half_on_chain(self, bidder_id: str, submission: BidSubmission,
                                 at: int | None = None) -> str:
        """Post the withheld half to the ledger (also hands it to the organisation)."""
        bidder = self.bidders[bidder_id]
        ts = at if at is not None else self.chain.now() + self.chain.config.block_interval_ms
        self.chain.advance_to(ts)
        call = contracts.reveal_call(submission.record_address, submission.sealed.half_b)
        tx_id = self.chain.submit_transaction(bidder.address, self.rft_address,
                                              canonical_json_bytes(call))
        self.chain.mine_block(ts)
        self.to.received_halves[submission.record_address] = submission.sealed.half_b
        return tx_id

    # -- organisation-side probes and evaluation --

    def pre_deadline_decryption_probe(self) -> dict[bytes, bool]:
        """Can the organisation decrypt each recorded bid right now?

        Honest runs must come back all-False before key delivery; an early
        on-ledger revelation flips its bid to True.
        """
        outcome = {}
        for addr in self._recorded_bid_addresses():
            record = self.chain.get_contract(addr)
            sealed = record.sealed_half_a + self.to.received_halves.get(addr, b"")
            try:
                key = crypto.unseal_bid_key(sealed, self.to.keys.private_key)
                ciphertext = self.chain.get_contract(record.data_addr).data
                crypto.decrypt_bid(ciphertext, key)
                outcome[addr] = True
            except (DecryptionFailed, AuthFailed, NoSuchContract):
                outcome[addr] = False
        return outcome

    def _recorded_bid_addresses(self) -> list[bytes]:
        rft = self.chain.get_contract(self.rft_address)
        if rft.scheme == contracts.SCHEME_STATELESS:
            return list(self.to.known_bids)
        return list(rft.bids_placed)

    def close_and_evaluate(self, revealed_halves: dict[bytes, bytes] | None = None,
                           ) -> TenderResult:
        if revealed_halves is None:
            revealed_halves = dict(self.to.received_halves)
        return evaluate_tender(self.chain, self.rft_address, self.to.keys.private_key,
                               revealed_halves,
                               known_bids=self._recorded_bid_addresses())

    def publish_results(self, result: TenderResult, at: int | None = None) -> str:
        ts = at if at is not None else self.chain.now() + self.chain.config.block_interval_ms
        self.chain.advance_to(ts)
        call = contracts.publish_results_call(result.to_dict())
        tx_id = self.chain.submit_transaction(self.to.address, self.rft_address,
                                              canonical_json_bytes(call))
        self.chain.mine_block(ts)
        tx = self.chain.get_transaction(tx_id)
        if tx.status != "OK":
            if tx.error == RepublishForbidden.code:
                raise RepublishForbidden("results already published for this tender")
            raise ScenarioError(f"publish rejected: {tx.error}")
        self.result = result
        return tx_id


def evaluate_tender(chain: Chain, rft_address: bytes, to_private_key: bytes,
                    revealed_halves: dict[bytes, bytes],
                    known_bids: list[bytes] | None = None) -> TenderResult:
    """Decrypt, score, and pick the winner over the recorded bids.

    Bids stay out of the ranking when they are invalid, unrevealed, or fail
    decryption; each gets a status instead of aborting the evaluation.
    """
    rft = chain.get_contract(rft_address)
    now = chain.now()
    if now <= rft.bidding_end:
        raise EvaluationBeforeDeadline(
            f"bidding open until {rft.bidding_end}, now {now}")
    if rft.scheme == contracts.SCHEME_STATELESS:
        addresses = list(known_bids or [])
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
        try:
            ciphertext = chain.get_contract(record.data_addr).data
            document = BidDocument.from_bytes(crypto.decrypt_bid(ciphertext, bid_key))
            if document.bidder_id != record.bidder_id:
                raise AuthFailed("document bound to a different bidder id")
        except (AuthFailed, NoSuchContract, KeyError, ValueError):
            statuses[addr] = STATUS_MALFORMED
            continue
        if not criteria.feasible(document.fields):
            statuses[addr] = STATUS_INFEASIBLE
            continue
        scores[addr] = criteria.score(document.fields)
        statuses[addr] = STATUS_SCORED

    winner_addr = pick_winner(scores)
    winner_id = chain.get_contract(winner_addr).bidder_id if winner_addr else None
    return TenderResult(winner_id=winner_id, winner_bid_address=winner_addr,
                        scores=scores, statuses=statuses, revealed_keys=revealed_keys)
