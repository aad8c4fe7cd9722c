"""Citizen auditor: replay the public ledger and grade every tender on it.

The auditor gets a chain export, nothing else. It replays every
transaction once, in ledger order, through the contract rules in
``contracts`` into its own address-to-contract map, so bid validity is
recomputed from certificates, block timestamps and tallies rather than
trusted from stored flags. Every receipt is then compared strictly with
the re-derived one, and every disclosed contract with the snapshot of its
re-derived twin; the bid array is also checked against the array
snapshots embedded in each bid record, which is what makes a silently
erased entry provable. Published keys must extend the on-ledger half and
must decrypt the on-ledger ciphertexts, and the winner is recomputed from
the decrypted documents and compared with the published one.

Tenders are found from the deployments the replay accepts, never from the
``kind`` labels of the disclosed state. A finding about one tender goes to
that tender's report; a finding about the chain as a whole (hash chain,
receipts of transactions sent to no tender, contracts nobody created)
goes to every report.

Requirement grades use a tri-state: PASS, PARTIAL (the scheme meets the
requirement structurally but not absolutely), FAIL (a concrete breach was
observed on this chain).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import contracts, crypto
from .chain import (
    DEPLOY_TARGET,
    Chain,
    ChainConfig,
    ExecutionContext,
    GasSchedule,
    compute_block_hash,
    compute_tx_hash,
)
from .contracts import BidRecordContract, RequestForTenderContract, TenderDataContract
from .encoding import from_hex, to_hex
from .errors import AuthFailed, MalformedExport, ResultsNotPublished
from .orchestrator import STATUS_SCORED, BidDocument, TenderSpec, pick_winner

PASS = "PASS"
PARTIAL = "PARTIAL"
FAIL = "FAIL"

REQUIREMENT_TAGS = ("R1", "R2", "R3", "R4", "R5", "R6")


@dataclass(frozen=True)
class Violation:
    tag: str  # R1..R6 | ERASURE | NONRECEIPT | WINNER_MISMATCH | UNDECRYPTABLE_BID
    height: int
    description: str

    def to_dict(self) -> dict:
        return {"tag": self.tag, "height": self.height, "description": self.description}


@dataclass
class AuditReport:
    tender_address: str
    scheme: str
    recomputed_winner: str | None
    published_winner: str | None
    winner_match: bool
    violations: list[Violation]
    gas_trace: list[tuple[str, int]]
    timeline: list[dict]
    requirements: dict[str, dict]

    def ok(self) -> bool:
        return self.winner_match and not self.violations

    def one_line(self) -> str:
        reqs = " ".join(f"{tag}={self.requirements[tag]['verdict']}"
                        for tag in REQUIREMENT_TAGS)
        return (f"AUDIT {'PASS' if self.ok() else 'FAIL'} tender={self.tender_address} "
                f"winner_match={str(self.winner_match).lower()} "
                f"violations={len(self.violations)} {reqs}")

    def to_dict(self) -> dict:
        return {
            "format": "tendersim-audit/1",
            "tender_address": self.tender_address,
            "scheme": self.scheme,
            "recomputed_winner": self.recomputed_winner,
            "published_winner": self.published_winner,
            "winner_match": self.winner_match,
            "violations": [v.to_dict() for v in self.violations],
            "gas_trace": [{"kind": k, "gas_used": g} for k, g in self.gas_trace],
            "timeline": self.timeline,
            "requirements": self.requirements,
            "summary": self.one_line(),
        }


# top-level keys of a chain export and the JSON type each must have
_EXPORT_SHAPE = {"blocks": list, "contracts": dict, "config": dict, "gas_schedule": dict}


def parse_export(raw: bytes) -> dict:
    """A chain export from its UTF-8 JSON bytes.

    Raises MalformedExport when the bytes are not JSON, or when the top level
    is not an object whose keys in ``_EXPORT_SHAPE`` have the listed types.
    """
    try:
        export = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedExport(f"chain export is not a JSON document: {exc}")
    if not isinstance(export, dict):
        raise MalformedExport("chain export is not a JSON object")
    for key, kind in _EXPORT_SHAPE.items():
        if not isinstance(export.get(key), kind):
            raise MalformedExport(f"chain export field '{key}' is missing or not a {kind.__name__}")
    return export


# --- ledger structure -----------------------------------------------------------

def verify_ledger_hashes(export: dict) -> list[Violation]:
    """Recompute every transaction and block hash and check the parent links."""
    violations = []
    blocks = export["blocks"]
    prev = None
    for block in blocks:
        height = block["height"]
        tx_hashes = []
        for tx in block["transactions"]:
            target = None if tx["target"] == "DEPLOY" else from_hex(tx["target"])
            recomputed = compute_tx_hash(from_hex(tx["sender"]), target,
                                         tx["nonce"], from_hex(tx["payload"]),
                                         tx["gas_price"])
            if to_hex(recomputed) != tx["tx_hash"]:
                violations.append(Violation("R6", height,
                                            f"transaction hash mismatch at {tx['tx_hash']}"))
            tx_hashes.append(from_hex(tx["tx_hash"]))
        recomputed_block = compute_block_hash(height, from_hex(block["parent_hash"]),
                                              block["timestamp"], tx_hashes)
        if to_hex(recomputed_block) != block["block_hash"]:
            violations.append(Violation("R6", height, "block hash mismatch"))
        if prev is None:
            if height != 0 or block["parent_hash"] != to_hex(b"\x00" * 32):
                violations.append(Violation("R6", height, "malformed genesis block"))
        else:
            if block["parent_hash"] != prev["block_hash"]:
                violations.append(Violation("R6", height, "broken parent hash link"))
            if height != prev["height"] + 1:
                violations.append(Violation("R6", height, "non-sequential block height"))
            if block["timestamp"] <= prev["timestamp"]:
                violations.append(Violation("R6", height,
                                            "block timestamp not strictly increasing"))
        prev = block
    return violations


# --- one replay of the whole chain ------------------------------------------------

@dataclass
class _Tender:
    """One tender as the replay saw it: its re-derived contract and when
    things happened to it."""

    contract: RequestForTenderContract
    height: int
    timestamp: int
    # (record, height, timestamp) for every bid record it created, in order
    bids: list[tuple[BidRecordContract, int, int]] = field(default_factory=list)
    published: tuple[int, int] | None = None  # (height, timestamp) of the results


@dataclass
class ChainReplay:
    """A chain export replayed once through the contract rules."""

    export: dict
    schedule: GasSchedule
    state: dict = field(default_factory=dict)  # address -> re-derived contract
    tenders: dict[bytes, _Tender] = field(default_factory=dict)  # in deployment order
    ledger_findings: list[Violation] = field(default_factory=list)
    # (address of the tender the transaction was sent to or None, finding)
    receipt_findings: list[tuple[bytes | None, Violation]] = field(default_factory=list)
    # (tenders the contract belongs to, tag, description); none means every
    # tender. Each report dates these to its tender's deployment.
    state_findings: list[tuple[set, str, str]] = field(default_factory=list)
    gas_trace: list[tuple[str, int]] = field(default_factory=list)

    def tender_addresses(self) -> list[str]:
        return [to_hex(addr) for addr in self.tenders]


def iter_transactions(export: dict):
    for block in export["blocks"]:
        for tx in block["transactions"]:
            yield block, tx


def replay_chain(export: dict) -> ChainReplay:
    """Re-derive every receipt and contract of a chain export, and diff both
    against what the export discloses."""
    try:
        schedule = GasSchedule(**export["gas_schedule"])
        config = ChainConfig(**export["config"])
    except (TypeError, ValueError) as exc:
        raise MalformedExport(f"chain export settings are unusable: {exc}")
    replay = ChainReplay(export=export, schedule=schedule,
                         ledger_findings=verify_ledger_hashes(export))
    state = replay.state
    for block, tx in iter_transactions(export):
        height, ts = block["height"], block["timestamp"]
        payload = from_hex(tx["payload"])
        call = contracts.decode_call(payload)
        if tx["target"] == DEPLOY_TARGET:
            target_addr, target = None, contracts.DEPLOY
        else:
            target_addr = from_hex(tx["target"])
            target = state.get(target_addr)
        ctx = ExecutionContext(sender=from_hex(tx["sender"]), tx_nonce=tx["nonce"],
                               block_timestamp=ts, block_height=height,
                               gas_schedule=schedule, config=config)
        outcome, created = contracts.transition(target, call, payload, ctx)
        tender = replay.tenders.get(target_addr)
        if created is not None:
            state[created.address] = created
            if isinstance(created, RequestForTenderContract):
                replay.tenders[created.address] = _Tender(created, height, ts)
            elif tender is not None:
                tender.bids.append((created, height, ts))
        if tender is not None and tender.published is None \
                and tender.contract.results is not None:
            tender.published = (height, ts)
        op = call.get("op") if call else None
        for finding in _receipt_findings(tx, outcome, op, height):
            replay.receipt_findings.append((target_addr if tender else None, finding))
        replay.gas_trace.append((tx["kind"] or "unknown", tx["gas_used"]))
    replay.state_findings = _state_findings(replay)
    return replay


# --- receipts ---------------------------------------------------------------------------

def _receipt_findings(tx: dict, outcome, op, height: int) -> list[Violation]:
    """A disclosed receipt against the re-derived outcome, field by field."""
    created = to_hex(outcome.created_address) if outcome.created_address else None
    tx_hash = tx["tx_hash"]
    found = []
    if not (_same(outcome.status, tx.get("status", _ABSENT))
            and _same(outcome.error, tx.get("error", _ABSENT))):
        tag = "R1" if op in contracts.OUTCOME_FIXING_OPS else "R3"
        found.append(Violation(
            tag, height,
            f"transaction {tx_hash} recorded as {tx.get('status')}/{tx.get('error')} "
            f"but re-execution gives {outcome.status}/{outcome.error}"))
    if not _same(outcome.gas_used, tx.get("gas_used", _ABSENT)):
        found.append(Violation(
            "R6", height,
            f"gas_used {tx.get('gas_used')} differs from re-metered {outcome.gas_used} "
            f"for {tx_hash}"))
    if not _same(outcome.kind, tx.get("kind", _ABSENT)):
        found.append(Violation(
            "R6", height,
            f"transaction {tx_hash} recorded as kind {tx.get('kind')} but re-execution "
            f"gives {outcome.kind}"))
    if not _same(created, tx.get("created_address", _ABSENT)):
        found.append(Violation(
            "R3", height, f"created address of {tx_hash} does not match re-execution"))
    return found


# --- disclosed state --------------------------------------------------------------------

_ABSENT = object()  # a key the disclosed JSON does not have


def _same(expected, actual) -> bool:
    """JSON equality that also tells true from 1 and 1 from 1.0."""
    if type(expected) is not type(actual) or expected != actual:
        return False
    if type(expected) is dict:
        return all(_same(value, actual[key]) for key, value in expected.items())
    if type(expected) is list:
        # equal strings are strictly equal; only other values need a look
        return set(map(type, expected)) <= {str} or all(map(_same, expected, actual))
    return True


def _state_findings(replay: ChainReplay) -> list[tuple[set, str, str]]:
    """Every re-derived contract's snapshot against its disclosed state, in
    creation order, then the disclosed contracts nobody created."""
    disclosed_all = replay.export["contracts"]
    owners = _owners(replay)
    tender_data = {t.contract.tender_data_addr for t in replay.tenders.values()}
    arrays: dict[bytes, list[str]] = {}  # tender -> its rendered bid array
    found = []
    for addr, contract in replay.state.items():
        addr_hex = to_hex(addr)
        belongs = owners.get(addr, set())
        if isinstance(contract, BidRecordContract) and contract.prior_bids is not None:
            # By construction the prior array is a prefix of the tender's, so
            # compare against that rendered array rather than render each copy.
            (tender,) = belongs  # the one tender that created the record
            expected = contract.snapshot_without_prior_bids()
            expected["prior_bids"] = arrays[tender][:len(contract.prior_bids)]
        else:
            expected = contract.snapshot()
        if isinstance(contract, RequestForTenderContract) and "bids_placed" in expected:
            arrays[addr] = expected["bids_placed"]
        disclosed = disclosed_all.get(addr_hex)
        if disclosed is None:
            tag = "ERASURE" if isinstance(contract, BidRecordContract) else "R1"
            found.append((belongs, tag, f"contract {addr_hex} created on-ledger is missing "
                                        f"from disclosed state"))
            continue
        for key in [*expected, *(k for k in disclosed if k not in expected)]:
            value = disclosed.get(key, _ABSENT)
            if not _same(expected.get(key, _ABSENT), value):
                tag, text = _grade_difference(contract, addr_hex, key, expected, value,
                                              addr in tender_data)
                found.append((belongs, tag, text))
    created = {to_hex(addr) for addr in replay.state}
    for addr_hex in disclosed_all:
        if addr_hex not in created:
            found.append((set(), "R6", f"disclosed contract {addr_hex} was never created "
                                       f"by any transaction"))
    return found


def _owners(replay: ChainReplay) -> dict[bytes, set]:
    """The tenders each contract belongs to: the tender itself, the bid records
    it created, and the data contracts it or its records name."""
    owners: dict[bytes, set] = {}
    for addr, tender in replay.tenders.items():
        records = [record for record, _, _ in tender.bids]
        named = [tender.contract.tender_data_addr] + [r.data_addr for r in records]
        members = [addr] + [r.address for r in records] + \
            [a for a in named if isinstance(replay.state.get(a), TenderDataContract)]
        for member in members:
            owners.setdefault(member, set()).add(addr)
    return owners


def _grade_difference(contract, addr_hex: str, key: str, expected: dict, value,
                      is_tender_data: bool) -> tuple[str, str]:
    if isinstance(contract, TenderDataContract):
        tag = "R1" if is_tender_data else "R3"
        what = "tender data" if is_tender_data else "bid ciphertext"
        if key == "data":
            return tag, (f"{what} at {addr_hex} differs from the bytes in its deployment "
                         f"transaction")
        return tag, f"{what} at {addr_hex} field {key} differs from its deployment transaction"
    if isinstance(contract, BidRecordContract):
        if key not in expected:
            return "R3", f"bid record {addr_hex} discloses unexpected field {key}"
        return "R3", f"bid record {addr_hex} field {key} differs from recomputed value"
    if key == "bids_placed":
        if key not in expected:
            return "R3", "stateless tender discloses a bid array"
        as_set = set(value) if isinstance(value, list) else set()
        missing = [a for a in expected[key] if a not in as_set]
        if missing:
            return "ERASURE", (f"disclosed bid array omits {len(missing)} recorded bid(s): "
                               f"{', '.join(missing[:3])}")
        return "R3", "disclosed bid array reordered or padded against transaction history"
    if key == "bid_count":
        return "R3", "per-bidder tallies differ from recomputed values"
    if key == "reveals":
        return "R3", "disclosed reveal log differs from reveal transactions"
    if key == "results":
        return "R1", "disclosed results differ from the published payload"
    return "R1", f"tender parameter {key} differs from the value fixed at deployment"


def _snapshot_erasure_check(replay: ChainReplay, addr: bytes,
                            tender: _Tender) -> list[Violation]:
    """The defining cross-check: each record's embedded array snapshot must be a
    prefix of the disclosed array, and the record itself must sit right after it."""
    disclosed_all = replay.export["contracts"]
    disclosed_rft = disclosed_all.get(to_hex(addr))
    if tender.contract.scheme == contracts.SCHEME_STATELESS or disclosed_rft is None:
        return []
    disclosed_array = disclosed_rft.get("bids_placed") or []
    violations = []
    for record, height, _ in tender.bids:
        record_hex = to_hex(record.address)
        snap = disclosed_all.get(record_hex)
        if snap is None or "prior_bids" not in snap:
            continue
        prior = snap["prior_bids"]
        k = len(prior)
        if disclosed_array[:k] != prior or (len(disclosed_array) <= k
                                            or disclosed_array[k] != record_hex):
            violations.append(Violation(
                "ERASURE", height,
                f"disclosed bid array is inconsistent with the snapshot held by "
                f"record {record_hex}"))
    return violations


# --- result re-evaluation -----------------------------------------------------------

def _recompute_outcome(replay: ChainReplay, tender: _Tender, result: dict):
    violations: list[Violation] = []
    rft = tender.contract
    criteria = None
    data = replay.state.get(rft.tender_data_addr)
    if isinstance(data, TenderDataContract):
        try:
            _, _, criteria = TenderSpec.parse_data_blob(data.data)
        except (KeyError, ValueError):
            criteria = None
    if criteria is None:
        violations.append(Violation("R1", tender.height,
                                    "tender data holds no usable evaluation criteria"))
        return None, None, violations

    statuses = result.get("statuses") or {}
    revealed = result.get("revealed_keys") or {}
    published_scores = result.get("scores") or {}

    recomputed_scores: dict[bytes, float] = {}
    records: dict[bytes, BidRecordContract] = {}
    for record, height, _ in tender.bids:
        addr = to_hex(record.address)
        if not record.validity:
            if statuses.get(addr) == STATUS_SCORED:
                violations.append(Violation("R3", height,
                                            f"invalid bid {addr} was scored by the "
                                            f"published evaluation"))
            continue
        if addr not in statuses:
            violations.append(Violation("NONRECEIPT", height,
                                        f"valid bid {addr} is absent from the disclosed "
                                        f"evaluation"))
            continue
        key_entry = revealed.get(addr)
        if key_entry is None:
            if statuses.get(addr) == STATUS_SCORED:
                violations.append(Violation("R3", height,
                                            f"bid {addr} scored without a published key"))
            continue
        try:
            sealed = from_hex(key_entry["sealed"])
            bid_key = from_hex(key_entry["bid_key"])
        except (KeyError, ValueError, TypeError):
            violations.append(Violation("R3", height,
                                        f"published key entry for {addr} is malformed"))
            continue
        if not sealed.startswith(record.sealed_half_a):
            violations.append(Violation("R3", height,
                                        f"published sealed key for {addr} does not extend "
                                        f"the on-ledger half"))
        data_contract = replay.export["contracts"].get(to_hex(record.data_addr))
        if data_contract is None:
            violations.append(Violation("UNDECRYPTABLE_BID", height,
                                        f"bid {addr} points at data address with no "
                                        f"disclosed contract"))
            continue
        try:
            plaintext = crypto.decrypt_bid(from_hex(data_contract["data"]), bid_key)
            document = BidDocument.from_bytes(plaintext)
        except (AuthFailed, KeyError, ValueError):
            violations.append(Violation("UNDECRYPTABLE_BID", height,
                                        f"published key fails to decrypt bid {addr}"))
            continue
        if document.bidder_id != record.bidder_id:
            violations.append(Violation("R3", height,
                                        f"decrypted document for {addr} names a different "
                                        f"bidder id"))
            continue
        if not criteria.feasible(document.fields):
            continue
        score = criteria.score(document.fields)
        recomputed_scores[record.address] = score
        records[record.address] = record
        if addr in published_scores and published_scores[addr] != score:
            violations.append(Violation("R3", height,
                                        f"published score for {addr} differs from "
                                        f"recomputation"))

    winner_addr = pick_winner(recomputed_scores)
    if winner_addr is None:
        return None, None, violations
    return to_hex(winner_addr), records[winner_addr].bidder_id, violations


# --- requirement grading -------------------------------------------------------------

def _grade_requirements(tender: _Tender, violations: list[Violation]) -> dict[str, dict]:
    tags = {v.tag for v in violations}
    rft = tender.contract

    def verdict_for(tag: str) -> str:
        return FAIL if tag in tags else PASS

    reqs: dict[str, dict] = {}
    reqs["R1"] = {"verdict": verdict_for("R1"),
                  "evidence": "tender parameters, data, and results match their "
                              "deployment and publication transactions"
                  if "R1" not in tags else "post-deployment mutation detected"}

    early = [r for r in rft.reveals if r["timestamp"] < rft.bidding_end]
    if early:
        r2_evidence = (f"{len(early)} key half(s) revealed on-ledger before the deadline; "
                       f"early sharing is not prevented by the scheme")
    else:
        r2_evidence = ("key halves appeared at or after the deadline on this run, but the "
                       "scheme cannot prevent a bidder from sharing early")
    reqs["R2"] = {"verdict": PARTIAL, "evidence": r2_evidence}

    r3_bad = tags & {"R3", "UNDECRYPTABLE_BID"}
    reqs["R3"] = {"verdict": FAIL if r3_bad else PASS,
                  "evidence": "all bid records and ciphertexts authenticate against "
                              "ledger history" if not r3_bad
                  else "bid record or ciphertext integrity breach detected"}

    if rft.scheme == contracts.SCHEME_STATELESS:
        reqs["R4"] = {"verdict": PASS,
                      "evidence": "tender contract stores no bid array; placements are "
                                  "not enumerable from its state"}
        reqs["R5"] = {"verdict": PASS,
                      "evidence": "flat per-bid cost; junk submissions cannot raise the "
                                  "price of a later legitimate bid"}
    else:
        reqs["R4"] = {"verdict": PARTIAL,
                      "evidence": "bid record addresses accumulate in the tender state "
                                  "before the deadline"}
        spam = _spam_heights(tender)
        if rft.scheme == contracts.SCHEME_FULL and spam:
            reqs["R5"] = {"verdict": PARTIAL,
                          "evidence": f"{len(spam)} certificate-invalid bid(s) were "
                                      f"recorded and inflate every later bid's cost"}
        elif rft.scheme == contracts.SCHEME_PROTECTED:
            reqs["R5"] = {"verdict": PARTIAL,
                          "evidence": "certificate failures are turned away before they "
                                      "grow the state, but authorised bids still raise "
                                      "later costs"}
        else:
            reqs["R5"] = {"verdict": PARTIAL,
                          "evidence": "every recorded bid grows the state and the cost "
                                      "of later bids"}

    reqs["R6"] = {"verdict": verdict_for("R6"),
                  "evidence": "hash chain intact and block timestamps strictly "
                              "increasing" if "R6" not in tags
                  else "ledger structure or timing rule breached"}
    return reqs


def _spam_heights(tender: _Tender) -> list[int]:
    """Heights of the recorded bids whose certificate failed, in order."""
    return [height for record, height, _ in tender.bids if not record.certificate_valid]


# --- entry points ----------------------------------------------------------------------

def replay_and_audit(source, rft_address, presented_receipts=None) -> AuditReport:
    """Audit one tender from public chain data alone.

    ``source`` is a Chain, a chain export, or a ChainReplay of one; auditing
    several tenders of one chain from a single ``replay_chain`` replays it once.
    """
    if isinstance(source, Chain):
        source = source.export()
    replay = source if isinstance(source, ChainReplay) else replay_chain(source)
    rft_hex = to_hex(rft_address) if isinstance(rft_address, bytes) else rft_address
    addr = next((a for a in replay.tenders if to_hex(a) == rft_hex), None)
    if addr is None:
        raise ResultsNotPublished(f"no tender deployment found at {rft_hex}")
    tender = replay.tenders[addr]
    rft = tender.contract
    if tender.published is None:
        raise ResultsNotPublished(f"no published results for tender {rft_hex}")
    published_height = tender.published[0]

    violations = list(replay.ledger_findings)
    violations.extend(v for owner, v in replay.receipt_findings if owner in (None, addr))
    violations.extend(Violation(tag, tender.height, text)
                      for owners, tag, text in replay.state_findings
                      if not owners or addr in owners)
    violations.extend(_snapshot_erasure_check(replay, addr, tender))

    result = rft.results
    recomputed_addr, recomputed_winner, outcome_violations = \
        _recompute_outcome(replay, tender, result)
    violations.extend(outcome_violations)

    published_winner = result.get("winner_id")
    published_addr = result.get("winner_bid_address")
    winner_match = (published_addr == recomputed_addr and
                    published_winner == recomputed_winner)
    if not winner_match:
        violations.append(Violation(
            "WINNER_MISMATCH", published_height,
            f"published winner {published_winner}/{published_addr} differs from "
            f"recomputed {recomputed_winner}/{recomputed_addr}"))

    # Realized denial-of-service cost: in the full-track scheme every recorded
    # certificate-invalid bid permanently raises the price of later bids.
    spam = _spam_heights(tender)
    if rft.scheme == contracts.SCHEME_FULL and spam:
        violations.append(Violation(
            "R5", spam[0],
            f"{len(spam)} certificate-invalid bid(s) were recorded; each "
            f"inflates every later bid by {replay.schedule.per_prior_bid_copy} gas"))

    if presented_receipts:
        statuses = result.get("statuses") or {}
        for receipt in presented_receipts:
            addr_hex = to_hex(receipt.bid_address)
            if not crypto.verify_receipt(rft.pubk, receipt.bid_address,
                                         receipt.v, receipt.r, receipt.s):
                continue  # not the organisation's signature; no claim to answer
            if addr_hex not in statuses:
                violations.append(Violation(
                    "NONRECEIPT", published_height,
                    f"bid {addr_hex} carries a signed acknowledgement but is missing "
                    f"from the disclosed evaluation"))

    # dedupe exact repeats while preserving order
    seen = set()
    unique: list[Violation] = []
    for v in violations:
        key = (v.tag, v.height, v.description)
        if key not in seen:
            seen.add(key)
            unique.append(v)

    return AuditReport(
        tender_address=rft_hex,
        scheme=rft.scheme,
        recomputed_winner=recomputed_winner,
        published_winner=published_winner,
        winner_match=winner_match,
        violations=unique,
        gas_trace=replay.gas_trace,
        timeline=_build_timeline(tender),
        requirements=_grade_requirements(tender, unique),
    )


def _build_timeline(tender: _Tender) -> list[dict]:
    rft = tender.contract
    events = [{"event": "tender_deployed", "height": tender.height,
               "timestamp": tender.timestamp}]
    for record, height, timestamp in tender.bids:
        events.append({"event": "bid_placed", "height": height, "timestamp": timestamp,
                       "address": to_hex(record.address), "validity": record.validity})
    for r in rft.reveals:
        events.append({"event": "key_half_revealed", "height": r["height"],
                       "timestamp": r["timestamp"], "address": r["bid_addr"]})
    if tender.published is not None:
        height, timestamp = tender.published
        events.append({"event": "results_published", "height": height,
                       "timestamp": timestamp})
    events.append({"event": "bidding_end", "height": None, "timestamp": rft.bidding_end})
    events.sort(key=lambda ev: (ev["timestamp"], ev["event"]))
    return events
