"""Citizen auditor: replay the public ledger and grade every tender on it.

The auditor gets a chain export, nothing else, and reads no setting from it.
``read_ledger`` reads it by one table each for the export, a block and a
transaction (``EXPORT``, ``BLOCK``, ``TRANSACTION``), with the reader all
input from outside goes through, ``encoding.read_object``. It replays every
transaction once, in ledger order, through the contract
rules in ``contracts`` into its own address-to-contract map, so bid validity is
recomputed from certificates, block timestamps and tallies rather than
trusted from stored flags. A nonce out of its sender's sequence, and a
contract created over another, are R6 findings; the first contract stays.
Each transaction's receipt is re-derived through ``chain.receipt_json``, the
writer the export uses, and each block hashed over the re-derived transaction
hashes; the signed fields are read as that writer spells them, so they cannot
differ. A contract a transaction creates sits at ``chain.contract_address`` of
its sender and nonce, which the export does not write. Every disclosed receipt
is then compared with its re-derived one, and, by one diff (``_differing``),
every disclosed contract with the snapshot of its re-derived twin, key by key;
the bid array is also checked against the array snapshots embedded in each bid
record, which is what makes a silently erased entry provable. The published
results are re-derived with the writer of the organisation's evaluation too:
each bid opened and graded with its published key by ``orchestrator.open_bid``,
the result written by ``orchestrator.tender_result``, then diffed with the
published one.

Tenders are found from the deployments the replay accepts, never from the
``kind`` labels of the disclosed state. Every finding and gas row is filed
by one rule. It is about an address: the contract a disclosed state is of, or
the one a transaction created or was sent to; or about none, for the ledger
as a whole (hash chain, nonces, occupied addresses, contracts nobody
created). It goes to the report of each tender that owns the address (the
tender, its bid records and the data contracts they name), or to every
report when no tender does. A finding is dated to its transaction's block, a
state finding to its contract's creation.

Requirement grades use a tri-state: PASS, PARTIAL (the scheme meets the
requirement structurally but not absolutely), FAIL (a concrete breach was
observed on this chain).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

from . import contracts
from .chain import (
    ADDRESS_LEN,
    DEPLOY_TARGET,
    EXPORT_FORMAT,
    GAS_PER_PRIOR_BID_COPY,
    Block,
    ExecutionContext,
    compute_block_hash,
    compute_tx_hash,
    receipt_json,
)
from .contracts import BidRecordContract, RequestForTenderContract, TenderDataContract
from .encoding import (STRING, Refused, from_hex, from_text, json_path, load_json, optional,
                       read_list, read_map, read_object, reader, same_json, to_hex)
from .errors import MalformedAddress, MalformedExport, NoSuchContract, ResultsNotPublished
from .orchestrator import (
    STATUS_MALFORMED,
    STATUS_UNREVEALED,
    TenderSpec,
    open_bid,
    tender_result,
)

PASS = "PASS"
PARTIAL = "PARTIAL"
FAIL = "FAIL"

REQUIREMENT_TAGS = ("R1", "R2", "R3", "R4", "R5", "R6")


@dataclass(frozen=True)
class Violation:
    tag: str  # R1..R6 | ERASURE | NONRECEIPT | WINNER_MISMATCH | UNDECRYPTABLE_BID
    height: int
    description: str


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
        return not self.violations

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
            "violations": [asdict(v) for v in self.violations],
            "gas_trace": [{"kind": k, "gas_used": g} for k, g in self.gas_trace],
            "timeline": self.timeline,
            "requirements": self.requirements,
            "summary": self.one_line(),
        }


def parse_export(file):
    """The JSON document in a binary chain export file, not yet checked:
    decoded strictly as UTF-8, the bytes freed, then parsed by ``load_json``,
    which keeps one ``str`` per distinct key. Each tracked bid record links to
    the one before it, and each bid record's call arguments, data contract's
    bytes and tender's results to the transaction that carried them
    (``contracts.disclose``), so the document grows linearly with the bids and
    holds no payload twice. Links are left as they are: the audit compares
    them and never follows one.

    Raises MalformedExport only when ``load_json`` refuses the text: one that is not UTF-8
    JSON, nests past ``encoding.MAX_JSON_DEPTH``, or holds a lone surrogate (a ``\\u``
    escape that ``write_canonical_json`` never writes, named at its line, column and
    character offset); ``read_ledger``, which ``replay_chain`` calls, checks what the
    document holds.
    """
    try:
        return load_json(file.read().decode("utf-8"))
    except ValueError as exc:  # also bad UTF-8, an int of 4301+ digits
        raise MalformedExport(f"chain export is not a JSON document: {exc}")


# --- reading the ledger ----------------------------------------------------------------

@dataclass(frozen=True)
class LedgerTransaction:
    """A transaction as an export records it: the four fields its hash signs
    besides the fixed ``GAS_PRICE``, decoded; the hash those give
    (``compute_tx_hash``); and its disclosed receipt, the JSON object as it
    came, disclosed hash included."""

    sender: bytes
    target: bytes | None  # None marks a deployment
    payload: bytes
    nonce: int
    tx_hash: bytes
    receipt: dict


def read_ledger(export) -> list[Block]:
    """The blocks of a chain export, read once into typed values by ``EXPORT``.

    Heights, timestamps and nonces must be unsigned 64-bit ints; hashes,
    senders and targets (or ``DEPLOY``) hex spelled the way ``to_hex`` writes
    it; payloads strings of characters U+0000 to U+00FF, one per byte
    (``from_text``), which have no second spelling. The export writes no parent
    hash: each block's parent is the ``block_hash`` the block before it
    discloses (32 zero bytes for genesis), so a block mined over another parent
    fails its own hash check. Each transaction's hash is recomputed here, once,
    and its JSON object kept as its receipt: the replay compares the receipt
    keys, disclosed hash included, strictly. A receipt writes no created
    address, which ``chain.contract_address`` of the sender and nonce fixes.
    Disclosed contracts are left as they are: the state diff compares each
    with ``contracts.disclose`` of its re-derived twin, so a bid record's
    ``prior_bids`` or ``placed_by`` link, and a ``data`` or ``results`` link
    to a transaction, must be spelled as the export writes it, and the audit
    stays linear in the bids.

    Raises MalformedExport for a document whose ``format`` is not
    ``EXPORT_FORMAT``, naming the format it has: the replay applies only this
    format's rules, and under another format's a ledger may have given a call
    another receipt. It raises it too, at the JSON path of the value, for
    what the tables refuse: a key of the document, a block or a transaction
    that the audit does not read, a missing one, or a value of another JSON
    type or spelling.
    """
    found = export.get("format") if type(export) is dict else None
    if found != EXPORT_FORMAT:
        named = f"format {found[:40]!r}" if type(found) is str else "no format"
        raise MalformedExport(f"chain export has {named}, not {EXPORT_FORMAT}")
    try:
        read = read_object(export, EXPORT)
    except Refused as exc:
        raise MalformedExport(f"chain export at {json_path(exc.path)}: {exc.reason}") from None
    blocks = []
    parent_hash = bytes(32)
    for block in read["blocks"]:
        blocks.append(Block(parent_hash=parent_hash, **block))
        parent_hash = block["block_hash"]
    return blocks


def _hex(value) -> bytes:
    raw = from_hex(value)
    if to_hex(raw) != value:  # uppercase digits would decode too
        raise ValueError("hex not spelled as to_hex writes it")
    return raw


def _transaction(tx) -> LedgerTransaction:
    sender, target, payload, nonce, *_ = read_object(tx, TRANSACTION).values()
    return LedgerTransaction(sender, target, payload, nonce,
                             compute_tx_hash(sender, target, nonce, payload), receipt=tx)


_UINT64 = reader(lambda value: type(value) is int and 0 <= value < 1 << 64,
                 refusal="must be an unsigned 64-bit integer")
# What the audit reads of an export, of each block and of each transaction; the receipt
# keys a transaction may leave out, and they are kept as they are, for the diff.
TRANSACTION = {"sender": _hex, "target": lambda value: None if value == DEPLOY_TARGET
               else _hex(value), "payload": lambda value: from_text(STRING(value)),
               "nonce": _UINT64, "tx_hash": _hex,
               **dict.fromkeys(("status", "error", "gas_used", "kind"),
                               optional(lambda value: value))}
BLOCK = {"height": _UINT64, "timestamp": _UINT64, "block_hash": _hex,
         "transactions": lambda value: tuple(read_list(_transaction)(value))}
EXPORT = {"format": STRING, "blocks": read_list(lambda value: read_object(value, BLOCK)),
          "contracts": read_map(reader(lambda value: type(value) is dict,
                                       refusal="must be an object"))}


# --- ledger structure -----------------------------------------------------------

def verify_ledger_hashes(blocks: list[Block]) -> list[Violation]:
    """Recompute the hash of each of ``read_ledger``'s blocks over its parent's
    and its transactions' recomputed hashes, and check the heights and
    timestamps, all as bytes and ints."""
    violations = []
    prev = None
    for block in blocks:
        height = block.height
        if compute_block_hash(height, block.parent_hash, block.timestamp,
                              [tx.tx_hash for tx in block.transactions]) != block.block_hash:
            violations.append(Violation("R6", height, "block hash mismatch"))
        if prev is None:
            if height != 0:
                violations.append(Violation("R6", height, "malformed genesis block"))
        else:
            if height != prev.height + 1:
                violations.append(Violation("R6", height, "non-sequential block height"))
            if block.timestamp <= prev.timestamp:
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
    state: dict = field(default_factory=dict)  # address -> re-derived contract
    # recomputed tx hash -> decoded call, for the accepted calls the export links to
    calls: dict[bytes, dict] = field(default_factory=dict)
    tenders: dict[bytes, _Tender] = field(default_factory=dict)  # in deployment order
    heights: dict[bytes, int] = field(default_factory=dict)  # address -> height created at
    # (address the finding is about or None, finding); see ``replay_and_audit``
    findings: list[tuple[bytes | None, Violation]] = field(default_factory=list)
    # (address the transaction created or was sent to, kind, gas_used), in ledger order
    gas_trace: list[tuple[bytes | None, str, int]] = field(default_factory=list)
    owners: dict[bytes, set] = field(default_factory=dict)  # see ``_owners``


def iter_transactions(blocks: list[Block]):
    for block in blocks:
        for tx in block.transactions:
            yield block, tx


def replay_chain(export) -> ChainReplay:
    """Read a chain export with ``read_ledger``, re-derive every transaction's
    receipt, written by the export's ``receipt_json``, and every contract, and
    diff each against what the export discloses, the contracts with
    ``_differing``. The rules it applies, the gas figures and ``MAX_DATA_BITS``
    too, are constants."""
    blocks = read_ledger(export)
    replay = ChainReplay(export, findings=[(None, v) for v in verify_ledger_hashes(blocks)])
    state = replay.state
    nonces: dict[bytes, int] = {}  # sender -> the nonce its next transaction must carry
    for block, tx in iter_transactions(blocks):
        height, ts = block.height, block.timestamp
        expected = nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            replay.findings.append((None, Violation(
                "R6", height, f"transaction {to_hex(tx.tx_hash)} carries nonce {tx.nonce} "
                              f"but its sender's next nonce is {expected}")))
        nonces[tx.sender] = max(expected, tx.nonce + 1)
        call = contracts.decode_call(tx.payload)
        op = call.get("op") if call else None
        target = contracts.DEPLOY if tx.target is None else state.get(tx.target)
        ctx = ExecutionContext(sender=tx.sender, tx_nonce=tx.nonce, tx_hash=tx.tx_hash,
                               block_timestamp=ts, block_height=height)
        outcome, created = contracts.transition(target, call, tx.payload, ctx)
        if outcome.kind in contracts.LINKED_KINDS:
            replay.calls[tx.tx_hash] = call
        tender = replay.tenders.get(tx.target)
        if created is not None and created.address in state:
            replay.findings.append((None, Violation(
                "R6", height, f"transaction {to_hex(tx.tx_hash)} creates a contract at "
                              f"{to_hex(created.address)}, an address already in use")))
        elif created is not None:
            state[created.address] = created
            replay.heights[created.address] = height
            if isinstance(created, RequestForTenderContract):
                replay.tenders[created.address] = _Tender(created, height, ts)
            elif tender is not None:
                tender.bids.append((created, height, ts))
        if tender is not None and tender.published is None \
                and tender.contract.results is not None:
            tender.published = (height, ts)
        at = tx.target or outcome.created_address
        status_tag = "R1" if op in contracts.OUTCOME_FIXING_OPS else "R3"
        # ``TRANSACTION`` reads the signed fields as the writer spells them, and no
        # key but theirs and the receipt's: only the receipt can differ
        rederived = receipt_json(tx, outcome)
        replay.findings.extend((at, Violation(
            _RECEIPT_TAGS.get(key, status_tag), height, f"transaction {rederived['tx_hash']} "
            f"field {key} {_mismatch(rederived, tx.receipt, key)}"))
            for key in rederived if not same_json(rederived[key], tx.receipt.get(key, _ABSENT)))
        replay.gas_trace.append((at, tx.receipt.get("kind") or "unknown",
                                 tx.receipt.get("gas_used")))
    replay.owners = _owners(replay)
    replay.findings.extend(_state_findings(replay, blocks[-1].height if blocks else 0))
    return replay


# the requirement a receipt field breaches; ``status`` and ``error`` breach R1
# for a call that fixes an outcome (``OUTCOME_FIXING_OPS``), else R3
_RECEIPT_TAGS = {"tx_hash": "R6", "gas_used": "R6", "kind": "R6"}
_ABSENT = object()  # a key the disclosed JSON does not have


def _differing(expected: dict, disclosed: dict) -> list[str]:
    """The keys at which ``disclosed`` is not ``expected``, the expected keys first."""
    return [key for key in [*expected, *(k for k in disclosed if k not in expected)]
            if not same_json(expected.get(key, _ABSENT), disclosed.get(key, _ABSENT))]


def _mismatch(expected: dict, disclosed: dict, key: str) -> str:
    """"is X but the replay gives Y": the values of ``key`` in ``disclosed`` and
    ``expected``, each as JSON with sorted keys, or "absent"."""
    spelled = [json.dumps(obj[key], sort_keys=True) if key in obj else "absent"
               for obj in (disclosed, expected)]
    return "is {} but the replay gives {}".format(*spelled)


# --- disclosed state --------------------------------------------------------------------

def _state_findings(replay: ChainReplay, head: int) -> list[tuple[bytes | None, Violation]]:
    """Every re-derived contract's snapshot against its disclosed state, in
    creation order and dated to its creation, then the disclosed contracts
    nobody created, dated to the ``head`` block."""
    disclosed_all = replay.export["contracts"]
    tender_data = {t.contract.tender_data_addr for t in replay.tenders.values()}
    found = []
    for addr, contract in replay.state.items():
        addr_hex, height = to_hex(addr), replay.heights[addr]
        expected = contracts.disclose(contract, replay.state, replay.calls.get)
        disclosed = disclosed_all.get(addr_hex)
        if disclosed is None:
            tag = "ERASURE" if isinstance(contract, BidRecordContract) else "R1"
            found.append((addr, Violation(tag, height, f"contract {addr_hex} created on-ledger "
                                                       f"is missing from disclosed state")))
            continue
        for key in _differing(expected, disclosed):
            tag, text = _grade_difference(contract, addr_hex, key, expected,
                                          disclosed.get(key, _ABSENT), addr in tender_data)
            found.append((addr, Violation(tag, height, text)))
    created = {to_hex(addr) for addr in replay.state}
    for addr_hex in disclosed_all:
        if addr_hex not in created:
            found.append((None, Violation("R6", head, f"disclosed contract {addr_hex} was never "
                                                      f"created by any transaction")))
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
        as_set = {a for a in value if type(a) is str} if isinstance(value, list) else set()
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
    """The defining cross-check: each record holds the bid array as it stood,
    which must be a prefix of the disclosed array, with the record right after
    it. The state diff holds every disclosed record to its re-derived twin, whose
    array is the re-derived tender's up to the record, so a record is flagged
    when the disclosed array departs from the re-derived one at or before it."""
    disclosed_rft = replay.export["contracts"].get(to_hex(addr))
    if tender.contract.scheme == contracts.SCHEME_STATELESS or disclosed_rft is None:
        return []
    disclosed_array = disclosed_rft.get("bids_placed")
    if not isinstance(disclosed_array, list):
        disclosed_array = []
    array = [to_hex(a) for a in tender.contract.bids_placed]
    agree = next((k for k, (a, b) in enumerate(zip(array, disclosed_array)) if a != b),
                 min(len(array), len(disclosed_array)))  # entries the two arrays share
    return [Violation("ERASURE", height,
                      f"disclosed bid array is inconsistent with the snapshot held by "
                      f"record {to_hex(record.address)}")
            for record, height, _ in tender.bids if len(record.prior_bids) >= agree]


# --- result re-derivation -----------------------------------------------------------

def _rederive_result(replay: ChainReplay, tender: _Tender, result: dict):
    """(the result the replay gives, findings) for the published ``result``.

    Each valid bid's entry is re-derived, the result written by
    ``tender_result``, the organisation's writer, and diffed with ``_differing``
    against the published one, one level into ``bids``, the winner keys aside
    for the winner check. An entry with a ``bid_key`` re-derives to ``open_bid``
    with that key; one without keeps its published status only where the
    auditor, who cannot unseal, cannot disprove it: MALFORMED_CIPHERTEXT, or
    UNREVEALED for a bid whose half no reveal put on the ledger in a block
    before the publication; else it re-derives to UNREVEALED, or
    MALFORMED_CIPHERTEXT once the half is on the ledger. A valid bid with no
    entry is NONRECEIPT, a key that fails to open its bid UNDECRYPTABLE_BID,
    any other difference R3."""
    data = replay.state.get(tender.contract.tender_data_addr)
    try:  # only a data contract holds bytes
        _, _, criteria = TenderSpec.parse_data_blob(getattr(data, "data", b""))
    except ValueError:
        return {}, [Violation("R1", tender.height,
                              "tender data holds no usable evaluation criteria")]

    published_height = tender.published[0]
    published = result.get("bids")
    entries = published if isinstance(published, dict) else {}
    revealed = {r["bid_addr"] for r in tender.contract.reveals
                if r["height"] < published_height}
    violations: list[Violation] = []
    bids: dict[bytes, dict] = {}
    for record, height, _ in tender.bids:
        if not record.validity:
            continue
        addr = to_hex(record.address)
        if addr not in entries:
            violations.append(Violation("NONRECEIPT", height, f"valid bid {addr} is absent "
                                                              f"from the disclosed evaluation"))
            continue
        entry = entries[addr] if isinstance(entries[addr], dict) else {}
        try:
            bid_key = from_hex(entry.get("bid_key"))
        except ValueError:
            keyless = STATUS_MALFORMED if addr in revealed else STATUS_UNREVEALED
            status = entry.get("status")
            bids[record.address] = {"status": status if status in (STATUS_MALFORMED, keyless)
                                    else keyless}
            continue
        bids[record.address] = open_bid(criteria, record.bidder_id,
                                        _disclosed_data(replay, record.data_addr), bid_key)
        if bids[record.address]["status"] == STATUS_MALFORMED:
            violations.append(Violation("UNDECRYPTABLE_BID", height,
                                        f"published key fails to decrypt bid {addr}"))

    expected = tender_result(bids, lambda a: replay.state[a].bidder_id).to_dict()
    for key in _differing(expected, result):
        if key not in ("winner_id", "winner_bid_address") and \
                not (key == "bids" and isinstance(published, dict)):
            violations.append(Violation("R3", published_height, f"published results field "
                                        f"{key} {_mismatch(expected, result, key)}"))
    violations.extend(Violation("R3", published_height, f"published results field "
                                f"bids.{addr} {_mismatch(expected['bids'], entries, addr)}")
                      for addr in _differing(expected["bids"], entries))
    return expected, violations


def _disclosed_data(replay: ChainReplay, addr: bytes) -> bytes:
    """The bytes the export discloses at ``addr``: the re-derived data contract's
    when the disclosed ``data`` is what the ledger writes for it, else the hex
    written whole, else none. No other link is followed."""
    disclosed = replay.export["contracts"].get(to_hex(addr), {}).get("data")
    contract = replay.state.get(addr)
    if isinstance(contract, TenderDataContract) and same_json(
            contracts.disclose(contract, replay.state, replay.calls.get)["data"], disclosed):
        return contract.data
    try:
        return from_hex(disclosed)
    except ValueError:  # no data contract, or no hex data, is disclosed there
        return b""


# --- requirement grading -------------------------------------------------------------

def _grade_requirements(tender: _Tender, violations: list[Violation]) -> dict[str, dict]:
    tags = {v.tag for v in violations}
    rft = tender.contract

    def graded(failed: bool, evidence: str, breach: str) -> dict:
        return {"verdict": FAIL if failed else PASS, "evidence": breach if failed else evidence}

    reqs = {"R1": graded("R1" in tags, "tender parameters, data, and results match their "
                                       "deployment and publication transactions",
                         "post-deployment mutation detected")}

    records = {to_hex(record.address) for record, _, _ in tender.bids}
    early = [r for r in rft.reveals
             if r["timestamp"] < rft.bidding_end and r["bid_addr"] in records]
    if early:
        r2_evidence = (f"{len(early)} key half(s) revealed on-ledger before the deadline; "
                       f"early sharing is not prevented by the scheme")
    else:
        r2_evidence = ("key halves appeared at or after the deadline on this run, but the "
                       "scheme cannot prevent a bidder from sharing early")
    reqs["R2"] = {"verdict": PARTIAL, "evidence": r2_evidence}
    reqs["R3"] = graded(bool(tags & {"R3", "UNDECRYPTABLE_BID"}),
                        "all bid records and ciphertexts authenticate against ledger history",
                        "bid record or ciphertext integrity breach detected")

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
        spam = _spam_heights(tender)  # PROTECTED records no certificate failure
        if spam:
            r5_evidence = (f"{len(spam)} certificate-invalid bid(s) were recorded and "
                           f"inflate every later bid's cost")
        elif rft.scheme == contracts.SCHEME_PROTECTED:
            r5_evidence = ("certificate failures are turned away before they grow the "
                           "state, but authorised bids still raise later costs")
        else:
            r5_evidence = "every recorded bid grows the state and the cost of later bids"
        reqs["R5"] = {"verdict": PARTIAL, "evidence": r5_evidence}

    reqs["R6"] = graded("R6" in tags,
                        "hash chain intact, block timestamps strictly increasing, every "
                        "nonce in its sender's sequence, no contract created at an occupied "
                        "address, and every receipt's hash, kind and gas re-derived",
                        "ledger structure or timing rule breached")
    return reqs


def _spam_heights(tender: _Tender) -> list[int]:
    """Heights of the recorded bids whose certificate failed, in order."""
    return [height for record, height, _ in tender.bids if not record.certificate_valid]


# --- entry points ----------------------------------------------------------------------

_ADDRESS_TEXT = re.compile(f"0[xX][0-9a-fA-F]{{{2 * ADDRESS_LEN}}}")


def parse_address(text: str) -> bytes:
    """The address that ``0x`` and 40 hex digits of either case spell."""
    if not _ADDRESS_TEXT.fullmatch(text):
        raise MalformedAddress(f"{text!r} is not 0x and {2 * ADDRESS_LEN} hex digits")
    return bytes.fromhex(text[2:])


def replay_and_audit(source, rft_address) -> AuditReport:
    """Audit one tender from public chain data alone.

    ``source`` is a chain export or a ChainReplay of one; auditing several
    tenders of one chain from a single ``replay_chain`` replays it once.
    ``rft_address`` is the tender's address, as bytes or as ``parse_address``
    reads it. Raises NoSuchContract when no tender was deployed there.
    """
    replay = source if isinstance(source, ChainReplay) else replay_chain(source)
    addr = rft_address if isinstance(rft_address, bytes) else parse_address(rft_address)
    rft_hex = to_hex(addr)
    tender = replay.tenders.get(addr)
    if tender is None:
        raise NoSuchContract(f"no tender deployment found at {rft_hex}")
    rft = tender.contract
    if tender.published is None:
        raise ResultsNotPublished(f"no published results for tender {rft_hex}")
    published_height = tender.published[0]

    # the findings and gas rows about this tender's contracts and about no tender's
    violations = [v for at, v in replay.findings if addr in replay.owners.get(at, {addr})]
    violations.extend(_snapshot_erasure_check(replay, addr, tender))

    result = rft.results
    expected, result_violations = _rederive_result(replay, tender, result)
    violations.extend(result_violations)
    recomputed_winner = expected.get("winner_id")
    recomputed_addr = expected.get("winner_bid_address")

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
            f"inflates every later bid by {GAS_PER_PRIOR_BID_COPY} gas"))

    unique = list(dict.fromkeys(violations))  # exact repeats dropped, order kept

    return AuditReport(
        tender_address=rft_hex,
        scheme=rft.scheme,
        recomputed_winner=recomputed_winner,
        published_winner=published_winner,
        winner_match=winner_match,
        violations=unique,
        gas_trace=[(kind, gas) for at, kind, gas in replay.gas_trace
                   if addr in replay.owners.get(at, {addr})],
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
