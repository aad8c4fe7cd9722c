"""Citizen auditor: replay the public ledger and grade the tender.

The auditor gets a chain export and a tender address, nothing else. It
re-derives every claim from transaction payloads (which the hash chain
protects) and cross-checks the disclosed contract state against that
ground truth: bid validity is recomputed from certificates, block
timestamps and tallies rather than trusted from stored flags; the bid
array is checked against the array snapshots embedded in each bid record,
which is what makes a silently erased entry provable; published keys must
extend the on-ledger half and must decrypt the on-ledger ciphertexts; and
the winner is recomputed from the decrypted documents and compared with
the published one.

Requirement grades use a tri-state: PASS, PARTIAL (the scheme meets the
requirement structurally but not absolutely), FAIL (a concrete breach was
observed on this chain).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import contracts, crypto
from .chain import (
    Chain,
    GasSchedule,
    compute_block_hash,
    compute_tx_hash,
    contract_address,
    meter_gas,
)
from .encoding import canonical_json_bytes, from_hex, load_json_bytes, to_hex
from .errors import AuthFailed, MalformedCertificate, MalformedExport, ResultsNotPublished
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


def _as_export(source) -> dict:
    if isinstance(source, Chain):
        return source.export()
    return source


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


def _as_hex_address(address) -> str:
    if isinstance(address, bytes):
        return to_hex(address)
    return address


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


# --- transaction replay -----------------------------------------------------------

@dataclass
class _BidEvent:
    address: str
    sender: str
    bidder_id: str
    height: int
    timestamp: int
    valid_hash: bool
    valid_time: bool
    allowed: bool
    validity: bool
    data_addr: str
    sealed_half_a: str
    prior_bids: list[str] | None


@dataclass
class _Replay:
    rft_hex: str
    scheme: str = ""
    bidding_end: int = 0
    limit: int = 0
    pubk: str = ""
    tender_data: str | None = None
    deployer: str = ""
    deploy_height: int = -1
    deploy_timestamp: int = 0
    expected_contracts: dict = field(default_factory=dict)
    foreign_contracts: set = field(default_factory=set)
    bid_events: list = field(default_factory=list)
    reveal_events: list = field(default_factory=list)
    publish_events: list = field(default_factory=list)
    expected_counts: dict = field(default_factory=dict)
    expected_array: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    found_rft: bool = False
    copy_step: int = 0


def iter_transactions(export: dict):
    for block in export["blocks"]:
        for tx in block["transactions"]:
            yield block, tx


def _replay(export: dict, rft_hex: str) -> _Replay:
    """Independent re-execution of the tender family from raw payloads.

    Scoped to the audited tender: calls addressed to any other tender on the
    chain are left unchecked rather than misjudged.
    """
    schedule = GasSchedule(**export["gas_schedule"])
    max_bits = export["config"].get("max_data_bits", 5000)
    rep = _Replay(rft_hex=rft_hex)
    rep.copy_step = schedule.per_prior_bid_copy
    rft_addr = from_hex(rft_hex)

    for block, tx in iter_transactions(export):
        height, ts = block["height"], block["timestamp"]
        payload = from_hex(tx["payload"])
        try:
            call = load_json_bytes(payload)
            if not isinstance(call, dict) or "op" not in call:
                raise ValueError
        except (ValueError, UnicodeDecodeError):
            call = None
        expected_gas = None
        expected_status = "REJECTED"
        expected_error: str | None = None
        expected_created: str | None = None
        if call is None:
            expected_gas = meter_gas(schedule, "rejected_call", data_bits=len(payload) * 8)
            expected_error = "MALFORMED_PAYLOAD"
        elif tx["target"] == "DEPLOY":
            _, expected_gas, expected_status, expected_error, expected_created = \
                _replay_deploy(rep, schedule, max_bits, call, tx, height, ts, rft_hex)
        elif tx["target"] == rft_hex and rep.found_rft:
            _, expected_gas, expected_status, expected_error, expected_created = \
                _replay_rft_call(rep, schedule, call, tx, height, ts, rft_addr)
        elif _is_foreign_tender(rep, tx["target"]):
            if call.get("op") == "place_bid":
                rep.foreign_contracts.add(
                    to_hex(contract_address(from_hex(tx["sender"]), tx["nonce"])))
            continue
        elif tx["target"] in rep.expected_contracts:
            # bid records and data contracts accept no calls at all
            expected_gas = meter_gas(schedule, "rejected_call",
                                     data_bits=len(canonical_json_bytes(call)) * 8)
            expected_error = ("IMMUTABLE_STATE" if call.get("op") == "set_field"
                              else "UNKNOWN_CONTRACT_CALL")
        else:
            expected_gas = meter_gas(schedule, "rejected_call",
                                     data_bits=len(canonical_json_bytes(call)) * 8)
            expected_error = "NO_SUCH_CONTRACT"

        if tx["status"] != expected_status or (tx["error"] or None) != (expected_error or None):
            tag = "R1" if call and call.get("op") in ("publish_results", "set_field") else "R3"
            rep.violations.append(Violation(
                tag, height,
                f"transaction {tx['tx_hash']} recorded as {tx['status']}/{tx['error']} "
                f"but re-execution gives {expected_status}/{expected_error}"))
        if expected_gas is not None and tx["gas_used"] != expected_gas:
            rep.violations.append(Violation(
                "R6", height,
                f"gas_used {tx['gas_used']} differs from re-metered {expected_gas} "
                f"for {tx['tx_hash']}"))
        if (tx.get("created_address") or None) != expected_created:
            rep.violations.append(Violation(
                "R3", height,
                f"created address of {tx['tx_hash']} does not match re-execution"))
    return rep


def _is_foreign_tender(rep: _Replay, target_hex: str) -> bool:
    if target_hex == rep.rft_hex:
        return False
    expected = rep.expected_contracts.get(target_hex)
    return expected is not None and expected.get("kind") == "request_for_tender"


def _replay_deploy(rep: _Replay, schedule, max_bits, call, tx, height, ts, rft_hex):
    sender_hex = tx["sender"]
    op = call.get("op")
    created = contract_address(from_hex(sender_hex), tx["nonce"])
    created_hex = to_hex(created)
    call_bits = len(canonical_json_bytes(call)) * 8
    if op == "deploy_data":
        try:
            data = from_hex(call["data"])
        except (KeyError, ValueError, TypeError):
            return ("rejected_call", meter_gas(schedule, "rejected_call", data_bits=call_bits),
                    "REJECTED", "MALFORMED_PAYLOAD", None)
        if len(data) * 8 > max_bits:
            return ("rejected_call", meter_gas(schedule, "rejected_call", data_bits=call_bits),
                    "REJECTED", "DATA_TOO_LARGE", None)
        rep.expected_contracts[created_hex] = {
            "kind": "tender_data", "owner": sender_hex, "data": call["data"],
        }
        return ("deploy_data", meter_gas(schedule, "deploy_data", data_bits=len(data) * 8),
                "OK", None, created_hex)
    if op == "deploy_rft":
        try:
            scheme = call["scheme"]
            length_ms = int(call["length_ms"])
            pubk = from_hex(call["pubk"])
            limit = int(call["limit"])
            if scheme not in contracts.SCHEMES or length_ms <= 0 or limit < 1 or len(pubk) != 64:
                raise ValueError
        except (KeyError, ValueError, TypeError):
            return ("rejected_call", meter_gas(schedule, "rejected_call", data_bits=call_bits),
                    "REJECTED", "INVALID_TENDER_PARAMS", None)
        if created_hex == rft_hex:
            rep.found_rft = True
            rep.scheme = scheme
            rep.bidding_end = ts + length_ms
            rep.limit = limit
            rep.pubk = call["pubk"]
            rep.tender_data = call.get("tender_data")
            rep.deployer = sender_hex
            rep.deploy_height = height
            rep.deploy_timestamp = ts
        expected = {
            "kind": "request_for_tender", "scheme": scheme,
            "bidding_end": ts + length_ms, "limit": limit, "pubk": call["pubk"],
            "tender_data": call.get("tender_data"), "deployer": sender_hex,
        }
        rep.expected_contracts[created_hex] = expected
        kind = {"FULL_TRACK": "deploy_rft_full", "PROTECTED": "deploy_rft_protected",
                "STATELESS": "deploy_rft_stateless"}[scheme]
        return (kind, meter_gas(schedule, kind), "OK", None, created_hex)
    return ("rejected_call", meter_gas(schedule, "rejected_call", data_bits=call_bits),
            "REJECTED", "UNKNOWN_CONTRACT_CALL", None)


def _replay_rft_call(rep: _Replay, schedule, call, tx, height, ts, rft_addr: bytes):
    op = call.get("op")
    call_bits = len(canonical_json_bytes(call)) * 8
    reject_gas = meter_gas(schedule, "rejected_call", data_bits=call_bits)
    if op == "place_bid":
        return _replay_place_bid(rep, schedule, call, tx, height, ts, rft_addr)
    if op == "reveal_key_half":
        try:
            half_b = from_hex(call["half_b"])
            bid_addr = call["bid_addr"]
        except (KeyError, ValueError, TypeError):
            return ("rejected_call", reject_gas, "REJECTED", "MALFORMED_PAYLOAD", None)
        rep.reveal_events.append({"bid_addr": bid_addr, "half_b": call["half_b"],
                                  "height": height, "timestamp": ts})
        return ("reveal_key_half",
                meter_gas(schedule, "reveal_key_half", data_bits=len(half_b) * 8),
                "OK", None, None)
    if op == "publish_results":
        result = call.get("result")
        if not isinstance(result, dict):
            return ("rejected_call", reject_gas, "REJECTED", "MALFORMED_PAYLOAD", None)
        if rep.publish_events:
            return ("rejected_call", reject_gas, "REJECTED", "REPUBLISH_FORBIDDEN", None)
        if tx["sender"] != rep.deployer:
            return ("rejected_call", reject_gas, "REJECTED", "UNAUTHORIZED_PUBLISHER", None)
        rep.publish_events.append({"result": result, "height": height, "timestamp": ts})
        return ("publish_results",
                meter_gas(schedule, "publish_results", data_bits=call_bits), "OK", None, None)
    if op == "set_field":
        return ("rejected_call", reject_gas, "REJECTED", "IMMUTABLE_STATE", None)
    return ("rejected_call", reject_gas, "REJECTED", "UNKNOWN_CONTRACT_CALL", None)


def _replay_place_bid(rep: _Replay, schedule, call, tx, height, ts, rft_addr: bytes):
    scheme = rep.scheme
    reject_kind = {"FULL_TRACK": "bid_rejected_full", "PROTECTED": "bid_rejected_protected",
                   "STATELESS": "bid_rejected_stateless"}[scheme]
    try:
        bidder_id = call["id"]
        data_addr = from_hex(call["data_addr"])
        msg_hash = from_hex(call["msg_hash"])
        v = int(call["v"])
        r = from_hex(call["r"])
        s = from_hex(call["s"])
        from_hex(call["sealed_half_a"])
        if not isinstance(bidder_id, str) or len(data_addr) != 20:
            raise MalformedCertificate("bad id or data address")
        crypto.check_component_shapes(msg_hash, v, r, s)
    except (KeyError, ValueError, TypeError, MalformedCertificate):
        return (reject_kind, meter_gas(schedule, reject_kind),
                "REJECTED", "MALFORMED_CERTIFICATE", None)

    valid_hash = crypto.certificate_matches(from_hex(rep.pubk), bidder_id, rft_addr,
                                            msg_hash, v, r, s)
    valid_time = ts < rep.bidding_end
    allowed = rep.expected_counts.get(bidder_id, 0) < rep.limit

    if scheme == "PROTECTED" and not valid_hash:
        return (reject_kind, meter_gas(schedule, reject_kind),
                "REJECTED", "CERTIFICATE_REJECTED", None)

    validity = valid_hash and valid_time and allowed
    if validity:
        rep.expected_counts[bidder_id] = rep.expected_counts.get(bidder_id, 0) + 1
    created = contract_address(from_hex(tx["sender"]), tx["nonce"])
    created_hex = to_hex(created)

    if scheme == "STATELESS":
        kind = "bid_stateless"
        gas = meter_gas(schedule, kind)
        prior = None
        expected = {
            "kind": "bid_record", "scheme": scheme, "id": bidder_id,
            "data_addr": call["data_addr"], "validity": validity,
            "sealed_half_a": call["sealed_half_a"],
        }
    else:
        kind = "bid_full" if scheme == "FULL_TRACK" else "bid_protected"
        gas = meter_gas(schedule, kind, prior_recorded_bids=len(rep.expected_array))
        prior = list(rep.expected_array)
        expected = {
            "kind": "bid_record", "scheme": scheme, "id": bidder_id,
            "data_addr": call["data_addr"], "validity": validity,
            "sealed_half_a": call["sealed_half_a"],
            "prior_bids": prior, "bidding_end_copy": rep.bidding_end,
        }
        rep.expected_array.append(created_hex)
    rep.expected_contracts[created_hex] = expected
    rep.bid_events.append(_BidEvent(
        address=created_hex, sender=tx["sender"], bidder_id=bidder_id, height=height,
        timestamp=ts, valid_hash=valid_hash, valid_time=valid_time, allowed=allowed,
        validity=validity, data_addr=call["data_addr"],
        sealed_half_a=call["sealed_half_a"], prior_bids=prior))
    return (kind, gas, "OK", None, created_hex)


# --- disclosed-state cross-checks ---------------------------------------------------

def _compare_disclosed(rep: _Replay, export: dict) -> list[Violation]:
    violations: list[Violation] = []
    disclosed_all = export["contracts"]

    for addr_hex, expected in rep.expected_contracts.items():
        disclosed = disclosed_all.get(addr_hex)
        if disclosed is None:
            tag = "ERASURE" if expected["kind"] == "bid_record" else "R1"
            violations.append(Violation(tag, rep.deploy_height,
                                        f"contract {addr_hex} created on-ledger is missing "
                                        f"from disclosed state"))
            continue
        if expected["kind"] == "tender_data":
            if disclosed.get("data") != expected["data"]:
                tag = "R1" if addr_hex == rep.tender_data else "R3"
                what = "tender data" if tag == "R1" else "bid ciphertext"
                violations.append(Violation(tag, rep.deploy_height,
                                            f"{what} at {addr_hex} differs from the bytes "
                                            f"in its deployment transaction"))
        elif expected["kind"] == "bid_record":
            for fld in ("scheme", "id", "data_addr", "validity", "sealed_half_a",
                        "prior_bids", "bidding_end_copy"):
                if fld not in expected:
                    if fld in disclosed:
                        violations.append(Violation("R3", rep.deploy_height,
                                                    f"bid record {addr_hex} discloses "
                                                    f"unexpected field {fld}"))
                    continue
                if disclosed.get(fld) != expected[fld]:
                    violations.append(Violation("R3", rep.deploy_height,
                                                f"bid record {addr_hex} field {fld} differs "
                                                f"from recomputed value"))
        elif expected["kind"] == "request_for_tender" and addr_hex == rep.rft_hex:
            violations.extend(_compare_rft(rep, disclosed))

    for addr_hex in disclosed_all:
        if addr_hex not in rep.expected_contracts and addr_hex not in rep.foreign_contracts:
            violations.append(Violation("R6", rep.deploy_height,
                                        f"disclosed contract {addr_hex} was never created "
                                        f"by any transaction"))
    return violations


def _compare_rft(rep: _Replay, disclosed: dict) -> list[Violation]:
    violations = []
    immutable = {"scheme": rep.scheme, "bidding_end": rep.bidding_end, "limit": rep.limit,
                 "pubk": rep.pubk, "tender_data": rep.tender_data, "deployer": rep.deployer}
    for fld, expected_value in immutable.items():
        if disclosed.get(fld) != expected_value:
            violations.append(Violation("R1", rep.deploy_height,
                                        f"tender parameter {fld} differs from the value "
                                        f"fixed at deployment"))
    if disclosed.get("bid_count") != rep.expected_counts:
        violations.append(Violation("R3", rep.deploy_height,
                                    "per-bidder tallies differ from recomputed values"))
    if rep.scheme == "STATELESS":
        if "bids_placed" in disclosed:
            violations.append(Violation("R3", rep.deploy_height,
                                        "stateless tender discloses a bid array"))
    else:
        disclosed_array = disclosed.get("bids_placed")
        if disclosed_array != rep.expected_array:
            as_set = set(disclosed_array or [])
            missing = [a for a in rep.expected_array if a not in as_set]
            if missing:
                violations.append(Violation(
                    "ERASURE", rep.deploy_height,
                    f"disclosed bid array omits {len(missing)} recorded bid(s): "
                    f"{', '.join(missing[:3])}"))
            else:
                violations.append(Violation("R3", rep.deploy_height,
                                            "disclosed bid array reordered or padded "
                                            "against transaction history"))
    expected_reveals = [{"bid_addr": e["bid_addr"], "half_b": e["half_b"],
                         "height": e["height"], "timestamp": e["timestamp"]}
                        for e in rep.reveal_events]
    if disclosed.get("reveals", []) != expected_reveals:
        violations.append(Violation("R3", rep.deploy_height,
                                    "disclosed reveal log differs from reveal transactions"))
    published = rep.publish_events[-1]["result"] if rep.publish_events else None
    if disclosed.get("results") != published:
        violations.append(Violation("R1", rep.deploy_height,
                                    "disclosed results differ from the published payload"))
    return violations


def _snapshot_erasure_check(rep: _Replay, export: dict) -> list[Violation]:
    """The defining cross-check: each record's embedded array snapshot must be a
    prefix of the disclosed array, and the record itself must sit right after it."""
    if rep.scheme == "STATELESS":
        return []
    disclosed_rft = export["contracts"].get(rep.rft_hex)
    if disclosed_rft is None:
        return []
    disclosed_array = disclosed_rft.get("bids_placed") or []
    violations = []
    for event in rep.bid_events:
        record = export["contracts"].get(event.address)
        if record is None or "prior_bids" not in record:
            continue
        prior = record["prior_bids"]
        k = len(prior)
        if disclosed_array[:k] != prior or (len(disclosed_array) <= k
                                            or disclosed_array[k] != event.address):
            violations.append(Violation(
                "ERASURE", event.height,
                f"disclosed bid array is inconsistent with the snapshot held by "
                f"record {event.address}"))
    return violations


# --- result re-evaluation -----------------------------------------------------------

def _recompute_outcome(rep: _Replay, export: dict, result: dict):
    violations: list[Violation] = []
    criteria = None
    if rep.tender_data and rep.tender_data in rep.expected_contracts:
        try:
            _, _, criteria = TenderSpec.parse_data_blob(
                from_hex(rep.expected_contracts[rep.tender_data]["data"]))
        except (KeyError, ValueError):
            criteria = None
    if criteria is None:
        violations.append(Violation("R1", rep.deploy_height,
                                    "tender data holds no usable evaluation criteria"))
        return None, None, violations

    statuses = result.get("statuses") or {}
    revealed = result.get("revealed_keys") or {}
    published_scores = result.get("scores") or {}

    recomputed_scores: dict[bytes, float] = {}
    for event in rep.bid_events:
        addr = event.address
        if not event.validity:
            if statuses.get(addr) == STATUS_SCORED:
                violations.append(Violation("R3", event.height,
                                            f"invalid bid {addr} was scored by the "
                                            f"published evaluation"))
            continue
        if addr not in statuses:
            violations.append(Violation("NONRECEIPT", event.height,
                                        f"valid bid {addr} is absent from the disclosed "
                                        f"evaluation"))
            continue
        key_entry = revealed.get(addr)
        if key_entry is None:
            if statuses.get(addr) == STATUS_SCORED:
                violations.append(Violation("R3", event.height,
                                            f"bid {addr} scored without a published key"))
            continue
        try:
            sealed = from_hex(key_entry["sealed"])
            bid_key = from_hex(key_entry["bid_key"])
        except (KeyError, ValueError, TypeError):
            violations.append(Violation("R3", event.height,
                                        f"published key entry for {addr} is malformed"))
            continue
        if not sealed.startswith(from_hex(event.sealed_half_a)):
            violations.append(Violation("R3", event.height,
                                        f"published sealed key for {addr} does not extend "
                                        f"the on-ledger half"))
        data_contract = export["contracts"].get(event.data_addr)
        if data_contract is None:
            violations.append(Violation("UNDECRYPTABLE_BID", event.height,
                                        f"bid {addr} points at data address with no "
                                        f"disclosed contract"))
            continue
        try:
            plaintext = crypto.decrypt_bid(from_hex(data_contract["data"]), bid_key)
            document = BidDocument.from_bytes(plaintext)
        except (AuthFailed, KeyError, ValueError):
            violations.append(Violation("UNDECRYPTABLE_BID", event.height,
                                        f"published key fails to decrypt bid {addr}"))
            continue
        if document.bidder_id != event.bidder_id:
            violations.append(Violation("R3", event.height,
                                        f"decrypted document for {addr} names a different "
                                        f"bidder id"))
            continue
        if not criteria.feasible(document.fields):
            continue
        score = criteria.score(document.fields)
        recomputed_scores[from_hex(addr)] = score
        if addr in published_scores and published_scores[addr] != score:
            violations.append(Violation("R3", event.height,
                                        f"published score for {addr} differs from "
                                        f"recomputation"))

    winner_addr = pick_winner(recomputed_scores)
    winner_hex = to_hex(winner_addr) if winner_addr else None
    winner_id = None
    if winner_hex:
        winner_id = rep.expected_contracts[winner_hex]["id"]
    return winner_hex, winner_id, violations


# --- requirement grading -------------------------------------------------------------

def _grade_requirements(rep: _Replay, violations: list[Violation]) -> dict[str, dict]:
    tags = {v.tag for v in violations}

    def verdict_for(tag: str) -> str:
        return FAIL if tag in tags else PASS

    reqs: dict[str, dict] = {}
    reqs["R1"] = {"verdict": verdict_for("R1"),
                  "evidence": "tender parameters, data, and results match their "
                              "deployment and publication transactions"
                  if "R1" not in tags else "post-deployment mutation detected"}

    early = [e for e in rep.reveal_events if e["timestamp"] < rep.bidding_end]
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

    if rep.scheme == "STATELESS":
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
        spam = [e for e in rep.bid_events if not e.valid_hash]
        if rep.scheme == "FULL_TRACK" and spam:
            reqs["R5"] = {"verdict": PARTIAL,
                          "evidence": f"{len(spam)} certificate-invalid bid(s) were "
                                      f"recorded and inflate every later bid's cost"}
        elif rep.scheme == "PROTECTED":
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


# --- entry points ----------------------------------------------------------------------

def replay_and_audit(source, rft_address, presented_receipts=None) -> AuditReport:
    """Audit one tender from public chain data alone."""
    export = _as_export(source)
    rft_hex = _as_hex_address(rft_address)

    violations = verify_ledger_hashes(export)
    rep = _replay(export, rft_hex)
    if not rep.found_rft:
        raise ResultsNotPublished(f"no tender deployment found at {rft_hex}")
    if not rep.publish_events:
        raise ResultsNotPublished(f"no published results for tender {rft_hex}")
    violations.extend(rep.violations)
    violations.extend(_compare_disclosed(rep, export))
    violations.extend(_snapshot_erasure_check(rep, export))

    result = rep.publish_events[-1]["result"]
    recomputed_addr, recomputed_winner, outcome_violations = \
        _recompute_outcome(rep, export, result)
    violations.extend(outcome_violations)

    published_winner = result.get("winner_id")
    published_addr = result.get("winner_bid_address")
    winner_match = (published_addr == recomputed_addr and
                    published_winner == recomputed_winner)
    if not winner_match:
        violations.append(Violation(
            "WINNER_MISMATCH", rep.publish_events[-1]["height"],
            f"published winner {published_winner}/{published_addr} differs from "
            f"recomputed {recomputed_winner}/{recomputed_addr}"))

    # Realized denial-of-service cost: in the full-track scheme every recorded
    # certificate-invalid bid permanently raises the price of later bids.
    if rep.scheme == "FULL_TRACK":
        spam_events = [e for e in rep.bid_events if not e.valid_hash]
        if spam_events:
            violations.append(Violation(
                "R5", spam_events[0].height,
                f"{len(spam_events)} certificate-invalid bid(s) were recorded; each "
                f"inflates every later bid by {rep.copy_step} gas"))

    if presented_receipts:
        statuses = result.get("statuses") or {}
        for receipt in presented_receipts:
            addr_hex = to_hex(receipt.bid_address)
            if not crypto.verify_receipt(from_hex(rep.pubk), receipt.bid_address,
                                         receipt.v, receipt.r, receipt.s):
                continue  # not the organisation's signature; no claim to answer
            if addr_hex not in statuses:
                violations.append(Violation(
                    "NONRECEIPT", rep.publish_events[-1]["height"],
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

    gas_trace = [(tx["kind"] or "unknown", tx["gas_used"])
                 for _, tx in iter_transactions(export)]
    timeline = _build_timeline(rep)
    requirements = _grade_requirements(rep, unique)
    return AuditReport(
        tender_address=rft_hex,
        scheme=rep.scheme,
        recomputed_winner=recomputed_winner,
        published_winner=published_winner,
        winner_match=winner_match,
        violations=unique,
        gas_trace=gas_trace,
        timeline=timeline,
        requirements=requirements,
    )


def _build_timeline(rep: _Replay) -> list[dict]:
    events = [{"event": "tender_deployed", "height": rep.deploy_height,
               "timestamp": rep.deploy_timestamp}]
    for e in rep.bid_events:
        events.append({"event": "bid_placed", "height": e.height,
                       "timestamp": e.timestamp, "address": e.address,
                       "validity": e.validity})
    for e in rep.reveal_events:
        events.append({"event": "key_half_revealed", "height": e["height"],
                       "timestamp": e["timestamp"], "address": e["bid_addr"]})
    for e in rep.publish_events:
        events.append({"event": "results_published", "height": e["height"],
                       "timestamp": e["timestamp"]})
    events.append({"event": "bidding_end", "height": None,
                   "timestamp": rep.bidding_end})
    events.sort(key=lambda ev: (ev["timestamp"], ev["event"]))
    return events


def check_requirements(source, rft_address, report: AuditReport | None = None) -> dict:
    """R1..R6 verdict map with evidence; runs the full replay when needed."""
    if report is None:
        report = replay_and_audit(source, rft_address)
    return report.requirements
