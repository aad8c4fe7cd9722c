"""Scenario files: declarative tender runs with optional adversarial actions.

A scenario is a JSON document naming the scheme, the tender terms, a
bidder roster with submission offsets (milliseconds after the tender
opens), adversarial actions, and an expected-verdict block. Runs are
deterministic: every byte of randomness comes from the scenario seed, the
clock is virtual, and reports are canonically serialized, so running the
same file twice produces identical files.

Timed adversarial actions (spam, forgery, late bids, early key reveals)
are executed on the ledger as part of the run. Post-hoc actions (erasing
a bid from the disclosed array, mutating tender state, rigging the
published winner) model a dishonest organisation or host; the first two
are applied to the exported chain view that the auditor then reads.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from . import audit, contracts
from .chain import Chain, ChainConfig
from .encoding import canonical_json_bytes, from_hex, to_hex, write_canonical_json
# perfbench/test_smoke.py checks that tracing restores this module's binding
from .encoding import canonical_json  # noqa: F401
from .errors import IncomparableScenarios, ScenarioError
from .orchestrator import (
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
)

TIMED_ACTIONS = ("SPAM_INVALID_CERTS", "LATE_BID", "FORGE_CERT", "EARLY_KEY_REVEAL")
POST_ACTIONS = ("ERASE_BID", "RIG_WINNER", "MUTATE_TENDER")
REPORT_KINDS = ("gas_csv", "audit_json", "summary", "chain_export")
MUTATE_FIELDS = ("data", "bidding_end", "limit", "pubk")


def load_scenario(path: str | Path) -> dict:
    """Parse and validate; diagnostics carry the line (parse) or path (semantics)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8, an int of 4301+ digits, deep nesting
        raise ScenarioError(f"{path}: {exc}")
    validate_scenario(doc, source=str(path))
    return doc


def _fail(source: str, where: str, message: str) -> None:
    raise ScenarioError(f"{source}: at {where}: {message}")


def _check_offer(source: str, where: str, entry: dict) -> None:
    """The document fields and free text a bid entry carries, where present."""
    fields = entry.get("fields", {})
    if not isinstance(fields, dict):
        _fail(source, where + ".fields", "must be an object")
    for name, value in fields.items():
        # finite JSON numbers only: true and false are not prices, and NaN,
        # Infinity or an int beyond the float range cannot be scored
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            _fail(source, f"{where}.fields.{name}", "must be a finite number")
    if not isinstance(entry.get("free_text", ""), str):
        _fail(source, where + ".free_text", "must be a string")


def validate_scenario(doc: dict, source: str = "<scenario>") -> None:
    if not isinstance(doc, dict):
        _fail(source, "$", "scenario must be a JSON object")
    for key in ("name", "scheme", "tender", "bidders"):
        if key not in doc:
            _fail(source, "$", f"missing required key {key!r}")
    if doc["scheme"] not in contracts.SCHEMES:
        _fail(source, "$.scheme", f"unknown scheme {doc['scheme']!r}")
    if type(doc.get("seed", 0)) is not int:
        _fail(source, "$.seed", "seed must be an integer")

    chain_cfg = doc.get("chain", {})
    if not isinstance(chain_cfg, dict):
        _fail(source, "$.chain", "must be an object")
    try:
        ChainConfig(**chain_cfg)
    except (ValueError, TypeError) as exc:  # TypeError: a key ChainConfig does not have
        _fail(source, "$.chain", str(exc))

    tender = doc["tender"]
    if not isinstance(tender, dict):
        _fail(source, "$.tender", "must be an object")
    for key in ("title", "terms", "length_ms", "limit", "criteria"):
        if key not in tender:
            _fail(source, "$.tender", f"missing required key {key!r}")
    for key in ("title", "terms"):
        if not isinstance(tender[key], str):
            _fail(source, f"$.tender.{key}", "must be a string")
    if type(tender["length_ms"]) is not int or tender["length_ms"] <= 0:
        _fail(source, "$.tender.length_ms", "must be a positive integer")
    if type(tender["limit"]) is not int or tender["limit"] < 1:
        _fail(source, "$.tender.limit", "must be an integer >= 1")
    try:
        EvaluationCriteria.from_dict(tender["criteria"])
    except ValueError as exc:
        _fail(source, "$.tender.criteria", str(exc))

    if not isinstance(doc["bidders"], list):
        _fail(source, "$.bidders", "must be a list")
    ids = set()
    timed: list[tuple[int, str]] = []
    for i, bidder in enumerate(doc["bidders"]):
        where = f"$.bidders[{i}]"
        if not isinstance(bidder, dict):
            _fail(source, where, "must be an object")
        for key in ("id", "submit_at_ms", "fields"):
            if key not in bidder:
                _fail(source, where, f"missing required key {key!r}")
        if not isinstance(bidder["id"], str):
            _fail(source, where + ".id", "must be a string")
        if bidder["id"] in ids:
            _fail(source, where, f"duplicate bidder id {bidder['id']!r}")
        ids.add(bidder["id"])
        if type(bidder["submit_at_ms"]) is not int or bidder["submit_at_ms"] < 1:
            _fail(source, where + ".submit_at_ms", "must be an integer >= 1")
        _check_offer(source, where, bidder)
        timed.append((bidder["submit_at_ms"], where))

    def known_id(value) -> bool:
        return isinstance(value, str) and value in ids

    if not isinstance(doc.get("adversarial", []), list):
        _fail(source, "$.adversarial", "must be a list")
    for i, action in enumerate(doc.get("adversarial", [])):
        where = f"$.adversarial[{i}]"
        if not isinstance(action, dict):
            _fail(source, where, "must be an object")
        kind = action.get("action")
        if kind not in TIMED_ACTIONS + POST_ACTIONS:
            _fail(source, where, f"unknown action {kind!r}")
        if kind in TIMED_ACTIONS:
            if type(action.get("at_ms")) is not int or action["at_ms"] < 1:
                _fail(source, where + ".at_ms", "timed actions need at_ms >= 1")
            timed.append((action["at_ms"], where))
        if kind == "SPAM_INVALID_CERTS" and (type(action.get("count")) is not int
                                             or action["count"] < 1):
            _fail(source, where + ".count", "spam needs a positive count")
        if kind == "LATE_BID":
            if not known_id(action.get("bidder")):
                _fail(source, where + ".bidder", "references an unknown bidder id")
            _check_offer(source, where, action)
            if action["at_ms"] < tender["length_ms"]:
                _fail(source, where + ".at_ms",
                      "a late bid must land at or after the tender length")
        if kind == "FORGE_CERT" and not known_id(action.get("target")):
            _fail(source, where + ".target", "references an unknown bidder id")
        if kind == "EARLY_KEY_REVEAL":
            if not known_id(action.get("bidder")):
                _fail(source, where + ".bidder", "references an unknown bidder id")
            if action["at_ms"] >= tender["length_ms"]:
                _fail(source, where + ".at_ms", "an early reveal must precede the deadline")
        if kind == "RIG_WINNER" and not known_id(action.get("winner")):
            _fail(source, where + ".winner", "references an unknown bidder id")
        if kind == "ERASE_BID":
            if doc["scheme"] == contracts.SCHEME_STATELESS:
                _fail(source, where, "stateless tenders hold no bid array to erase from")
            if type(action.get("index")) is not int or action["index"] < 0:
                _fail(source, where + ".index", "must be a non-negative integer")
        if kind == "MUTATE_TENDER" and action.get("field", "data") not in MUTATE_FIELDS:
            _fail(source, where + ".field", f"must be one of {MUTATE_FIELDS}")

    timed.sort()
    for (a, wa), (b, wb) in zip(timed, timed[1:]):
        if a == b:
            _fail(source, wb, f"schedule times must be strictly increasing; "
                              f"{wa} also fires at {a}")

    expected = doc.get("expected", {})
    if not isinstance(expected, dict):
        _fail(source, "$.expected", "must be an object")
    if not isinstance(expected.get("violation_tags_include", []), list):
        _fail(source, "$.expected.violation_tags_include", "must be a list")
    if not isinstance(expected.get("requirements", {}), dict):
        _fail(source, "$.expected.requirements", "must be an object")

    if not isinstance(doc.get("reports", []), list):
        _fail(source, "$.reports", "must be a list")
    for i, kind in enumerate(doc.get("reports", [])):
        if kind not in REPORT_KINDS:
            _fail(source, f"$.reports[{i}]", f"unknown report kind {kind!r}")
    try:
        canonical_json_bytes(doc)
    except UnicodeEncodeError:  # a \ud800 escape parses to a lone surrogate
        _fail(source, "$", "a string holds a lone surrogate, which UTF-8 cannot encode")


@dataclass
class RunOutcome:
    name: str
    exit_code: int
    report: audit.AuditReport
    export: dict
    summary_lines: list[str]
    expected_failures: list[str]
    bid_gas: list[int]
    deployment_gas: int
    tender_spec: dict
    written: dict = field(default_factory=dict)


def _junk_address(rng: Random) -> bytes:
    return hashlib.sha256(b"junk|" + rng.randbytes(8)).digest()[-20:]


def _forged_components(rng: Random) -> tuple[bytes, int, bytes, bytes]:
    return rng.randbytes(32), 27 + rng.randrange(2), rng.randbytes(32), rng.randbytes(32)


def run_scenario(source: str | Path | dict, out_dir: str | Path | None = None,
                 seed: int | None = None) -> RunOutcome:
    """Execute a scenario, audit the outcome, and write the requested reports.

    Exit code 0 means the run completed and every check in the scenario's
    ``expected`` block held.
    """
    if isinstance(source, (str, Path)):
        doc = load_scenario(source)
    else:
        validate_scenario(source)
        doc = source
    rng = Random(seed if seed is not None else doc.get("seed", 0))

    config = ChainConfig(**doc.get("chain", {}))
    chain = Chain(config)
    orch = TenderOrchestrator(chain, rng)

    tender = doc["tender"]
    criteria = EvaluationCriteria.from_dict(tender["criteria"])
    spec = TenderSpec(title=tender["title"], terms=tender["terms"].encode("utf-8"),
                      criteria=criteria, length_ms=tender["length_ms"],
                      limit=tender["limit"], scheme=doc["scheme"])
    open_ts = config.genesis_timestamp + config.block_interval_ms
    rft, _ = orch.open_tender(spec, at=open_ts)
    bidding_end = chain.get_contract(rft).bidding_end

    bidders = {b["id"]: b for b in doc["bidders"]}
    for bidder_id in bidders:
        orch.register_bidder(bidder_id)
    spammer = hashlib.sha256(b"account|spammer").digest()[-20:]
    chain.register_account(spammer)

    # one block per timed event, strictly increasing offsets from tender opening
    events: list[tuple[int, str, dict]] = []
    for b in doc["bidders"]:
        events.append((b["submit_at_ms"], "BID", b))
    post_actions: list[dict] = []
    for action in doc.get("adversarial", []):
        if action["action"] in TIMED_ACTIONS:
            events.append((action["at_ms"], action["action"], action))
        else:
            post_actions.append(action)
    events.sort(key=lambda e: e[0])

    submissions: dict[str, list] = {bid: [] for bid in bidders}
    for at_ms, kind, payload in events:
        ts = open_ts + at_ms
        if kind == "BID" or kind == "LATE_BID":
            bidder_id = payload["id"] if kind == "BID" else payload["bidder"]
            fields = payload.get("fields") or bidders[bidder_id]["fields"]
            doc_fields = {k: float(v) for k, v in fields.items()}
            free_text = payload.get("free_text", "").encode("utf-8")
            document = BidDocument(bidder_id=bidder_id, fields=doc_fields,
                                   free_text=free_text)
            sub = orch.submit_sealed_bid(bidder_id, document, at=ts)
            submissions[bidder_id].append(sub)
        elif kind in ("SPAM_INVALID_CERTS", "FORGE_CERT"):
            forged_ids = ([f"SPAM-{k}" for k in range(payload["count"])]
                          if kind == "SPAM_INVALID_CERTS" else [payload["target"]])
            chain.advance_to(ts)
            for forged_id in forged_ids:
                msg_hash, v, r, s = _forged_components(rng)
                call = contracts.place_bid_call(forged_id, _junk_address(rng),
                                                msg_hash, v, r, s, rng.randbytes(62))
                chain.submit_transaction(spammer, rft, canonical_json_bytes(call))
            chain.mine_block(ts)
        elif kind == "EARLY_KEY_REVEAL":
            subs = submissions[payload["bidder"]]
            if not subs:
                raise ScenarioError(
                    f"EARLY_KEY_REVEAL for {payload['bidder']} precedes their bid")
            orch.reveal_key_half_on_chain(payload["bidder"], subs[-1], at=ts)

    # the organisation tries to read the bids while bidding is still open
    early_revealed = {from_hex(e["bid_addr"]) for e in chain.get_contract(rft).reveals}
    probe = orch.pre_deadline_decryption_probe()
    probe_fail = sum(1 for ok in probe.values() if not ok)
    probe_expect_fail = sum(1 for addr in probe if addr not in early_revealed)

    # deadline passes; withheld halves are delivered off-ledger
    end_base = max(bidding_end, chain.head().timestamp)
    chain.advance_to(end_base + config.block_interval_ms)
    for bidder_id, subs in submissions.items():
        if bidders[bidder_id].get("withhold_key"):
            continue
        for sub in subs:
            orch.deliver_key_half(bidder_id, sub)

    result = orch.close_and_evaluate()
    for action in post_actions:
        if action["action"] == "RIG_WINNER":
            rigged = submissions[action["winner"]]
            if not rigged:
                raise ScenarioError(f"RIG_WINNER target {action['winner']} never bid")
            result.winner_id = action["winner"]
            result.winner_bid_address = rigged[0].record_address
    orch.publish_results(result, at=end_base + 2 * config.block_interval_ms)

    export = chain.export()
    rft_hex = to_hex(rft)
    for action in post_actions:
        if action["action"] == "ERASE_BID":
            array = export["contracts"][rft_hex]["bids_placed"]
            if action["index"] >= len(array):
                raise ScenarioError(f"ERASE_BID index {action['index']} out of range")
            array.pop(action["index"])
        elif action["action"] == "MUTATE_TENDER":
            _apply_tender_mutation(chain, export, rft_hex, action.get("field", "data"))

    report = audit.replay_and_audit(export, rft)

    gas_rows = [(i, kind, gas) for i, (kind, gas) in enumerate(report.gas_trace)]
    bid_gas = [g for _, kind, g in gas_rows if kind.startswith("bid_")
               and not kind.startswith("bid_rejected")]
    deployment_gas = next((g for _, kind, g in gas_rows if kind.startswith("deploy_rft")), 0)

    expected_failures = _check_expected(doc.get("expected", {}), report)
    if probe_fail != probe_expect_fail:
        # not scenario-configurable: a bid readable before its key half arrives
        # (or unreadable after an early reveal) is a broken sealing mechanism
        expected_failures.insert(0, f"pre-deadline decryption probe: {probe_fail} "
                                    f"sealed, expected {probe_expect_fail}")
    summary_lines = _summary_lines(doc, report, deployment_gas, bid_gas,
                                   probe_fail, probe_expect_fail, len(probe),
                                   config, expected_failures)

    outcome = RunOutcome(
        name=doc["name"], exit_code=0 if not expected_failures else 1,
        report=report, export=export,
        summary_lines=summary_lines, expected_failures=expected_failures,
        bid_gas=bid_gas, deployment_gas=deployment_gas,
        tender_spec={k: tender[k] for k in ("title", "terms", "length_ms",
                                            "limit", "criteria")},
    )
    if out_dir is not None:
        _write_reports(outcome, Path(out_dir), doc.get("reports") or list(REPORT_KINDS),
                       gas_rows)
    return outcome


def _apply_tender_mutation(chain: Chain, export: dict, rft_hex: str, field_name: str) -> None:
    rft_snap = export["contracts"][rft_hex]
    if field_name == "data":  # the export links to the deployment; write the edit whole
        data_addr = rft_snap["tender_data"]
        raw = bytearray(chain.get_contract(from_hex(data_addr)).data)
        raw[0] ^= 0xFF
        export["contracts"][data_addr]["data"] = to_hex(bytes(raw))
    elif field_name == "bidding_end":
        rft_snap["bidding_end"] += 3_600_000
    elif field_name == "limit":
        rft_snap["limit"] += 1
    elif field_name == "pubk":
        raw = bytearray(from_hex(rft_snap["pubk"]))
        raw[0] ^= 0xFF
        rft_snap["pubk"] = to_hex(bytes(raw))


def _check_expected(expected: dict, report: audit.AuditReport) -> list[str]:
    failures = []
    tags = [v.tag for v in report.violations]
    if "winner_id" in expected and report.published_winner != expected["winner_id"]:
        failures.append(f"published winner {report.published_winner!r} != "
                        f"expected {expected['winner_id']!r}")
    if "recomputed_winner" in expected and \
            report.recomputed_winner != expected["recomputed_winner"]:
        failures.append(f"recomputed winner {report.recomputed_winner!r} != "
                        f"expected {expected['recomputed_winner']!r}")
    if "winner_match" in expected and report.winner_match != expected["winner_match"]:
        failures.append(f"winner_match={report.winner_match} != "
                        f"expected {expected['winner_match']}")
    if expected.get("violations_empty") and tags:
        failures.append(f"expected no violations, found {sorted(set(tags))}")
    for tag in expected.get("violation_tags_include", []):
        if tag not in tags:
            failures.append(f"expected a {tag} violation, none found")
    for tag, verdict in expected.get("requirements", {}).items():
        actual = report.requirements.get(tag, {}).get("verdict")
        if actual != verdict:
            failures.append(f"{tag}={actual} != expected {verdict}")
    if "audit_pass" in expected and report.ok() != expected["audit_pass"]:
        failures.append(f"audit_pass={report.ok()} != expected {expected['audit_pass']}")
    return failures


def _summary_lines(doc, report, deployment_gas, bid_gas, probe_fail, probe_expect_fail,
                   probe_total, config, expected_failures) -> list[str]:
    lines = [
        f"scenario: {doc['name']}",
        f"scheme: {doc['scheme']}",
        f"tender: {report.tender_address}",
        f"deployment_gas: {deployment_gas}",
        f"bid_gas: {','.join(str(g) for g in bid_gas)}",
        f"published_winner: {report.published_winner}",
        f"recomputed_winner: {report.recomputed_winner}",
        f"winner_match: {str(report.winner_match).lower()}",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        lines.append(f"violation: {v.tag} h={v.height} {v.description}")
    lines.append(" ".join(f"{t}={report.requirements[t]['verdict']}"
                          for t in audit.REQUIREMENT_TAGS))
    lines.append(f"pre_deadline_decryption_failures: {probe_fail}/{probe_total} "
                 f"(expected {probe_expect_fail}; bids revealed early decrypt pre-deadline)")
    lines.append(f"simulated_inclusion_delay_s: {config.block_interval_ms / 1000:.1f} "
                 f"(SIMULATED: configured block interval, not a network measurement)")
    if expected_failures:
        lines.append("expected_check: FAIL")
        lines.extend(f"expected_mismatch: {f}" for f in expected_failures)
    else:
        lines.append("expected_check: PASS")
    lines.append(report.one_line())
    return lines


def compare_schemes(sources: list, seed: int | None = None) -> tuple[str, list[dict]]:
    """Run scenarios over the same tender and tabulate cost and verdicts per scheme.

    The scenarios must agree on everything but the scheme, otherwise the
    comparison would not mean anything.
    """
    if len(sources) < 2:
        raise IncomparableScenarios("need at least two scenario results to compare")
    outcomes = [run_scenario(src, out_dir=None, seed=seed) for src in sources]
    reference = outcomes[0].tender_spec
    for outcome in outcomes[1:]:
        if outcome.tender_spec != reference:
            raise IncomparableScenarios(
                f"scenario {outcome.name!r} runs a different tender than "
                f"{outcomes[0].name!r}")

    rows = []
    for outcome in outcomes:
        series = outcome.bid_gas
        slope = series[1] - series[0] if len(series) > 1 else 0
        row = {
            "scenario": outcome.name,
            "scheme": outcome.report.scheme,
            "deployment_gas": outcome.deployment_gas,
            "bid_gas_slope": slope,
        }
        for tag in audit.REQUIREMENT_TAGS:
            row[tag] = outcome.report.requirements[tag]["verdict"]
        rows.append(row)

    headers = ["scheme", "deployment_gas", "bid_gas_slope", *audit.REQUIREMENT_TAGS]
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for r in rows:
        lines.append("  ".join(str(r[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines) + "\n", rows


def _write_reports(outcome: RunOutcome, out: Path, kinds: list[str], gas_rows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if "gas_csv" in kinds:
        path = out / "gas.csv"
        rows = ["tx_index,kind,gas_used"]
        rows.extend(f"{i},{kind},{gas}" for i, kind, gas in gas_rows)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outcome.written["gas_csv"] = path
    if "audit_json" in kinds:
        path = out / "audit.json"
        write_canonical_json(path, outcome.report.to_dict())
        outcome.written["audit_json"] = path
    if "summary" in kinds:
        path = out / "summary.txt"
        path.write_text("\n".join(outcome.summary_lines) + "\n", encoding="utf-8")
        outcome.written["summary"] = path
    if "chain_export" in kinds:
        path = out / "chain.json"
        write_canonical_json(path, outcome.export)
        outcome.written["chain_export"] = path
