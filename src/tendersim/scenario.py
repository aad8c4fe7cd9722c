"""Scenario files: declarative tender runs with optional adversarial actions.

A scenario is a JSON document naming the scheme, the tender terms, a
bidder roster with submission offsets (milliseconds after the tender
opens), adversarial actions and an expected block, no setting of the
ledger and, at any level, no key the run does not read. ``SCENARIO`` and
the tables before it state the format, each default in its table, read by
``encoding.read_object``; ``validate_scenario`` then checks the rules across
objects, and either refusal names its JSON path. What they read is all the
run uses. Runs are deterministic: every byte of randomness
comes from the scenario seed, the clock is virtual, and reports are
canonically serialized, so running the same file twice produces identical
files.

Timed adversarial actions (spam, forgery, late bids, early key reveals)
are executed on the ledger as part of the run. Post-hoc actions (erasing
a bid from the disclosed array, mutating tender state, rigging the
published winner) model a dishonest organisation or host; the first two
are applied to the exported chain view that the auditor then reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from json import JSONDecodeError
from pathlib import Path
from random import Random

from . import audit, contracts, crypto
from .chain import Chain, ChainConfig
from .encoding import (MAX_JSON_DEPTH, STRING, Refused, canonical_json_bytes, from_hex,
                       json_path, load_json, nests_deeper, optional, read_list, read_object,
                       reader, to_hex, write_canonical_json)
# perfbench/test_smoke.py checks that tracing restores this module's binding
from .encoding import canonical_json  # noqa: F401
from .errors import IncomparableScenarios, ScenarioError
from .orchestrator import (BID_FIELDS, BidDocument, EvaluationCriteria, TenderOrchestrator,
                           TenderSpec, account_address)

MAX_BIDS = 1000  # honest, late, forged and spam: twice the largest benchmark workload


def load_scenario(path: str | Path) -> dict:
    """``validate_scenario`` of the file's JSON; errors carry the line (parse) or path (rules)."""
    try:
        doc = load_json(Path(path).read_text(encoding="utf-8"))
    except JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # bad UTF-8, an int of 4301+ digits, deep nesting, a lone
        raise ScenarioError(f"{path}: {exc}")  # surrogate at its line and column
    return validate_scenario(doc, source=str(path))


# The latest offset from the tender's opening a scenario may name: the run stamps no block
# more than a few block intervals past it, so each stays below the 2**64 a block hash holds.
MAX_OFFSET_MS = 2**63
_OFFSET = reader(lambda value: type(value) is int and 1 <= value <= MAX_OFFSET_MS,
                 refusal=f"must be an integer from 1 to {MAX_OFFSET_MS}")
_FLAG = reader(lambda value: type(value) is bool,  # "no" would read as true
               refusal="must be true or false")
_WINNER = optional(reader(lambda value: value is None or type(value) is str,
                          refusal="must be a string or null"))
_VERDICT = optional(reader(lambda value: value in (audit.PASS, audit.PARTIAL, audit.FAIL),
                           refusal="must be PASS, PARTIAL or FAIL"))

# Each object of a scenario: the keys a run reads, in order, each to its reader, ``optional``
# for a key it may leave out, with a default where the run needs one; an action's by its kind.
# Fields are read as bid documents, criteria as tender data, ids, counts and scheme as calls.
TENDER = {"title": STRING, "terms": STRING, "length_ms": _OFFSET, "limit": contracts.COUNT,
          "criteria": EvaluationCriteria.from_dict}
BIDDER = {"id": contracts.BIDDER_ID, "submit_at_ms": _OFFSET, "fields": BID_FIELDS,
          "free_text": optional(STRING, ""), "withhold_key": optional(_FLAG, False)}
ACTIONS = {
    "SPAM_INVALID_CERTS": {"action": STRING, "at_ms": _OFFSET, "count": contracts.COUNT},
    "LATE_BID": {"action": STRING, "at_ms": _OFFSET, "bidder": STRING,  # fields {}: the bidder's
                 "fields": optional(BID_FIELDS, {}), "free_text": optional(STRING, "")},
    "FORGE_CERT": {"action": STRING, "at_ms": _OFFSET, "target": STRING},
    "EARLY_KEY_REVEAL": {"action": STRING, "at_ms": _OFFSET, "bidder": STRING},
    "ERASE_BID": {"action": STRING, "index": reader(
        lambda value: type(value) is int and value >= 0, refusal="must be an integer >= 0")},
    "RIG_WINNER": {"action": STRING, "winner": STRING},
    "MUTATE_TENDER": {"action": STRING},  # flips the first byte of the disclosed tender data
}
EXPECTED = {
    "winner_id": _WINNER, "recomputed_winner": _WINNER, "winner_match": optional(_FLAG),
    "violations_empty": optional(_FLAG, False),
    "violation_tags_include": optional(read_list(STRING), []),
    "requirements": optional(lambda value: read_object(
        value, dict.fromkeys(audit.REQUIREMENT_TAGS, _VERDICT)), {}),
    "audit_pass": optional(_FLAG),
}
# each scalar of ``expected``, to what it is compared with in the audit report
_COMPARED = {"winner_id": lambda report: report.published_winner,
             "recomputed_winner": lambda report: report.recomputed_winner,
             "winner_match": lambda report: report.winner_match,
             "audit_pass": audit.AuditReport.ok}
assert _COMPARED.keys() <= EXPECTED.keys(), "a compared key EXPECTED does not read"


def _action(value) -> dict:
    """An adversarial action, read by the table of the kind its ``action`` names."""
    if type(value) is not dict:
        raise Refused("must be an object")
    if "action" not in value:
        raise Refused("missing required key 'action'")
    if type(kind := value["action"]) is not str or kind not in ACTIONS:
        raise Refused(f"unknown action {kind!r}; the actions are {', '.join(ACTIONS)}",
                      ("action",))
    return read_object(value, ACTIONS[kind])


SCENARIO = {
    "name": STRING,
    "seed": optional(reader(lambda value: type(value) is int, refusal="must be an integer"), 0),
    "scheme": contracts.SCHEME,
    "tender": lambda value: read_object(value, TENDER),
    "bidders": read_list(lambda value: read_object(value, BIDDER)),
    "adversarial": optional(read_list(_action), []),
    "expected": optional(lambda value: read_object(value, EXPECTED), {}),
}


def _schedule(scenario: dict) -> list[tuple[int, tuple, dict]]:
    """Each bid and each action whose table has ``at_ms``, as (offset, path, entry)."""
    events = [(b["submit_at_ms"], ("bidders", i), b) for i, b in enumerate(scenario["bidders"])]
    events += [(a["at_ms"], ("adversarial", i), a) for i, a in enumerate(scenario["adversarial"])
               if "at_ms" in ACTIONS[a["action"]]]
    return sorted(events, key=lambda event: event[:2])


def validate_scenario(doc: dict, source: str = "<scenario>") -> dict:
    """The scenario ``doc`` holds, read by ``SCENARIO`` and checked by the rules across its
    objects; ScenarioError naming the JSON path of the value refused."""
    try:
        if nests_deeper(doc, MAX_JSON_DEPTH):  # a document passed as a dict was never parsed
            raise Refused(f"nests arrays and objects more than {MAX_JSON_DEPTH} levels deep")
        scenario = read_object(doc, SCENARIO)
        _check_across(scenario)
        try:  # nor was a lone surrogate refused, as load_json refuses one
            canonical_json_bytes(doc)
        except UnicodeEncodeError:
            raise Refused("a string holds a lone surrogate, which UTF-8 cannot encode") from None
    except Refused as exc:
        raise ScenarioError(f"{source}: at {json_path(exc.path)}: {exc.reason}") from None
    return scenario


def _check_across(scenario: dict) -> None:
    """Refuse, at its path, a value read alone but at odds with another: a duplicate bidder
    id, an unknown one, a bid over the cap, an action out of its time or out of range, and
    two events at one time."""
    bid_at = {}  # bidder id -> submit_at_ms
    too_many = f"a scenario places at most {MAX_BIDS} bids: honest, late, forged and spam"
    for i, bidder in enumerate(scenario["bidders"]):
        if i == MAX_BIDS:
            raise Refused(too_many, ("bidders", i))
        if bidder["id"] in bid_at:
            raise Refused(f"duplicate bidder id {bidder['id']!r}", ("bidders", i))
        bid_at[bidder["id"]] = bidder["submit_at_ms"]

    bids = certified = len(scenario["bidders"])
    length_ms = scenario["tender"]["length_ms"]
    adversarial = scenario["adversarial"]
    for i, action in enumerate(adversarial):
        kind = action["action"]
        for key in ("bidder", "target", "winner"):
            if key in action and action[key] not in bid_at:
                raise Refused("references an unknown bidder id", ("adversarial", i, key))
        if kind == "LATE_BID" and action["at_ms"] < length_ms:
            raise Refused("a late bid must land at or after the tender length",
                          ("adversarial", i, "at_ms"))
        if kind == "EARLY_KEY_REVEAL" and not bid_at[action["bidder"]] < action["at_ms"] \
                < length_ms:
            raise Refused("an early reveal must follow its bidder's bid and precede the "
                          "deadline", ("adversarial", i, "at_ms"))
        if kind == "ERASE_BID" and scenario["scheme"] == contracts.SCHEME_STATELESS:
            raise Refused("stateless tenders hold no bid array to erase from", ("adversarial", i))
        certified += kind == "LATE_BID"
        bids += action["count"] if "count" in action else kind in ("LATE_BID", "FORGE_CERT")
        if bids > MAX_BIDS:
            raise Refused(too_many, ("adversarial", i))
    # a full-track array holds every bid placed; a protected one refuses uncertified bids.
    # The run erases in order, each from the array the erasures before it leave.
    held = bids if scenario["scheme"] == contracts.SCHEME_FULL else certified
    for i, action in enumerate(adversarial):
        if action["action"] == "ERASE_BID":
            if action["index"] >= held:
                raise Refused(f"the bid array holds {held} records", ("adversarial", i, "index"))
            held -= 1

    events = _schedule(scenario)
    for (a, wa, _), (b, wb, _) in zip(events, events[1:]):
        if a == b:
            raise Refused(f"schedule times must be strictly increasing; "
                          f"{json_path(wa)} also fires at {a}", wb)


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
    tender_spec: TenderSpec


def _junk_address(rng: Random) -> bytes:
    return hashlib.sha256(b"junk|" + rng.randbytes(8)).digest()[-20:]


def _forged_components(rng: Random) -> tuple[int, bytes, bytes]:
    return 27 + rng.randrange(2), rng.randbytes(32), rng.randbytes(32)


def run_scenario(source: str | Path | dict, out_dir: str | Path | None = None) -> RunOutcome:
    """Execute a scenario, audit the outcome, and write its four reports to ``out_dir``.

    Exit code 0 means the run completed and every check in the scenario's
    ``expected`` block held.
    """
    scenario = (load_scenario if isinstance(source, (str, Path)) else validate_scenario)(source)
    rng = Random(scenario["seed"])

    config = ChainConfig()
    chain = Chain(config)
    orch = TenderOrchestrator(chain, rng)

    tender = scenario["tender"]
    spec = TenderSpec(title=tender["title"], terms=tender["terms"].encode("utf-8"),
                      criteria=tender["criteria"], length_ms=tender["length_ms"],
                      limit=tender["limit"], scheme=scenario["scheme"])
    open_ts = config.genesis_timestamp + config.block_interval_ms
    rft, _ = orch.open_tender(spec, at=open_ts)
    bidding_end = chain.get_contract(rft).bidding_end

    bidders = {b["id"]: b for b in scenario["bidders"]}
    for bidder_id in bidders:
        orch.register_bidder(bidder_id)
    spammer = account_address(b"spammer")
    chain.register_account(spammer)

    post_actions = [action for action in scenario["adversarial"]
                    if "at_ms" not in ACTIONS[action["action"]]]
    submissions: dict[str, list] = {bid: [] for bid in bidders}
    # one block per timed event, strictly increasing offsets from tender opening
    for at_ms, (entries, _), payload in _schedule(scenario):
        kind = "BID" if entries == "bidders" else payload["action"]
        ts = open_ts + at_ms
        if kind == "BID" or kind == "LATE_BID":
            bidder_id = payload["id"] if kind == "BID" else payload["bidder"]
            fields = payload["fields"] or bidders[bidder_id]["fields"]
            document = BidDocument(bidder_id, fields, payload["free_text"].encode("utf-8"))
            sub = orch.submit_sealed_bid(bidder_id, document, at=ts)
            submissions[bidder_id].append(sub)
        elif kind in ("SPAM_INVALID_CERTS", "FORGE_CERT"):
            forged_ids = ([f"SPAM-{k}" for k in range(payload["count"])]
                          if kind == "SPAM_INVALID_CERTS" else [payload["target"]])
            chain.advance_to(ts)
            for forged_id in forged_ids:
                v, r, s = _forged_components(rng)
                call = contracts.call("place_bid", id=forged_id, data_addr=_junk_address(rng),
                                      v=v, r=r, s=s,
                                      sealed_half_a=rng.randbytes(crypto.SEALED_HALF_LEN))
                chain.submit_transaction(spammer, rft, canonical_json_bytes(call))
            chain.mine_block(ts)
        elif kind == "EARLY_KEY_REVEAL":
            orch.reveal_key_half_on_chain(payload["bidder"], submissions[payload["bidder"]][-1],
                                          at=ts)

    # the organisation tries to read the bids while bidding is still open
    early_revealed = {from_hex(e["bid_addr"]) for e in chain.get_contract(rft).reveals}
    probe = orch.pre_deadline_decryption_probe()
    probe_fail = sum(1 for ok in probe.values() if not ok)
    probe_expect_fail = sum(1 for addr in probe if addr not in early_revealed)

    # deadline passes; withheld halves are delivered off-ledger
    end_base = max(bidding_end, chain.head().timestamp)
    chain.advance_to(end_base + config.block_interval_ms)
    for bidder_id, subs in submissions.items():
        if bidders[bidder_id]["withhold_key"]:
            continue
        for sub in subs:
            orch.deliver_key_half(bidder_id, sub)

    result = orch.close_and_evaluate()
    for action in post_actions:
        if action["action"] == "RIG_WINNER":
            result.winner_id = action["winner"]
            result.winner_bid_address = submissions[action["winner"]][0].record_address
    orch.publish_results(result, at=end_base + 2 * config.block_interval_ms)

    export = chain.export()
    rft_hex = to_hex(rft)
    for action in post_actions:
        if action["action"] == "ERASE_BID":
            export["contracts"][rft_hex]["bids_placed"].pop(action["index"])
        elif action["action"] == "MUTATE_TENDER":  # the export links to the data; write it whole
            data_addr = export["contracts"][rft_hex]["tender_data"]
            raw = bytearray(chain.get_contract(from_hex(data_addr)).data)
            raw[0] ^= 0xFF
            export["contracts"][data_addr]["data"] = to_hex(bytes(raw))

    report = audit.replay_and_audit(export, rft)

    gas_rows = [(i, kind, gas) for i, (kind, gas) in enumerate(report.gas_trace)]
    bid_gas = [g for _, kind, g in gas_rows if kind in contracts.BID_KINDS]
    deployment_gas = next((g for _, kind, g in gas_rows if kind in contracts.DEPLOY_KINDS), 0)

    expected_failures = _check_expected(scenario["expected"], report)
    if probe_fail != probe_expect_fail:
        # not scenario-configurable: a bid readable before its key half arrives
        # (or unreadable after an early reveal) is a broken sealing mechanism
        expected_failures.insert(0, f"pre-deadline decryption probe: {probe_fail} "
                                    f"sealed, expected {probe_expect_fail}")
    summary_lines = _summary_lines(scenario, report, deployment_gas, bid_gas,
                                   probe_fail, probe_expect_fail, len(probe),
                                   config, expected_failures)

    outcome = RunOutcome(
        name=scenario["name"], exit_code=0 if not expected_failures else 1,
        report=report, export=export,
        summary_lines=summary_lines, expected_failures=expected_failures,
        bid_gas=bid_gas, deployment_gas=deployment_gas,
        tender_spec=spec,
    )
    if out_dir is not None:
        _write_reports(outcome, Path(out_dir), gas_rows)
    return outcome


def _check_expected(expected: dict, report: audit.AuditReport) -> list[str]:
    failures = []
    for key, compared in _COMPARED.items():
        if key in expected and compared(report) != expected[key]:
            failures.append(f"{key}={compared(report)!r} != expected {expected[key]!r}")
    tags = [v.tag for v in report.violations]
    if expected["violations_empty"] and tags:
        failures.append(f"expected no violations, found {sorted(set(tags))}")
    for tag in expected["violation_tags_include"]:
        if tag not in tags:
            failures.append(f"expected a {tag} violation, none found")
    for tag, verdict in expected["requirements"].items():
        actual = report.requirements[tag]["verdict"]
        if actual != verdict:
            failures.append(f"{tag}={actual} != expected {verdict}")
    return failures


def _summary_lines(scenario, report, deployment_gas, bid_gas, probe_fail, probe_expect_fail,
                   probe_total, config, expected_failures) -> list[str]:
    lines = [
        f"scenario: {scenario['name']}",
        f"scheme: {scenario['scheme']}",
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


def compare_schemes(sources: list) -> tuple[str, list[dict]]:
    """Run scenarios over the same tender and tabulate cost and verdicts per scheme.

    The scenarios must run the same tender: title, terms, criteria, length and
    bid limit, the scheme set aside, otherwise the comparison would not mean
    anything. Their bidders, actions and expectations may differ.
    """
    if len(sources) < 2:
        raise IncomparableScenarios("need at least two scenario results to compare")
    outcomes = [run_scenario(src) for src in sources]
    reference = outcomes[0].tender_spec
    for outcome in outcomes[1:]:
        if replace(outcome.tender_spec, scheme=reference.scheme) != reference:
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


def _write_reports(outcome: RunOutcome, out: Path, gas_rows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rows = ["tx_index,kind,gas_used"]
    rows.extend(f"{i},{kind},{gas}" for i, kind, gas in gas_rows)
    (out / "gas.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_canonical_json(out / "audit.json", outcome.report.to_dict())
    (out / "summary.txt").write_text("\n".join(outcome.summary_lines) + "\n", encoding="utf-8")
    write_canonical_json(out / "chain.json", outcome.export)
