"""Generated inputs, timed operations and correctness checks for each workload.

Every input is derived from an integer seed, so the same seed gives the same
scenario documents and the same chain. The program only ever sees the
generated inputs: scenario dicts for ``run_scenario`` and a ``chain.json``
file for the citizen audit (``tendersim audit``).

One call to a workload function is one timed iteration. It returns a
:class:`Sample` that holds the phase timings, the deterministic counts and
the list of correctness failures found for that iteration.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from clock import Timing, timed

# Calibrated closed-form gas figures, restated here so that the benchmark
# checks the program against the paper's numbers rather than against itself.
DEPLOY_GAS = {"deploy_rft_full": 892160, "deploy_rft_protected": 874791,
              "deploy_rft_stateless": 352819}
BID_BASE_GAS = {"bid_full": 299501, "bid_protected": 332788}
PER_PRIOR_BID_GAS = 20781
STATELESS_BID_GAS = 156601

BLOCK_STEP_MS = 60_000
CRITERIA = {
    "numeric_fields": [["price", 1.0, "MINIMIZE"]],
    "feasibility": [["delivery_days", "<=", 90]],
    "tie_break": "LOWEST_BID_ADDRESS",
}
TERMS = ("Resurface 4.2 km of carriageway including drainage remediation; works "
         "complete within the stated delivery window.")

# Sizes used for the timed iterations; see BENCHMARK.json for why.
FULL_SIZES = {
    "stateless_honest": {"bidders": 150},
    "full_track_spam": {"bidders": 125, "spam_per_bid": 3},
    "multi_tender_audit": {"tenders_per_scheme": 2, "bidders": 25},
}
# Sizes for the untimed warm-up and the determinism re-run; also the smoke test.
TINY_SIZES = {
    "stateless_honest": {"bidders": 3},
    "full_track_spam": {"bidders": 2, "spam_per_bid": 3},
    "multi_tender_audit": {"tenders_per_scheme": 1, "bidders": 2},
}


@dataclass
class Sample:
    run: Timing
    audit: Timing
    export_bytes: int
    chain_sha256: str
    audit_sha256: str
    bids: int  # place_bid transactions on the chain, honest and spam
    transactions: int
    blocks: int
    tenders: int
    failures: list[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.run.seconds

    @property
    def audit_s(self) -> float:
        return self.audit.seconds

    def digests(self) -> tuple[str, str]:
        return self.chain_sha256, self.audit_sha256


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from the workload seed and the iteration label."""
    material = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") >> 1


# --- input generation -------------------------------------------------------------

def _bidder_entries(rng: Random, prefix: str, count: int, step_ms: int = 0) -> list[dict]:
    # Distinct six-digit prices give a unique winner; fixed-width values keep
    # the export size a function of the sizes alone.
    prices = rng.sample(range(100_000, 1_000_000), count)
    return [
        {
            "id": f"{prefix}{i:03d}",
            "submit_at_ms": (i + 1) * step_ms,
            "fields": {"price": prices[i], "delivery_days": rng.randrange(10, 91)},
            "free_text": f"sealed offer {i:03d}",
        }
        for i in range(count)
    ]


def _expected_winner(bidders: list[dict]) -> str:
    return min(bidders, key=lambda b: b["fields"]["price"])["id"]


def scenario_doc(name: str, scheme: str, seed: int, bidders: int,
                 spam_per_bid: int = 0) -> dict:
    """A scenario with ``bidders`` honest bids, each followed by a spam burst.

    With spam, one record from the middle of the disclosed bid array is erased
    after the run, so the citizen verdict must be FAIL with ERASURE and R5.
    """
    rng = Random(seed)
    entries = _bidder_entries(rng, "B", bidders, BLOCK_STEP_MS)
    adversarial = [
        {"action": "SPAM_INVALID_CERTS", "count": spam_per_bid,
         "at_ms": entry["submit_at_ms"] + BLOCK_STEP_MS // 2}
        for entry in entries
    ] if spam_per_bid else []
    expected = {"winner_id": _expected_winner(entries), "winner_match": True}
    if spam_per_bid:
        records = bidders * (1 + spam_per_bid)
        adversarial.append({"action": "ERASE_BID", "index": records // 2})
        expected.update({"violation_tags_include": ["ERASURE", "R5"], "audit_pass": False})
    else:
        expected.update({"violations_empty": True, "audit_pass": True})
    return {
        "name": name,
        "seed": seed,
        "scheme": scheme,
        "tender": {"title": f"{name} tender", "terms": TERMS,
                   "length_ms": (bidders + 1) * BLOCK_STEP_MS, "limit": 2,
                   "criteria": CRITERIA},
        "bidders": entries,
        "adversarial": adversarial,
        "expected": expected,
    }


# --- checks shared by the workloads -----------------------------------------------------

def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gas_failures(export: dict) -> list[str]:
    """Every receipt's gas against the calibrated closed form, per tender."""
    failures = []
    recorded: dict[str, int] = {}
    for block in export["blocks"]:
        for tx in block["transactions"]:
            kind, gas = tx["kind"], tx["gas_used"]
            if tx["status"] != "OK":
                failures.append(f"tx {tx['tx_hash']} was rejected ({tx['error']})")
                continue
            if kind in DEPLOY_GAS:
                expected = DEPLOY_GAS[kind]
            elif kind in BID_BASE_GAS:
                prior = recorded.get(tx["target"], 0)
                recorded[tx["target"]] = prior + 1
                expected = BID_BASE_GAS[kind] + PER_PRIOR_BID_GAS * prior
            elif kind == "bid_stateless":
                expected = STATELESS_BID_GAS
            else:
                continue
            if gas != expected:
                failures.append(f"{kind} tx {tx['tx_hash']} used {gas} gas, "
                                f"closed form gives {expected}")
    return failures


def chain_counts(export: dict) -> tuple[int, int, int]:
    """(place_bid transactions, all transactions, blocks) on an exported chain."""
    txs = [tx for block in export["blocks"] for tx in block["transactions"]]
    bids = sum(1 for tx in txs if tx["kind"] and tx["kind"].startswith("bid_"))
    return bids, len(txs), len(export["blocks"])


def citizen_audit(chain_path: Path, report_path: Path,
                  probe: bool = False) -> tuple[Timing, int, list[dict]]:
    """Time ``tendersim audit <chain.json> --out <report>`` in this process."""
    from tendersim import cli

    argv = ["audit", str(chain_path), "--out", str(report_path)]
    with contextlib.redirect_stdout(io.StringIO()), timed(probe) as timing:
        code = cli.main(argv)
    reports = json.loads(report_path.read_text(encoding="utf-8"))
    return timing, code, reports


def report_failures(reports: list[dict], winners: dict[str, str],
                     want_tags: set[str]) -> list[str]:
    failures = []
    if len(reports) != len(winners):
        failures.append(f"citizen audited {len(reports)} tenders, expected {len(winners)}")
    for report in reports:
        tags = {v["tag"] for v in report["violations"]}
        addr = report["tender_address"]
        if want_tags and not want_tags <= tags:
            failures.append(f"{addr}: violations {sorted(tags)} lack {sorted(want_tags)}")
        if not want_tags and tags:
            failures.append(f"{addr}: unexpected violations {sorted(tags)}")
        if not report["winner_match"]:
            failures.append(f"{addr}: published and recomputed winners differ")
        if report["recomputed_winner"] != winners.get(addr):
            failures.append(f"{addr}: recomputed winner {report['recomputed_winner']!r}, "
                            f"expected {winners.get(addr)!r}")
    return failures


# --- run workloads: run_scenario, then the citizen audit of its chain.json -------------------

def _run_iteration(name: str, scheme: str, seed: int, size: dict, work_dir: Path,
                   tracer=None, probe=False) -> Sample:
    from tendersim import scenario

    doc = scenario_doc(name, scheme, seed, size["bidders"], size.get("spam_per_bid", 0))
    spam = bool(size.get("spam_per_bid"))
    with _tracing(tracer), timed(probe) as run:
        outcome = scenario.run_scenario(doc, out_dir=work_dir)
    chain_path = work_dir / "chain.json"
    with _tracing(tracer):
        audit, code, reports = citizen_audit(chain_path, work_dir / "citizen.json", probe)

    failures = [f"expected block: {f}" for f in outcome.expected_failures]
    if outcome.exit_code != 0 and not failures:
        failures.append(f"run_scenario exit code {outcome.exit_code}")
    if code != (1 if spam else 0):
        failures.append(f"tendersim audit exited {code}")
    winners = {reports[0]["tender_address"]: doc["expected"]["winner_id"]} if reports else {}
    failures += report_failures(reports, winners, {"ERASURE", "R5"} if spam else set())
    failures += gas_failures(outcome.export)
    bids, txs, blocks = chain_counts(outcome.export)
    want_bids = size["bidders"] * (1 + size.get("spam_per_bid", 0))
    if bids != want_bids:
        failures.append(f"{bids} bids on the chain, expected {want_bids}")
    return Sample(run=run, audit=audit, export_bytes=chain_path.stat().st_size,
                  chain_sha256=_sha256_file(chain_path),
                  audit_sha256=_sha256_file(work_dir / "audit.json"),
                  bids=bids, transactions=txs, blocks=blocks, tenders=1,
                  failures=failures)


def stateless_honest(seed: int, size: dict, work_dir: Path, tracer=None,
                     probe=False) -> Sample:
    return _run_iteration("stateless_honest", "STATELESS", seed, size, work_dir,
                          tracer, probe)


def full_track_spam(seed: int, size: dict, work_dir: Path, tracer=None,
                    probe=False) -> Sample:
    return _run_iteration("full_track_spam", "FULL_TRACK", seed, size, work_dir,
                          tracer, probe)


# --- multi_tender_audit: several interleaved tenders on one chain, audited by a citizen ----

def build_multi_tender_chain(seed: int, tenders_per_scheme: int,
                             bidders: int) -> tuple[dict, dict[str, str]]:
    """Drive the orchestrator API to run interleaved tenders on one chain.

    Returns the chain export and the expected winner per tender address.
    """
    from tendersim.chain import Chain, ChainConfig
    from tendersim.encoding import to_hex
    from tendersim.orchestrator import (BidDocument, EvaluationCriteria,
                                        TenderOrchestrator, TenderSpec)

    rng = Random(seed)
    config = ChainConfig()
    chain = Chain(config)
    criteria = EvaluationCriteria.from_dict(CRITERIA)
    schemes = ("FULL_TRACK", "PROTECTED", "STATELESS") * tenders_per_scheme
    n = len(schemes)
    ts = config.genesis_timestamp
    # each tender stays open until every interleaved bid has landed
    length_ms = (bidders * n + n + 1) * BLOCK_STEP_MS

    tenders = []
    for t, scheme in enumerate(schemes):
        orch = TenderOrchestrator(chain, Random(rng.getrandbits(64)))
        ts += BLOCK_STEP_MS
        spec = TenderSpec(title=f"tender {t}", terms=TERMS.encode(), criteria=criteria,
                          length_ms=length_ms, limit=2, scheme=scheme)
        rft, _ = orch.open_tender(spec, at=ts)
        entries = _bidder_entries(rng, f"T{t}B", bidders)
        for entry in entries:
            orch.register_bidder(entry["id"])
        tenders.append((orch, rft, entries, []))

    for i in range(bidders):
        for orch, _, entries, subs in tenders:
            entry = entries[i]
            ts += BLOCK_STEP_MS
            document = BidDocument(bidder_id=entry["id"],
                                   fields={k: float(v) for k, v in entry["fields"].items()},
                                   free_text=entry["free_text"].encode())
            subs.append(orch.submit_sealed_bid(entry["id"], document, at=ts))

    ts = max(ts, max(chain.get_contract(rft).bidding_end for _, rft, _, _ in tenders))
    winners = {}
    for orch, rft, entries, subs in tenders:
        for entry, sub in zip(entries, subs):
            orch.deliver_key_half(entry["id"], sub)
        ts += BLOCK_STEP_MS
        chain.advance_to(ts)
        orch.publish_results(orch.close_and_evaluate(), at=ts)
        winners[to_hex(rft)] = _expected_winner(entries)
    return chain.export(), winners


def multi_tender_audit(seed: int, size: dict, work_dir: Path, tracer=None,
                       probe=False) -> Sample:
    """run_s: orchestrator build and export write (untraced); audit_s: the citizen audit."""
    from tendersim.encoding import canonical_json

    tenders = size["tenders_per_scheme"] * 3
    chain_path = work_dir / "chain.json"
    with timed(probe) as run:
        export, winners = build_multi_tender_chain(seed, size["tenders_per_scheme"],
                                                   size["bidders"])
        chain_path.write_text(canonical_json(export) + "\n", encoding="utf-8")

    report_path = work_dir / "audit.json"
    with _tracing(tracer):
        audit, code, reports = citizen_audit(chain_path, report_path, probe)

    failures = []
    if code != 0:
        failures.append(f"tendersim audit exited {code}")
    failures += report_failures(reports, winners, set())
    failures += gas_failures(export)
    bids, txs, blocks = chain_counts(export)
    if bids != tenders * size["bidders"]:
        failures.append(f"{bids} bids on the chain, expected {tenders * size['bidders']}")
    return Sample(run=run, audit=audit, export_bytes=chain_path.stat().st_size,
                  chain_sha256=_sha256_file(chain_path),
                  audit_sha256=_sha256_file(report_path),
                  bids=bids, transactions=txs, blocks=blocks, tenders=tenders,
                  failures=failures)


def _tracing(tracer):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    "stateless_honest": stateless_honest,
    "full_track_spam": full_track_spam,
    "multi_tender_audit": multi_tender_audit,
}
