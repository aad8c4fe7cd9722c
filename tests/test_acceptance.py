"""Acceptance gate: one test per criterion, tolerances pinned here.

Each test prints its own pass line (undisturbed by capture) after its
assertions hold, so a plain pytest run shows a one-line verdict per
criterion.
"""

import json
import time
from random import Random

import pytest

from tendersim import audit, contracts, crypto
from tendersim.chain import Chain, ChainConfig
from tendersim.encoding import canonical_json_bytes, from_text, to_hex
from tendersim.errors import (
    AuthFailed,
    TimestampNotMonotonic,
    TimestampTooFarAhead,
)
from tendersim.orchestrator import (
    BidDocument,
    EvaluationCriteria,
    TenderOrchestrator,
    TenderSpec,
)
from tendersim.scenario import run_scenario

import chain_surgery
import ledger_ops
from conftest import HALF_A, SCENARIO_DIR, account, make_tender, price_criteria
from reference_data import (
    DEPLOY_GAS,
    FULL_TRACK_BID_SERIES,
    PER_PRIOR_BID_COPY,
    PROTECTED_BID_SERIES,
    SERIES_TOLERANCE,
    STATELESS_BID_GAS,
)
from winner_oracle import brute_force_winner


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def _strip_adversarial(name):
    doc = json.loads((SCENARIO_DIR / name).read_text())
    doc.pop("adversarial", None)
    doc.pop("expected", None)
    doc["name"] += "_control"
    return doc


# --- 1. gas calibration: deployment ----------------------------------------------------


def test_criterion_1_deployment_gas(announce):
    started = time.perf_counter()
    for scheme, expected in DEPLOY_GAS.items():
        chain = Chain(ChainConfig())
        keys = crypto.generate_keypair(Random(1))
        make_tender(chain, keys, scheme)
        assert chain.blocks[-1].transactions[0].gas_used == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 1 PASS: deployment gas exactly "
             f"{DEPLOY_GAS['FULL_TRACK']}/{DEPLOY_GAS['PROTECTED']}/"
             f"{DEPLOY_GAS['STATELESS']} ({elapsed:.2f}s < 1s)")


# --- 2. gas calibration: bids ----------------------------------------------------------


def test_criterion_2_bid_gas_series(announce):
    started = time.perf_counter()
    runs = {
        "full_track_10_bids.json": FULL_TRACK_BID_SERIES,
        "protected_10_bids.json": PROTECTED_BID_SERIES,
        "stateless_10_bids.json": [STATELESS_BID_GAS] * 10,
    }
    for name, reference in runs.items():
        outcome = run_scenario(SCENARIO_DIR / name)
        series = outcome.bid_gas
        assert len(series) == 10
        if name.startswith("stateless"):
            assert series == [STATELESS_BID_GAS] * 10
            continue
        assert series[0] == reference[0]  # first point exact
        for simulated, measured in zip(series, reference):
            assert abs(simulated - measured) / measured < SERIES_TOLERANCE
        assert all(b - a == PER_PRIOR_BID_COPY for a, b in zip(series, series[1:]))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(f"ACCEPTANCE 2 PASS: bid gas series match the measured references "
             f"within 0.1% (first points exact; {elapsed:.2f}s < 5s)")


# --- 3. R1: post-deployment immutability ------------------------------------------------


def test_criterion_3_immutability_1000_attempts(announce):
    rng = Random(303)
    chain = Chain(ChainConfig())
    keys = crypto.generate_keypair(rng)
    rft, sender = make_tender(chain, keys, "FULL_TRACK")
    data_addr = ledger_ops.deploy_tender_data(chain, sender, b"the tender text")
    state_before = chain.export()["contracts"]

    fields = ["bidding_end", "limit", "pubk", "scheme", "data", "owner",
              "bid_count", "bids_placed", "results", "deployer"]
    rejected = 0
    for i in range(1000):
        target = rft if rng.random() < 0.5 else data_addr
        value = rng.choice([rng.randrange(10**9), "0x" + rng.randbytes(8).hex(),
                            rng.random(), None])
        call = {"op": "set_field", "field": rng.choice(fields), "value": value}
        chain.submit_transaction(sender, target, canonical_json_bytes(call))
        if (i + 1) % 50 == 0:
            chain.advance_to(chain.now() + chain.config.block_interval_ms)
            block = chain.mine_block(chain.now())
            rejected += sum(1 for t in block.transactions
                            if t.status == "REJECTED" and t.error == "IMMUTABLE_STATE")
    assert rejected == 1000
    assert chain.export()["contracts"] == state_before
    announce("ACCEPTANCE 3 PASS: 1000/1000 mutation attempts rejected, "
             "disclosed contract state unchanged")


# --- 4. R2: sealed until the key half arrives --------------------------------------------


def test_criterion_4_pre_deadline_secrecy_and_early_reveal(announce):
    for scheme in contracts.SCHEMES:
        chain = Chain(ChainConfig())
        orch = TenderOrchestrator(chain, Random(404))
        spec = TenderSpec(title="t", terms=b"x", criteria=price_criteria(),
                          length_ms=600_000, limit=2, scheme=scheme)
        rft, _ = orch.open_tender(spec)
        subs = {}
        for bidder_id, price in (("B1", 10.0), ("B2", 9.0), ("B3", 11.0)):
            orch.register_bidder(bidder_id)
            subs[bidder_id] = orch.submit_sealed_bid(bidder_id,
                                                     BidDocument(bidder_id,
                                                                 {"price": price}))
        probe = orch.pre_deadline_decryption_probe()
        assert list(probe.values()) == [False, False, False]  # sealed before delivery
        chain.advance_to(chain.get_contract(rft).bidding_end + 1)
        for bidder_id, sub in subs.items():
            orch.deliver_key_half(bidder_id, sub)
        result = orch.close_and_evaluate()
        statuses = {entry["status"] for entry in result.bids.values()}
        assert statuses == {"SCORED"}  # decryption succeeds after delivery

    outcome = run_scenario(SCENARIO_DIR / "early_key_reveal.json")
    assert outcome.report.requirements["R2"]["verdict"] == "PARTIAL"
    assert "before the deadline" in outcome.report.requirements["R2"]["evidence"]
    announce("ACCEPTANCE 4 PASS: every bid sealed until its key half arrives; "
             "early on-ledger revelation audited as R2=PARTIAL")


# --- 5. R3: tamper detection -----------------------------------------------------------


def test_criterion_5_tamper_detection_1000_trials(announce):
    from conftest import run_honest_tender, two_bid_docs

    chain, rft, orch, subs = run_honest_tender("FULL_TRACK", two_bid_docs(), seed=505)
    export = chain.export()
    rft_hex = to_hex(rft)
    published = chain_surgery.published_results(export, rft_hex)["bids"]
    rng = Random(505)
    record_addrs = export["contracts"][rft_hex]["bids_placed"]
    # each record with the call arguments it links to written whole
    whole = {a: chain_surgery.bid_record(export, a) for a in record_addrs}
    data_addrs = [whole[a]["data_addr"] for a in record_addrs]

    misses = 0
    trials = 0

    # a) single-bit ciphertext tampers, detected by authenticated decryption
    for _ in range(400):
        trials += 1
        victim = rng.choice(record_addrs)
        data_hex = whole[victim]["data_addr"]
        raw = bytearray(chain_surgery.contract_data(export, data_hex))
        bit = rng.randrange(len(raw) * 8)
        raw[bit // 8] ^= 1 << (bit % 8)
        key = bytes.fromhex(published[victim]["bid_key"][2:])
        try:
            crypto.decrypt_bid(bytes(raw), key)
            misses += 1
        except AuthFailed:
            pass

    # b) single-bit transaction payload tampers, detected by the hash chain
    import copy as _copy

    for _ in range(300):
        trials += 1
        tampered = _copy.deepcopy(export)
        height = rng.randrange(1, len(tampered["blocks"]))
        txs = tampered["blocks"][height]["transactions"]
        tx = txs[rng.randrange(len(txs))]
        payload_bits = len(from_text(tx["payload"])) * 8
        chain_surgery.flip_payload_bit(tampered, height, txs.index(tx),
                                       rng.randrange(payload_bits))
        if not audit.verify_ledger_hashes(audit.read_ledger(tampered)):
            misses += 1

    # c) bid record field tampers, detected by full replay; a call argument the
    # record links to can only be edited with the record written whole
    def edit_whole(snap, record, key, value):
        snap.clear()
        snap.update(record, **{key: value})

    field_mutators = [
        lambda snap, record: snap.__setitem__("validity", not snap["validity"]),
        lambda snap, record: edit_whole(snap, record, "id", record["id"] + "X"),
        lambda snap, record: edit_whole(snap, record, "data_addr", "0x" + "11" * 20),
        lambda snap, record: edit_whole(snap, record, "sealed_half_a",
                                        "0x" + "22" * 8 + record["sealed_half_a"][18:]),
        lambda snap, record: snap.__setitem__("bidding_end_copy",
                                              snap["bidding_end_copy"] + 1),
        lambda snap, record: snap["prior_bids"]["then"].append("0x" + "33" * 20),
    ]
    for i in range(250):
        trials += 1
        tampered = _copy.deepcopy(export)
        victim = rng.choice(record_addrs)
        rng.choice(field_mutators)(tampered["contracts"][victim], whole[victim])
        report = audit.replay_and_audit(tampered, rft_hex)
        if not report.violations:
            misses += 1

    # d) ciphertext tampers detected end-to-end by the auditor
    for _ in range(60):
        trials += 1
        tampered = _copy.deepcopy(export)
        data_hex = rng.choice(data_addrs)
        raw_len = len(chain_surgery.contract_data(tampered, data_hex))
        chain_surgery.flip_contract_data_bit(tampered, data_hex,
                                             rng.randrange(raw_len * 8))
        report = audit.replay_and_audit(tampered, rft_hex)
        if not any(v.tag in ("UNDECRYPTABLE_BID", "R3") for v in report.violations):
            misses += 1

    # e) a mined transaction's nonce reused by a copy sent to the tender, re-mined
    mined = [(block["height"], j) for block in export["blocks"]
             for j in range(len(block["transactions"]))]
    for _ in range(30):
        trials += 1
        tampered = _copy.deepcopy(export)
        chain_surgery.reuse_nonce(tampered, *rng.choice(mined), rft_hex)
        report = audit.replay_and_audit(tampered, rft_hex)
        if not any(v.tag == "R6" for v in report.violations):
            misses += 1

    assert trials >= 1000
    assert misses == 0
    announce(f"ACCEPTANCE 5 PASS: {trials} randomized tampers of ciphertexts, "
             f"payloads, bid records and nonces all detected (0 misses)")


# --- 6. R4/R5: spam differentiation ------------------------------------------------------


def test_criterion_6_spam_cost_differentiation(announce):
    last_bid_gas = {}
    for name in ("spam_full_track.json", "spam_protected.json", "spam_stateless.json"):
        spam = run_scenario(SCENARIO_DIR / name)
        control = run_scenario(_strip_adversarial(name))
        scheme = spam.report.scheme
        # the final legitimate bid is B2's, the last OK bid transaction
        last_bid_gas[scheme] = (spam.bid_gas[-1], control.bid_gas[-1])
        if scheme == "FULL_TRACK":
            assert spam.bid_gas[-1] - control.bid_gas[-1] == 50 * PER_PRIOR_BID_COPY
            assert spam.report.requirements["R5"]["verdict"] == "PARTIAL"
        else:
            assert spam.bid_gas[-1] == control.bid_gas[-1]
        if scheme == "STATELESS":
            assert spam.report.requirements["R5"]["verdict"] == "PASS"
        if scheme == "PROTECTED":
            assert spam.report.requirements["R5"]["verdict"] == "PARTIAL"
    announce(f"ACCEPTANCE 6 PASS: 50 spam bids raise the next legitimate bid by "
             f"exactly {50 * PER_PRIOR_BID_COPY} gas on FULL_TRACK and by 0 on "
             f"PROTECTED/STATELESS")


# --- 7. R6: timestamp discipline ----------------------------------------------------------


def test_criterion_7_timestamp_rules_randomized(announce):
    rng = Random(707)
    rejected_backdated = rejected_future = accepted = 0
    drift = ChainConfig().max_future_drift_ms
    for _ in range(200):
        chain = Chain(ChainConfig())
        for _ in range(rng.randrange(1, 25)):
            # around 0 a proposal is back-dated or accepted, around the drift accepted
            # or too far ahead
            offset = rng.choice((0, drift)) + rng.randrange(-3000, 3000)
            proposed = chain.now() + offset
            parent_ts = chain.head().timestamp
            if proposed <= parent_ts:
                with pytest.raises(TimestampNotMonotonic):
                    chain.mine_block(proposed)
                rejected_backdated += 1
            elif proposed > chain.now() + drift:
                with pytest.raises(TimestampTooFarAhead):
                    chain.mine_block(proposed)
                rejected_future += 1
            else:
                chain.mine_block(proposed)
                chain.advance_to(proposed)
                accepted += 1
        stamps = [b.timestamp for b in chain.blocks]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
    assert rejected_backdated and rejected_future and accepted
    announce(f"ACCEPTANCE 7 PASS: {rejected_backdated} back-dated and "
             f"{rejected_future} far-future proposals rejected; all {accepted} "
             f"accepted blocks strictly increasing")


# --- 8. auditor vs brute force ------------------------------------------------------------


def _random_tender(rng, scheme, n_bidders):
    field_pool = ["price", "delivery_days", "quality"]
    n_fields = rng.randrange(1, 4)
    names = field_pool[:n_fields]
    numeric = tuple((name, round(rng.uniform(0.1, 5.0), 3),
                     rng.choice(("MINIMIZE", "MAXIMIZE"))) for name in names)
    predicates = ()
    if rng.random() < 0.4:
        predicates = (("delivery_days", "<=", float(rng.randrange(40, 90))),)
        if "delivery_days" not in names:
            names = names + ["delivery_days"]
    criteria = EvaluationCriteria(numeric_fields=numeric,
                                  feasibility_predicates=predicates)
    chain = Chain(ChainConfig())
    orch = TenderOrchestrator(chain, rng)
    spec = TenderSpec(title="t", terms=b"x", criteria=criteria,
                      length_ms=3_600_000, limit=2, scheme=scheme)
    rft, _ = orch.open_tender(spec)
    subs = {}
    for i in range(n_bidders):
        bidder_id = f"B{i:02d}"
        orch.register_bidder(bidder_id)
        fields = {name: float(rng.randrange(1, 120)) for name in names}
        subs[bidder_id] = orch.submit_sealed_bid(bidder_id,
                                                 BidDocument(bidder_id, fields))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    for bidder_id, sub in subs.items():
        orch.deliver_key_half(bidder_id, sub)
    return chain, rft, orch, subs, criteria


def test_criterion_8_auditor_matches_brute_force(announce):
    rng = Random(808)
    schemes = list(contracts.SCHEMES)
    for trial in range(100):
        scheme = schemes[trial % 3]
        chain, rft, orch, subs, criteria = _random_tender(rng, scheme,
                                                          rng.randrange(2, 21))
        result = orch.close_and_evaluate()
        orch.publish_results(result)
        report = audit.replay_and_audit(chain.export(), rft)
        documents = {to_hex(s.record_address): {"fields": s.document.fields}
                     for s in subs.values()}
        oracle_addr = brute_force_winner(documents, criteria.to_dict())
        published_addr = to_hex(result.winner_bid_address) \
            if result.winner_bid_address else None
        recomputed = report.to_dict()["recomputed_winner"]
        assert report.winner_match
        assert published_addr == oracle_addr
        assert report.violations == []
        assert recomputed == report.published_winner

    rig_detected = 0
    for trial in range(50):
        chain, rft, orch, subs, criteria = _random_tender(rng, "FULL_TRACK",
                                                          rng.randrange(2, 8))
        result = orch.close_and_evaluate()
        losers = [s for s in subs.values()
                  if s.record_address != result.winner_bid_address]
        victim = rng.choice(losers) if losers else list(subs.values())[0]
        if losers:
            result.winner_id = victim.document.bidder_id
            result.winner_bid_address = victim.record_address
            orch.publish_results(result)
            report = audit.replay_and_audit(chain.export(), rft)
            if not report.winner_match and \
                    any(v.tag == "WINNER_MISMATCH" for v in report.violations):
                rig_detected += 1
        else:
            rig_detected += 1  # no loser to rig with; trivially detected

    erase_detected = 0
    for trial in range(50):
        chain, rft, orch, subs, criteria = _random_tender(rng, "PROTECTED",
                                                          rng.randrange(2, 8))
        result = orch.close_and_evaluate()
        orch.publish_results(result)
        export = chain.export()
        array = export["contracts"][to_hex(rft)]["bids_placed"]
        array.pop(rng.randrange(len(array)))
        report = audit.replay_and_audit(export, rft)
        if any(v.tag == "ERASURE" for v in report.violations):
            erase_detected += 1

    assert rig_detected == 50
    assert erase_detected == 50
    announce("ACCEPTANCE 8 PASS: 100 honest runs matched the brute-force winner "
             "with zero violations; 50/50 rigged and 50/50 erased runs detected")


# --- 9. retrieval is linear -----------------------------------------------------------------


def _chain_with_bids(n):
    chain = Chain(ChainConfig())
    keys = crypto.generate_keypair(Random(909))
    sender = account("TO")
    chain.register_account(sender)
    rft = ledger_ops.init_tender(chain, sender, 10_000_000, keys.public_key,
                                 n, "FULL_TRACK")
    cert = crypto.issue_certificate(keys.private_key, "B1", rft)
    call = contracts.call("place_bid", id="B1", data_addr=account("data"), v=cert.v, r=cert.r,
                          s=cert.s, sealed_half_a=HALF_A)
    payload = canonical_json_bytes(call)
    placed = 0
    while placed < n:
        batch = min(50, n - placed)
        for _ in range(batch):
            chain.submit_transaction(sender, rft, payload)
        chain.advance_to(chain.now() + chain.config.block_interval_ms)
        chain.mine_block(chain.now())
        placed += batch
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    return chain, rft


def test_criterion_9_collect_scales_linearly(announce):
    started = time.perf_counter()
    timings = _interleaved_collect_timings((10, 100, 1000))
    elapsed = time.perf_counter() - started
    ratio_1 = timings[100] / timings[10]
    ratio_2 = timings[1000] / timings[100]
    assert ratio_1 < 15.0
    assert ratio_2 < 15.0
    assert elapsed < 30.0
    announce(f"ACCEPTANCE 9 PASS: collect over 10/100/1000 bids scales "
             f"x{ratio_1:.1f} and x{ratio_2:.1f} per decade (<15; "
             f"{elapsed:.1f}s < 30s)")


def _interleaved_collect_timings(sizes):
    # each timed batch amortizes ~20ms of work so timer resolution and stray
    # preemptions cannot distort the small-n baseline; sizes are sampled
    # round-robin so transient load biases every size equally, and the best
    # batch per size is kept
    import gc

    chains = {n: _chain_with_bids(n) for n in sizes}
    repeats = {}
    for n, (chain, rft) in chains.items():
        for _ in range(3):
            out = ledger_ops.collect_valid_bid_data(chain, rft)  # warmup
        assert len(out) == n
        t0 = time.perf_counter()
        ledger_ops.collect_valid_bid_data(chain, rft)
        rough = max(time.perf_counter() - t0, 1e-7)
        repeats[n] = max(3, int(0.02 / rough))
    best = dict.fromkeys(sizes)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(9):
            for n, (chain, rft) in chains.items():
                t0 = time.perf_counter()
                for _ in range(repeats[n]):
                    ledger_ops.collect_valid_bid_data(chain, rft)
                per_call = (time.perf_counter() - t0) / repeats[n]
                best[n] = per_call if best[n] is None else min(best[n], per_call)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


# --- 10. determinism ---------------------------------------------------------------------


def test_criterion_10_bundled_scenarios_are_deterministic(tmp_path, announce):
    names = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
    for name in names:
        first = run_scenario(SCENARIO_DIR / name, out_dir=tmp_path / "a" / name)
        second = run_scenario(SCENARIO_DIR / name, out_dir=tmp_path / "b" / name)
        for report in ("gas.csv", "audit.json", "summary.txt", "chain.json"):
            assert (tmp_path / "a" / name / report).read_bytes() == \
                (tmp_path / "b" / name / report).read_bytes(), (name, report)
    announce(f"ACCEPTANCE 10 PASS: {len(names)} bundled scenarios produce "
             f"byte-identical chain exports and reports on repeat runs")
