import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim.chain import (
    Chain,
    ChainConfig,
    GasSchedule,
    compute_block_hash,
    compute_tx_hash,
    meter_gas,
)
from tendersim.encoding import canonical_json_bytes
from tendersim.errors import (
    NoSuchContract,
    TimestampNotMonotonic,
    TimestampTooFarAhead,
    UnknownSender,
    UnmeteredOperation,
)

import ledger_ops
from conftest import account, make_tender
from reference_data import (
    DEPLOY_GAS,
    FULL_TRACK_BID_SERIES,
    MODEL_TOLERANCE,
    PER_PRIOR_BID_COPY,
    PROTECTED_BID_SERIES,
    STATELESS_BID_GAS,
)


def _noop_payload():
    return canonical_json_bytes({"op": "deploy_data", "data": "0x00"})


def test_genesis_block(chain):
    genesis = chain.blocks[0]
    assert genesis.height == 0
    assert genesis.parent_hash == b"\x00" * 32
    assert genesis.timestamp == chain.config.genesis_timestamp
    assert genesis.block_hash == compute_block_hash(0, b"\x00" * 32, genesis.timestamp, [])


def test_submit_requires_registered_sender(chain):
    with pytest.raises(UnknownSender):
        chain.submit_transaction(account("nobody"), None, _noop_payload())


def test_two_submissions_share_a_block_in_order(chain):
    sender = chain.register_account(account("a"))
    id1 = chain.submit_transaction(sender, None, _noop_payload())
    id2 = chain.submit_transaction(sender, None, _noop_payload())
    block = chain.mine_block(chain.now() + 1000)
    assert [t.tx_hash for t in block.transactions] == \
        [bytes.fromhex(id1[2:]), bytes.fromhex(id2[2:])]


def test_payload_nested_past_the_decoder_is_rejected_in_its_block(chain):
    sender = chain.register_account(account("a"))
    chain.submit_transaction(sender, None, _noop_payload())
    chain.submit_transaction(sender, None, b"[" * 100_000)
    block = chain.mine_block(chain.now() + 1000)
    assert [t.status for t in block.transactions] == ["OK", "REJECTED"]
    assert block.transactions[1].error == "MALFORMED_PAYLOAD"
    assert block.transactions[1].gas_used == 2 * 8 * 100_000


def test_mine_rejects_non_monotonic_timestamp(chain):
    chain.advance_by(1000)
    chain.mine_block(chain.now())
    parent_ts = chain.head().timestamp
    with pytest.raises(TimestampNotMonotonic):
        chain.mine_block(parent_ts)  # equality is already too old
    with pytest.raises(TimestampNotMonotonic):
        chain.mine_block(parent_ts - 1)


def test_mine_rejects_far_future_timestamp(chain):
    limit = chain.now() + chain.config.max_future_drift_ms
    with pytest.raises(TimestampTooFarAhead):
        chain.mine_block(limit + 1)
    block = chain.mine_block(limit)  # boundary itself is allowed
    assert block.timestamp == limit


def test_chain_grows_with_strictly_increasing_timestamps(chain):
    for step in (10, 20, 5000, 5001):
        chain.advance_by(step)
        chain.mine_block(chain.now())
    stamps = [b.timestamp for b in chain.blocks]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-2000, max_value=2000), min_size=1, max_size=30))
def test_timestamp_rules_under_random_schedules(offsets):
    chain = Chain(ChainConfig(max_future_drift_ms=1000))
    for offset in offsets:
        proposed = chain.now() + offset
        parent_ts = chain.head().timestamp
        if proposed <= parent_ts:
            with pytest.raises(TimestampNotMonotonic):
                chain.mine_block(proposed)
        elif proposed > chain.now() + 1000:
            with pytest.raises(TimestampTooFarAhead):
                chain.mine_block(proposed)
        else:
            chain.mine_block(proposed)
            chain.advance_to(proposed)
    stamps = [b.timestamp for b in chain.blocks]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_hash_chain_links_and_tamper_evidence(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    ledger_ops.deploy_tender_data(chain, sender, b"payload")
    blocks = chain.blocks
    for parent, child in zip(blocks, blocks[1:]):
        assert child.parent_hash == parent.block_hash
        assert child.height == parent.height + 1
    # recomputing with a mutated payload must change this and every later block hash
    victim = blocks[1].transactions[0]
    mutated_tx_hash = compute_tx_hash(victim.sender, victim.target, victim.nonce,
                                      victim.payload + b"x", victim.gas_price)
    assert mutated_tx_hash != victim.tx_hash
    mutated_block = compute_block_hash(blocks[1].height, blocks[1].parent_hash,
                                       blocks[1].timestamp,
                                       [mutated_tx_hash] +
                                       [t.tx_hash for t in blocks[1].transactions[1:]])
    assert mutated_block != blocks[1].block_hash
    descendant = compute_block_hash(blocks[2].height, mutated_block,
                                    blocks[2].timestamp,
                                    [t.tx_hash for t in blocks[2].transactions])
    assert descendant != blocks[2].block_hash


# --- gas model -----------------------------------------------------------------


def test_deploy_gas_constants():
    schedule = GasSchedule()
    assert meter_gas(schedule, "deploy_rft_full") == DEPLOY_GAS["FULL_TRACK"]
    assert meter_gas(schedule, "deploy_rft_protected") == DEPLOY_GAS["PROTECTED"]
    assert meter_gas(schedule, "deploy_rft_stateless") == DEPLOY_GAS["STATELESS"]


def test_bid_gas_examples():
    schedule = GasSchedule()
    assert meter_gas(schedule, "bid_full", prior_recorded_bids=0) == 299_501
    assert meter_gas(schedule, "bid_full", prior_recorded_bids=1) == 320_282
    for prior in (0, 3, 99):
        assert meter_gas(schedule, "bid_stateless",
                         prior_recorded_bids=prior) == STATELESS_BID_GAS


def test_unknown_kind_is_unmetered():
    with pytest.raises(UnmeteredOperation):
        meter_gas(GasSchedule(), "teleport")


def test_gas_schedule_fields_strictly_positive():
    with pytest.raises(ValueError):
        GasSchedule(per_prior_bid_copy=0)


def test_linear_model_tracks_reference_series():
    schedule = GasSchedule()
    for i, measured in enumerate(FULL_TRACK_BID_SERIES):
        predicted = meter_gas(schedule, "bid_full", prior_recorded_bids=i)
        assert abs(predicted - measured) / measured < MODEL_TOLERANCE
    for i, measured in enumerate(PROTECTED_BID_SERIES):
        predicted = meter_gas(schedule, "bid_protected", prior_recorded_bids=i)
        assert abs(predicted - measured) / measured < MODEL_TOLERANCE


def test_full_track_first_difference_is_exactly_the_copy_cost():
    schedule = GasSchedule()
    series = [meter_gas(schedule, "bid_full", prior_recorded_bids=i) for i in range(10)]
    diffs = {b - a for a, b in zip(series, series[1:])}
    assert diffs == {PER_PRIOR_BID_COPY}


# --- state reads ------------------------------------------------------------------


def test_read_state_costs_no_gas(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    before = chain.total_gas()
    snapshot = chain.read_state(rft)
    assert chain.total_gas() == before
    assert snapshot["kind"] == "request_for_tender"
    assert len(chain.blocks) == 2  # reading created no block


def test_read_state_unknown_address(chain):
    with pytest.raises(NoSuchContract):
        chain.read_state(account("ghost"))


def test_gas_determinism_on_identical_runs(to_keys):
    def run():
        from tendersim import crypto

        chain = Chain(ChainConfig())
        rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
        data = ledger_ops.deploy_tender_data(chain, sender, b"doc-bytes")
        cert = crypto.issue_certificate(to_keys.private_key, "B1", rft)
        for _ in range(3):
            ledger_ops.place_bid_full(chain, rft, sender, "B1", data, cert.msg_hash,
                                      cert.v, cert.r, cert.s, b"half")
        return [t.gas_used for b in chain.blocks for t in b.transactions]

    assert run() == run()
