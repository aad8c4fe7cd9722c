import copy
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts, crypto

from tendersim.chain import (
    Chain,
    ChainConfig,
    compute_block_hash,
    compute_tx_hash,
)
from tendersim.encoding import canonical_json_bytes, from_hex, to_hex
from tendersim.errors import (
    NoSuchContract,
    TimestampNotMonotonic,
    TimestampTooFarAhead,
    UnknownSender,
)

import ledger_ops
from conftest import (HALF_A, account, expand_prior_bids, make_tender, run_honest_tender,
                      two_bid_docs)
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


@pytest.mark.parametrize("payload, error", [
    (b'{"op":"publish_results","result":{"winner_id":"\\ud800"}}', "MALFORMED_PAYLOAD"),
    (b'{"op":"bogus","x":"\\ud800"}', "MALFORMED_PAYLOAD"),
    (b'{"op":"bogus","x":"\\udc00\\ud800"}', "MALFORMED_PAYLOAD"),
    # a pair of escapes spells one character, which UTF-8 holds
    (b'{"op":"bogus","x":"\\ud83d\\ude00"}', "UNKNOWN_CONTRACT_CALL"),
], ids=["publish-lone-high", "unknown-op-lone-high", "unknown-op-reversed-pair", "valid-pair"])
def test_a_call_holding_a_lone_surrogate_is_rejected_in_its_block(chain, to_keys, payload,
                                                                  error):
    # json.loads turns a lone \ud800 escape into a str that UTF-8 cannot encode again
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    chain.submit_transaction(sender, None, _noop_payload())
    chain.submit_transaction(sender, rft, payload)
    block = chain.mine_block(chain.now() + 1000)
    assert [t.status for t in block.transactions] == ["OK", "REJECTED"]
    assert block.transactions[1].error == error


def test_mine_rejects_non_monotonic_timestamp(chain):
    chain.advance_to(chain.now() + 1000)
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


@pytest.mark.parametrize("name", ["block_interval_ms", "max_future_drift_ms",
                                  "genesis_timestamp"])
def test_chain_config_takes_no_setting(name):
    # the clock is fixed as the gas figures and the data limit are
    with pytest.raises(TypeError):
        ChainConfig(**{name: getattr(ChainConfig(), name)})


def test_a_block_timestamp_is_below_2_to_the_64():
    # a block hash holds the timestamp in 8 bytes
    chain = Chain(ChainConfig())
    chain.advance_to(2**64)
    with pytest.raises(TimestampTooFarAhead):
        chain.mine_block(2**64)
    assert chain.mine_block(2**64 - 1).timestamp == 2**64 - 1


def test_chain_grows_with_strictly_increasing_timestamps(chain):
    for step in (10, 20, 5000, 5001):
        chain.advance_to(chain.now() + step)
        chain.mine_block(chain.now())
    stamps = [b.timestamp for b in chain.blocks]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


DRIFT = ChainConfig().max_future_drift_ms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, DRIFT]),
                          st.integers(min_value=-2000, max_value=2000)).map(sum),
                min_size=1, max_size=30))
def test_timestamp_rules_under_random_schedules(offsets):
    # offsets around 0 and around the fixed drift reach all three outcomes
    chain = Chain(ChainConfig())
    for offset in offsets:
        proposed = chain.now() + offset
        parent_ts = chain.head().timestamp
        if proposed <= parent_ts:
            with pytest.raises(TimestampNotMonotonic):
                chain.mine_block(proposed)
        elif proposed > chain.now() + DRIFT:
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
                                      victim.payload + b"x")
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


def _bid_gas(scheme: str, bids: int) -> list[int]:
    """The receipt gas of ``bids`` certificate-valid bids placed in turn on a new tender."""
    chain = Chain(ChainConfig())
    keys = crypto.generate_keypair(Random(5))
    rft, sender = make_tender(chain, keys, scheme)
    gas = []
    for i in range(bids):
        cert = crypto.issue_certificate(keys.private_key, f"B{i}", rft)
        call = contracts.call("place_bid", id=f"B{i}", data_addr=account("data"), v=cert.v,
                              r=cert.r, s=cert.s, sealed_half_a=HALF_A)
        gas.append(ledger_ops.run_single(chain, sender, rft, call).gas_used)
    return gas


def test_deploy_gas_constants(to_keys):
    for scheme, expected in DEPLOY_GAS.items():
        chain = Chain(ChainConfig())
        make_tender(chain, to_keys, scheme)
        assert chain.head().transactions[0].gas_used == expected


def test_bid_gas_examples(chain, to_keys):
    assert _bid_gas("FULL_TRACK", 2) == [299_501, 320_282]
    assert _bid_gas("STATELESS", 4) == [STATELESS_BID_GAS] * 4
    # a refused bid copies no bid array, so it pays the scheme's base
    rft, sender = make_tender(chain, to_keys, "PROTECTED")
    call = contracts.call("place_bid", id="B1", data_addr=account("data"), v=27, r=bytes(32),
                          s=bytes(32), sealed_half_a=HALF_A)
    with pytest.raises(ledger_ops.Rejected):
        ledger_ops.run_single(chain, sender, rft, call)
    tx = chain.head().transactions[0]
    assert (tx.kind, tx.gas_used) == ("bid_rejected_protected", PROTECTED_BID_SERIES[0])


def test_linear_model_tracks_reference_series():
    for scheme, series in (("FULL_TRACK", FULL_TRACK_BID_SERIES),
                           ("PROTECTED", PROTECTED_BID_SERIES)):
        for predicted, measured in zip(_bid_gas(scheme, len(series)), series):
            assert abs(predicted - measured) / measured < MODEL_TOLERANCE


def test_full_track_first_difference_is_exactly_the_copy_cost():
    series = _bid_gas("FULL_TRACK", 10)
    assert {b - a for a, b in zip(series, series[1:])} == {PER_PRIOR_BID_COPY}


def test_read_state_costs_no_gas(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    gas_before = [t.gas_used for b in chain.blocks for t in b.transactions]
    snapshot = chain.get_contract(rft).snapshot()
    assert [t.gas_used for b in chain.blocks for t in b.transactions] == gas_before
    assert snapshot["kind"] == "request_for_tender"
    assert len(chain.blocks) == 2  # reading created no block


def test_read_state_unknown_address(chain):
    with pytest.raises(NoSuchContract):
        chain.get_contract(account("ghost"))


def test_gas_determinism_on_identical_runs(to_keys):
    def run():
        from tendersim import crypto

        chain = Chain(ChainConfig())
        rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
        data = ledger_ops.deploy_tender_data(chain, sender, b"doc-bytes")
        cert = crypto.issue_certificate(to_keys.private_key, "B1", rft)
        for _ in range(3):
            ledger_ops.place_bid_full(chain, rft, sender, "B1", data, cert.v, cert.r,
                                      cert.s, HALF_A)
        return [t.gas_used for b in chain.blocks for t in b.transactions]

    assert run() == run()


# --- export: one str per address ------------------------------------------------------


def _spammed_full_track(records: int) -> tuple[Chain, str]:
    """A FULL_TRACK tender holding ``records`` junk bids, all mined in one block."""
    chain = Chain(ChainConfig())
    rft, _ = make_tender(chain, crypto.generate_keypair(Random(3)), "FULL_TRACK")
    spammer = chain.register_account(account("spammer"))
    rng = Random(4)
    for k in range(records):
        call = contracts.call("place_bid", id=f"SPAM-{k}", data_addr=rng.randbytes(20), v=27,
                              r=rng.randbytes(32), s=rng.randbytes(32),
                              sealed_half_a=rng.randbytes(62))
        chain.submit_transaction(spammer, rft, canonical_json_bytes(call))
    chain.mine_block(chain.head().timestamp + chain.config.block_interval_ms)
    return chain, to_hex(rft)


def test_export_links_each_record_to_the_one_before():
    chain, rft_hex = _spammed_full_track(8)
    disclosed = chain.export()["contracts"]
    array = disclosed[rft_hex]["bids_placed"]
    assert len(array) == 8
    assert disclosed[array[0]]["prior_bids"] == {"extends": None, "then": []}
    for before, record_hex in zip(array, array[1:]):
        link = disclosed[record_hex]["prior_bids"]
        assert link == {"extends": before, "then": []}


def test_export_writes_a_list_that_extends_no_record_whole():
    # any state can be written: a record whose list is not the one before it
    # plus that record is spelled out, and so is the next record's
    chain, rft_hex = _spammed_full_track(6)
    records = [chain.get_contract(a) for a in chain.get_contract(from_hex(rft_hex)).bids_placed]
    records[3].prior_bids = records[3].prior_bids[1:]
    disclosed = chain.export()["contracts"]
    for k, record in enumerate(records):
        link = disclosed[to_hex(record.address)]["prior_bids"]
        if k in (3, 4):
            assert link == {"extends": None, "then": [to_hex(a) for a in record.prior_bids]}
        else:
            assert link == {"extends": to_hex(records[k - 1].address) if k else None,
                            "then": []}
    assert all(expand_prior_bids(disclosed, to_hex(r.address)) ==
               [to_hex(a) for a in r.prior_bids] for r in records)


def test_editing_one_exported_link_leaves_the_others_unchanged():
    chain, rft_hex = _spammed_full_track(6)
    export = chain.export()
    links = [s["prior_bids"] for s in export["contracts"].values() if "prior_bids" in s]
    before = copy.deepcopy(links)
    array = export["contracts"][rft_hex]["bids_placed"]
    erased = array.pop(2)
    array.append("0x" + "00" * 20)
    links[0]["then"].append(erased)
    assert links[1:] == before[1:]
    fresh = chain.export()["contracts"]
    assert [s["prior_bids"] for s in fresh.values() if "prior_bids" in s] == before
    assert erased in fresh[rft_hex]["bids_placed"]


def test_export_holds_one_small_link_per_record():
    """A copied array costs a list slot and a string per prior bid; a link
    costs the same at any size."""
    def link_sizes(records: int) -> set[int]:
        chain, _ = _spammed_full_track(records)
        links = [s["prior_bids"] for s in chain.export()["contracts"].values()
                 if "prior_bids" in s]
        assert len(links) == records
        # the link's dict, its extends string, its then list and that list's strings
        return {sum(map(sys.getsizeof, (link, link["extends"], link["then"], *link["then"])))
                for link in links}

    sizes = link_sizes(32)
    assert sizes == link_sizes(128)
    assert max(sizes) < 400, sizes


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_export_links_data_and_results_to_the_transactions_that_carried_them(scheme):
    chain, rft, _, _ = run_honest_tender(scheme, two_bid_docs())
    export = chain.export()
    assert export["format"] == "tendersim-chain/11"
    assert list(export) == ["format", "blocks", "contracts"]  # no setting of the ledger
    created = {tx.created_address: tx for b in chain.blocks for tx in b.transactions
               if tx.created_address}
    publish = next(tx for b in chain.blocks for tx in b.transactions
                   if tx.kind == "publish_results")
    data_contracts = [a for a, c in chain._contracts.items()
                      if isinstance(c, contracts.TenderDataContract)]
    assert len(data_contracts) == 3  # the tender data and two ciphertexts
    for addr in data_contracts:
        assert export["contracts"][to_hex(addr)]["data"] == \
            {"in_tx": to_hex(created[addr].tx_hash)}
    assert export["contracts"][to_hex(rft)]["results"] == {"in_tx": to_hex(publish.tx_hash)}


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_export_links_each_bid_record_to_the_transaction_that_placed_it(scheme):
    chain, _, _, _ = run_honest_tender(scheme, two_bid_docs())
    export = chain.export()
    placed = [tx for b in chain.blocks for tx in b.transactions if tx.kind.startswith("bid_")]
    assert len(placed) == 2
    for tx in placed:
        disclosed = export["contracts"][to_hex(tx.created_address)]
        assert disclosed["placed_by"] == {"in_tx": to_hex(tx.tx_hash)}
        assert not set(contracts.PLACED_ARGS) & set(disclosed)
    assert all("parent_hash" not in b for b in export["blocks"])
    assert all(not {"gas_price", "created_address"} & set(tx)
               for b in export["blocks"] for tx in b["transactions"])


def _bid_spelled(spell) -> tuple[Chain, bytes]:
    """A FULL_TRACK chain holding one bid whose call is ``spell`` of the usual
    one, and the address of its record."""
    chain = Chain(ChainConfig())
    rft, sender = make_tender(chain, crypto.generate_keypair(Random(3)), "FULL_TRACK")
    call = contracts.call("place_bid", id="B1", data_addr=account("data"), v=27, r=bytes(32),
                          s=bytes(32), sealed_half_a=HALF_A)
    chain.submit_transaction(sender, rft, canonical_json_bytes(spell(call)))
    block = chain.mine_block(chain.head().timestamp + chain.config.block_interval_ms)
    return chain, block.transactions[0].created_address


@pytest.mark.parametrize("spell", [
    pytest.param(lambda call: {**call, "data_addr": call["data_addr"].upper().replace("X", "x")},
                 id="data-addr-in-uppercase-hex"),
    pytest.param(lambda call: {**call, "sealed_half_a": call["sealed_half_a"].upper()
                               .replace("X", "x")}, id="sealed-half-in-uppercase-hex"),
])
def test_export_writes_a_record_whose_call_spells_an_argument_otherwise_whole(spell):
    chain, record = _bid_spelled(spell)
    disclosed = chain.export()["contracts"][to_hex(record)]
    assert "placed_by" not in disclosed
    assert disclosed["data_addr"] == to_hex(account("data"))
    assert disclosed["sealed_half_a"] == to_hex(HALF_A)
    assert audit.replay_chain(chain.export()).findings == []



def _scores_made_ints(rft_contract):
    for entry in rft_contract.results["bids"].values():
        if "score" in entry:
            entry["score"] = int(entry["score"])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda c: setattr(c, "results", {**c.results, "winner_id": "B9"}),
                 id="results-replaced"),
    pytest.param(_scores_made_ints, id="a-float-score-made-an-int"),
])
def test_export_writes_results_edited_on_the_ledger_whole(edit):
    chain, rft, _, _ = run_honest_tender("FULL_TRACK", two_bid_docs())
    rft_contract = chain.get_contract(rft)
    edit(rft_contract)
    assert chain.export()["contracts"][to_hex(rft)]["results"] == rft_contract.results

