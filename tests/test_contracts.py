from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import audit, contracts, crypto, secp256k1
from tendersim.chain import Chain, ChainConfig
from tendersim.encoding import canonical_json_bytes, to_hex
from tendersim.errors import BiddingStillOpen, SchemeHasNoState

import ledger_ops
from conftest import HALF_A, account, make_tender
from reference_data import DEPLOY_GAS, STATELESS_BID_GAS


def _bid_args(to_keys, bidder_id, rft, data=None):
    cert = crypto.issue_certificate(to_keys.private_key, bidder_id, rft)
    return dict(bidder_id=bidder_id, data_addr=data or account("some-data"),
                v=cert.v, r=cert.r, s=cert.s,
                sealed_half_a=HALF_A)


def _forged_args(bidder_id, rng=None):
    rng = rng or Random(99)
    return dict(bidder_id=bidder_id, data_addr=account("junk"),
                v=27, r=rng.randbytes(32),
                s=rng.randbytes(32), sealed_half_a=HALF_A)


# --- deployment -----------------------------------------------------------------


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_deployment_gas_constants(chain, to_keys, scheme):
    rft, _ = make_tender(chain, to_keys, scheme)
    deploy_tx = chain.blocks[-1].transactions[0]
    assert deploy_tx.gas_used == DEPLOY_GAS[scheme]
    assert deploy_tx.created_address == rft


def test_invalid_tender_params(chain, to_keys):
    sender = chain.register_account(account("TO"))
    with pytest.raises(ledger_ops.Rejected, match=contracts.MALFORMED_PAYLOAD):
        ledger_ops.init_tender(chain, sender, 0, to_keys.public_key, 2, "FULL_TRACK")
    with pytest.raises(ledger_ops.Rejected, match=contracts.MALFORMED_PAYLOAD):
        ledger_ops.init_tender(chain, sender, 1000, to_keys.public_key, 0, "FULL_TRACK")
    with pytest.raises(ledger_ops.Rejected, match=contracts.MALFORMED_PAYLOAD):
        ledger_ops.init_tender(chain, sender, 1000, to_keys.public_key[:63], 2, "FULL_TRACK")


def test_bidding_end_is_deploy_time_plus_length(chain, to_keys):
    rft, _ = make_tender(chain, to_keys, "FULL_TRACK", length_ms=120_000)
    deploy_ts = chain.blocks[-1].timestamp
    assert chain.get_contract(rft).bidding_end == deploy_ts + 120_000


# --- data contracts ---------------------------------------------------------------


def test_data_contract_size_boundary(chain):
    sender = chain.register_account(account("TO"))
    addr = ledger_ops.deploy_tender_data(chain, sender, b"\x42" * 625)  # 5000 bits
    assert chain.get_contract(addr).snapshot()["data"] == "0x" + "42" * 625
    with pytest.raises(ledger_ops.Rejected, match=contracts.DATA_TOO_LARGE):
        ledger_ops.deploy_tender_data(chain, sender, b"\x42" * 626)
    empty = ledger_ops.deploy_tender_data(chain, sender, b"")
    assert chain.get_contract(empty).snapshot()["data"] == "0x"


# --- full track (every bid is recorded) ---------------------------------------------


def test_full_track_first_valid_bid(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    addr = ledger_ops.place_bid_full(chain, rft, sender, **_bid_args(to_keys, "B1", rft))
    record = chain.get_contract(addr)
    assert record.validity is True
    assert record.prior_bids == ()
    assert record.bidding_end_copy == chain.get_contract(rft).bidding_end
    assert chain.blocks[-1].transactions[0].gas_used == 299_501
    assert chain.get_contract(rft).snapshot()["bids_placed"] == ["0x" + addr.hex()]
    assert chain.get_contract(rft).bid_count == {"B1": 1}


def test_full_track_bid_at_deadline_recorded_invalid(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", length_ms=60_000)
    end = chain.get_contract(rft).bidding_end
    addr = ledger_ops.place_bid_full(chain, rft, sender,
                                     **_bid_args(to_keys, "B1", rft), at=end)
    record = chain.get_contract(addr)
    assert record.validity is False  # strictly-before comparison
    assert len(chain.get_contract(rft).bids_placed) == 1
    assert chain.get_contract(rft).bid_count == {}


def test_full_track_forged_bid_does_not_lock_out_the_real_bidder(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=1)
    forged_addr = ledger_ops.place_bid_full(chain, rft, sender, **_forged_args("B1"))
    assert chain.get_contract(forged_addr).validity is False
    assert chain.get_contract(rft).bid_count == {}  # tally only moves on valid bids
    genuine = ledger_ops.place_bid_full(chain, rft, sender, **_bid_args(to_keys, "B1", rft))
    assert chain.get_contract(genuine).validity is True
    assert chain.get_contract(rft).bid_count == {"B1": 1}


def test_full_track_limit_enforced(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=2)
    results = [ledger_ops.place_bid_full(chain, rft, sender,
                                         **_bid_args(to_keys, "B1", rft))
               for _ in range(3)]
    validities = [chain.get_contract(a).validity for a in results]
    assert validities == [True, True, False]
    assert chain.get_contract(rft).bid_count == {"B1": 2}


def test_full_track_malformed_certificate_is_a_protocol_error(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    args = _bid_args(to_keys, "B1", rft)
    state_before = chain.export()["contracts"]
    # r, s or the data address of the wrong length; v a float or a string that equals it
    for edit in ({"r": args["r"][:-1]}, {"s": args["s"][:-1]},
                 {"data_addr": args["data_addr"][:-1]},
                 {"v": float(args["v"])}, {"v": str(args["v"])}):
        with pytest.raises(ledger_ops.Rejected, match=contracts.MALFORMED_PAYLOAD):
            ledger_ops.place_bid_full(chain, rft, sender, **{**args, **edit})
    assert chain.export()["contracts"] == state_before
    assert chain.get_contract(rft).bids_placed == []


def test_full_track_records_carry_growing_snapshots(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=5)
    placed = []
    for _ in range(4):
        addr = ledger_ops.place_bid_full(chain, rft, sender,
                                         **_bid_args(to_keys, "B1", rft))
        record = chain.get_contract(addr)
        assert record.prior_bids == tuple(placed)
        placed.append(addr)


# --- the certificate hash the tender rebuilds -------------------------------------------


def _replayed(chain):
    """The auditor's replay of ``chain``'s export, which must agree with the ledger."""
    replay = audit.replay_chain(chain.export())
    assert replay.findings == []
    return replay.state


def test_a_bid_call_carries_no_hash_and_the_tender_rebuilds_it(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    v, r, s = secp256k1.sign_digest(to_keys.private_scalar, crypto.cert_message_hash("B1", rft))
    call = {"op": "place_bid", "id": "B1", "data_addr": to_hex(account("data")),
            "v": v, "r": to_hex(r), "s": to_hex(s), "sealed_half_a": to_hex(HALF_A)}
    addr = ledger_ops.run_single(chain, sender, rft, call).created_address
    assert chain.get_contract(addr).validity is True
    assert _replayed(chain)[addr].validity is True


@pytest.mark.parametrize("scheme", contracts.SCHEMES)
def test_a_valid_certificate_under_another_id_or_for_another_tender_is_refused(
        chain, to_keys, scheme):
    rft, sender = make_tender(chain, to_keys, scheme)
    other_rft, _ = make_tender(chain, to_keys, scheme)
    b1 = _bid_args(to_keys, "B1", rft)
    # B1's certificate presented by B2, and B1's certificate for the other tender
    for args in ({**b1, "bidder_id": "B2"}, _bid_args(to_keys, "B1", other_rft)):
        args["id"] = args.pop("bidder_id")
        call = contracts.call("place_bid", **args)
        if scheme == contracts.SCHEME_PROTECTED:
            with pytest.raises(ledger_ops.Rejected, match=contracts.CERTIFICATE_REJECTED):
                ledger_ops.run_single(chain, sender, rft, call)
            continue
        addr = ledger_ops.run_single(chain, sender, rft, call).created_address
        assert chain.get_contract(addr).validity is False
        assert _replayed(chain)[addr].validity is False
    assert chain.get_contract(rft).bid_count == {}
    assert _replayed(chain)[rft].bid_count == {}


# --- protected state ------------------------------------------------------------------


def test_protected_rejects_bad_certificates_without_recording(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "PROTECTED")
    state_before = chain.export()["contracts"]
    with pytest.raises(ledger_ops.Rejected, match=contracts.CERTIFICATE_REJECTED):
        ledger_ops.place_bid_protected(chain, rft, sender, **_forged_args("B1"))
    assert chain.export()["contracts"] == state_before
    assert chain.get_contract(rft).bids_placed == []
    rejected_tx = chain.blocks[-1].transactions[0]
    assert rejected_tx.status == "REJECTED"
    assert rejected_tx.gas_used == 332_788  # base cost, no array copy


def test_protected_first_valid_bid_gas(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "PROTECTED")
    ledger_ops.place_bid_protected(chain, rft, sender, **_bid_args(to_keys, "B1", rft))
    assert chain.blocks[-1].transactions[0].gas_used == 332_788


def test_protected_late_bid_with_valid_certificate_recorded_invalid(chain, to_keys):
    # the certificate gate passes, so the record path still runs; the time
    # check inside it fails and the bid lands flagged invalid
    rft, sender = make_tender(chain, to_keys, "PROTECTED", length_ms=60_000)
    end = chain.get_contract(rft).bidding_end
    addr = ledger_ops.place_bid_protected(chain, rft, sender,
                                          **_bid_args(to_keys, "B1", rft), at=end + 500)
    record = chain.get_contract(addr)
    assert record.validity is False
    assert chain.get_contract(rft).bids_placed == [addr]


# --- stateless ---------------------------------------------------------------------


def test_stateless_flat_gas_and_no_array(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "STATELESS", limit=10)
    for i in range(5):
        addr = ledger_ops.place_bid_stateless(chain, rft, sender,
                                              **_bid_args(to_keys, "B1", rft))
        assert chain.blocks[-1].transactions[0].gas_used == STATELESS_BID_GAS
        record = chain.get_contract(addr)
        assert record.prior_bids is None
        assert record.bidding_end_copy is None
        assert "prior_bids" not in chain.export()["contracts"][to_hex(addr)]
    assert "bids_placed" not in chain.get_contract(rft).snapshot()
    assert chain.get_contract(rft).bid_count == {"B1": 5}


def test_stateless_bid_address_returned_for_offline_handoff(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "STATELESS")
    addr = ledger_ops.place_bid_stateless(chain, rft, sender,
                                          **_bid_args(to_keys, "B1", rft))
    assert chain.get_contract(addr).bidder_id == "B1"
    assert chain.blocks[-1].transactions[0].created_address == addr


# --- retrieval (tracked schemes only) --------------------------------------------------


def test_req_bids_deadline_boundary(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", length_ms=60_000)
    end = chain.get_contract(rft).bidding_end
    chain.advance_to(end)  # exactly at the deadline: still sealed
    with pytest.raises(BiddingStillOpen):
        ledger_ops.req_bids(chain, rft)
    chain.advance_to(end + 1)
    assert ledger_ops.req_bids(chain, rft) == ()


def test_req_bids_returns_placement_order(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=3)
    placed = [ledger_ops.place_bid_full(chain, rft, sender,
                                        **_bid_args(to_keys, "B1", rft))
              for _ in range(3)]
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    assert list(ledger_ops.req_bids(chain, rft)) == placed


def test_req_bids_stateless_has_no_state(chain, to_keys):
    rft, _ = make_tender(chain, to_keys, "STATELESS")
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    with pytest.raises(SchemeHasNoState):
        ledger_ops.req_bids(chain, rft)


def test_collect_valid_bid_data_filters_by_validity(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=2)
    d1, d2 = account("data-1"), account("data-2")
    ledger_ops.place_bid_full(chain, rft, sender, **{**_bid_args(to_keys, "B1", rft),
                                                     "data_addr": d1})
    ledger_ops.place_bid_full(chain, rft, sender, **{**_bid_args(to_keys, "B2", rft),
                                                     "data_addr": d2})
    ledger_ops.place_bid_full(chain, rft, sender, **_forged_args("B3"))
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    assert ledger_ops.collect_valid_bid_data(chain, rft) == [d1, d2]


def test_collect_valid_bid_data_empty(chain, to_keys):
    rft, _ = make_tender(chain, to_keys, "FULL_TRACK")
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    assert ledger_ops.collect_valid_bid_data(chain, rft) == []


# --- immutability (R1) and append-only behaviour ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(field_name=st.sampled_from(["bidding_end", "limit", "pubk", "scheme", "data"]),
       value=st.one_of(st.integers(), st.text(max_size=8)))
def test_mutation_attempts_always_rejected(field_name, value):
    chain = Chain(ChainConfig())
    to_keys = crypto.generate_keypair(Random(5))
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK")
    data_addr = ledger_ops.deploy_tender_data(chain, sender, b"tender text")
    state_before = chain.export()["contracts"]
    for target in (rft, data_addr):
        call = {"op": "set_field", "field": field_name, "value": value}
        chain.submit_transaction(sender, target, canonical_json_bytes(call))
        chain.mine_block(chain.now() + chain.config.block_interval_ms)
        chain.advance_to(chain.now() + chain.config.block_interval_ms)
        tx = chain.blocks[-1].transactions[-1]
        assert tx.status == "REJECTED"
        assert tx.error == "IMMUTABLE_STATE"
    assert chain.export()["contracts"] == state_before


def test_bid_array_is_append_only_across_blocks(chain, to_keys):
    rft, sender = make_tender(chain, to_keys, "FULL_TRACK", limit=10)
    snapshots = [list(chain.get_contract(rft).bids_placed)]
    for _ in range(6):
        ledger_ops.place_bid_full(chain, rft, sender, **_bid_args(to_keys, "B1", rft))
        snapshots.append(list(chain.get_contract(rft).bids_placed))
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later[:len(earlier)] == earlier
        assert len(later) == len(earlier) + 1


# --- call nesting --------------------------------------------------------------------------


def _publication_nested(depth: int) -> bytes:
    """A ``publish_results`` call nesting arrays and objects ``depth`` levels deep,
    counting the call itself, its result and the innermost ``{}``."""
    lists = depth - 3
    return (b'{"op":"publish_results","result":{"note":' + b"[" * lists + b"{}"
            + b"]" * lists + b"}}")


@pytest.mark.parametrize("depth, error", [(32, None), (33, contracts.MALFORMED_PAYLOAD)])
def test_a_call_nests_at_most_32_levels(chain, to_keys, depth, error):
    rft, owner = make_tender(chain, to_keys, "FULL_TRACK")
    chain.advance_to(chain.get_contract(rft).bidding_end + 1)
    chain.submit_transaction(owner, rft, _publication_nested(depth))
    tx = chain.mine_block(chain.now()).transactions[-1]
    assert tx.error == error
    assert (contracts.decode_call(_publication_nested(depth)) is None) == (error is not None)
    _replayed(chain)
