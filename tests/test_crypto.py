from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendersim import crypto
from tendersim import secp256k1 as curve
from tendersim.errors import AuthFailed, DecryptionFailed

import ledger_ops
from conftest import account

RFT_A = account("rft-A")
RFT_B = account("rft-B")


@pytest.fixture
def cert(to_keys):
    return crypto.issue_certificate(to_keys.private_key, "B1", RFT_A)


# --- certificates ---------------------------------------------------------------


def test_certificate_round_trip(to_keys, cert):
    assert curve.well_formed(cert.v, cert.r, cert.s)
    assert crypto.certificate_matches(to_keys.public_key, "B1", RFT_A, cert.v, cert.r, cert.s)


def test_certificate_bound_to_one_tender(to_keys, cert):
    assert not crypto.certificate_matches(to_keys.public_key, "B1", RFT_B,
                                          cert.v, cert.r, cert.s)


def test_certificate_bit_flip_fails(to_keys, cert):
    r = bytearray(cert.r)
    r[7] ^= 1
    assert not crypto.certificate_matches(to_keys.public_key, "B1", RFT_A,
                                          cert.v, bytes(r), cert.s)


def test_certificate_from_other_keypair_fails(to_keys, rng):
    other = crypto.generate_keypair(rng)
    stranger = crypto.issue_certificate(other.private_key, "B1", RFT_A)
    assert not crypto.certificate_matches(to_keys.public_key, "B1", RFT_A,
                                          stranger.v, stranger.r, stranger.s)


def test_malformed_components_are_not_well_formed(cert):
    # the shape rule place_bid applies before any signature check
    assert not curve.well_formed(cert.v, cert.r[:-1], cert.s)
    assert not curve.well_formed(cert.v, cert.r, cert.s[:-1])
    assert not curve.well_formed(99, cert.r, cert.s)
    # v must be the int itself, not a value that equals it
    assert not curve.well_formed(float(cert.v), cert.r, cert.s)
    assert not curve.well_formed(True, cert.r, cert.s)
    # the digest is no component: recovery refuses one of the wrong length itself
    assert curve.recover_public_key(bytes(31), cert.v, cert.r, cert.s) is None


def test_unforgeability_over_random_keypairs(to_keys):
    # no certificate produced under any other key may verify under the
    # organisation's key: zero false accepts across 1000 trials
    rng = Random(1234)
    accepts = 0
    for i in range(1000):
        other = crypto.generate_keypair(rng)
        forged = crypto.issue_certificate(other.private_key, f"B{i}", RFT_A)
        if crypto.certificate_matches(to_keys.public_key, f"B{i}", RFT_A,
                                      forged.v, forged.r, forged.s):
            accepts += 1
    assert accepts == 0


# --- sealed bid keys ---------------------------------------------------------------


def test_seal_unseal_round_trip(to_keys, rng):
    key = crypto.new_bid_key(rng)
    sealed = crypto.seal_bid_key(key, to_keys.public_key, rng)
    combined = sealed.half_a + sealed.half_b
    assert len(sealed.half_a) == (len(combined) + 1) // 2
    assert crypto.unseal_bid_key(combined, to_keys.private_key) == key


def test_sealing_to_prepared_key_gives_the_same_bytes(to_keys):
    key = bytes(range(32))
    prepared = curve.prepare_public_key(to_keys.public_key)
    raw = crypto.seal_bid_key(key, to_keys.public_key, Random(5))
    table = crypto.seal_bid_key(key, prepared, Random(5))
    assert table == raw
    assert crypto.unseal_bid_key(table.half_a + table.half_b, to_keys.private_key) == key


def test_unseal_with_one_half_fails(to_keys, rng):
    key = crypto.new_bid_key(rng)
    sealed = crypto.seal_bid_key(key, to_keys.public_key, rng)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(sealed.half_a, to_keys.private_key)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(sealed.half_b, to_keys.private_key)


def test_sealing_is_randomized(to_keys, rng):
    key = crypto.new_bid_key(rng)
    first = crypto.seal_bid_key(key, to_keys.public_key, rng)
    second = crypto.seal_bid_key(key, to_keys.public_key, rng)
    assert first.half_a + first.half_b != second.half_a + second.half_b


def test_unseal_with_wrong_private_key_fails(to_keys, rng):
    other = crypto.generate_keypair(rng)
    sealed = crypto.seal_bid_key(crypto.new_bid_key(rng), to_keys.public_key, rng)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(sealed.half_a + sealed.half_b, other.private_key)


@settings(max_examples=30, deadline=None)
@given(payload=st.binary(min_size=1, max_size=64), tamper=st.integers(0, 10**9),
       seed=st.integers(0, 2**16))
def test_split_completeness(payload, tamper, seed):
    # both halves intact -> round trip; any bit flipped or a half missing -> failure
    rng = Random(seed)
    keys = crypto.generate_keypair(rng)
    sealed = crypto.seal_bid_key(payload, keys.public_key, rng)
    combined = sealed.half_a + sealed.half_b
    assert crypto.unseal_bid_key(combined, keys.private_key) == payload
    flipped = bytearray(combined)
    pos = tamper % (len(combined) * 8)
    flipped[pos // 8] ^= 1 << (pos % 8)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(bytes(flipped), keys.private_key)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(sealed.half_a, keys.private_key)


# --- bid document encryption ---------------------------------------------------------


def test_bid_encryption_round_trip_600_bytes(rng):
    key = crypto.new_bid_key(rng)
    document = rng.randbytes(600)
    assert crypto.decrypt_bid(crypto.encrypt_bid(document, key, rng), key) == document


def test_bid_ciphertext_bit_flip_fails_authentication(rng):
    key = crypto.new_bid_key(rng)
    ciphertext = bytearray(crypto.encrypt_bid(b"offer: 42", key, rng))
    ciphertext[14] ^= 1
    with pytest.raises(AuthFailed):
        crypto.decrypt_bid(bytes(ciphertext), key)


def test_bid_decrypt_with_wrong_key_fails(rng):
    ciphertext = crypto.encrypt_bid(b"offer: 42", crypto.new_bid_key(rng), rng)
    with pytest.raises(AuthFailed):
        crypto.decrypt_bid(ciphertext, crypto.new_bid_key(rng))


def test_confidentiality_with_only_the_on_chain_half(to_keys, rng):
    # the organisation's own view before the handover: ciphertext plus half_a
    for _ in range(25):
        key = crypto.new_bid_key(rng)
        ciphertext = crypto.encrypt_bid(b"secret bid", key, rng)
        sealed = crypto.seal_bid_key(key, to_keys.public_key, rng)
        with pytest.raises(DecryptionFailed):
            recovered = crypto.unseal_bid_key(sealed.half_a, to_keys.private_key)
            crypto.decrypt_bid(ciphertext, recovered)


# --- receipts -------------------------------------------------------------------------


def test_receipt_round_trip_and_address_binding(to_keys):
    bid_x, bid_y = account("bid-x"), account("bid-y")
    v, r, s = crypto.sign_receipt(to_keys.private_key, bid_x)
    assert ledger_ops.verify_receipt(to_keys.public_key, bid_x, v, r, s)
    assert not ledger_ops.verify_receipt(to_keys.public_key, bid_y, v, r, s)
