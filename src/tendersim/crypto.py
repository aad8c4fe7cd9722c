"""Keys, bidder certificates, and the split sealed-key scheme.

A tendering organisation owns one curve key pair. Certificates are
recoverable signatures over a hash binding the bidder id to one specific
tender contract address, so a certificate issued for one tender never
verifies against another. Bid documents are encrypted under a fresh
256-bit symmetric key; that key is sealed to the organisation's public key
(ephemeral ECDH + AES-GCM) and the sealed bytes are split down the middle:
the first half rides on the ledger with the bid, the second half stays
with the bidder until the deadline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives import hashes

from . import secp256k1 as curve
from .errors import AuthFailed, DecryptionFailed

_SEAL_INFO = b"tendersim/sealed-bid-key"
_NONCE_LEN = 12
_GCM_TAG_LEN = 16
_PUB_LEN = 64


@dataclass(frozen=True)
class KeyPair:
    """Curve key pair; the private half never appears in ledger payloads."""

    private_key: bytes
    public_key: bytes

    @property
    def private_scalar(self) -> int:
        return int.from_bytes(self.private_key, "big")


def generate_keypair(rng: Random) -> KeyPair:
    while True:
        raw = rng.randbytes(32)
        scalar = int.from_bytes(raw, "big")
        if 0 < scalar < curve.N:
            break
    return KeyPair(private_key=raw, public_key=curve.public_key_bytes(scalar))


# --- certificates -----------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    bidder_id: str
    msg_hash: bytes
    v: int
    r: bytes
    s: bytes


def cert_message_hash(bidder_id: str, rft_address: bytes) -> bytes:
    material = b"tender-cert|" + rft_address + b"|" + bidder_id.encode("utf-8")
    return hashlib.sha256(material).digest()


def issue_certificate(to_private_key: bytes, bidder_id: str, rft_address: bytes) -> Certificate:
    msg_hash = cert_message_hash(bidder_id, rft_address)
    v, r, s = curve.sign_digest(int.from_bytes(to_private_key, "big"), msg_hash)
    return Certificate(bidder_id=bidder_id, msg_hash=msg_hash, v=v, r=r, s=s)


def certificate_matches(public_key: bytes, bidder_id: str, rft_address: bytes,
                        msg_hash: bytes, v: int, r: bytes, s: bytes) -> bool:
    """Full check: signature verifies and hash binds (bidder_id, rft_address).

    Components of the wrong shape give False. ``place_bid`` screens them
    first with ``secp256k1.well_formed``: garbage is a protocol error, a
    well-formed but wrong signature is a failed check.
    """
    if not curve.verify_digest(public_key, msg_hash, v, r, s):
        return False
    return msg_hash == cert_message_hash(bidder_id, rft_address)


# --- sealed bid keys --------------------------------------------------------

@dataclass(frozen=True)
class SealedBidKey:
    half_a: bytes
    half_b: bytes


def new_bid_key(rng: Random) -> bytes:
    return rng.randbytes(32)


def _seal_key_material(shared_x: bytes) -> bytes:
    hkdf = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_SEAL_INFO)
    return hkdf.derive(shared_x)


def seal_bid_key(bid_key: bytes, to_public_key: bytes | curve.FixedBase,
                 rng: Random) -> SealedBidKey:
    """Seal ``bid_key`` to a 64-byte public key, or to its prepared table
    (``secp256k1.prepare_public_key``); both give the same bytes."""
    eph = generate_keypair(rng)
    shared = curve.ecdh_shared_secret(eph.private_scalar, to_public_key)
    nonce = rng.randbytes(_NONCE_LEN)
    ct = AESGCM(_seal_key_material(shared)).encrypt(nonce, bid_key, None)
    sealed = eph.public_key + nonce + ct
    cut = (len(sealed) + 1) // 2
    return SealedBidKey(half_a=sealed[:cut], half_b=sealed[cut:])


def unseal_bid_key(sealed: bytes, to_private_key: bytes) -> bytes:
    if len(sealed) < _PUB_LEN + _NONCE_LEN + _GCM_TAG_LEN:
        raise DecryptionFailed("sealed key bytes truncated")
    eph_pub = sealed[:_PUB_LEN]
    nonce = sealed[_PUB_LEN : _PUB_LEN + _NONCE_LEN]
    ct = sealed[_PUB_LEN + _NONCE_LEN :]
    try:
        shared = curve.ecdh_shared_secret(int.from_bytes(to_private_key, "big"), eph_pub)
        return AESGCM(_seal_key_material(shared)).decrypt(nonce, ct, None)
    except (ValueError, InvalidTag) as exc:
        raise DecryptionFailed(str(exc))


# --- bid document encryption ------------------------------------------------

def encrypt_bid(plaintext: bytes, bid_key: bytes, rng: Random) -> bytes:
    nonce = rng.randbytes(_NONCE_LEN)
    return nonce + AESGCM(bid_key).encrypt(nonce, plaintext, None)


def decrypt_bid(ciphertext: bytes, bid_key: bytes) -> bytes:
    if len(ciphertext) < _NONCE_LEN + _GCM_TAG_LEN:
        raise AuthFailed("ciphertext truncated")
    try:
        return AESGCM(bid_key).decrypt(ciphertext[:_NONCE_LEN], ciphertext[_NONCE_LEN:], None)
    except InvalidTag:
        raise AuthFailed("ciphertext failed authentication")


# --- signed receipts (stateless-scheme acknowledgements) --------------------
# Nothing in the package calls these. They stay only until the benchmark's
# tracer stops wrapping ``sign_receipt`` by name (ROADMAP item 1).

def receipt_digest(bid_address: bytes) -> bytes:
    return hashlib.sha256(b"tender-ack|" + bid_address).digest()


def sign_receipt(private_key: bytes, bid_address: bytes) -> tuple[int, bytes, bytes]:
    return curve.sign_digest(int.from_bytes(private_key, "big"), receipt_digest(bid_address))
