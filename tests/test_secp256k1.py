"""Curve arithmetic: known answers, and differential tests against OpenSSL.

OpenSSL's secp256k1 (through ``cryptography``) serves as the reference for
key derivation, ECDH and signature verification. It cannot recover keys,
so recovery is checked by round trip.
"""

from fractions import Fraction
from random import Random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tendersim import crypto
from tendersim import secp256k1 as curve
from tendersim.errors import DecryptionFailed

G = (curve.GX, curve.GY)
G2 = (0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
      0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A)

scalars = st.integers(min_value=1, max_value=curve.N - 1)
digests = st.binary(min_size=32, max_size=32)
fast = settings(max_examples=40, deadline=None)


def _openssl_public(raw: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), b"\x04" + raw)


def _openssl_private(k: int) -> ec.EllipticCurvePrivateKey:
    return ec.derive_private_key(k, ec.SECP256K1())


def _mul(k: int, point):
    """k * point in affine coordinates by the variable-base route that ECDH and
    signature recovery take; None for k = 0 mod N."""
    return curve._to_affine(curve._mul_var(k % curve.N or curve.N, point))


# --- known answers -----------------------------------------------------------------


def test_known_multiples_of_g():
    assert curve.scalar_mult(1) == G
    assert curve.scalar_mult(2) == G2
    assert curve.scalar_mult(curve.N - 1) == (curve.GX, curve.P - curve.GY)
    assert curve.scalar_mult(curve.N + 2) == G2


def test_known_multiples_of_variable_base():
    assert _mul(1, G) == G
    assert _mul(2, G) == G2
    assert _mul(curve.N - 1, G) == (curve.GX, curve.P - curve.GY)


@pytest.mark.parametrize("k", [0, curve.N, 2 * curve.N])
def test_scalar_zero_mod_n_gives_infinity(k):
    assert curve.scalar_mult(k) is None
    assert _mul(k, G2) is None


def _from_halves(k1, k2):
    """The scalar whose GLV split is meant to be (k1, k2)."""
    return (k1 + k2 * curve.LAMBDA) % curve.N


ONES = 2**126 - 1  # 18 digits of 127 at w = 7; 31 digits of 15 and a 3 at w = 4
TOP7 = sum(64 << 7 * i for i in range(18))  # 18 digits of exactly 2^6 at w = 7
TOP4 = sum(8 << 4 * i for i in range(32))  # 32 digits of exactly 2^3 at w = 4
# GLV halves at the table edges: negative, zero, all-ones digits, the largest
# digit of the second-to-last row at w = 7, and the first digit of its last row;
# signed digits of exactly 2^(w-1), and 2^(w-1) + 1 (TOPw + 1) whose carry
# ripples through every row into the last; and halves within a few units of
# the largest the split gives (corners of its rounding domain, 128 bits)
EDGE_HALVES = [(-5, -7), (0, 3), (12345, 0), (ONES, ONES), (-ONES, ONES), (ONES, -ONES),
               (127 * 2**119, -(2**126)), (-(2**126), 7 * 2**119),
               (TOP7, TOP7), (TOP7 + 1, -(TOP7 + 1)),
               (TOP4, 0), (-(TOP4 + 1), 0), (13 << 123, TOP4 + 1), (-(13 << 123), -TOP4),
               (0xA2A8918CA85BAFE22016D0B917E4DD76, -0x59DE565A2C9D0E2D4373F7623C1D7CD7),
               (-0x7221BF6B0087441437AA3FD4855FF261, -0x8A65287BD47179FB2BE08846CEA267EB)]
EDGE_SCALARS = [1, 2, curve.LAMBDA, curve.N - 1, 2**128, 2**129 - 1, 2**255 + 1,
                curve.N - 16] + [_from_halves(*h) for h in EDGE_HALVES]


@pytest.mark.parametrize("halves", EDGE_HALVES)
def test_edge_halves_are_what_the_split_gives(halves):
    assert curve._glv_split(_from_halves(*halves)) == halves


def _recoded(half, w):
    """(w-bit digit with the carry in, carry out) for each row, least
    significant first, as ``_mul_table`` recodes a GLV half."""
    steps = []
    while half:
        d = half & (2**w - 1)
        carry = d > 2 ** (w - 1)
        half = (half >> w) + carry
        steps.append((d, carry))
    return steps


@pytest.mark.parametrize("w, rows", [(7, 19), (4, 33)])
def test_edge_halves_reach_every_digit_edge(w, rows):
    recoded = [_recoded(h, w) for pair in EDGE_HALVES for h in pair]
    digits = {d for steps in recoded for d, _ in steps}
    assert {2 ** (w - 1), 2 ** (w - 1) + 1} <= digits
    assert all(len(steps) <= rows for steps in recoded)
    # a carry out of every row but the last, which takes it in
    assert any(len(steps) == rows and all(c for _, c in steps[:-1]) for steps in recoded)
    assert max(abs(h) for pair in EDGE_HALVES for h in pair).bit_length() == 128


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_edge_scalars_agree_on_both_routes(k):
    assert curve.scalar_mult(k) == _mul(k, G)


# --- variable-base route --------------------------------------------------------------


def _check_wnaf(k):
    digits = curve._wnaf(k)
    assert sum(d << i for i, d in enumerate(digits)) == k
    assert all(d % 2 and -15 <= d <= 15 for d in digits if d)
    assert all(sum(1 for d in digits[i:i + 5] if d) <= 1 for i in range(len(digits)))
    assert curve._wnaf(-k) == [-d for d in digits]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-(2**129 - 1), max_value=2**129 - 1))
def test_wnaf_is_a_width_5_non_adjacent_form(k):
    _check_wnaf(k)


@pytest.mark.parametrize("half", sorted({h for pair in EDGE_HALVES for h in pair}))
def test_wnaf_of_the_edge_halves(half):
    _check_wnaf(half)


def _scaled_back(entry, z):
    """An entry of the shared-Z table as a point of the curve: (x/z^2, y/z^3)."""
    zi = pow(z, -1, curve.P)
    return entry[0] * zi * zi % curve.P, entry[1] * zi * zi * zi % curve.P


@fast
@given(scalars)
@example(1)  # G
@example(2)  # G2
@example(curve.N - 1)  # -G
def test_odd_multiples_share_one_z(m):
    table, z = curve._signed_odd_multiples(curve.scalar_mult(m))
    assert z % curve.P
    for j in range(1, 16, 2):
        for signed in (j, -j):
            assert _scaled_back(table[signed], z) == curve.scalar_mult(signed * m), signed


# --- differential against OpenSSL ------------------------------------------------------


@fast
@given(scalars)
def test_public_key_matches_openssl(k):
    numbers = _openssl_private(k).public_key().public_numbers()
    assert curve.public_key_bytes(k) == curve.point_to_bytes((numbers.x, numbers.y))


@fast
@given(scalars, scalars)
def test_ecdh_matches_openssl(ours, theirs):
    peer = _openssl_private(theirs)
    peer_raw = curve.public_key_bytes(theirs)
    expected = _openssl_private(ours).exchange(ec.ECDH(), peer.public_key())
    assert curve.ecdh_shared_secret(ours, peer_raw) == expected


@fast
@given(scalars, digests)
def test_openssl_verifies_signatures(k, digest):
    v, r, s = curve.sign_digest(k, digest)
    der = encode_dss_signature(int.from_bytes(r, "big"), int.from_bytes(s, "big"))
    public = _openssl_public(curve.public_key_bytes(k))
    public.verify(der, digest, ec.ECDSA(Prehashed(hashes.SHA256())))


@fast
@given(scalars, scalars)
def test_fixed_and_variable_base_agree(a, b):
    assert _mul(a, curve.scalar_mult(b)) == curve.scalar_mult(a * b)


# --- recovery ----------------------------------------------------------------------


@fast
@given(scalars, digests)
def test_recovery_round_trip_and_flipped_v(k, digest):
    public = curve.public_key_bytes(k)
    v, r, s = curve.sign_digest(k, digest)
    assert curve.recover_public_key(digest, v, r, s) == public
    assert curve.verify_digest(public, digest, v, r, s)
    flipped = curve.recover_public_key(digest, 55 - v, r, s)
    assert flipped is not None and flipped != public


def test_recovery_with_zero_digest():
    # z = 0 makes the u1*G half of recovery the point at infinity
    digest = bytes(32)
    v, r, s = curve.sign_digest(12345, digest)
    assert curve.recover_public_key(digest, v, r, s) == curve.public_key_bytes(12345)


def _crafted_signature(k: int, s: int, z: int):
    """(digest, v, r, s) whose ephemeral point R is k*G."""
    rx, ry = curve.scalar_mult(k)
    assert rx < curve.N
    return z.to_bytes(32, "big"), 27 + (ry & 1), rx.to_bytes(32, "big"), s.to_bytes(32, "big")


def test_recovery_halves_cancel_to_infinity():
    # z = s*k makes s*R == z*G, so the recovered key would be the point at infinity
    k, s = 0x1234567, 0xABCDEF
    assert curve.recover_public_key(*_crafted_signature(k, s, s * k % curve.N)) is None


def test_recovery_halves_equal():
    # z = -s*k makes u1*G == u2*R, so the sum of the halves is a doubling
    k, s = 0x7654321, 0xFEDCBA
    digest, v, r, s_raw = _crafted_signature(k, s, -s * k % curve.N)
    rinv = pow(int.from_bytes(r, "big"), -1, curve.N)
    expected = curve.public_key_bytes(2 * s * k * rinv)
    assert curve.recover_public_key(digest, v, r, s_raw) == expected


def test_r_without_curve_point_returns_none():
    x = next(x for x in range(1, 100)
             if pow(x**3 + 7, (curve.P - 1) // 2, curve.P) != 1)
    digest = bytes(range(32))
    v, _, s = curve.sign_digest(777, digest)
    assert curve.recover_public_key(digest, v, x.to_bytes(32, "big"), s) is None


def _signed(k=777, digest=bytes(range(32))):
    return (digest, *curve.sign_digest(k, digest))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d, v, r, s: (d, v, bytes(32), s), id="r-0"),
    # x = N has a curve point, so only the range check refuses it
    pytest.param(lambda d, v, r, s: (d, v, curve.N.to_bytes(32, "big"), s), id="r-N"),
    pytest.param(lambda d, v, r, s: (d, v, r, bytes(32)), id="s-0"),
    pytest.param(lambda d, v, r, s: (d, v, r, curve.N.to_bytes(32, "big")), id="s-N"),
    pytest.param(lambda d, v, r, s: (d[:31], v, r, s), id="digest-31-bytes"),
    pytest.param(lambda d, v, r, s: (d, v, r[1:], s), id="r-31-bytes"),
])
def test_recovery_refuses_a_value_out_of_its_range(edit):
    assert curve.recover_public_key(*_signed()) == curve.public_key_bytes(777)
    assert curve.recover_public_key(*edit(*_signed())) is None


def test_a_signature_verifies_for_its_key_alone():
    digest, v, r, s = _signed()
    assert curve.verify_digest(curve.public_key_bytes(777), digest, v, r, s)
    assert not curve.verify_digest(curve.public_key_bytes(778), digest, v, r, s)


@pytest.mark.parametrize("point", [
    pytest.param((curve.GX + curve.P, curve.GY), id="x-plus-P"),
    pytest.param((curve.GX, curve.GY + curve.P), id="y-plus-P"),
    pytest.param((1, 1), id="off-the-curve"),
])
def test_a_point_is_on_the_curve_in_its_range_alone(point):
    # x + P and y + P satisfy the curve equation mod P; (0, y) and (x, 0) never do,
    # since 7 is not a square mod P and -7 not a cube
    assert curve.on_curve((curve.GX, curve.GY))
    assert not curve.on_curve(point)


def test_signing_skips_a_nonce_out_of_range(monkeypatch):
    nonces = iter([0, curve.N, 5])
    monkeypatch.setattr(curve, "_derive_nonce", lambda *args: next(nonces))
    digest = bytes(range(32))
    v, r, s = curve.sign_digest(777, digest)
    assert int.from_bytes(r, "big") == curve.scalar_mult(5)[0]
    assert curve.recover_public_key(digest, v, r, s) == curve.public_key_bytes(777)


# --- ECDH with a degenerate scalar ----------------------------------------------------


@pytest.mark.parametrize("k", [0, curve.N])
def test_ecdh_zero_scalar_raises(k):
    peer = curve.public_key_bytes(99)
    for base in (peer, curve.prepare_public_key(peer)):
        with pytest.raises(ValueError):
            curve.ecdh_shared_secret(k, base)


def test_unseal_with_zero_scalar_is_decryption_failure():
    rng = Random(11)
    to_keys = crypto.generate_keypair(rng)
    sealed = crypto.seal_bid_key(bytes(32), to_keys.public_key, rng)
    with pytest.raises(DecryptionFailed):
        crypto.unseal_bid_key(sealed.half_a + sealed.half_b, curve.N.to_bytes(32, "big"))


# --- fixed-base tables ---------------------------------------------------------------

PEER = 0xC0FFEE


@pytest.fixture(scope="module")
def peer_table():
    return curve.prepare_public_key(curve.public_key_bytes(PEER))


def _affine_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2) % curve.P == 0:
            return None
        slope = 3 * x1 * x1 * pow(2 * y1, -1, curve.P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, curve.P)
    x3 = (slope * slope - x1 - x2) % curve.P
    return x3, (slope * (x1 - x3) - y1) % curve.P


def _double_and_add(k, pt):
    """k * pt by plain affine double-and-add, most significant bit first."""
    acc = None
    for bit in bin(k)[2:]:
        acc = _affine_add(acc, acc)
        if bit == "1":
            acc = _affine_add(acc, pt)
    return acc


@pytest.mark.parametrize("base, width, rows, top_entries", [("G", 7, 19, 3), ("peer", 4, 33, 1)])
def test_sampled_table_rows_match_double_and_add(base, width, rows, top_entries, peer_table):
    point = G if base == "G" else curve.scalar_mult(PEER)
    table = curve._G_TABLE if base == "G" else peer_table
    assert (table.width, len(table.rows)) == (width, rows)
    assert all(len(row) == 2 ** (width - 1) + 1 for row in table.rows[:-1])
    assert len(table.rows[-1]) == top_entries + 1
    for i in (0, rows // 2, rows - 1):
        for j in (1, 2, 3, 2 ** (width - 1)):
            if j < len(table.rows[i]):
                assert table.rows[i][j] == _double_and_add(j << (width * i), point), (i, j)


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_table_routes_match_variable_base_and_openssl(k, peer_table):
    numbers = _openssl_private(k).public_key().public_numbers()
    assert curve.scalar_mult(k) == (numbers.x, numbers.y)
    peer_raw = curve.public_key_bytes(PEER)
    expected = _openssl_private(k).exchange(ec.ECDH(), _openssl_public(peer_raw))
    assert curve.ecdh_shared_secret(k, peer_table) == expected
    assert curve.ecdh_shared_secret(k, peer_raw) == expected


def _corner(s1, s2):
    """The GLV halves t1*(A1, B1) + t2*(A2, B2) nearest the corner (s1/2, s2/2)
    of the square [-1/2, 1/2) that _glv_split's rounding leaves t1 and t2 in."""
    t1, t2 = (Fraction(s, 2) * (1 - Fraction(1, 2**64)) for s in (s1, s2))
    return round(t1 * curve._A1 + t2 * curve._A2), round(t1 * curve._B1 + t2 * curve._B2)


CORNER_HALVES = [_corner(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]


def _top_digit(half, w, rows):
    """The signed digit the last of ``rows`` rows of a w-bit table is read at
    for ``half``, 0 when ``half`` needs fewer rows."""
    steps = _recoded(half, w)
    d, carry = steps[-1]
    return (d - 2**w if carry else d) if len(steps) == rows else 0


def test_glv_halves_are_bounded_by_the_rounding():
    a1, b1, a2, b2 = curve._A1, curve._B1, curve._A2, curve._B2
    assert a1 * b2 - a2 * b1 == curve.N
    assert curve._HALF_MAX == (abs(a1) + abs(a2)) // 2 < Fraction(255, 100) * 2**126
    assert (abs(b1) + abs(b2)) // 2 < 2**128 and (abs(b1) + abs(b2)) // 2 <= curve._HALF_MAX
    for halves in CORNER_HALVES:
        assert curve._glv_split(_from_halves(*halves)) == halves
    # the corners come within 2^64 of the bound on |k1| and |k2|, and read
    # the top rows at the largest digit they hold, 3 at w = 7 and 1 at w = 4
    assert curve._HALF_MAX - max(abs(k1) for k1, _ in CORNER_HALVES) < 2**64
    assert (abs(b1) + abs(b2)) // 2 - max(abs(k2) for _, k2 in CORNER_HALVES) < 2**64
    digits = [(_top_digit(h, 7, 19), _top_digit(h, 4, 33)) for pair in CORNER_HALVES
              for h in pair]
    assert {3, -3} <= {d7 for d7, _ in digits} and {1, -1} <= {d4 for _, d4 in digits}
    assert max(abs(d7) for d7, _ in digits) == 3 and max(abs(d4) for _, d4 in digits) == 1


@pytest.mark.parametrize("halves", CORNER_HALVES)
def test_tables_cover_the_largest_halves_the_split_gives(halves, peer_table):
    k = _from_halves(*halves)
    numbers = _openssl_private(k).public_key().public_numbers()
    assert curve._to_affine(curve._mul_table(curve._G_TABLE, k)) == (numbers.x, numbers.y)
    assert curve._to_affine(curve._mul_table(peer_table, k)) == \
        _mul(k, curve.scalar_mult(PEER))


@fast
@given(scalars, scalars)
def test_prepared_ecdh_matches_openssl(ours, theirs):
    table = curve.prepare_public_key(curve.public_key_bytes(theirs))
    expected = _openssl_private(ours).exchange(ec.ECDH(), _openssl_private(theirs).public_key())
    assert curve.ecdh_shared_secret(ours, table) == expected


def test_order_times_table_is_infinity(peer_table):
    assert curve._mul_table(curve._G_TABLE, curve.N) == curve._JINF
    assert curve._mul_table(peer_table, curve.N) == curve._JINF


# --- GLV decomposition -----------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=curve.N))
def test_glv_split_is_short_and_exact(k):
    k1, k2 = curve._glv_split(k)
    assert (k1 + k2 * curve.LAMBDA - k) % curve.N == 0
    assert abs(k1) <= curve._HALF_MAX and abs(k2) <= curve._HALF_MAX


def test_endomorphism_constants():
    assert pow(curve.BETA, 3, curve.P) == 1 and pow(curve.LAMBDA, 3, curve.N) == 1
    assert curve.scalar_mult(curve.LAMBDA) == (curve.BETA * curve.GX % curve.P, curve.GY)
