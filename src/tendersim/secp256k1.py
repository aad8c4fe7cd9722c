"""Minimal secp256k1 arithmetic: recoverable ECDSA and Diffie-Hellman.

Points are affine ``(x, y)`` int pairs externally and Jacobian triples
``(X, Y, Z)`` internally, ``Z == 0`` being the point at infinity. Public
keys travel as 64 raw bytes (X || Y, big-endian); signatures as
``(v, r, s)`` where ``v`` is 27 or 28 and encodes the parity of the
ephemeral point so the signing key can be recovered from the signature
alone. Nonces are derived from the key and digest (HMAC-SHA256), so
signing is deterministic.

Scalar multiplication takes one of two routes, chosen by the base:

* Fixed base, for a point known in advance: a FixedBase table. The GLV
  endomorphism phi(x, y) = (BETA*x, y) = LAMBDA*(x, y) splits k into
  k1 + k2*LAMBDA with both halves below 2.55 * 2^126 in size (Gallant,
  Lambert and Vanstone, CRYPTO 2001). Each half is recoded into signed
  w-bit digits in [-2^(w-1), 2^(w-1)], so row i of the table holds
  j * 2^(w*i) * point only for 1 <= j <= 2^(w-1), and the top row only up
  to the largest digit a half can leave it (Brickell, Gordon, McCurley and
  Wilson, EUROCRYPT '92). k*point then adds one entry per non-zero digit
  of each half, reading phi(entry) as (BETA*x, y) for k2 and negating y
  for a negative digit: no doubling. Against unsigned digits, a table has
  half the points and takes half the time to build, for about the same
  number of additions.
  - G (key generation, signing, the u1*G half of recovery): w = 7, 18
    rows of 64 points and a top row of 3 (1155), built at import in about
    9 ms; k*G is at most 38 mixed additions.
  - A public key that many ECDH calls share, such as the organisation
    key every bid of a tender is sealed to: ``prepare_public_key`` builds
    a w = 4 table, 32 rows of 8 points and a top row of 1 (257), in about
    2.5 ms; each ECDH against it is at most 66 mixed additions.
  Build times are medians on a 2-vCPU machine under Python 3.11, where
  the unsigned tables took 18 ms and 4.1 ms.
* Variable base, k*Q (ECDH against a raw public key, the u2*R half of
  recovery): the same GLV split, then an interleaved width-5 wNAF over Q
  and phi(Q) needs about 128 doublings instead of 256. It makes no field
  inversion: the odd multiples Q, 3Q, .. 15Q are built with Longa and
  Miri's precomputation (PKC 2008) so that all share one Z, and so are
  affine points of an isomorphic curve y^2 = x^3 + 7*z^6. The ladder runs
  there, with the same formulas, and its result becomes a Jacobian point
  of this curve when its Z is multiplied by z, once.

Doubling uses the a = 0 formula YY = Y^2, S = 4*X*YY, M = 3*X^2,
X' = M^2 - 2*S, Y' = M*(S - X') - 8*YY^2, Z' = 2*Y*Z: six reductions mod P.
Table entries are affine, so every addition, recovery's u1*G + u2*R
included, is a mixed Jacobian+affine one. A fixed-base table's points are
made affine together, with a single field inversion (Montgomery's
batch-inversion trick); its rows grow in lockstep so that each step's
affine additions share one inversion too.
"""

from __future__ import annotations

import hashlib
import hmac

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# (BETA * x, y) == LAMBDA * (x, y) for every curve point (x, y)
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# short basis (A1, B1), (A2, B2) of the lattice {(a, b) : a + b*LAMBDA == 0 mod N}
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
# the largest |k1| or |k2| that _glv_split gives (see _build_table)
_HALF_MAX = (_A1 + _A2) // 2

_JINF = (0, 0, 0)


def _jac_double(pt):
    X1, Y1, Z1 = pt
    YY = Y1 * Y1 % P
    S = 4 * X1 * YY % P
    M = 3 * X1 * X1 % P
    X3 = (M * M - 2 * S) % P
    return (X3, (M * (S - X3) - 8 * YY * YY) % P, 2 * Y1 * Z1 % P)


def _jac_add_affine(pt, q):
    """Jacobian ``pt`` plus affine ``q``; the sum is Jacobian."""
    X1, Y1, Z1 = pt
    if not Z1:
        return (q[0], q[1], 1)
    Z1Z1 = Z1 * Z1 % P
    H = (q[0] * Z1Z1 - X1) % P
    R = (q[1] * Z1 % P * Z1Z1 - Y1) % P
    if not H:
        return _jac_double(pt) if not R else _JINF
    HH = H * H % P
    HHH = H * HH % P
    V = X1 * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    Y3 = (R * (V - X3) - Y1 * HHH) % P
    return (X3, Y3, Z1 * H % P)


def _to_affine(pt):
    X, Y, Z = pt
    if not Z:
        return None
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 % P * zi % P)


def _batch_inverse(values):
    """Inverses mod P of non-zero field elements, for the price of one inversion."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % P
    inv = pow(acc, -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % P
        inv = inv * values[i] % P
    return out


def _batch_to_affine(points):
    """Affine forms of finite Jacobian points, for the price of one inversion."""
    out = []
    for (X, Y, _), zi in zip(points, _batch_inverse([pt[2] for pt in points])):
        zi2 = zi * zi % P
        out.append((X * zi2 % P, Y * zi2 % P * zi % P))
    return out


class FixedBase:
    """Precomputed multiples of one curve point, for many multiplications by it.

    Row i holds j * 2^(w*i) * point at index j, for 1 <= j <= 2^(w-1)
    (index 0 is unused); the top row stops at the largest digit it is read
    at. The rows cover the signed w-bit digits of either half of a
    GLV-split scalar.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width, rows):
        self.width = width
        self.rows = rows


def _build_table(point, w):
    """The FixedBase table of an affine point with w-bit digits, w >= 2."""
    # How large a half gets: _glv_split rounds the real coefficients c1', c2'
    # of (k, 0) in the basis (A1, B1), (A2, B2) to the nearest integers c1, c2.
    # As A1*B2 - A2*B1 == N, (k, 0) == c1'*(A1, B1) + c2'*(A2, B2) exactly, so
    # (k1, k2) == (c1' - c1)*(A1, B1) + (c2' - c2)*(A2, B2) with both
    # differences in [-1/2, 1/2]: |k1| <= (|A1| + |A2|) / 2 = _HALF_MAX,
    # under 2.55 * 2^126, and |k2| <= (|B1| + |B2|) / 2, under 2^128 and
    # under _HALF_MAX.
    # What a half leaves the top row: once the signed digits of the n - 1
    # rows below it are taken, whose value S lies between
    # -(2^(w-1) - 1) * R and 2^(w-1) * R for R = (2^(w*(n-1)) - 1) / (2^w - 1),
    # a half h leaves r = (h - S) / 2^(w*(n-1)), so
    # |r| <= (_HALF_MAX + 2^(w-1) * R) / 2^(w*(n-1)). The table has the fewest
    # rows n for which that is a digit a row holds, and its top row holds
    # only the entries up to it: at w = 7, 19 rows, the top one read only at
    # digits 1 to 3; at w = 4, 33 rows, the top one read only at digit 1.
    top = 1 << (w - 1)
    span, count = 1, 1  # span = 2^(w*(count-1))
    while (last := (_HALF_MAX + top * ((span - 1) // ((1 << w) - 1))) // span) > top:
        span <<= w
        count += 1
    jac = [(point[0], point[1], 1)]
    for _ in range(count - 1):
        base = jac[-1]
        for _ in range(w):
            base = _jac_double(base)
        jac.append(base)
    affine = _batch_to_affine(jac + [_jac_double(b) for b in jac])
    rows = [[None, b, d] for b, d in zip(affine[:count], affine[count:])]
    rows[-1] = rows[-1][:last + 1]
    # Every row grows by its own base, row[1], in lockstep, so the affine
    # additions of one step share a single inversion; the top row stops at last.
    for j in range(3, top + 1):
        growing = rows if j <= last else rows[:-1]
        invs = _batch_inverse([row[-1][0] - row[1][0] for row in growing])
        for row, inv in zip(growing, invs):
            (bx, by), (qx, qy) = row[1], row[-1]
            s = (qy - by) * inv % P
            x = (s * s - qx - bx) % P
            row.append((x, (s * (bx - x) - by) % P))
    return FixedBase(w, rows)


def _glv_split(k):
    """(k1, k2) with k1 + k2*LAMBDA == k (mod N) and |k1|, |k2| <= _HALF_MAX."""
    c1 = (2 * _B2 * k + N) // (2 * N)
    c2 = (-2 * _B1 * k + N) // (2 * N)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _mul_table(table, k, acc=_JINF):
    """acc + k * point in Jacobian form, for 0 <= k <= N and the FixedBase of point.

    Each GLV half is recoded, least significant digit first, into signed
    digits in [-2^(w-1), 2^(w-1)]: a w-bit digit d above 2^(w-1) becomes
    d - 2^w and carries 1 into the rest of the half. Python's ``&`` and
    ``>>`` read a negative half in two's complement, so the same recoding
    gives its digits. One table entry is added per non-zero digit; a
    negative digit negates y, and the k2 half reads phi(entry) = (BETA*x, y).
    """
    w = table.width
    mask, top, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    for half, phi in zip(_glv_split(k), (False, True)):
        for row in table.rows:
            if not half:
                break
            d = half & mask
            half >>= w
            if d > top:
                half += 1
                x, y = row[full - d]
                y = P - y
            elif d:
                x, y = row[d]
            else:
                continue
            if phi:
                x = BETA * x % P
            acc = _jac_add_affine(acc, (x, y))
    return acc


def _wnaf(k):
    """Width-5 non-adjacent form of k, least significant digit first: digits, each
    0 or odd in [-15, 15], whose sum of d * 2**i is k. Python's ``&`` and ``>>``
    read a negative k in two's complement, so ``_wnaf(-k)`` is ``_wnaf(k)`` with
    each digit negated."""
    digits = []
    while k:
        zeros = (k & -k).bit_length() - 1  # a run of zero bits is taken in one step
        digits += [0] * zeros
        k >>= zeros
        d = k & 31
        if d > 15:
            d -= 32
        digits.append(d)
        k = (k - d) >> 1
    return digits


def _signed_odd_multiples(pt):
    """(table, z): j*pt at index j for odd j in [-15, 15], as affine points on
    the curve y^2 = x^3 + 7*z^6, which (x, y) -> (x*z^2, y*z^3) maps this one
    onto. A Jacobian (X, Y, Z) there is (X, Y, Z*z) here, and the a = 0
    formulas never read the 7, so a ladder over the table needs no inversion.
    A negative j is read from index 32 + j, which Python's negative indexing
    does by itself.

    Longa and Miri's precomputation (PKC 2008): 2*pt = (X2, Y2, Z2) is affine
    (X2, Y2) on the curve scaled by Z2, where pt is (x*Z2^2, y*Z2^3). Seven
    additions of points that share their Z (Meloni, 2007) give 3*pt .. 15*pt;
    the addition with difference H moves both its inputs to Z*H, so each
    odd multiple is kept at the next one's Z, and the running product of the
    later H brings all eight to the last Z without a division. H is never 0:
    pt has prime order N, so j*pt == +-2*pt holds for no odd j below 15."""
    x, y = pt
    tx, ty, z = _jac_double((x, y, 1))
    zz = z * z % P
    ax, ay = x * zz % P, y * zz % P * z % P
    kept = []  # (2i+1)*pt at the Z of (2i+3)*pt, and the H that took it there
    for _ in range(7):
        h = tx - ax
        hh = h * h % P
        hhh = h * hh % P
        r = ty - ay
        v, w = ax * hh % P, ay * hhh % P
        kept.append((v, w, h))
        tx, ty = (v + hhh) % P, ty * hhh % P  # 2*pt at the new Z too
        ax = (r * r - hhh - 2 * v) % P
        ay = (r * (v - ax) - w) % P
    kept.append((ax, ay, 1))
    table = [None] * 32
    scale = 1  # the last Z over the Z of the entry taken next
    for j in range(15, 0, -2):
        x, y, h = kept.pop()
        ss = scale * scale % P
        x, y = x * ss % P, y * ss % P * scale % P
        table[j], table[-j] = (x, y), (x, P - y)
        scale = scale * h % P
    return table, z * scale % P


def _mul_var(k, pt):
    """k * pt in Jacobian form, for 0 <= k <= N and a finite curve point pt."""
    k1, k2 = _glv_split(k)
    t1, z = _signed_odd_multiples(pt)
    # phi(j*pt) = (BETA*x, y) on the scaled curve too; a negative half's
    # digits index the -j entries
    t2 = [None if q is None else (BETA * q[0] % P, q[1]) for q in t1]
    n1, n2 = _wnaf(k1), _wnaf(k2)
    width = max(len(n1), len(n2))
    n1 += [0] * (width - len(n1))
    n2 += [0] * (width - len(n2))
    acc = _JINF
    for i in range(width - 1, -1, -1):
        acc = _jac_double(acc)
        if n1[i]:
            acc = _jac_add_affine(acc, t1[n1[i]])
        if n2[i]:
            acc = _jac_add_affine(acc, t2[n2[i]])
    return (acc[0], acc[1], acc[2] * z % P)


_G_TABLE = _build_table((GX, GY), 7)


def prepare_public_key(public_key: bytes) -> FixedBase:
    """A FixedBase table of a 64-byte public key that many ECDH calls will use."""
    return _build_table(point_from_bytes(public_key), 4)


def scalar_mult(k: int):
    """k * G in affine coordinates."""
    return _to_affine(_mul_table(_G_TABLE, k % N or N))


def on_curve(pt) -> bool:
    if pt is None:
        return False
    x, y = pt
    return 0 < x < P and 0 < y < P and (y * y - (x * x * x + 7)) % P == 0


def point_to_bytes(pt) -> bytes:
    return pt[0].to_bytes(32, "big") + pt[1].to_bytes(32, "big")


def point_from_bytes(raw: bytes):
    if len(raw) != 64:
        raise ValueError("public key must be 64 bytes")
    pt = (int.from_bytes(raw[:32], "big"), int.from_bytes(raw[32:], "big"))
    if not on_curve(pt):
        raise ValueError("point not on curve")
    return pt


def public_key_bytes(private_scalar: int) -> bytes:
    return point_to_bytes(scalar_mult(private_scalar))


def _derive_nonce(private_scalar: int, digest: bytes, counter: int) -> int:
    seed = private_scalar.to_bytes(32, "big") + digest + counter.to_bytes(4, "big")
    k = int.from_bytes(hmac.new(seed, b"nonce", hashlib.sha256).digest(), "big") % N
    return k


def sign_digest(private_scalar: int, digest: bytes) -> tuple[int, bytes, bytes]:
    """Sign a 32-byte digest, returning (v, r, s) with recoverable v."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    z = int.from_bytes(digest, "big")
    counter = 0
    while True:
        k = _derive_nonce(private_scalar, digest, counter)
        counter += 1
        if not 0 < k < N:
            continue
        px, py = scalar_mult(k)
        r = px % N
        if r == 0 or px >= N:
            # px >= N would need v+=2 to recover; retry keeps v in {27, 28}
            continue
        s = (pow(k, -1, N) * (z + r * private_scalar)) % N
        if s == 0:
            continue
        v = 27 + (py & 1)
        return v, r.to_bytes(32, "big"), s.to_bytes(32, "big")


def well_formed(v: int, r: bytes, s: bytes) -> bool:
    """Whether a signature has the shape recovery reads: 32-byte r and s, and
    v the int 27 or 28 (not a float or a bool that equals one)."""
    return len(r) == 32 and len(s) == 32 and type(v) is int and v in (27, 28)


def recover_public_key(digest: bytes, v: int, r: bytes, s: bytes) -> bytes | None:
    """Recover the signing public key, or None when the triple is invalid."""
    if len(digest) != 32 or not well_formed(v, r, s):
        return None
    ri = int.from_bytes(r, "big")
    si = int.from_bytes(s, "big")
    if not 0 < ri < N or not 0 < si < N:
        return None
    # Rebuild the ephemeral point from its x coordinate and parity.
    x = ri
    alpha = (pow(x, 3, P) + 7) % P
    y = pow(alpha, (P + 1) // 4, P)
    if y * y % P != alpha:
        return None
    if (y & 1) != (v - 27):
        y = P - y
    ep = (x, y)
    z = int.from_bytes(digest, "big")
    rinv = pow(ri, -1, N)
    # Q = r^-1 (s*R - z*G) = u1*G + u2*R
    u1 = (-z * rinv) % N
    u2 = (si * rinv) % N
    q = _to_affine(_mul_table(_G_TABLE, u1, _mul_var(u2, ep)))
    if not on_curve(q):  # None, the point at infinity, is on no curve
        return None
    return point_to_bytes(q)


def verify_digest(public_key: bytes, digest: bytes, v: int, r: bytes, s: bytes) -> bool:
    recovered = recover_public_key(digest, v, r, s)
    return recovered is not None and recovered == public_key


def ecdh_shared_secret(private_scalar: int, peer_public: bytes | FixedBase) -> bytes:
    """x-coordinate of the shared point, 32 bytes.

    ``peer_public`` is a 64-byte public key, or the table that
    ``prepare_public_key`` made of one.
    """
    k = private_scalar % N or N
    if isinstance(peer_public, FixedBase):
        pt = _to_affine(_mul_table(peer_public, k))
    else:
        pt = _to_affine(_mul_var(k, point_from_bytes(peer_public)))
    if pt is None:
        raise ValueError("degenerate shared point")
    return pt[0].to_bytes(32, "big")
