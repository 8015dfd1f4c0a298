"""NIST P-256, the one group under the repo's two public-key protocols.

Every scalar multiplication runs in OpenSSL (``cryptography``'s ECDH
``exchange`` is exactly ``x(k * P)``); only the affine addition that
Chou–Orlandi's ``B = bG + A`` needs is Python.  A secret scalar becomes
one OpenSSL key (:func:`secret`), and the multiplications take it with
every point it multiplies: Chou–Orlandi's ``a`` meets ``2 kappa``
points and DH-OPRF's key ``k`` all ``m + n``.  The curve has prime
order, so a point OpenSSL accepts as on-curve is in the group: every
received encoding is validated by the one call that decodes it, and an
off-curve one raises OpenSSL's ``ValueError``.

Points are affine ``(x, y)`` integer pairs, crossing the wire as 33-byte
SEC1-compressed strings; :func:`mul_x` works on 32-byte big-endian
x-coordinates, where ``x(k * P) == x(k * -P)`` makes the choice of lift
immaterial.  A point a multiplication takes is an OpenSSL public key
(:data:`Public`); building one from an encoding or from coordinates
validates it, so a point that several scalars multiply, or that was
decoded or hashed onto the curve, is built once and passed as its key.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Sequence, Tuple, Union

from cryptography.hazmat.primitives.asymmetric import ec

__all__ = [
    "N",
    "P",
    "Point",
    "Public",
    "Secret",
    "add",
    "affine",
    "base_mul",
    "decode",
    "encode",
    "hash_to_curve",
    "mul",
    "mul_x",
    "neg",
    "random_scalar",
    "secret",
]

#: Field prime and (prime) group order.
P = 2**256 - 2**224 + 2**192 + 2**96 - 1
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

Point = Tuple[int, int]
#: A secret scalar as the OpenSSL key every multiplication by it uses
#: (:func:`secret`).
Secret = ec.EllipticCurvePrivateKey
#: A validated point as the OpenSSL key a multiplication takes.
Public = ec.EllipticCurvePublicKey

_CURVE = ec.SECP256R1()
_ECDH = ec.ECDH()
_H2C_SALT = b"secyan-p256-h2c"


def random_scalar(random_bytes: Callable[[int], bytes]) -> int:
    """Uniform secret scalar in ``[1, N)`` by rejection sampling from
    ``random_bytes(n)`` (the protocol context's metered source).  Full
    width is required: a ``k``-bit scalar falls to an ``O(2^(k/2))``
    Pollard-kangaroo search."""
    while True:
        k = int.from_bytes(random_bytes(32), "big")
        if 1 <= k < N:
            return k


def _public_key(point: Union[Point, Public]) -> Public:
    if isinstance(point, Public):
        return point
    return ec.EllipticCurvePublicNumbers(*point, _CURVE).public_key()


def affine(key: Public) -> Point:
    """The ``(x, y)`` coordinates of a point held as its key."""
    nums = key.public_numbers()
    return nums.x, nums.y


def _lift(x: bytes) -> Public:
    """The even-``y`` point over a 32-byte x-coordinate."""
    return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, b"\x02" + x)


def secret(k: int) -> Secret:
    """Scalar ``k`` as an OpenSSL private key.  Deriving it computes
    ``k * G``, a fixed-base multiplication, so each secret scalar is
    derived once however many points it then multiplies."""
    return ec.derive_private_key(k, _CURVE)


def base_mul(k: Secret) -> Point:
    """``k * G``, computed when ``k`` was derived."""
    return affine(k.public_key())


def mul(k: Secret, points: Sequence[Union[Point, Public]]) -> List[bytes]:
    """``x(k * P)`` for every ``P`` in ``points``: affine coordinates,
    or a key already built (:func:`decode`, :func:`hash_to_curve`),
    which is not built again."""
    return [k.exchange(_ECDH, _public_key(point)) for point in points]


def mul_x(k: Secret, xs: Sequence[bytes]) -> List[bytes]:
    """``x(k * P)`` for every x-coordinate, ``P`` either point over
    it."""
    return [k.exchange(_ECDH, _lift(x)) for x in xs]


def neg(point: Point) -> Point:
    x, y = point
    return x, P - y


def add(p1: Point, p2: Point) -> Point:
    """``p1 + p2`` for ``p1 != ±p2`` — which two independent uniform
    points are but with probability ``2^-255``; raising then beats
    deriving a key from a wrong sum."""
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        raise ArithmeticError("degenerate P-256 addition: P = ±Q")
    lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def encode(point: Point) -> bytes:
    """33-byte SEC1 compressed form."""
    x, y = point
    return bytes([2 | (y & 1)]) + x.to_bytes(32, "big")


def decode(data: bytes) -> Public:
    """Inverse of :func:`encode`, as the point's key (:func:`affine`
    gives its coordinates); rejects anything else."""
    if len(data) != 33:
        raise ValueError("a compressed P-256 point is 33 bytes")
    return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, data)


def hash_to_curve(digest: bytes) -> Public:
    """The point over the x-coordinate ``sha256(salt | digest | ctr)``
    of the first counter that lands on the curve (about half do), as
    the key the lift that found it built.  The iteration count depends
    only on the hashing party's own ``digest`` and never reaches the
    wire."""
    ctr = 0
    while True:
        x = hashlib.sha256(
            _H2C_SALT + digest + ctr.to_bytes(4, "little")
        ).digest()
        try:
            return _lift(x)
        except ValueError:
            ctr += 1
