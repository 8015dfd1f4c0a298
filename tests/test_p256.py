"""The P-256 kernel against an independent affine reference.

``repro.mpc.p256`` does every scalar multiplication in OpenSSL; the
reference below is textbook double-and-add over the curve equation, so
agreement checks the kernel's use of OpenSSL (ECDH as ``x(k * P)``, the
lifts, the encodings) and its one piece of Python arithmetic (``add``).
``random_scalar``'s range, width and determinism are pinned by
``test_batch_kernels.py::TestExponentWidth``.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.mpc import p256
from repro.mpc.p256 import N, P

B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)


def ref_add(p1, p2):
    """Affine addition with the point at infinity as ``None``."""
    if p1 is None or p2 is None:
        return p1 or p2
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def ref_mul(k, point):
    acc = None
    while k:
        if k & 1:
            acc = ref_add(acc, point)
        point = ref_add(point, point)
        k >>= 1
    return acc


def x_bytes(point):
    return point[0].to_bytes(32, "big")


def scalars(seed, count):
    rng = np.random.default_rng(seed)
    return [p256.random_scalar(rng.bytes) for _ in range(count)]


def base_mul(k):
    return p256.base_mul(p256.secret(k))


def mul(k, point):
    (x,) = p256.mul(p256.secret(k), [point])
    return x


def mul_x(k, x):
    (out,) = p256.mul_x(p256.secret(k), [x])
    return out


def test_generator_is_on_the_curve_with_order_n():
    x, y = G
    assert (y * y - (x**3 - 3 * x + B)) % P == 0
    assert ref_mul(N, G) is None and base_mul(1) == G


def test_scalar_multiplications_match_the_reference():
    ks = scalars(1, 20)
    for k, j in zip(ks, reversed(ks)):
        point = ref_mul(j, G)
        assert base_mul(k) == ref_mul(k, G)
        assert mul(k, point) == x_bytes(ref_mul(k, point))
        assert mul_x(k, x_bytes(point)) == x_bytes(ref_mul(k, point))


def test_one_key_multiplies_many_points():
    """One derived key serves every point: the many-point forms equal
    one multiplication per point, in order, and an empty list is no
    work."""
    k, *js = scalars(8, 6)
    points = [ref_mul(j, G) for j in js]
    key = p256.secret(k)
    expected = [x_bytes(ref_mul(k, point)) for point in points]
    assert p256.mul(key, points) == expected
    assert p256.mul_x(key, [x_bytes(point) for point in points]) == expected
    assert p256.mul(key, []) == p256.mul_x(key, []) == []
    assert p256.base_mul(key) == ref_mul(k, G)


def test_addition_matches_the_reference_and_the_group_law():
    ks = scalars(2, 20)
    for a, b in zip(ks, ks[1:]):
        pa, pb = base_mul(a), base_mul(b)
        assert p256.add(pa, pb) == ref_add(pa, pb)
        assert p256.add(pa, pb) == base_mul((a + b) % N)
        assert p256.add(p256.add(pa, pb), p256.neg(pb)) == pa


@pytest.mark.parametrize("other", [lambda p: p, p256.neg])
def test_degenerate_addition_raises(other):
    point = base_mul(5)
    with pytest.raises(ArithmeticError):
        p256.add(point, other(point))


def test_mul_x_is_the_same_for_both_lifts():
    for k, j in zip(scalars(3, 5), scalars(4, 5)):
        point = base_mul(j)
        assert (
            mul(k, point)
            == mul(k, p256.neg(point))
            == mul_x(k, x_bytes(point))
        )


def test_encoding_round_trips():
    for k in scalars(5, 20):
        point = base_mul(k)
        wire = p256.encode(point)
        assert len(wire) == 33 and wire[0] == 2 + (point[1] & 1)
        assert p256.affine(p256.decode(wire)) == point
        neg = p256.neg(point)
        assert p256.affine(p256.decode(p256.encode(neg))) == neg
        assert mul(k, p256.decode(wire)) == mul(k, point)


def has_point(x):
    """Euler's criterion on the curve equation's right-hand side."""
    xi = int.from_bytes(x, "big")
    return xi < P and pow(xi**3 - 3 * xi + B, (P - 1) // 2, P) != P - 1


def twist_x():
    """The smallest x with no point over it."""
    return next(
        x
        for x in (i.to_bytes(32, "big") for i in itertools.count())
        if not has_point(x)
    )


def test_off_curve_encodings_are_rejected():
    good = p256.encode(base_mul(7))
    with pytest.raises(ValueError):
        mul_x(3, twist_x())
    for bad in (
        b"\x05" + good[1:],  # unknown prefix
        b"\x02" + twist_x(),  # on the twist
        b"\x02" + P.to_bytes(32, "big"),  # x not a field element
        good[:-1],  # truncated
        b"\x04" + good[1:] + bytes(32),  # well-formed length, not compressed
    ):
        with pytest.raises(ValueError):
            p256.decode(bad)
    with pytest.raises(ValueError):
        mul(3, (G[0], G[1] + 1))


def test_hash_to_curve_is_try_and_increment():
    skipped = set()
    for i in range(40):
        digest = hashlib.sha256(bytes([i])).digest()
        candidates = [
            hashlib.sha256(
                p256._H2C_SALT + digest + ctr.to_bytes(4, "little")
            ).digest()
            for ctr in range(64)
        ]
        first = next(j for j, x in enumerate(candidates) if has_point(x))
        assert x_bytes(p256.affine(p256.hash_to_curve(digest))) == (
            candidates[first]
        )
        skipped.add(first)
    assert {0, 1} <= skipped  # about half the candidates are rejected


def test_oprf_chain_unblinds_to_the_keyed_point():
    """2HashDH on x-coordinates: ``unblind(eval(blind(h))) == k * h``."""
    for r, k in zip(scalars(6, 10), scalars(7, 10)):
        h = p256.hash_to_curve(r.to_bytes(32, "big"))
        evaluated = mul_x(k, mul(r, h))
        assert mul_x(pow(r, -1, N), evaluated) == mul(k, h)
