"""Linear-communication join matching via a DH-based OPRF (2HashDH).

The linear join back-end (LINQ / Bifrost style; see docs/BACKENDS.md)
replaces circuit PSI with the classic scalar-blinded Diffie-Hellman
OPRF over P-256, x-coordinates only: the child owner holds a
per-invocation key ``k`` and each side learns
``PRF_k(x) = H2(x(k * H1(x)))`` only for its own items.

Protocol, with the parent owner as protocol-Alice and the child owner
as protocol-Bob:

1. Alice blinds each of her ``m`` (distinct, dummy-padded) key tuples
   with a fresh scalar: ``a_i = x(r_i * H1(x_i))`` — one message of
   ``m`` x-coordinates ("blind").
2. Bob multiplies every received element by his key:
   ``b_i = x(k * a_i)`` ("eval").
3. Bob tokenises his own ``n`` (distinct) tuples,
   ``t_j = H2(x(k * H1(y_j)))``, and sends the tokens in sorted order
   ("tokens").
4. Alice unblinds ``x(r_i^-1 * b_i) = x(k * H1(x_i))`` locally,
   tokenises, and matches against the sorted token list.

``H1`` (:func:`repro.mpc.p256.hash_to_curve`) is try-and-increment onto
an x-coordinate of the prime-order curve, so blinding scalars drawn from
``[1, n)`` are invertible mod ``n`` and the blinded elements are uniform
— Bob learns nothing about Alice's keys.  Only x crosses: ``x(k * P) ==
x(k * -P)``, so whichever point a party lifts an x-coordinate to gives
the same PRF value, and each lift is the on-curve check of the received
element.  The number of ``H1`` attempts depends on the hashing party's
own item and is never sent.

All three message sizes depend only on the public sizes ``m`` and
``n``, and the token order is pseudorandom under the PRF, so the
transcript shape is input-independent.  Alice does learn the
PRF-pseudonymised join pattern (which of her keys occur in Bob's
relation, and in which sorted slot) — exactly the leakage the linear
back-end is specified to reveal (docs/BACKENDS.md); values outside the
intersection stay hidden from both parties.

Items enter as their 32-byte digests (:func:`repro.mpc.cuckoo.
item_digests`; callers may pass the digest matrix directly): the digest
is ``H1``'s pre-image in REAL mode, and SIMULATED mode draws one
16-byte salt from the shared context RNG, tokenises both digest
matrices with it directly (``AES-128_salt(digest[:16])``, one keyed
PRP call, no scalar multiplications) and charges the identical three
messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..leakage import leaks
from . import p256
from .batch import aes_prp, sorted_lookup
from .context import ALICE, BOB, Context, Meter, Mode
from .costs import DH_TOKEN_BYTES, dh_oprf_bytes
from .cuckoo import Items, has_duplicates, item_digests

__all__ = ["DhOprfMatch", "charge_dh_oprf", "dh_oprf_match"]

_H2_SALT = b"secyan-dhoprf-h2"


@dataclass
class DhOprfMatch:
    """Output of one DH-OPRF matching invocation.

    ``slot`` (Alice-local) maps each of her item indices to the sorted
    token slot it matched, or ``-1``; ``order`` (Bob-local) says which
    of his item indices occupies each sorted slot: slot ``j`` holds
    Bob's item ``order[j]``.
    """

    slot: np.ndarray
    order: np.ndarray


def _token(x: bytes) -> bytes:
    """``H2``: truncated hash of a group element's x-coordinate."""
    return hashlib.sha256(_H2_SALT + x).digest()[:DH_TOKEN_BYTES]


@leaks("join_pattern:parent")
def dh_oprf_match(
    ctx: Context,
    alice_items: Items,
    bob_items: Items,
    label: str = "dhoprf",
) -> DhOprfMatch:
    """Match Alice's items against Bob's under a fresh DH-OPRF key.

    Both sides must supply distinct items (the linear join feeds
    deduplicated, dummy-padded key projections, exactly like PSI), as
    hashables or as precomputed digest matrices.
    """
    alice, bob = item_digests(alice_items), item_digests(bob_items)
    if has_duplicates(alice):
        raise ValueError("DH-OPRF matching requires distinct Alice items")
    if has_duplicates(bob):
        raise ValueError("DH-OPRF matching requires distinct Bob items")
    with ctx.section(label):
        if ctx.mode == Mode.REAL:
            alice_tokens, bob_tokens = _tokens_real(ctx, alice, bob)
        else:
            alice_tokens, bob_tokens = _tokens_simulated(ctx, alice, bob)
        # Bob's tokens travel sorted; Alice matches hers against them.
        order, slot = sorted_lookup(bob_tokens, alice_tokens)
        srt = bob_tokens[order]
        if (srt[1:] == srt[:-1]).any():
            raise RuntimeError(
                "DH-OPRF token collision between distinct items "
                "(probability < 2^-100); re-run with a fresh context"
            )
        return DhOprfMatch(slot, order)


def _as_tokens(raw: bytes) -> np.ndarray:
    """Back-to-back tokens as one array of fixed-width byte strings
    (which sort and compare like the ``bytes`` they are)."""
    return np.frombuffer(raw, dtype=f"S{DH_TOKEN_BYTES}")


def _tokens_real(
    ctx: Context, alice: np.ndarray, bob: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The three protocol messages; ``(Alice's tokens, Bob's tokens)``."""
    # 1. Alice blinds her hashed keys with fresh per-item scalars.
    blinds = [p256.random_scalar(ctx.random_bytes) for _ in alice]
    blinded = [
        p256.mul_x(p256.secret(r), [p256.hash_to_curve(x.tobytes())])[0]
        for x, r in zip(alice, blinds)
    ]
    ctx.send(ALICE, sum(map(len, blinded)), "blind")

    # 2. Bob applies his OPRF key to every blinded element ...
    k = p256.secret(p256.random_scalar(ctx.random_bytes))
    evaluated = p256.mul_x(k, blinded)
    ctx.send(BOB, sum(map(len, evaluated)), "eval")

    # 3. ... and ships the tokens of his own items.
    bob_tokens = [
        _token(t)
        for t in p256.mul_x(k, [p256.hash_to_curve(y.tobytes()) for y in bob])
    ]
    ctx.send(BOB, len(bob) * DH_TOKEN_BYTES, "tokens")

    # 4. Alice unblinds locally.
    alice_tokens = [
        _token(p256.mul_x(p256.secret(pow(r, -1, p256.N)), [b])[0])
        for b, r in zip(evaluated, blinds)
    ]
    return (
        _as_tokens(b"".join(alice_tokens)),
        _as_tokens(b"".join(bob_tokens)),
    )


def _tokens_simulated(
    ctx: Context, alice: np.ndarray, bob: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    charge_dh_oprf(ctx, len(alice), len(bob))

    # One shared salt stands in for the PRF key: AES-128 keyed by it
    # over each digest's first 16 bytes tokenises both matrices in one
    # call, no scalar multiplications.  A keyed PRP: distinct digest
    # prefixes get distinct tokens, in a pseudorandom order per call.
    salt = ctx.random_bytes(16)
    prefixes = np.concatenate([alice, bob])[:, :2].view(np.uint8)
    toks = _as_tokens(aes_prp(salt, prefixes)[:, :DH_TOKEN_BYTES].tobytes())
    return toks[: len(alice)], toks[len(alice) :]


def charge_dh_oprf(ctx: Meter, m: int, n: int) -> None:
    """Charge the three messages :func:`_tokens_real` sends for ``m``
    of Alice's items and ``n`` of Bob's."""
    blind, evaluated, tokens = dh_oprf_bytes(m, n)
    ctx.send(ALICE, blind, "blind")
    ctx.send(BOB, evaluated, "eval")
    ctx.send(BOB, tokens, "tokens")
