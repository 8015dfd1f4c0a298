"""Linear-communication join matching via a DH-based OPRF (2HashDH).

The linear join back-end (LINQ / Bifrost style; see docs/BACKENDS.md)
replaces circuit PSI with the classic exponent-blinded Diffie-Hellman
OPRF: the child owner holds a per-invocation key ``k`` and each side
learns ``PRF_k(x) = H2(H1(x)^k)`` only for its own items.

Protocol, with the parent owner as protocol-Alice and the child owner
as protocol-Bob:

1. Alice blinds each of her ``m`` (distinct, dummy-padded) key tuples
   with a fresh exponent: ``a_i = H1(x_i)^{r_i}`` — one message of
   ``m`` group elements ("blind").
2. Bob raises every received element to his key: ``b_i = a_i^k``
   ("eval").
3. Bob tokenises his own ``n`` (distinct) tuples,
   ``t_j = H2(H1(y_j)^k)``, and sends the tokens in sorted order
   ("tokens").
4. Alice unblinds ``b_i^{1/r_i} = H1(x_i)^k`` locally, tokenises, and
   matches against the sorted token list.

``H1`` hashes into the order-``q`` subgroup of quadratic residues (the
SHA-512 image squared mod the RFC 3526 safe prime), so blinding
exponents drawn from ``[1, q)`` are invertible and the blinded elements
are uniform in the subgroup — Bob learns nothing about Alice's keys,
and Alice's unblinding ``r_i^{-1} mod q`` recovers the exact PRF value.

All three message sizes depend only on the public sizes ``m`` and
``n``, and the token order is pseudorandom under the PRF, so the
transcript shape is input-independent.  Alice does learn the
PRF-pseudonymised join pattern (which of her keys occur in Bob's
relation, and in which sorted slot) — exactly the leakage the linear
back-end is specified to reveal (docs/BACKENDS.md); values outside the
intersection stay hidden from both parties.

Items enter as their 32-byte digests (:func:`repro.mpc.cuckoo.
item_digests`; callers may pass the digest matrix directly): the digest
is ``H1``'s pre-image in REAL mode, and SIMULATED mode draws one salt
from the shared context RNG, tokenises both digest matrices with it
directly (``sha256(salt || digest)``, no exponentiations) and charges
the identical three messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..leakage import leaks
from .batch import sha256_rows, sorted_lookup
from .context import ALICE, BOB, Context, Mode
from .costs import DH_GROUP_BITS, DH_TOKEN_BYTES, dh_oprf_bytes
from .cuckoo import Items, has_duplicates, item_digests
from .modp import ModpGroup, modp_group

__all__ = ["DhOprfMatch", "dh_oprf_match"]

_H1_SALT = b"secyan-dhoprf-h1"
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


def _hash_to_group(group: ModpGroup, digest: bytes) -> int:
    """``H1``: hash into the quadratic-residue subgroup (order ``q``)."""
    h = int.from_bytes(hashlib.sha512(_H1_SALT + digest).digest(), "big")
    return group.pow(h % group.p or 1, 2)


def _token(group: ModpGroup, element: int) -> bytes:
    """``H2``: truncated hash of a group element's fixed-width encoding."""
    return hashlib.sha256(
        _H2_SALT + int(element).to_bytes(group.element_bytes, "big")
    ).digest()[:DH_TOKEN_BYTES]


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
    group = modp_group(DH_GROUP_BITS)
    eb = group.element_bytes

    # 1. Alice blinds her hashed keys with fresh per-item exponents.
    blinds = [group.random_exponent(ctx.random_bytes) for _ in alice]
    blinded = [
        group.pow(_hash_to_group(group, x.tobytes()), r)
        for x, r in zip(alice, blinds)
    ]
    ctx.send(ALICE, len(alice) * eb, "blind")

    # 2. Bob applies his OPRF key to every blinded element ...
    k = group.random_exponent(ctx.random_bytes)
    evaluated = [group.pow(a, k) for a in blinded]
    ctx.send(BOB, len(alice) * eb, "eval")

    # 3. ... and ships the tokens of his own items.
    bob_tokens = [
        _token(group, group.pow(_hash_to_group(group, y.tobytes()), k))
        for y in bob
    ]
    ctx.send(BOB, len(bob) * DH_TOKEN_BYTES, "tokens")

    # 4. Alice unblinds locally.
    alice_tokens = [
        _token(group, group.pow(b, pow(r, -1, group.q)))
        for b, r in zip(evaluated, blinds)
    ]
    return (
        _as_tokens(b"".join(alice_tokens)),
        _as_tokens(b"".join(bob_tokens)),
    )


def _tokens_simulated(
    ctx: Context, alice: np.ndarray, bob: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    blind, evaluated, tokens = dh_oprf_bytes(len(alice), len(bob))
    ctx.send(ALICE, blind, "blind")
    ctx.send(BOB, evaluated, "eval")
    ctx.send(BOB, tokens, "tokens")

    # One shared salt stands in for the PRF key: same token function on
    # both digest matrices, no exponentiations.
    salt = np.frombuffer(ctx.random_bytes(16), dtype=np.uint8)
    both = np.concatenate([alice, bob]).view(np.uint8).reshape(-1, 32)
    rows = np.concatenate(
        [np.broadcast_to(salt, (len(both), 16)), both], axis=1
    )
    toks = _as_tokens(sha256_rows(rows)[:, :DH_TOKEN_BYTES].tobytes())
    return toks[: len(alice)], toks[len(alice) :]
