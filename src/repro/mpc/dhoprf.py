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

SIMULATED mode draws one salt from the shared context RNG, tokenises
both item lists with it directly (no exponentiations) and charges the
identical three messages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Hashable, Sequence

import numpy as np

from ..leakage import leaks
from .context import ALICE, BOB, Context, Mode
from .costs import DH_GROUP_BITS, DH_TOKEN_BYTES, dh_oprf_bytes
from .cuckoo import encode_item
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


def _hash_to_group(group: ModpGroup, item: Hashable) -> int:
    """``H1``: hash into the quadratic-residue subgroup (order ``q``)."""
    digest = hashlib.sha512(_H1_SALT + encode_item(item)).digest()
    h = int.from_bytes(digest, "big") % group.p
    return group.pow(h or 1, 2)


def _token(group: ModpGroup, element: int) -> bytes:
    """``H2``: truncated hash of a group element's fixed-width encoding."""
    return hashlib.sha256(
        _H2_SALT + int(element).to_bytes(group.element_bytes, "big")
    ).digest()[:DH_TOKEN_BYTES]


@leaks("join_pattern:parent")
def dh_oprf_match(
    ctx: Context,
    alice_items: Sequence[Hashable],
    bob_items: Sequence[Hashable],
    label: str = "dhoprf",
) -> DhOprfMatch:
    """Match Alice's items against Bob's under a fresh DH-OPRF key.

    Both sides must supply distinct items (the linear join feeds
    deduplicated, dummy-padded key projections, exactly like PSI).
    """
    if len(set(alice_items)) != len(alice_items):
        raise ValueError("DH-OPRF matching requires distinct Alice items")
    if len(set(bob_items)) != len(bob_items):
        raise ValueError("DH-OPRF matching requires distinct Bob items")
    with ctx.section(label):
        if ctx.mode == Mode.REAL:
            return _match_real(ctx, alice_items, bob_items)
        return _match_simulated(ctx, alice_items, bob_items)


def _sorted_slots(tokens: Sequence[bytes]) -> "tuple[list[int], Dict[bytes, int]]":
    """Sort tokens; return ``(order, token -> slot)``."""
    order = sorted(range(len(tokens)), key=lambda j: tokens[j])
    slot_of = {tokens[j]: s for s, j in enumerate(order)}
    if len(slot_of) != len(tokens):
        raise RuntimeError(
            "DH-OPRF token collision between distinct items "
            "(probability < 2^-100); re-run with a fresh context"
        )
    return order, slot_of


def _match_real(
    ctx: Context,
    alice_items: Sequence[Hashable],
    bob_items: Sequence[Hashable],
) -> DhOprfMatch:
    group = modp_group(DH_GROUP_BITS)
    eb = group.element_bytes
    m, n = len(alice_items), len(bob_items)

    # 1. Alice blinds her hashed keys with fresh per-item exponents.
    blinds = [group.random_exponent(ctx.random_bytes) for _ in range(m)]
    blinded = [
        group.pow(_hash_to_group(group, x), r)
        for x, r in zip(alice_items, blinds)
    ]
    ctx.send(ALICE, m * eb, "blind")

    # 2. Bob applies his OPRF key to every blinded element ...
    k = group.random_exponent(ctx.random_bytes)
    evaluated = [group.pow(a, k) for a in blinded]
    ctx.send(BOB, m * eb, "eval")

    # 3. ... and ships the tokens of his own items, sorted.
    bob_tokens = [
        _token(group, group.pow(_hash_to_group(group, y), k))
        for y in bob_items
    ]
    order, slot_of = _sorted_slots(bob_tokens)
    ctx.send(BOB, n * DH_TOKEN_BYTES, "tokens")

    # 4. Alice unblinds and matches locally.
    slot = np.empty(m, dtype=np.int64)
    for i, (b, r) in enumerate(zip(evaluated, blinds)):
        u = group.pow(b, pow(r, -1, group.q))
        slot[i] = slot_of.get(_token(group, u), -1)
    return DhOprfMatch(slot, np.asarray(order, dtype=np.int64))


def _match_simulated(
    ctx: Context,
    alice_items: Sequence[Hashable],
    bob_items: Sequence[Hashable],
) -> DhOprfMatch:
    blind, evaluated, tokens = dh_oprf_bytes(len(alice_items), len(bob_items))
    ctx.send(ALICE, blind, "blind")
    ctx.send(BOB, evaluated, "eval")

    # One shared salt stands in for the PRF key: same token function on
    # both item lists, no exponentiations.
    salt = ctx.random_bytes(16)

    def tok(item: Hashable) -> bytes:
        digest = hashlib.sha256(salt + encode_item(item)).digest()
        return digest[:DH_TOKEN_BYTES]

    bob_tokens = [tok(y) for y in bob_items]
    order, slot_of = _sorted_slots(bob_tokens)
    ctx.send(BOB, tokens, "tokens")

    slot = np.asarray(
        [slot_of.get(tok(x), -1) for x in alice_items], dtype=np.int64
    )
    return DhOprfMatch(slot, np.asarray(order, dtype=np.int64))
