"""The linear-communication reduce-join back-end (LINQ / Bifrost style).

An alternative to the PSI-based cross-owner reduce-join of
:mod:`repro.core.semijoin`: instead of cuckoo hashing + batched OPRF +
per-bin garbled circuits, one DH-OPRF invocation
(:func:`repro.mpc.dhoprf.dh_oprf_match`) pseudonymises both key sets
and the parent owner matches tokens locally.  Communication is three
messages of ``O(m + n)`` group elements / tokens — no per-bin circuit
material — at the price of revealing the PRF-pseudonymised join
pattern to the parent owner (docs/BACKENDS.md discusses the model).

The surrounding algebra is unchanged from the PSI back-end: the
parent's key projection is deduplicated and dummy-padded to ``m``, the
child's payload vector is extended with a shared zero for non-matching
keys, one OEP (held by the parent owner) routes payloads to parent
rows, and the annotation product refreshes the shares.  The child's
payloads are aligned to the token-sorted slot order either by a local
reorder + share (owner-plain annotations) or by one oblivious
permutation held by the child owner (shared annotations).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..leakage import leaks
from ..mpc.context import Context
from ..mpc.engine import Engine
from ..mpc.sharing import SharedVector
from ..relalg.columns import TupleStore
from .oriented import OrientedEngine
from .relation import SecureAnnotations, SecureRelation, row_digests

__all__ = ["linear_cross_owner_payloads"]


def _key_rows(
    ctx: Context, parent: SecureRelation, child: SecureRelation
) -> Tuple[TupleStore, np.ndarray]:
    """The cross-owner join's parent side, for either back-end:
    ``X = pi_{F'}(parent)`` deduplicated and padded with dummies to
    ``M`` rows, plus ``gid`` — parent row ``i``'s key is ``X`` row
    ``gid[i]``."""
    gid, keys = parent.store.groups(child.attributes)
    return keys.with_dummies(ctx.dummy_nonces(len(parent) - len(keys))), gid


@leaks("join_pattern:parent")
def linear_cross_owner_payloads(
    engine: Engine,
    parent: SecureRelation,
    child: SecureRelation,
) -> SecureAnnotations:
    """Cross-owner reduce-join payloads via the linear back-end."""
    owner = parent.owner
    ctx = engine.ctx
    m = len(parent)
    n = len(child)
    oe = OrientedEngine(engine, owner)

    x_store, gid = _key_rows(ctx, parent, child)
    match = oe.dh_oprf_match(
        row_digests(x_store, ctx.digest_salt),
        row_digests(child.store, ctx.digest_salt),
        label="dhoprf",
    )

    # Child payloads in token-sorted slot order, secret-shared, with a
    # shared zero appended as the no-match slot ``n``.
    if n == 0:
        extended = SharedVector.zeros(1, ctx.modulus)
    else:
        order = match.order
        if child.annotations.kind == "plain":
            payload = engine.share_column(
                child.owner,
                child.annotations.values[order],
                label="payload",
            )
        else:
            inv = np.empty(n, dtype=np.int64)
            inv[order] = np.arange(n, dtype=np.int64)
            payload = OrientedEngine(engine, child.owner).permute(
                inv, child.annotations.shares, label="payload"
            )
        extended = payload.concat(SharedVector.zeros(1, ctx.modulus))

    # Parent row i's key is distinct-key gid[i], matched to sorted slot
    # slot[gid[i]] (or the zero slot when it has no join partner).
    xi_items = np.where(match.slot >= 0, match.slot, n)
    xi = xi_items[gid]
    z = oe.oep(xi, extended, m, label="oep")
    if parent.annotations.kind == "plain":
        new = oe.mul_owner_plain(parent.annotations.values, z)
    else:
        new = oe.mul_shared(parent.annotations.shares, z)
    return SecureAnnotations.shared(new)
