"""PSI with secret-shared payloads (Section 5.5).

When a semijoin's filter relation carries *shared* annotations (any
intermediate result does), the plain payload-PSI cannot be used — the
payloads must stay hidden from both parties.  The paper's composition:

1. Extend the shared payload vector ``z[0..N-1]`` with ``B`` trivial
   zero shares.
2. The filter's owner ("Bob" of the PSI) draws a random permutation
   ``xi1`` of ``[N+B]`` and the parties OEP-permute the shares to
   ``z'_j = z_{xi1(j)}``.
3. Run PSI where the payload of item ``y_j`` is the *index*
   ``xi1^{-1}(j)`` and the per-bin fallback is ``xi1^{-1}(N + i)``; the
   per-bin outputs ``k_i`` are *revealed* to the cuckoo-side owner —
   they are distinct uniform values from ``[N+B]``, independent of the
   data.
4. A second OEP with ``xi2(i) = k_i`` maps the permuted shares onto the
   bins: matched bins receive the true payload share, unmatched bins a
   zero share.
"""

from __future__ import annotations

import numpy as np

from ..mpc.costs import psi_bins
from ..mpc.cuckoo import Items
from ..mpc.engine import Engine
from ..mpc.psi import PsiResult
from ..mpc.sharing import SharedVector
from .oriented import OrientedEngine

__all__ = ["psi_with_shared_payloads"]


def psi_with_shared_payloads(
    engine: Engine,
    owner: str,
    owner_items: Items,
    other_items: Items,
    other_payload_shares: SharedVector,
    label: str = "psi_shared",
) -> PsiResult:
    """PSI where the non-owner side's payloads are secret-shared.

    Returns a :class:`PsiResult` whose ``payload`` is a shared per-bin
    vector: the matching item's payload share for matched bins, a fresh
    zero share otherwise.
    """
    if len(other_items) != len(other_payload_shares):
        raise ValueError("one payload share per item is required")
    ctx = engine.ctx
    oe = OrientedEngine(engine, owner)
    n = len(other_items)
    b = psi_bins(len(owner_items))

    with ctx.section(label):
        # (1) extend with B zero shares.
        extended = other_payload_shares.concat(
            SharedVector.zeros(b, ctx.modulus)
        )
        # (2) the other party's private random permutation of [N+B].
        xi1 = np.asarray(ctx.rng.permutation(n + b), dtype=np.int64)
        z_prime = oe.flipped().oep(xi1, extended, n + b, label="oep_xi1")
        inv = np.empty(n + b, dtype=np.int64)
        inv[xi1] = np.arange(n + b)
        # (3) PSI carrying permuted indices; outputs revealed to owner.
        res = oe.psi(
            owner_items,
            other_items,
            inv[:n],
            other_fallbacks=inv[n:],
            reveal_payload=True,
            label="psi",
        )
        if res.n_bins != b:
            raise AssertionError(
                "bin-count mismatch between PSI and the xi1 extension"
            )
        k = np.asarray(res.payload, dtype=np.int64)
        # (4) map the permuted shares onto the bins.
        z_bins = oe.oep(k, z_prime, b, label="oep_xi2")
    return PsiResult(res.table, b, res.ind, z_bins)
