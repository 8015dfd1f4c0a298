"""Oblivious semijoin and reduce-join (Section 6.2).

``oblivious_reduce_join(parent, child)`` computes the annotated join
``R = parent ⋈⊗ child`` under the reduce-phase constraint
``child.attributes ⊆ parent.attributes``: the output has *exactly the
parent's tuples*, only the annotations change — a parent tuple that
joins a child tuple gets the product of their annotations, others get a
(shared) zero.

``oblivious_semijoin(target, filter)`` is
``target ⋈⊗ pi^1_{T∩F}(filter)`` — it zero-annotates the target tuples
with no nonzero join partner, leaving the rest untouched (multiplied by
the shared indicator 1).

Three regimes, matching the paper:

* different owners, child annotations owner-known — PSI with plain
  payloads (Section 6.5 fast path);
* different owners, child annotations shared — PSI with secret-shared
  payloads (Section 5.5);
* same owner — no PSI: the owner locally aligns child tuples with
  parent tuples (a dummy slot for non-joining tuples) and one OEP plus
  the multiplication circuits refresh the shares.  Fully plain
  same-owner inputs never leave the owner at all.

The owner-local alignment maps run columnar: parent keys and child
tuples are re-encoded into one shared ``int64`` code space
(:func:`~repro.relalg.columns.joint_row_codes`) and the position maps
``mu``/``xi`` fall out of one sort + ``searchsorted`` (same owner) or
one group-by (cross owner) instead of per-tuple dict probes.  The PSI
inputs leave as digest matrices (:func:`~repro.core.relation.
row_digests`); no Python tuple is built.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from ..leakage import BACKENDS
from ..mpc.batch import sorted_lookup
from ..mpc.context import Context
from ..mpc.engine import Engine
from ..mpc.sharing import SharedVector
from ..relalg.columns import joint_row_codes
from .aggregation import oblivious_support_projection
from .linear import _key_rows, linear_cross_owner_payloads
from .oriented import OrientedEngine
from .relation import SecureAnnotations, SecureRelation, row_digests
from .shared_payload_psi import psi_with_shared_payloads

__all__ = ["BACKENDS", "oblivious_reduce_join", "oblivious_semijoin"]


def oblivious_reduce_join(
    engine: Engine,
    parent: SecureRelation,
    child: SecureRelation,
    label: str = "reduce_join",
    backend: str = "yannakakis",
) -> SecureRelation:
    """``parent ⋈⊗ child`` with ``child.attributes ⊆ parent.attributes``."""
    if not set(child.attributes) <= set(parent.attributes):
        raise ValueError(
            "reduce-join requires the child's attributes to be a subset "
            f"of the parent's ({child.attributes} vs {parent.attributes})"
        )
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown join back-end {backend!r}; choose from {BACKENDS}"
        )
    ctx = engine.ctx
    m = len(parent)
    if m == 0:
        return parent

    with ctx.section(label):
        if not child.attributes:
            new_annots = _scalar_child_payloads(engine, parent, child)
        elif parent.owner == child.owner:
            new_annots = _same_owner_payloads(engine, parent, child)
        elif backend == "linear":
            new_annots = linear_cross_owner_payloads(engine, parent, child)
        else:
            new_annots = _cross_owner_payloads(engine, parent, child)
    return SecureRelation(
        parent.owner, parent.attributes, parent.store, new_annots
    )


def _scalar_child_payloads(
    engine: Engine, parent: SecureRelation, child: SecureRelation
) -> SecureAnnotations:
    """Child aggregated to zero attributes: semantically a single empty
    tuple whose annotation is the (local) sum of the child's annotation
    vector — every parent tuple's annotation is scaled by that scalar.
    No PSI is needed; summing shares and replicating them is local."""
    ctx = engine.ctx
    m = len(parent)
    if (
        parent.annotations.kind == "plain"
        and child.annotations.kind == "plain"
        and parent.owner == child.owner
    ):
        total = int(child.annotations.values.sum()) % ctx.modulus
        new_vals = (
            parent.annotations.values * np.uint64(total)
        ) & ctx.mask
        return SecureAnnotations.plain(parent.owner, new_vals)
    oe = OrientedEngine(engine, parent.owner)
    child_sv = child.annotations.to_shared(engine)
    total_sv = child_sv.sum()
    z = SharedVector(
        np.tile(total_sv.alice, m), np.tile(total_sv.bob, m), ctx.modulus
    )
    if parent.annotations.kind == "plain":
        new = oe.mul_owner_plain(parent.annotations.values, z)
    else:
        new = oe.mul_shared(parent.annotations.shares, z)
    return SecureAnnotations.shared(new)


def _child_alignment(
    parent: SecureRelation, child: SecureRelation
) -> Tuple[np.ndarray, np.ndarray]:
    """Owner-local: shared row codes for the parent's key projection and
    the child's tuples (``(pcodes, ccodes)``)."""
    proj = parent.store.project(child.attributes)
    return tuple(joint_row_codes([proj, child.store]))  # type: ignore[return-value]


def _same_owner_payloads(
    engine: Engine,
    parent: SecureRelation,
    child: SecureRelation,
) -> SecureAnnotations:
    """The simplified same-party protocol (end of Section 6.2)."""
    owner = parent.owner
    ctx = engine.ctx
    n = len(child)
    pcodes, ccodes = _child_alignment(parent, child)
    if len(np.unique(ccodes)) != n:
        raise ValueError(
            "reduce-join requires distinct child tuples (run the "
            "child through an oblivious projection-aggregation "
            "first, as the Yannakakis plan does)"
        )
    # mu[i] = the child row parent row i joins, or n = the dummy slot
    # (``slot`` is -1 there, which indexes the appended ``n``).
    order, slot = sorted_lookup(ccodes, pcodes)
    mu = np.append(order, n)[slot]

    if (
        parent.annotations.kind == "plain"
        and child.annotations.kind == "plain"
    ):
        # Both relations fully at the owner: pure local computation.
        ext = np.concatenate(
            [child.annotations.values, np.zeros(1, dtype=np.uint64)]
        )
        new_vals = (parent.annotations.values * ext[mu]) & ctx.mask
        return SecureAnnotations.plain(owner, new_vals)

    oe = OrientedEngine(engine, owner)
    child_sv = child.annotations.to_shared(engine)
    extended = child_sv.concat(SharedVector.zeros(1, ctx.modulus))
    z = oe.oep(mu, extended, len(parent), label="oep")
    if parent.annotations.kind == "plain":
        new = oe.mul_owner_plain(parent.annotations.values, z)
    else:
        new = oe.mul_shared(parent.annotations.shares, z)
    return SecureAnnotations.shared(new)


def _cross_owner_payloads(
    engine: Engine,
    parent: SecureRelation,
    child: SecureRelation,
) -> SecureAnnotations:
    """The PSI-based protocol of Section 6.2 (different owners)."""
    owner = parent.owner
    m = len(parent)
    oe = OrientedEngine(engine, owner)

    # The child's tuples are distinct whenever it came out of a
    # projection-aggregation, which the Yannakakis plan guarantees.
    x_store, gid = _key_rows(parent, child)
    x_items, child_items = row_digests(x_store), row_digests(child.store)
    if child.annotations.kind == "plain":
        res = oe.psi(
            x_items, child_items, child.annotations.values, label="psi"
        )
    else:
        res = psi_with_shared_payloads(
            engine, owner, x_items, child_items,
            child.annotations.shares, label="psi_shared",
        )

    # Map per-bin payloads back to the parent's tuple positions: row i's
    # key is distinct-key gid[i], which sits in that item's bin.
    xi = res.bin_of_item_index()[gid]
    z = oe.oep(xi, _as_shared(res.payload, engine.ctx), m, label="oep")
    if parent.annotations.kind == "plain":
        new = oe.mul_owner_plain(parent.annotations.values, z)
    else:
        new = oe.mul_shared(parent.annotations.shares, z)
    return SecureAnnotations.shared(new)


def _as_shared(payload: Any, ctx: Context) -> SharedVector:
    if isinstance(payload, SharedVector):
        return payload
    raise TypeError("expected a shared per-bin payload vector")


def oblivious_semijoin(
    engine: Engine,
    target: SecureRelation,
    filter_rel: SecureRelation,
    label: str = "semijoin",
    backend: str = "yannakakis",
) -> SecureRelation:
    """``target ⋉⊗ filter``: zero-annotate the target tuples that join no
    nonzero-annotated filter tuple (Section 6.2, second type)."""
    shared_attrs = [
        a for a in filter_rel.attributes if a in set(target.attributes)
    ]
    with engine.ctx.section(label):
        support = oblivious_support_projection(
            engine, filter_rel, shared_attrs, label="support"
        )
        return oblivious_reduce_join(
            engine, target, support, label="join", backend=backend
        )
