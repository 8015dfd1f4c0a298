"""Oblivious projection-aggregation (Section 6.1).

Two operators:

* ``oblivious_aggregate``          — ``pi_F^(+)(R)``
* ``oblivious_support_projection`` — ``pi_F^1(R)``

Both return an output relation of the *same size* as the input: the
owner sorts her tuples by the group key, the annotation shares are
permuted consistently with OEP, and a merge-gate chain folds each
group's annotations into its last position (for sums one C-OT batch on
the owner's boundary bits, for ``pi^1`` a garbled OR chain); all other
positions become zero-annotated dummy tuples.  The output is therefore
*semantically equivalent* to the true projection while its size and
access pattern depend only on the (public) input size.

The owner-local sort runs columnar: group keys become ``int64`` row
codes (:func:`~repro.relalg.columns.joint_row_codes`) and one
``np.argsort`` yields both the permutation and the same-as-next
boundary flags — no per-tuple encoding — once per store and key
(:meth:`~repro.relalg.columns.TupleStore.sort_layout`, and ``groups``
on the plain path), not on every run.  The sort order (code order) is
deterministic and mode-independent; only the *grouping* matters to the
protocol, and the transcript depends only on the public size ``n``.

When the annotations are plain and owner-held (Section 6.5), the whole
operator runs locally — the output is still padded with dummies to the
input size so no intermediate cardinality is disclosed downstream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mpc.context import Context
from ..mpc.engine import Engine
from ..relalg.columns import (
    TupleStore,
    group_by_first_appearance,
    joint_row_codes,
)
from .oriented import OrientedEngine
from .relation import SecureAnnotations, SecureRelation

__all__ = ["oblivious_aggregate", "oblivious_support_projection"]


def _output_store(
    ctx: Context, sorted_proj: TupleStore, same: np.ndarray
) -> TupleStore:
    """Group keys at last-of-group positions, fresh dummies elsewhere
    (one vectorised nonce-block reservation from the run's context)."""
    n = sorted_proj.n
    last = np.ones(n, dtype=bool)
    if n > 1:
        last[:-1] = ~same
    nonce = sorted_proj.nonce.copy()
    inner = ~last
    nonce[inner] = ctx.dummy_nonces(int(inner.sum()))
    return TupleStore(
        sorted_proj.attributes, sorted_proj.columns, nonce
    )


def oblivious_aggregate(
    engine: Engine,
    rel: SecureRelation,
    attrs: Sequence[str],
    label: str = "aggregate",
) -> SecureRelation:
    """``pi_attrs^(+)(rel)``, output padded to ``len(rel)`` tuples."""
    attrs = tuple(attrs)
    rel.index_of(attrs)  # validate
    n = len(rel)
    if n == 0:
        return SecureRelation(
            rel.owner, attrs, [], SecureAnnotations.plain(rel.owner, [])
        )

    if rel.annotations.kind == "plain":
        # Section 6.5 fast path: entirely local to the owner.
        gid, keys = rel.store.groups(attrs)
        assert rel.annotations.values is not None
        sums = np.zeros(len(keys), dtype=np.uint64)
        np.add.at(sums, gid, rel.annotations.values)
        sums &= engine.ctx.mask
        out_store = keys.with_dummies(
            engine.ctx.dummy_nonces(n - len(keys))
        )
        out_annots = np.zeros(n, dtype=np.uint64)
        out_annots[: len(keys)] = sums
        return SecureRelation(
            rel.owner,
            attrs,
            out_store,
            SecureAnnotations.plain(rel.owner, out_annots),
        )

    oe = OrientedEngine(engine, rel.owner)
    with engine.ctx.section(label):
        order, sorted_proj, same = rel.store.sort_layout(attrs)
        assert rel.annotations.shares is not None
        permuted = oe.oep(order, rel.annotations.shares, n, label="oep")
        merged = oe.merge_aggregate_sum(same, permuted)
    return SecureRelation(
        rel.owner,
        attrs,
        _output_store(engine.ctx, sorted_proj, same),
        SecureAnnotations.shared(merged),
    )


def oblivious_support_projection(
    engine: Engine,
    rel: SecureRelation,
    attrs: Sequence[str],
    label: str = "support",
) -> SecureRelation:
    """``pi_attrs^1(rel)``: distinct keys of nonzero-annotated tuples,
    annotations in {0, 1}, padded to ``len(rel)`` tuples."""
    attrs = tuple(attrs)
    rel.index_of(attrs)
    n = len(rel)
    if n == 0:
        return SecureRelation(
            rel.owner, attrs, [], SecureAnnotations.plain(rel.owner, [])
        )

    if rel.annotations.kind == "plain":
        assert rel.annotations.values is not None
        nz = np.flatnonzero(rel.annotations.values != 0)
        sub = rel.store.project(attrs).take(nz)
        codes = joint_row_codes([sub])[0]
        _, first = group_by_first_appearance(codes)
        out_store = sub.take(first).with_dummies(
            engine.ctx.dummy_nonces(n - len(first))
        )
        out_annots = np.zeros(n, dtype=np.uint64)
        out_annots[: len(first)] = 1
        return SecureRelation(
            rel.owner,
            attrs,
            out_store,
            SecureAnnotations.plain(rel.owner, out_annots),
        )

    oe = OrientedEngine(engine, rel.owner)
    with engine.ctx.section(label):
        order, sorted_proj, same = rel.store.sort_layout(attrs)
        assert rel.annotations.shares is not None
        permuted = oe.oep(order, rel.annotations.shares, n, label="oep")
        indicators = oe.indicator_nonzero(permuted)
        merged = oe.merge_aggregate_or(same, indicators)
    return SecureRelation(
        rel.owner,
        attrs,
        _output_store(engine.ctx, sorted_proj, same),
        SecureAnnotations.shared(merged),
    )
