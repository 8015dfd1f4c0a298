"""Plaintext annotated relational operators (Section 3.1).

These are the non-private reference semantics for the operators that the
secure protocol makes oblivious:

* ``aggregate``            — annotated projection-aggregation ``pi_F^(+)``
* ``support_projection``   — ``pi_F^1`` (nonzero support, annotations reset to 1)
* ``join``                 — annotated natural join  ``R ⋈⊗ S``
* ``semijoin``             — annotated semijoin      ``R ⋉⊗ S  =  R ⋈⊗ pi^1_{F∩F'}(S)``
* ``select``               — selection, with the dummy-tuple variant used by
                             the privacy extension in Section 7.

All operators run columnar: group-by via ``np.unique`` row codes, join
expansion via a stable ``np.argsort`` + ``np.searchsorted`` over a
shared code space (see :mod:`repro.relalg.columns`), in time linear (up
to sorting) in input + output size — matching the complexity the
Yannakakis algorithm relies on.  Output row order and duplicate
structure are identical to the retained tuple-path reference
(``tests/relalg_reference.py``): r1-major join order, dict-insertion
group order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .columns import (
    TupleStore,
    group_by_first_appearance,
    joint_row_codes,
)
from .relation import AnnotatedRelation

__all__ = [
    "aggregate",
    "support_projection",
    "join",
    "semijoin",
    "select",
    "select_with_dummies",
    "map_annotations",
    "rename",
    "union",
]


def aggregate(
    rel: AnnotatedRelation, attrs: Sequence[str]
) -> AnnotatedRelation:
    """``pi_attrs^(+)(rel)``: project onto ``attrs`` and +-aggregate the
    annotations of tuples sharing each distinct projection.

    With ``attrs = ()`` this returns a single empty tuple annotated with the
    +-aggregate of the whole relation — i.e. a scalar aggregate.
    """
    sr = rel.semiring
    attrs = tuple(attrs)
    rel.index_of(attrs)  # validate
    if not attrs and not len(rel):
        # pi_{}^(+) of an empty relation is the empty tuple annotated 0.
        return AnnotatedRelation(attrs, [()], [sr.zero], sr)
    proj = rel.store.project(attrs)
    codes = joint_row_codes([proj])[0]
    gid, first = group_by_first_appearance(codes)
    sums = sr.reduce_groups(rel.annotations, gid, len(first))
    return AnnotatedRelation(attrs, proj.take(first), sums, sr)


def support_projection(
    rel: AnnotatedRelation, attrs: Sequence[str]
) -> AnnotatedRelation:
    """``pi_attrs^1(rel)``: distinct projections of *nonzero*-annotated
    tuples, all annotated with the multiplicative identity 1."""
    sr = rel.semiring
    attrs = tuple(attrs)
    rel.index_of(attrs)
    nz = np.flatnonzero(rel.annotations != sr.zero)
    sub = rel.store.project(attrs).take(nz)
    codes = joint_row_codes([sub])[0]
    _, first = group_by_first_appearance(codes)
    ones = np.full(len(first), sr.one, dtype=np.uint64)
    return AnnotatedRelation(attrs, sub.take(first), ones, sr)


def _expand_matches(
    c1: np.ndarray, c2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All matching row pairs between two code vectors, in r1-major
    order with r2 matches in original r2 order (the hash-join order of
    the tuple-path reference)."""
    order2 = np.argsort(c2, kind="stable")
    sorted2 = c2[order2]
    left = np.searchsorted(sorted2, c1, side="left")
    right = np.searchsorted(sorted2, c1, side="right")
    counts = (right - left).astype(np.int64)
    total = int(counts.sum())
    out_r1 = np.repeat(np.arange(len(c1), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    out_r2 = order2[np.repeat(left, counts) + pos]
    return out_r1, out_r2


def _join_store(
    s1: TupleStore,
    extra: TupleStore,
    out_attrs: Tuple[str, ...],
    out_r1: np.ndarray,
    out_r2: np.ndarray,
) -> TupleStore:
    """Assemble the join output store: r1's columns followed by r2's
    extra columns.  Rows mixing a dummy side with a real side (possible
    only via cartesian products or self-nonce collisions) fall back to
    the tuple path so the dummy values materialise correctly."""
    if extra.arity == 0:
        return s1.take(out_r1)
    if s1.arity == 0:
        return extra.take(out_r2).with_attributes(out_attrs)
    n1 = s1.nonce[out_r1]
    n2 = extra.nonce[out_r2]
    both = (n1 != 0) & (n1 == n2)
    mixed = ((n1 != 0) | (n2 != 0)) & ~both
    if mixed.any():
        rows1 = s1.materialize()
        rows2 = extra.materialize()
        return TupleStore.from_tuples(
            out_attrs,
            [
                rows1[i] + rows2[j]
                for i, j in zip(out_r1.tolist(), out_r2.tolist())
            ],
        )
    cols = tuple(c.take(out_r1) for c in s1.columns) + tuple(
        c.take(out_r2) for c in extra.columns
    )
    return TupleStore(
        out_attrs, cols, np.where(both, n1, np.int64(0))
    )


def join(r1: AnnotatedRelation, r2: AnnotatedRelation) -> AnnotatedRelation:
    """Annotated natural join ``r1 ⋈⊗ r2``.

    Output attributes are ``r1``'s followed by ``r2``'s new ones; the
    annotation of each result is the ⊗-product of the contributing
    annotations.  Sort-merge expansion over shared row codes:
    O((|r1| + |r2|) log + |output|).
    """
    if r1.semiring != r2.semiring:
        raise ValueError("cannot join relations over different semirings")
    sr = r1.semiring
    shared = [a for a in r1.attributes if a in r2.attributes]
    extra = [a for a in r2.attributes if a not in r1.attributes]
    out_attrs = tuple(r1.attributes) + tuple(extra)

    c1, c2 = joint_row_codes(
        [r1.store.project(shared), r2.store.project(shared)]
    )
    out_r1, out_r2 = _expand_matches(c1, c2)
    annots = sr.mul_vec(
        r1.annotations[out_r1], r2.annotations[out_r2]
    )
    store = _join_store(
        r1.store, r2.store.project(extra), out_attrs, out_r1, out_r2
    )
    return AnnotatedRelation(out_attrs, store, annots, sr)


def semijoin(r1: AnnotatedRelation, r2: AnnotatedRelation) -> AnnotatedRelation:
    """Annotated semijoin ``r1 ⋉⊗ r2 = r1 ⋈⊗ pi^1_{F∩F'}(r2)``.

    Returns the tuples of ``r1`` that join with at least one nonzero tuple
    of ``r2``, annotations preserved (definition in Section 3.1).
    """
    shared = [a for a in r1.attributes if a in r2.attributes]
    return join(r1, support_projection(r2, shared))


def select(
    rel: AnnotatedRelation, predicate: Callable[[Dict[str, Any]], bool]
) -> AnnotatedRelation:
    """Plain selection: keep tuples whose row-dict satisfies ``predicate``.

    This is option (1) of Section 7 (public selectivity): the relation
    shrinks and the protocol's input size drops accordingly.
    """
    keep = np.asarray(
        [
            i
            for i, t in enumerate(rel.tuples)
            if predicate(dict(zip(rel.attributes, t)))
        ],
        dtype=np.int64,
    )
    return AnnotatedRelation(
        rel.attributes,
        rel.store.take(keep),
        rel.annotations[keep],
        rel.semiring,
    )


def select_with_dummies(
    rel: AnnotatedRelation, predicate: Callable[[Dict[str, Any]], bool]
) -> AnnotatedRelation:
    """Selection with *private* selectivity — option (2) of Section 7.

    Tuples failing the predicate are kept but zero-annotated, so the
    relation size (and hence the protocol's cost) is input-independent.
    """
    annots = rel.annotations.copy()
    for i, t in enumerate(rel.tuples):
        if not predicate(dict(zip(rel.attributes, t))):
            annots[i] = rel.semiring.zero
    return rel.replace(annotations=annots)


def rename(
    rel: AnnotatedRelation, mapping: Dict[str, str]
) -> AnnotatedRelation:
    """Rename attributes (``{old: new}``); unknown keys are rejected."""
    missing = [a for a in mapping if a not in rel.attributes]
    if missing:
        raise KeyError(f"attributes {missing} not in {rel.attributes}")
    return rel.replace(
        attributes=tuple(mapping.get(a, a) for a in rel.attributes)
    )


def union(
    r1: AnnotatedRelation, r2: AnnotatedRelation
) -> AnnotatedRelation:
    """K-relation union: annotations of common tuples are ⊕-combined
    (bag-union semantics under the counting semiring)."""
    if set(r1.attributes) != set(r2.attributes):
        raise ValueError(
            f"union needs identical attribute sets "
            f"({r1.attributes} vs {r2.attributes})"
        )
    if r1.semiring != r2.semiring:
        raise ValueError("cannot union relations over different semirings")
    store = r1.store.concat(r2.store.project(r1.attributes))
    annots = np.concatenate([r1.annotations, r2.annotations])
    return AnnotatedRelation(r1.attributes, store, annots, r1.semiring)


def map_annotations(
    rel: AnnotatedRelation, fn: Callable[[Dict[str, Any], int], int]
) -> AnnotatedRelation:
    """Re-annotate every tuple via ``fn(row_dict, old_annotation)``.

    Used to install query-specific annotations, e.g. Q3's
    ``l_extendedprice * (1 - l_discount)``.
    """
    sr = rel.semiring
    new = np.asarray(
        [
            sr.normalize(int(fn(dict(zip(rel.attributes, t)), int(v))))
            for t, v in rel
        ],
        dtype=np.uint64,
    )
    if len(rel) == 0:
        new = np.zeros(0, dtype=np.uint64)
    return rel.replace(annotations=new)
