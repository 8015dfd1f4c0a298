"""Tuple-path reference implementations of the relalg operators.

These are the pre-columnar dict-of-tuples operators, retained verbatim
as the oracle for the columnar kernels' differential property tests
(``tests/test_columnar.py``).  They follow the same pattern as
``tests/reference.py``: simple, obviously-correct, row-at-a-time
semantics that the vectorised implementations must reproduce exactly —
including output order and duplicate structure, not just K-relation
equality.

Nothing in ``src/`` imports this module; protocol code uses
:mod:`repro.relalg.operators`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.relalg.relation import AnnotatedRelation

__all__ = [
    "aggregate",
    "support_projection",
    "join",
    "semijoin",
    "union",
]


def aggregate(
    rel: AnnotatedRelation, attrs: Tuple[str, ...]
) -> AnnotatedRelation:
    """Row-at-a-time ``pi_attrs^(+)``: dict accumulation in
    first-appearance order."""
    sr = rel.semiring
    idx = rel.index_of(attrs)
    groups: Dict[Tuple, int] = {}
    order: List[Tuple] = []
    for t, v in rel:
        key = tuple(t[i] for i in idx)
        if key not in groups:
            groups[key] = v
            order.append(key)
        else:
            groups[key] = sr.add(groups[key], v)
    if not attrs and not rel.tuples:
        return AnnotatedRelation(attrs, [()], [sr.zero], sr)
    return AnnotatedRelation(attrs, order, [groups[k] for k in order], sr)


def support_projection(
    rel: AnnotatedRelation, attrs: Tuple[str, ...]
) -> AnnotatedRelation:
    """Row-at-a-time ``pi_attrs^1``."""
    sr = rel.semiring
    idx = rel.index_of(attrs)
    seen: Dict[Tuple, None] = {}
    for t, v in rel:
        if v != sr.zero:
            seen.setdefault(tuple(t[i] for i in idx), None)
    keys = list(seen)
    return AnnotatedRelation(attrs, keys, [sr.one] * len(keys), sr)


def join(
    r1: AnnotatedRelation, r2: AnnotatedRelation
) -> AnnotatedRelation:
    """Row-at-a-time annotated hash join (r1-major output order, r2
    matches in insertion order within each key)."""
    if r1.semiring != r2.semiring:
        raise ValueError("cannot join relations over different semirings")
    sr = r1.semiring
    shared = [a for a in r1.attributes if a in r2.attributes]
    extra = [a for a in r2.attributes if a not in r1.attributes]
    out_attrs = list(r1.attributes) + extra

    r2_shared_idx = r2.index_of(shared)
    r2_extra_idx = r2.index_of(extra)
    table: Dict[Tuple, List[Tuple[Tuple, int]]] = {}
    for t, v in r2:
        key = tuple(t[i] for i in r2_shared_idx)
        table.setdefault(key, []).append(
            (tuple(t[i] for i in r2_extra_idx), v)
        )

    r1_shared_idx = r1.index_of(shared)
    out_tuples: List[Tuple] = []
    out_annots: List[int] = []
    for t, v in r1:
        key = tuple(t[i] for i in r1_shared_idx)
        for extra_vals, w in table.get(key, ()):
            out_tuples.append(t + extra_vals)
            out_annots.append(sr.mul(v, w))
    return AnnotatedRelation(out_attrs, out_tuples, out_annots, sr)


def semijoin(
    r1: AnnotatedRelation, r2: AnnotatedRelation
) -> AnnotatedRelation:
    shared = tuple(a for a in r1.attributes if a in r2.attributes)
    return join(r1, support_projection(r2, shared))


def union(
    r1: AnnotatedRelation, r2: AnnotatedRelation
) -> AnnotatedRelation:
    if set(r1.attributes) != set(r2.attributes):
        raise ValueError(
            f"union needs identical attribute sets "
            f"({r1.attributes} vs {r2.attributes})"
        )
    if r1.semiring != r2.semiring:
        raise ValueError("cannot union relations over different semirings")
    perm = [r2.attributes.index(a) for a in r1.attributes]
    tuples = list(r1.tuples) + [
        tuple(t[i] for i in perm) for t in r2.tuples
    ]
    annots = list(r1.annotations) + list(r2.annotations)
    return AnnotatedRelation(r1.attributes, tuples, annots, r1.semiring)
