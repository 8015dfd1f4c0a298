"""Selection conditions under privacy constraints (Section 7).

Three policies for a per-relation predicate, trading protocol cost
against what the relation's *size* reveals:

* ``PUBLIC``  — the selectivity is not sensitive: actually filter, the
  protocol runs on the smaller relation (cheapest).
* ``PRIVATE`` — nothing about the selectivity may leak: failing tuples
  become zero-annotated dummies, the size (and the cost) stays that of
  the unfiltered relation.
* ``BOUNDED`` — a public upper bound on the selectivity is acceptable:
  filter, then pad with dummies up to the bound.  "Strikes a good
  balance between cost and privacy, and is perhaps a common scenario
  in practice" (the paper's example: the number of customers in one
  state may be revealed, or at least an upper bound).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

import numpy as np

from ..relalg.columns import fresh_nonces
from ..relalg.operators import select, select_with_dummies
from ..relalg.relation import AnnotatedRelation

__all__ = ["SelectionPolicy", "apply_selection"]


class SelectionPolicy(enum.Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    BOUNDED = "bounded"


def apply_selection(
    rel: AnnotatedRelation,
    predicate: Callable[[dict], bool],
    policy: SelectionPolicy = SelectionPolicy.PRIVATE,
    bound: Optional[int] = None,
) -> AnnotatedRelation:
    """Apply a selection before the relation enters the protocol.

    The returned relation's *size* is what the other party will learn:

    * ``PUBLIC``  → the true selected cardinality;
    * ``PRIVATE`` → the original size;
    * ``BOUNDED`` → exactly ``bound`` (which must be >= the true
      selected cardinality — the owner knows both, so this is checked
      locally).
    """
    if policy == SelectionPolicy.PUBLIC:
        return select(rel, predicate)
    if policy == SelectionPolicy.PRIVATE:
        return select_with_dummies(rel, predicate)
    if policy != SelectionPolicy.BOUNDED:  # pragma: no cover
        raise ValueError(f"unknown policy {policy!r}")

    if bound is None:
        raise ValueError("the BOUNDED policy needs an explicit bound")
    selected = select(rel, predicate)
    if len(selected) > bound:
        raise ValueError(
            f"declared bound {bound} is below the true selected "
            f"cardinality {len(selected)} — it would not be an upper "
            "bound"
        )
    pad = bound - len(selected)
    annots = np.concatenate(
        [selected.annotations, np.zeros(pad, dtype=np.uint64)]
    )
    return AnnotatedRelation(
        rel.attributes,
        selected.store.with_dummies(fresh_nonces(pad)),
        annots,
        rel.semiring,
    )
