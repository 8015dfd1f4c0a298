"""Canonical plan fingerprints for the multi-tenant plan cache.

Two queries may share a compiled :class:`~repro.exec.ir.ExecPlan` iff
every *public* input to compilation matches — the transcript of a run
is a pure function of these plus the (private) relation contents, and
plan sharing must leave each tenant's transcript byte-identical to a
solo compile-and-run.  The fingerprint therefore covers:

* per-relation schema (attribute tuples) and **owner** — the owner
  decides message directions;
* the semiring width ``ell`` — decides every share/ciphertext size;
* the output attributes;
* the **input order** — the compiler emits ``ShareStep``s in this
  order, so two queries with identical sorted schemas but different
  insertion order must *miss*;
* the compiled plan's shape: reduce folds/aggregates, semijoin order,
  join order, root, and phase order (``semijoin_first``);
* the compile flags ``reveal_result`` and ``pad_out_to``.

Relation *contents* and sizes are deliberately absent: they are private
(sizes are public in the protocol model but do not change the step DAG,
only per-step message sizes — and those are re-derived from the actual
inputs at run time, not baked into the plan).

The digest is a SHA-256 over a canonical JSON encoding (sorted keys,
no whitespace), so it is stable across processes and suitable as a
persistent cache key.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.builder import JoinAggregateQuery
    from ..yannakakis.plan import YannakakisPlan

__all__ = ["plan_fingerprint", "fingerprint_document"]


def _plan_shape(plan: "YannakakisPlan") -> Dict[str, Any]:
    from ..yannakakis.plan import ReduceAggregate, ReduceFold

    reduce_steps: List[List[Any]] = []
    for step in plan.reduce_steps:
        if isinstance(step, ReduceFold):
            reduce_steps.append(
                ["fold", step.child, step.parent, list(step.agg_attrs)]
            )
        elif isinstance(step, ReduceAggregate):
            reduce_steps.append(["agg", step.node, list(step.attrs)])
        else:  # pragma: no cover
            raise TypeError(f"unknown reduce step {step!r}")
    return {
        "root": plan.root,
        "semijoin_first": bool(plan.semijoin_first),
        "reduce": reduce_steps,
        "semijoin": [[s.target, s.filter] for s in plan.semijoin_steps],
        "join": [[s.child, s.parent] for s in plan.join_steps],
    }


def fingerprint_document(
    query: "JoinAggregateQuery",
    reveal_result: bool = True,
    pad_out_to: int = 0,
) -> Dict[str, Any]:
    """The canonical (pre-hash) fingerprint document — exposed so tests
    can assert *which* field caused a cache miss."""
    return {
        "schema": {
            name: list(rel.attributes)
            for name, rel in query.relations.items()
        },
        "owners": dict(query.owners),
        "ell": query.ring_params().ell,  # raises on mixed widths
        "output": list(query.output),
        "input_order": list(query.relations),
        "reveal_result": bool(reveal_result),
        "pad_out_to": int(pad_out_to),
        "plan": _plan_shape(query.plan()),
        # The resolved per-node back-end map, not the policy name: under
        # "auto" the routing depends on relation sizes, and two queries
        # whose nodes route differently compile different step DAGs
        # (and different transcripts), so they must not share an entry.
        "backends": query.backend_assignments(),
    }


def plan_fingerprint(
    query: "JoinAggregateQuery",
    reveal_result: bool = True,
    pad_out_to: int = 0,
) -> str:
    """SHA-256 hex digest of the canonical fingerprint document."""
    doc = fingerprint_document(query, reveal_result, pad_out_to)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
