"""Plaintext execution of the 3-phase Yannakakis plan.

This is both the non-private baseline (standing in for MySQL in the
paper's experiments) and the correctness oracle for the secure protocol:
both execute the identical :class:`~repro.yannakakis.plan.YannakakisPlan`.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, Optional, Sequence

from ..exec.ir import AggregateStep, ReduceFoldStep
from ..relalg import operators as columnar_operators
from ..relalg.join_tree import JoinTree, find_free_connex_tree
from ..relalg.hypergraph import Hypergraph
from ..relalg.relation import AnnotatedRelation
from .plan import YannakakisPlan, build_plan

__all__ = ["execute_plan", "yannakakis"]


def execute_plan(
    plan: YannakakisPlan,
    relations: Dict[str, AnnotatedRelation],
    operators: Optional[ModuleType] = None,
) -> AnnotatedRelation:
    """Run the plan's steps on plaintext annotated relations and return the
    query result with attributes ordered as ``plan.output``.

    ``operators`` selects the relational-operator implementation: the
    default columnar :mod:`repro.relalg.operators`, or the retained
    tuple-path ``tests/relalg_reference.py`` (the differential-testing
    oracle).
    """
    ops = operators if operators is not None else columnar_operators
    aggregate, join, semijoin = ops.aggregate, ops.join, ops.semijoin
    rels = dict(relations)
    missing = set(plan.tree.nodes) - set(rels)
    if missing:
        raise KeyError(f"missing input relations: {sorted(missing)}")

    # Reduce and semijoin phases, in the plan's order.
    for step in plan.steps:
        if isinstance(step, ReduceFoldStep):
            folded = aggregate(rels[step.child], step.agg_attrs)
            rels[step.parent] = join(rels[step.parent], folded)
            del rels[step.child]
        elif isinstance(step, AggregateStep):
            rels[step.node] = aggregate(rels[step.node], step.attrs)
        else:
            rels[step.target] = semijoin(rels[step.target], rels[step.filter])

    # Full join.
    for child, parent in plan.join_order:
        rels[parent] = join(rels[parent], rels[child])
        del rels[child]

    result = rels[plan.root]
    # Reorder columns to the requested output order and drop zero groups.
    result = aggregate(result, plan.output)
    return result.nonzero()


def yannakakis(
    relations: Dict[str, AnnotatedRelation],
    output: Sequence[str],
    tree: Optional[JoinTree] = None,
) -> AnnotatedRelation:
    """Evaluate a free-connex join-aggregate query on plaintext relations.

    If ``tree`` is not supplied, a free-connex rooted join tree is searched
    for automatically; ``ValueError`` is raised when none exists.
    """
    if tree is None:
        hypergraph = Hypergraph(
            {name: rel.attributes for name, rel in relations.items()}
        )
        tree = find_free_connex_tree(hypergraph, output)
        if tree is None:
            raise ValueError(
                "query is not free-connex; no valid rooted join tree exists"
            )
    plan = build_plan(tree, output)
    return execute_plan(plan, relations)
