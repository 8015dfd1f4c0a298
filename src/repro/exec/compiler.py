"""Lowering a :class:`~repro.yannakakis.plan.YannakakisPlan` to the
execution IR.

The compiler is pure planning — no context, no engine, no data — and
the only lowering of a plan: it emits the steps in the order they run
(reduce then semijoin, or the two-phase ablation's semijoin first, then
the full join), numbered by position.  The scheduler dispatches that
order, and the estimator, the back-end router and the leakage audit
read it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Type

from ..yannakakis.plan import ReduceAggregate, ReduceFold, YannakakisPlan
from .ir import (
    AggregateStep,
    AlignStep,
    ExecPlan,
    JoinStep,
    ProductStep,
    ReduceFoldStep,
    RevealResultStep,
    RevealStep,
    SemijoinStep,
    ShareStep,
    Step,
)

__all__ = ["compile_plan"]


def compile_plan(
    plan: YannakakisPlan,
    owners: Dict[str, str],
    input_order: Optional[Sequence[str]] = None,
    pad_out_to: int = 0,
    reveal_result: bool = False,
    name: str = "",
    backends: Optional[Dict[str, str]] = None,
) -> ExecPlan:
    """Compile a Yannakakis plan plus party ownership into an ExecPlan.

    ``owners`` maps relation name to owning party; ``input_order`` fixes
    the order share/reveal/align steps enumerate the relations (defaults
    to ``owners``' insertion order).  ``reveal_result`` appends the
    final opening of the annotations to Alice (the full-query entry
    point); shared pipelines leave the result as shares.
    ``backends`` maps fold/semijoin step labels
    (:attr:`~repro.exec.ir.Step.label`) to a join back-end; unlisted
    nodes default to ``"yannakakis"``.
    """
    names = list(input_order) if input_order is not None else list(owners)
    missing = set(plan.tree.nodes) - set(names)
    if missing:
        raise KeyError(f"missing input relations: {sorted(missing)}")
    routes = backends or {}
    steps: List[Step] = []

    def emit(cls: Type[Step], **kwargs: Any) -> None:
        step = cls(id=len(steps), **kwargs)
        routed = isinstance(step, (ReduceFoldStep, SemijoinStep))
        if routed and step.label in routes:
            step = replace(step, backend=routes[step.label])
        steps.append(step)

    for n in names:
        emit(ShareStep, relation=n, owner=owners[n])

    def emit_semijoins() -> None:
        for s in plan.semijoin_steps:
            emit(SemijoinStep, target=s.target, filter=s.filter)

    if plan.semijoin_first:
        emit_semijoins()
    for r in plan.reduce_steps:
        if isinstance(r, ReduceFold):
            emit(
                ReduceFoldStep,
                child=r.child,
                parent=r.parent,
                agg_attrs=tuple(r.agg_attrs),
            )
        elif isinstance(r, ReduceAggregate):
            emit(AggregateStep, node=r.node, attrs=tuple(r.attrs))
        else:
            raise TypeError(f"unknown reduce step: {r!r}")
    if not plan.semijoin_first:
        emit_semijoins()

    folded_away = {
        r.child for r in plan.reduce_steps if isinstance(r, ReduceFold)
    }
    survivors = tuple(n for n in names if n not in folded_away)

    for n in survivors:
        emit(RevealStep, relation=n)
    emit(
        JoinStep,
        relations=survivors,
        join_order=tuple((s.child, s.parent) for s in plan.join_steps),
        pad_out_to=pad_out_to,
    )
    for n in survivors:
        emit(AlignStep, relation=n)
    emit(ProductStep, relations=survivors)
    if reveal_result:
        emit(RevealResultStep)

    return ExecPlan(
        steps=tuple(steps),
        inputs=tuple(names),
        result_slot="output" if reveal_result else "result",
        name=name,
    )
