"""Lowering a :class:`~repro.yannakakis.plan.YannakakisPlan` to the
execution IR.

The compiler is pure planning — no context, no engine, no data — and
the only lowering of a plan: the share steps, then the plan's own
reduce and semijoin steps in the order the plan runs them, routed, then
the full join, all numbered by position.  The scheduler dispatches that
order, and the estimator and the leakage audit read it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Type

if TYPE_CHECKING:  # pragma: no cover - typing only: plan.py imports .ir
    from ..yannakakis.plan import YannakakisPlan

from .ir import (
    AggregateStep,
    AlignStep,
    ExecPlan,
    JoinStep,
    ProductStep,
    RevealResultStep,
    RevealStep,
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
        steps.append(cls(id=len(steps), **kwargs))

    for n in names:
        emit(ShareStep, relation=n, owner=owners[n])
    for s in plan.steps:
        if not isinstance(s, AggregateStep) and s.label in routes:
            s = replace(s, backend=routes[s.label])
        steps.append(replace(s, id=len(steps)))
    survivors = tuple(n for n in names if n in plan.reduced_attrs)

    for n in survivors:
        emit(RevealStep, relation=n)
    emit(
        JoinStep,
        relations=survivors,
        join_order=plan.join_order,
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
