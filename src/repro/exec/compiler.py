"""Lowering a :class:`~repro.yannakakis.plan.YannakakisPlan` to the
execution IR.

The compiler is pure planning — no context, no engine, no data.  It
emits steps in the same order the legacy orchestration visited them, so
the scheduler (topological order with min-id tie-break) replays the
legacy transcript byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Type

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
    to ``owners``' insertion order, which for dict inputs matches the
    legacy pipeline's iteration order).  ``reveal_result`` appends the
    final opening of the annotations to Alice (the full-query entry
    point); shared pipelines leave the result as shares.
    ``backends`` maps fold/semijoin step labels
    (``"fold/{child}->{parent}"`` / ``"semi/{target}<-{filter}"``) to a
    join back-end; unlisted nodes default to ``"yannakakis"``.
    """
    names = list(input_order) if input_order is not None else list(owners)
    missing = set(plan.tree.nodes) - set(names)
    if missing:
        raise KeyError(f"missing input relations: {sorted(missing)}")
    routes = dict(backends or {})

    steps = []
    next_id = 0

    def emit(cls: Type[Any], **kwargs: Any) -> Any:
        nonlocal next_id
        step = cls(id=next_id, **kwargs)
        next_id += 1
        steps.append(step)
        return step

    for n in names:
        emit(ShareStep, relation=n, owner=owners[n])

    def emit_semijoins() -> None:
        for s in plan.semijoin_steps:
            emit(
                SemijoinStep,
                target=s.target,
                filter=s.filter,
                backend=routes.get(
                    f"semi/{s.target}<-{s.filter}", "yannakakis"
                ),
            )

    if plan.semijoin_first:
        emit_semijoins()
    for r in plan.reduce_steps:
        if isinstance(r, ReduceFold):
            emit(
                ReduceFoldStep,
                child=r.child,
                parent=r.parent,
                agg_attrs=tuple(r.agg_attrs),
                backend=routes.get(
                    f"fold/{r.child}->{r.parent}", "yannakakis"
                ),
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
