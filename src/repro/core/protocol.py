"""The secure Yannakakis protocol (Section 6.4).

Runs the same 3-phase :class:`~repro.yannakakis.plan.YannakakisPlan` as
the plaintext algorithm, with each phase realised by the oblivious
operators:

1. **Reduce** — oblivious projection-aggregation + oblivious reduce-join
   per fold; sizes never change, only annotations.
2. **Semijoin** — dangling tuples are *zero-annotated* (not removed)
   via oblivious semijoins, bottom-up then top-down.
3. **Full join** — the oblivious join reveals ``J*`` to Alice and
   computes its annotations in shared form.

``secure_yannakakis`` reveals the annotations (they are the query
results); ``secure_yannakakis_shared`` keeps them shared for query
compositions (Section 7).

Both entry points run the one pipeline, :func:`_run_plan` — the only
place under ``src/`` that compiles a plan to an execution DAG
(:mod:`repro.exec`) and hands it to the scheduler, which reproduces
the historical transcript byte-for-byte.  Every other runner (the
query builder, the serving layer, ``repro net``) reaches the scheduler
through them.  The pre-IR sequential orchestrations are kept as
``legacy_secure_yannakakis``/``legacy_secure_yannakakis_shared`` — the
reference implementations the scheduler is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..leakage import leaks
from ..mpc.context import ALICE, Context
from ..mpc.engine import Engine
from ..mpc.sharing import reveal_vector
from ..relalg.operators import aggregate as plain_aggregate
from ..relalg.relation import AnnotatedRelation
from ..relalg.semiring import IntegerRing
from ..yannakakis.plan import (
    ReduceAggregate,
    ReduceFold,
    YannakakisPlan,
)
from .aggregation import oblivious_aggregate
from .join import ObliviousJoinResult, oblivious_join
from .relation import SecureRelation
from .semijoin import oblivious_reduce_join, oblivious_semijoin

__all__ = [
    "secure_yannakakis",
    "secure_yannakakis_shared",
    "legacy_secure_yannakakis",
    "legacy_secure_yannakakis_shared",
    "ProtocolStats",
]


@dataclass
class ProtocolStats:
    """Cost summary of one protocol run."""

    seconds: float
    total_bytes: int
    rounds: int
    bytes_by_phase: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of_window(
        cls, ctx: Context, start_msgs: int, seconds: float
    ) -> "ProtocolStats":
        """The stats of the run that sent ``ctx``'s messages from index
        ``start_msgs`` on: bytes *and* rounds of that window alone, so
        a run that is not the first on its context (Q8's and Q9's
        sub-queries) is not charged its predecessors' rounds."""
        window = ctx.transcript.messages[start_msgs:]
        by_phase: Dict[str, int] = {}
        for m in window:
            key = m.label.split("/")[0] if m.label else ""
            by_phase[key] = by_phase.get(key, 0) + m.n_bytes
        return cls(
            seconds=seconds,
            total_bytes=sum(by_phase.values()),
            rounds=ctx.transcript.slice_rounds(window),
            bytes_by_phase=by_phase,
        )


def _run_plan(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    backends: Optional[Dict[str, str]],
    *,
    reveal: bool,
    pad_out_to: int = 0,
    env: Optional[Dict[str, Any]] = None,
    start_at: Optional[int] = None,
) -> Dict[str, Any]:
    """The one run pipeline: compile ``plan`` over the owner-tagged
    ``relations`` and execute the DAG; returns the scheduler's final
    slot environment."""
    # Imported lazily: repro.exec imports the core operators, so a
    # module-level import here would be circular.
    from ..exec import Scheduler, compile_plan

    exec_plan = compile_plan(
        plan,
        owners={name: rel.owner for name, rel in relations.items()},
        input_order=list(relations),
        pad_out_to=pad_out_to,
        reveal_result=reveal,
        backends=backends,
    )
    return Scheduler(engine).run(
        exec_plan, relations, env=env, start_at=start_at
    )


def secure_yannakakis_shared(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    pad_out_to: int = 0,
    backends: Optional[Dict[str, str]] = None,
) -> ObliviousJoinResult:
    """Run the protocol, returning ``J*`` (Alice's) with annotations in
    shared form — the building block for query composition.

    ``pad_out_to`` hides the true output size from Bob behind a declared
    upper bound (Section 4 / Section 6.3 step 2).  ``backends`` maps
    fold/semijoin labels to a join back-end (see
    :func:`repro.query.planner.route_backends`); unlisted nodes run the
    paper's PSI protocol."""
    return _run_plan(
        engine, relations, plan, backends,
        reveal=False, pad_out_to=pad_out_to,
    )["result"]


def secure_yannakakis(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    backends: Optional[Dict[str, str]] = None,
    *,
    env: Optional[Dict[str, Any]] = None,
    start_at: Optional[int] = None,
) -> Tuple[AnnotatedRelation, ProtocolStats]:
    """Evaluate the query and reveal the results to Alice.

    Returns the result relation (attributes ordered as ``plan.output``,
    duplicate group keys merged, zero groups dropped) and cost stats.

    ``env``/``start_at`` resume a run over a durable checkpoint
    (``repro net --resume``): the revived slot environment and the
    checkpointed step id, as :meth:`repro.exec.Scheduler.run` takes
    them.  The stats then cover the resumed part only.
    """
    ctx = engine.ctx
    start_msgs = len(ctx.transcript.messages)
    t0 = time.perf_counter()
    shared, values = _run_plan(
        engine, relations, plan, backends,
        reveal=True, env=env, start_at=start_at,
    )["output"]
    elapsed = time.perf_counter() - t0
    return _finish(ctx, plan, shared, values, elapsed, start_msgs)


def _finish(
    ctx: Context,
    plan: YannakakisPlan,
    shared: ObliviousJoinResult,
    values: Sequence[int],
    elapsed: float,
    start_msgs: int,
) -> Tuple[AnnotatedRelation, ProtocolStats]:
    """Assemble the revealed result relation and the cost summary."""
    ring = IntegerRing(ctx.params.ell)
    result = AnnotatedRelation(
        shared.attributes, shared.tuples, values, ring
    )
    result = plain_aggregate(result, plan.output).nonzero()
    return result, ProtocolStats.of_window(ctx, start_msgs, elapsed)


# ----------------------------------------------------------------------
# Reference implementations (pre-IR sequential orchestration).  The
# scheduler's transcript is asserted byte-identical to these in
# tests/test_exec.py and tests/test_exec_tpch.py.
# ----------------------------------------------------------------------


def _require_yannakakis_routes(
    backends: Optional[Dict[str, str]],
) -> None:
    """The legacy orchestrations predate the back-end selector and only
    implement the paper's PSI protocol; they accept the ``backends``
    map for signature compatibility (tests swap them in for the
    scheduler path) but refuse any non-default route."""
    other = {
        k: v for k, v in (backends or {}).items() if v != "yannakakis"
    }
    if other:
        raise ValueError(
            "the legacy orchestration only supports the 'yannakakis' "
            f"back-end; got routes {other}"
        )


def legacy_secure_yannakakis_shared(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    pad_out_to: int = 0,
    backends: Optional[Dict[str, str]] = None,
) -> ObliviousJoinResult:
    """Sequential reference implementation of
    :func:`secure_yannakakis_shared`."""
    _require_yannakakis_routes(backends)
    ctx = engine.ctx
    rels = dict(relations)
    missing = set(plan.tree.nodes) - set(rels)
    if missing:
        raise KeyError(f"missing input relations: {sorted(missing)}")

    def run_semijoins() -> None:
        with ctx.section("semijoin"):
            for step in plan.semijoin_steps:
                rels[step.target] = oblivious_semijoin(
                    engine, rels[step.target], rels[step.filter],
                    label=f"semi/{step.target}<-{step.filter}",
                )

    if plan.semijoin_first:  # the two-phase ablation order
        run_semijoins()

    with ctx.section("reduce"):
        for step in plan.reduce_steps:
            if isinstance(step, ReduceFold):
                folded = oblivious_aggregate(
                    engine, rels[step.child], step.agg_attrs,
                    label=f"agg/{step.child}",
                )
                rels[step.parent] = oblivious_reduce_join(
                    engine, rels[step.parent], folded,
                    label=f"fold/{step.child}->{step.parent}",
                )
                del rels[step.child]
            elif isinstance(step, ReduceAggregate):
                rels[step.node] = oblivious_aggregate(
                    engine, rels[step.node], step.attrs,
                    label=f"agg/{step.node}",
                )
            else:  # pragma: no cover
                raise TypeError(f"unknown reduce step {step!r}")

    if not plan.semijoin_first:
        run_semijoins()

    with ctx.section("full_join"):
        join_steps = [(s.child, s.parent) for s in plan.join_steps]
        return oblivious_join(
            engine, rels, join_steps, pad_out_to=pad_out_to
        )


@leaks("opened:result")
def legacy_secure_yannakakis(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    backends: Optional[Dict[str, str]] = None,
) -> Tuple[AnnotatedRelation, ProtocolStats]:
    """Sequential reference implementation of
    :func:`secure_yannakakis`."""
    _require_yannakakis_routes(backends)
    ctx = engine.ctx
    start_msgs = len(ctx.transcript.messages)
    t0 = time.perf_counter()
    shared = legacy_secure_yannakakis_shared(engine, relations, plan)
    values = reveal_vector(
        ctx, shared.annotations, ALICE, label="result"
    )
    elapsed = time.perf_counter() - t0
    return _finish(ctx, plan, shared, values, elapsed, start_msgs)
