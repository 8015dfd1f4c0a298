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
place under ``src/`` that hands a compiled execution plan
(:mod:`repro.exec`) to the scheduler.  Every other runner (the query
builder, the serving layer, ``repro net``) reaches the scheduler
through them; the transcripts they produce are pinned by
``tests/golden/fingerprints.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..mpc.context import Context
from ..mpc.engine import Engine
from ..relalg.operators import aggregate as plain_aggregate
from ..relalg.relation import AnnotatedRelation
from ..relalg.semiring import IntegerRing
from ..yannakakis.plan import YannakakisPlan
from .join import ObliviousJoinResult
from .relation import SecureRelation

__all__ = [
    "secure_yannakakis",
    "secure_yannakakis_shared",
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
            key = m.label.split("/")[0]
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
) -> Any:
    """The one run pipeline: compile ``plan`` over the owner-tagged
    ``relations`` and execute its steps; returns the value in the
    plan's result slot."""
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
    env = Scheduler(engine).run(exec_plan, relations)
    return env[exec_plan.result_slot]


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
    )


def secure_yannakakis(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    plan: YannakakisPlan,
    backends: Optional[Dict[str, str]] = None,
) -> Tuple[AnnotatedRelation, ProtocolStats]:
    """Evaluate the query and reveal the results to Alice.

    Returns the result relation (attributes ordered as ``plan.output``,
    duplicate group keys merged, zero groups dropped) and cost stats.
    """
    ctx = engine.ctx
    start_msgs = len(ctx.transcript.messages)
    t0 = time.perf_counter()
    shared, values = _run_plan(
        engine, relations, plan, backends, reveal=True
    )
    elapsed = time.perf_counter() - t0
    result = AnnotatedRelation(
        shared.attributes, shared.tuples, values, IntegerRing(ctx.params.ell)
    )
    result = plain_aggregate(result, plan.output).nonzero()
    return result, ProtocolStats.of_window(ctx, start_msgs, elapsed)
