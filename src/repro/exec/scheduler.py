"""Scheduler for :class:`~repro.exec.ir.ExecPlan` step tuples.

One dispatch order, stated as the data: the plan's step tuple.  It is
the one fixed, data-independent message sequence the paper's security
argument is over (the transcripts are pinned by
``tests/golden/fingerprints.json``).

Steps pass values through a slot environment that only this module
reads and writes:

=====================  ===================================================
``{relation}``         a :class:`~repro.core.relation.SecureRelation`
``shares:{relation}``  its annotation shares (oblivious-join step 1)
``revealed:{relation}``its revealed nonzero ``(pos, tuple)`` list
``joined``             Alice's local star join ``J*`` (with index cols)
``factor:{relation}``  the relation's OEP-aligned annotation factor
``result``             the :class:`ObliviousJoinResult`
``output``             ``(result, revealed_values)`` after the final open
=====================  ===================================================

Every executed node is recorded into the engine's
:class:`~repro.exec.trace.ExecutionTrace` when one is attached.  Each
step runs inside its :attr:`~repro.exec.ir.Step.section`, and the
full-join steps nest ``oblivious_join`` under it: that fixes the
transcript's label scheme (``reduce``, ``semijoin``,
``full_join/oblivious_join``).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.engine import Engine
    from ..runtime.supervisor import Supervisor

from ..core.aggregation import oblivious_aggregate
from ..core.join import (
    align_factor,
    empty_join_result,
    finish_join,
    local_star_join,
    reveal_relation,
    reveal_result,
)
from ..core.relation import SecureRelation
from ..core.semijoin import oblivious_reduce_join, oblivious_semijoin
from ..leakage import leaks
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

__all__ = ["Scheduler"]


class Scheduler:
    """Executes an :class:`ExecPlan` over an engine's context, tracing
    into the engine's ``tracer`` when one is attached, so callers
    configure instrumentation once on the engine and every pipeline
    run picks it up."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.trace = getattr(engine, "tracer", None)

    @leaks()
    def run(
        self,
        plan: ExecPlan,
        relations: Dict[str, SecureRelation],
        *,
        env: Optional[Dict[str, Any]] = None,
        start_at: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Execute the plan; returns the final slot environment.  The
        caller reads ``plan.result_slot`` out of it.

        When the context carries a runtime session
        (:func:`repro.runtime.session.enable_session`), every step runs
        under the :class:`~repro.runtime.supervisor.Supervisor`:
        checkpointed, deadline-supervised, and retried on retryable
        :class:`~repro.runtime.aborts.ProtocolAbort` faults.  Protocol
        code never catches broader exception types here — operator bugs
        must propagate untouched.

        ``env``/``start_at`` make runs resumable from a durable
        checkpoint (``repro net --resume``): pass the revived slot
        environment and the checkpointed step id, and execution skips
        every step before ``start_at``, resuming at the checkpointed
        node itself.

        The run is a leakage scope whose own contract is empty
        (:func:`repro.leakage.leaks`): every reveal it reaches must sit
        under an operator that declares it, or it raises
        :class:`~repro.leakage.UndeclaredLeakage`."""
        ctx = self.engine.ctx
        supervisor = self._make_supervisor()
        # Cooperative re-entrancy: a serving layer may interleave many
        # sessions by parking this one at each step boundary.  The hook
        # runs outside the supervisor's checkpoint/retry bracket (one
        # yield per step, not per attempt) and before any of the step's
        # messages, so it cannot perturb the transcript.
        yield_hook = getattr(self.engine, "yield_hook", None)
        env = {} if env is None else env
        if start_at is not None and not 0 <= start_at < len(plan.steps):
            raise ValueError(f"resume step {start_at} is not in the plan")
        # A traced node reports its estimated marginal bytes beside its
        # metered ones (the estimator imports this package: lazily).
        est_bytes: Dict[int, int] = {}
        if self.trace is not None:
            from ..bench.estimator import estimate_step_bytes

            est_bytes = estimate_step_bytes(plan.steps, relations, ctx.params)
        for step in plan.steps[start_at or 0:]:
            if yield_hook is not None:
                yield_hook(step)
            # Silent-OT pools live for one node, so no checkpoint holds
            # one open (OT.close_pools).
            self.engine.ot.close_pools()

            def thunk(step: Step = step) -> None:
                if self.trace is not None:
                    with self.trace.node(
                        ctx.transcript,
                        id=step.id,
                        kind=step.kind,
                        label=step.label,
                        section=step.section,
                        backend=getattr(step, "backend", None),
                        est_bytes=est_bytes.get(step.id),
                    ):
                        self._dispatch(step, env, relations)
                else:
                    self._dispatch(step, env, relations)

            if supervisor is not None:
                supervisor.run_step(step, env, thunk)
            else:
                thunk()
        if self.trace is not None:
            self.trace.meta["plan"] = plan.name
            self.trace.meta["n_steps"] = len(plan.steps)
        return env

    def _make_supervisor(self) -> Optional["Supervisor"]:
        """A step supervisor when the context has a session attached
        (imported lazily: the runtime layer is optional at run time)."""
        session = getattr(self.engine.ctx, "session", None)
        if session is None:
            return None
        from ..runtime.supervisor import Supervisor

        return Supervisor(session, self.engine, trace=self.trace)

    def _dispatch(
        self,
        step: Step,
        env: Dict[str, Any],
        relations: Dict[str, SecureRelation],
    ) -> None:
        ctx = self.engine.ctx
        with ExitStack() as sections:
            if step.section is not None:
                sections.enter_context(ctx.section(step.section))
            if step.section == "full_join":
                sections.enter_context(ctx.section("oblivious_join"))
            self._execute(step, env, relations)

    def _execute(
        self,
        step: Step,
        env: Dict[str, Any],
        relations: Dict[str, SecureRelation],
    ) -> None:
        engine = self.engine
        ctx = engine.ctx
        if isinstance(step, ShareStep):
            if step.relation not in relations:
                raise KeyError(
                    f"missing input relations: [{step.relation!r}]"
                )
            env[step.relation] = relations[step.relation]
        elif isinstance(step, ReduceFoldStep):
            folded = oblivious_aggregate(
                engine, env[step.child], step.agg_attrs,
                label=f"agg/{step.child}",
            )
            env[step.parent] = oblivious_reduce_join(
                engine, env[step.parent], folded,
                label=step.label, backend=step.backend,
            )
            del env[step.child]
        elif isinstance(step, AggregateStep):
            env[step.node] = oblivious_aggregate(
                engine, env[step.node], step.attrs, label=step.label,
            )
        elif isinstance(step, SemijoinStep):
            env[step.target] = oblivious_semijoin(
                engine, env[step.target], env[step.filter],
                label=step.label, backend=step.backend,
            )
        elif isinstance(step, RevealStep):
            shares, revealed = reveal_relation(
                engine, env[step.relation], step.relation
            )
            env[f"shares:{step.relation}"] = shares
            env[f"revealed:{step.relation}"] = revealed
        elif isinstance(step, JoinStep):
            env["joined"] = local_star_join(
                ctx,
                {n: env[n] for n in step.relations},
                {n: env[f"revealed:{n}"] for n in step.relations},
                list(step.join_order),
                pad_out_to=step.pad_out_to,
            )
        elif isinstance(step, AlignStep):
            joined = env["joined"]
            env[f"factor:{step.relation}"] = (
                None
                if len(joined) == 0
                else align_factor(
                    engine,
                    step.relation,
                    env[f"shares:{step.relation}"],
                    joined,
                )
            )
        elif isinstance(step, ProductStep):
            joined = env["joined"]
            if len(joined) == 0:
                env["result"] = empty_join_result(ctx, joined)
            else:
                factors = [env[f"factor:{n}"] for n in step.relations]
                env["result"] = finish_join(engine, joined, factors)
        elif isinstance(step, RevealResultStep):
            result = env["result"]
            env["output"] = (result, reveal_result(ctx, result))
        else:  # pragma: no cover
            raise TypeError(f"unknown step {step!r}")
