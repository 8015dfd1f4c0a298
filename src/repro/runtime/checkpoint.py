"""Node-granular checkpoints of secret-share state.

Before each plan node whose retry policy allows a retry, the
supervisor captures everything a retry must rewind:

* the **slot environment** (secret-shared relations, factors, the
  joined table …) — deep-copied;
* the **engine state** (OT back-ends carry one-time base-OT phases and
  batch counters; re-running a node without rewinding them would charge
  different bytes than the unfaulted run) — deep-copied with the
  context and tracer shared, not cloned;
* the **transcript position** (message count, last sender, round
  count) via ``Transcript.state``;
* the **session channel counters** via ``Session.state``;
* the **trace length**, so a failed attempt's node record is dropped.

``restore`` rewinds all five in place.  The checkpoint keeps its own
private deep copies, so a node can be restored more than once (bounded
by the retry policy).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..mpc.transcript import Transcript, TranscriptState
from .session import Session, SessionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.trace import ExecutionTrace
    from ..mpc.engine import Engine

__all__ = ["Checkpoint"]

#: Engine attributes that are coordination plumbing, not protocol
#: state: never captured or restored.  ``yield_hook`` is the serving
#: layer's baton callback — it closes over scheduler machinery
#: (threads, events) that neither copies nor belongs in a retry.
_COORDINATION_FIELDS = frozenset({"yield_hook"})


class Checkpoint:
    """A restorable snapshot taken immediately before one plan node."""

    def __init__(
        self,
        step_id: int,
        env: Dict[str, Any],
        engine_state: Dict[str, Any],
        transcript_state: TranscriptState,
        session_state: SessionState,
        n_trace_nodes: int,
    ) -> None:
        self.step_id = step_id
        self._env = env
        self._engine_state = engine_state
        self._transcript_state = transcript_state
        self._session_state = session_state
        self._n_trace_nodes = n_trace_nodes

    @staticmethod
    def _shared_memo(engine: "Engine") -> Dict[int, Any]:
        """Deep-copy memo pinning run-global objects: the context (its
        transcript is rewound separately, its RNG deliberately not) and
        the tracer."""
        memo: Dict[int, Any] = {id(engine.ctx): engine.ctx}
        tracer = getattr(engine, "tracer", None)
        if tracer is not None:
            memo[id(tracer)] = tracer
        return memo

    @classmethod
    def capture(
        cls,
        step_id: int,
        env: Dict[str, Any],
        engine: "Engine",
        session: Session,
        trace: Optional["ExecutionTrace"] = None,
    ) -> "Checkpoint":
        memo = cls._shared_memo(engine)
        return cls(
            step_id=step_id,
            env=copy.deepcopy(env, memo),
            engine_state=copy.deepcopy(
                {
                    k: v
                    for k, v in engine.__dict__.items()
                    if k not in _COORDINATION_FIELDS
                },
                memo,
            ),
            transcript_state=session.transcript.state(),
            session_state=session.state(),
            n_trace_nodes=len(trace.nodes) if trace is not None else 0,
        )

    def restore(
        self,
        env: Dict[str, Any],
        engine: "Engine",
        session: Session,
        trace: Optional["ExecutionTrace"] = None,
    ) -> None:
        memo = self._shared_memo(engine)
        env.clear()
        env.update(copy.deepcopy(self._env, memo))
        engine.__dict__.update(
            copy.deepcopy(self._engine_state, memo)
        )
        session.transcript.rollback(self._transcript_state)
        session.rollback(self._session_state)
        if trace is not None:
            del trace.nodes[self._n_trace_nodes:]
