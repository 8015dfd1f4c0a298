"""The retrying step supervisor.

When a context has a session attached, the exec scheduler routes every
plan node through :meth:`Supervisor.run_step`: checkpoint, arm the node
deadline, run the operator, barrier.  A raised
:class:`~repro.runtime.aborts.ProtocolAbort` — and **only** a
``ProtocolAbort``; operator bugs must propagate untouched — is handled
per taxonomy: retryable aborts restore the checkpoint, advance the
virtual clock by a bounded exponential backoff, re-key the context RNG
with a fresh deterministic subkey, and re-run; terminal aborts (peer
crash, retries exhausted) propagate.  Every step kind is a pure
function of the checkpointed slot environment, engine state and
context RNG, so every step may be retried.  The retry policy is the
session's :attr:`~repro.runtime.session.Session.retry_policy`, or the
default :class:`RetryPolicy` when it is unset.

The retried node re-executes against the rewound secret-share state
with the identical public shapes, so its messages are byte-identical
in (sender, size, label) to the unfaulted run — the checkpoint/resume
equality test pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

import numpy as np

from .aborts import ProtocolAbort
from .checkpoint import Checkpoint
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.ir import Step
    from ..exec.trace import ExecutionTrace
    from ..mpc.engine import Engine

__all__ = ["RetryPolicy", "Supervisor"]

#: Domain-separation constant for retry RNG subkeys.
_RETRY_STREAM = 0x53594E31  # "SYN1"

#: Domain-separation constant for backoff-jitter subkeys (distinct
#: stream: jitter draws must never perturb the retry rekeying).
_JITTER_STREAM = 0x53594E4A  # "SYNJ"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff in virtual time, plus deterministic
    jitter.

    The jitter is *additive* on top of :meth:`backoff` (whose schedule
    stays exact and pinned by tests) and is derived from a seeded RNG
    keyed on ``(stream, session seed, step, attempt)`` — never
    wall-clock or :mod:`random` — so the full retry schedule is a pure
    function of the session seed and replays identically.
    """

    max_attempts: int = 3
    base_backoff_ticks: int = 8
    max_backoff_ticks: int = 1024
    jitter_ticks: int = 8

    def backoff(self, attempt: int) -> int:
        """Deterministic base: ticks to wait before retry number
        ``attempt`` (1-based), jitter excluded."""
        ticks = self.base_backoff_ticks << max(attempt - 1, 0)
        return min(ticks, self.max_backoff_ticks)

    def jitter(self, attempt: int, seed: int, step_id: int) -> int:
        """The deterministic jitter for one retry: uniform in
        ``[0, jitter_ticks]``, keyed so distinct steps, attempts and
        sessions de-synchronise without sacrificing replayability."""
        if self.jitter_ticks <= 0:
            return 0
        rng = np.random.default_rng(
            [_JITTER_STREAM, int(seed), int(step_id), int(attempt)]
        )
        return int(rng.integers(0, self.jitter_ticks + 1))

    def jittered_backoff(self, attempt: int, seed: int, step_id: int) -> int:
        return self.backoff(attempt) + self.jitter(attempt, seed, step_id)


class Supervisor:
    """Runs plan nodes under a session with checkpoint retries."""

    def __init__(
        self,
        session: Session,
        engine: "Engine",
        trace: Optional["ExecutionTrace"] = None,
    ) -> None:
        self.session = session
        self.engine = engine
        self.policy = session.retry_policy or RetryPolicy()
        self.trace = trace

    def run_step(
        self,
        step: "Step",
        env: Dict[str, Any],
        thunk: Callable[[], None],
    ) -> None:
        """Execute one plan node, retrying per the policy."""
        session = self.session
        attempts = 0
        while True:
            checkpoint = Checkpoint.capture(
                step.id, env, self.engine, session, self.trace
            )
            # Durable mode: journal the capture (and ACK the peer) so a
            # kill -9 from here on resumes at this node.
            session.commit_checkpoint(step, checkpoint)
            try:
                session.begin_node(step.id, step.label)
                thunk()
                session.end_node()
                return
            except ProtocolAbort as abort:
                session.n_aborts += 1
                attempts += 1
                self._event("abort", step, attempts, abort)
                if not abort.retryable:
                    raise
                if attempts >= self.policy.max_attempts:
                    raise type(abort)(
                        "retries-exhausted",
                        node=step.id,
                        label=step.label,
                        attempts=attempts,
                    ) from abort
                checkpoint.restore(
                    env, self.engine, session, self.trace
                )
                session.clock.advance(
                    self.policy.jittered_backoff(
                        attempts, session.seed, step.id
                    )
                )
                self._rekey(step.id, attempts)
                session.n_retries += 1
                self._event("retry", step, attempts, abort)

    def _rekey(self, step_id: int, attempt: int) -> None:
        """Fresh deterministic RNG subkey for the retry: the rewound
        node re-runs with independent randomness, never reusing the
        masks the aborted attempt may have half-spent."""
        self.engine.ctx.rng = np.random.default_rng(
            [_RETRY_STREAM, self.session.seed, step_id, attempt]
        )

    def _event(
        self,
        event: str,
        step: "Step",
        attempt: int,
        abort: ProtocolAbort,
    ) -> None:
        if self.trace is None:
            return
        self.trace.record_event(
            {
                "type": event,
                "node": step.id,
                "kind": step.kind,
                "label": step.label,
                "attempt": attempt,
                "tick": self.session.clock.now,
                "abort": abort.to_json(),
            }
        )
