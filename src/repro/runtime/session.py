"""The fault-tolerant session layer over the metered channel.

A :class:`Session` interposes between :class:`repro.mpc.context.Context`
and its :class:`~repro.mpc.transcript.Transcript`: every logical send
becomes a framed, sequence-numbered, checksummed message
(:mod:`repro.runtime.framing`), delivery advances a virtual clock
against the current plan node's deadline, and an attached
:class:`~repro.runtime.faults.FaultPlan` can deterministically corrupt,
truncate, drop, duplicate, reorder or stall any wire message, or crash
(in ``repro net``, SIGKILL) a party at a plan node.  Detected faults
raise the typed aborts of :mod:`repro.runtime.aborts`; the supervisor
turns retryable aborts into checkpoint retries.

Two invariants the tests pin down:

* **Accounting neutrality** — every delivered frame meters ``payload + FRAME_HEADER_BYTES`` under the
  payload's own label, so a session-enabled run's transcript is the
  plain run's transcript plus a fixed per-message constant, identically
  in REAL and SIMULATED mode.
* **Monotone wire index** — :meth:`rollback` rewinds sequence counters
  (and the transcript, via ``Transcript.rollback``) but never the wire
  index, so one-shot faults do not re-fire on retry.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..mpc.transcript import ALICE, BOB, Transcript
from .aborts import (
    IntegrityAbort,
    PeerCrash,
    SequenceAbort,
    TimeoutAbort,
)
from .clock import VirtualClock
from .faults import DEFAULT_NODE_BUDGET, FaultPlan
from .framing import FRAME_HEADER_BYTES, Frame, make_frame, verify_frame
from .framing import corrupted as _corrupted
from .framing import truncated as _truncated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.ir import Step
    from ..mpc.context import Context
    from .checkpoint import Checkpoint
    from .durable import DurableStore
    from .supervisor import RetryPolicy
    from .transport import SocketTransport

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "SessionState",
    "Session",
    "enable_session",
]

@dataclass(frozen=True)
class SessionState:
    """Channel counters captured by a checkpoint (the wire index is
    deliberately absent: it is monotone across retries)."""

    seq: Dict[str, int]
    expected: Dict[str, int]


class Session:
    """Framed, deadline-supervised view of one metered transcript."""

    def __init__(
        self,
        transcript: Transcript,
        faults: Optional[FaultPlan] = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
        seed: int = 0,
    ) -> None:
        self.transcript = transcript
        self.faults = faults if faults is not None else FaultPlan()
        self.clock = VirtualClock()
        self.node_budget = int(node_budget)
        self.seed = int(seed)
        #: The supervisor's retry policy; ``None`` is the default
        #: :class:`~repro.runtime.supervisor.RetryPolicy`.
        self.retry_policy: Optional["RetryPolicy"] = None
        #: Process-local hooks of a two-process run (``repro net``):
        #: the socket transport every delivered frame is exchanged
        #: through and the durable journal the supervisor commits
        #: checkpoints to.  Both are ephemeral — :meth:`__getstate__`
        #: nulls them (and drops the plan's process-level faults), and
        #: the resume path re-wires fresh ones.
        self.wire: Optional["SocketTransport"] = None
        self.durable: Optional["DurableStore"] = None
        self._seq: Dict[str, int] = {ALICE: 0, BOB: 0}
        self._expected: Dict[str, int] = {ALICE: 0, BOB: 0}
        self._held: Dict[str, Frame] = {}
        self._wire_index = 0
        self.node: Optional[int] = None
        self.node_label = ""
        self.deadline: Optional[int] = None
        self.nodes_seen: List[int] = []
        self.n_aborts = 0
        self.n_retries = 0

    # -- the channel ----------------------------------------------------

    @property
    def wire_index(self) -> int:
        """Wire messages attempted so far (monotone; includes dropped,
        held and re-sent frames)."""
        return self._wire_index

    def send(self, sender: str, n_bytes: int, label: str) -> None:
        """Frame and deliver one logical message, applying at most one
        injected fault keyed on the monotone wire index."""
        seq = self._seq[sender]
        self._seq[sender] = seq + 1
        frame = make_frame(seq, sender, n_bytes, label)
        wire = self._wire_index
        self._wire_index = wire + 1
        spec = self.faults.for_message(wire)
        kind = spec.kind if spec is not None else ""
        if kind == "drop":
            return  # never arrives; the end-of-node barrier notices
        if kind == "reorder":
            # Held back: the next same-sender frame overtakes it and
            # trips the receiver's sequence-gap check.
            self._held[sender] = frame
            return
        if kind == "corrupt":
            frame = _corrupted(frame)
        elif kind == "truncate":
            frame = _truncated(frame)
        elif kind == "hang" and spec is not None:
            self.clock.advance(spec.ticks)
        self._deliver(frame)
        if kind == "duplicate":
            self._deliver(frame)

    def _deliver(self, frame: Frame) -> None:
        self.clock.advance(1)
        if self.deadline is not None and self.clock.now > self.deadline:
            raise TimeoutAbort(
                "deadline-expired",
                node=self.node,
                label=frame.label,
                party=frame.sender,
                tick=self.clock.now,
                deadline=self.deadline,
            )
        reason = verify_frame(frame)
        if reason:
            raise IntegrityAbort(
                reason,
                node=self.node,
                label=frame.label,
                seq=frame.seq,
                party=frame.sender,
                n_bytes=frame.length,
            )
        expected = self._expected[frame.sender]
        if frame.seq != expected:
            raise SequenceAbort(
                "sequence-gap" if frame.seq > expected
                else "sequence-replay",
                node=self.node,
                label=frame.label,
                seq=frame.seq,
                expected=expected,
                party=frame.sender,
            )
        if self.wire is not None:
            # Two-process mode: transmit own-role frames, block on and
            # cross-verify peer-role frames, before anything is
            # metered.  Transport control traffic is unmetered, so the
            # transcript stays byte-identical to the solo run.
            self.wire.exchange(frame)
        self._expected[frame.sender] = expected + 1
        self.transcript.send(
            frame.sender, frame.n_bytes + FRAME_HEADER_BYTES, frame.label
        )

    # -- node scoping ----------------------------------------------------

    def begin_node(self, node_id: int, label: str = "") -> None:
        """Enter a plan node: arm its deadline and fire any node-scoped
        fault (a party crash, or a ``kill-node`` SIGKILL) before work
        starts."""
        spec = self.faults.for_node(node_id)
        if spec is not None and spec.level == "process":
            os.kill(os.getpid(), signal.SIGKILL)
        self.node = node_id
        self.node_label = label
        self.nodes_seen.append(node_id)
        self.deadline = self.clock.now + self.node_budget
        if spec is not None:
            raise PeerCrash(
                "peer-crashed",
                node=node_id,
                label=label,
                party=spec.party,
            )

    def end_node(self) -> None:
        """Leave a plan node; the barrier requires every sent frame to
        have been delivered (a dropped or held frame stalls the node
        until its deadline)."""
        try:
            self._barrier()
        finally:
            self.node = None
            self.node_label = ""
            self.deadline = None

    def finish(self) -> None:
        """End-of-run barrier for traffic outside any node."""
        self._barrier()

    def _barrier(self) -> None:
        for party in (ALICE, BOB):
            if self._expected[party] != self._seq[party]:
                if self.deadline is not None:
                    self.clock.advance_to(self.deadline + 1)
                raise TimeoutAbort(
                    "deadline-expired",
                    node=self.node,
                    label=self.node_label,
                    seq=self._seq[party],
                    expected=self._expected[party],
                    party=party,
                    tick=self.clock.now,
                    deadline=self.deadline,
                )

    # -- checkpointing ---------------------------------------------------

    def commit_checkpoint(
        self, step: "Step", checkpoint: "Checkpoint"
    ) -> None:
        """Durable commit of one supervisor capture: journal the
        checkpoint (fsync'd), then — and only then — send the peer a
        durable ACK carrying the committed expected counters.  Acking
        at commit time is what makes the peer's outbox a complete
        replay source after any crash on this side."""
        if self.durable is not None:
            self.durable.save_checkpoint(step.id, checkpoint)
            if self.wire is not None:
                self.wire.ack(dict(self._expected))

    def __getstate__(self) -> Dict[str, object]:
        """Pickled sessions (durable checkpoints) drop the
        process-local hooks: sockets and journal file handles neither
        pickle nor belong to the resumed process, and a journalled
        process-level fault would fire again in it."""
        state = self.__dict__.copy()
        state["wire"] = None
        state["durable"] = None
        state["faults"] = self.faults.without_process()
        return state

    def state(self) -> SessionState:
        return SessionState(
            seq=dict(self._seq), expected=dict(self._expected)
        )

    def rollback(self, state: SessionState) -> None:
        """Rewind the channel counters to a checkpoint.  Held frames
        are discarded and the node scope cleared; the wire index and
        the virtual clock keep advancing (see the module docstring)."""
        self._seq = dict(state.seq)
        self._expected = dict(state.expected)
        self._held.clear()
        self.node = None
        self.node_label = ""
        self.deadline = None


def enable_session(
    ctx: "Context",
    faults: Optional[FaultPlan] = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    seed: int = 0,
) -> Session:
    """Attach a session to a context; every subsequent ``ctx.send``
    routes through it.  Returns the session."""
    session = Session(ctx.transcript, faults, node_budget, seed)
    ctx.session = session
    return session
