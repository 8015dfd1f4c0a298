"""The fault-tolerant session layer over the metered channel.

A :class:`Session` interposes between :class:`repro.mpc.context.Context`
and its :class:`~repro.mpc.transcript.Transcript`: every logical send
becomes a framed, sequence-numbered, checksummed message
(:mod:`repro.runtime.framing`), and an attached
:class:`~repro.runtime.faults.FaultPlan` can deterministically corrupt,
truncate, drop, duplicate, reorder or hang any wire message, or crash
(in ``repro net``, SIGKILL) a party at a plan node.  Detected faults
raise the typed aborts of :mod:`repro.runtime.aborts`;
:func:`~repro.runtime.supervisor.run_replayed` turns a retryable abort
at a node into a replay of the run up to that node.

A session outlives the contexts it serves: a replay rebuilds the
context from the run's seed and binds the same session to it.  While
the replayed prefix runs (``replaying``), a send is metered and is
nothing else: no wire index, no fault, no journal.

Two invariants the tests pin down:

* **Accounting neutrality** — every delivered frame meters ``payload + FRAME_HEADER_BYTES`` under the
  payload's own label, so a session-enabled run's transcript is the
  plain run's transcript plus a fixed per-message constant, identically
  in REAL and SIMULATED mode.
* **Monotone wire index** — a bind never rewinds it and a replay
  never advances it, so one-shot faults do not re-fire on retry.
"""

from __future__ import annotations

import os
import signal
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..mpc.transcript import ALICE, BOB, Transcript
from .aborts import (
    IntegrityAbort,
    PeerCrash,
    SequenceAbort,
    TimeoutAbort,
)
from .durable import Position
from .faults import FaultPlan
from .framing import FRAME_HEADER_BYTES, Frame, make_frame, verify_frame
from .framing import corrupted as _corrupted
from .framing import truncated as _truncated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.context import Context
    from .durable import DurableStore
    from .transport import SocketTransport

__all__ = ["Session", "enable_session"]


class Session:
    """Framed, node-scoped view of one metered transcript."""

    def __init__(
        self,
        transcript: Optional[Transcript] = None,
        faults: Optional[FaultPlan] = None,
        seed: int = 0,
    ) -> None:
        self.faults = faults if faults is not None else FaultPlan()
        self.seed = int(seed)
        #: How often a node may be tried
        #: (:func:`~repro.runtime.supervisor.run_replayed`).
        self.max_attempts = 3
        #: Process-local hooks of a two-process run (``repro net``):
        #: the socket transport every delivered frame is exchanged
        #: through, and the durable journal each node's position is
        #: committed to.
        self.wire: Optional["SocketTransport"] = None
        self.durable: Optional["DurableStore"] = None
        #: Called with the node's ordinal at the top of every node,
        #: before its commit (the replay helper's check and re-key).
        self.before_commit: Optional[Callable[[int], None]] = None
        self.replaying = False
        self._wire_index = 0
        self.n_aborts = 0
        self.n_retries = 0
        self._start(transcript if transcript is not None else Transcript())

    def _start(self, transcript: Transcript) -> None:
        """The per-run state, as at a run's first message."""
        self.transcript = transcript
        self._seq: Dict[str, int] = {ALICE: 0, BOB: 0}
        self._expected: Dict[str, int] = {ALICE: 0, BOB: 0}
        self._held: Dict[str, Frame] = {}
        #: the ordinal of the running plan's step 0 (Q8 runs two plans)
        self._plan_base = 0
        self.node: Optional[int] = None
        self.node_label = ""
        #: The position at the top of the live node in flight, ``None``
        #: between nodes: where a retry of that node replays to.
        self.top: Optional[Position] = None
        self.nodes_seen: List[int] = []

    def bind(self, ctx: "Context") -> None:
        """Serve a fresh context from its first message: every
        ``ctx.send`` routes through this session and is metered into
        the context's transcript.  The channel counters and the node
        scope start afresh; the wire index, the fault plan and the
        abort and retry counts carry over."""
        ctx.session = self
        self._start(ctx.transcript)

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
        if self.replaying:
            self._expected[sender] += 1
            self.transcript.send(
                sender, n_bytes + FRAME_HEADER_BYTES, label
            )
            return
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
        elif kind == "hang" and self.node is not None:
            # The frame never arrives in time: the node expires (a
            # hang between nodes has no node to expire).
            raise TimeoutAbort(
                "deadline-expired",
                node=self.node,
                label=frame.label,
                party=frame.sender,
            )
        self._deliver(frame)
        if kind == "duplicate":
            self._deliver(frame)

    def _deliver(self, frame: Frame) -> None:
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
        """Enter a plan node: fire any node-scoped fault keyed on the
        node's ordinal in the run (a party crash, or a ``kill-node``
        SIGKILL) before work starts.  A replayed node fires none."""
        spec = (
            None if self.replaying
            else self.faults.for_node(self._plan_base + node_id)
        )
        if spec is not None and spec.level == "process":
            os.kill(os.getpid(), signal.SIGKILL)
        self.node = node_id
        self.node_label = label
        self.nodes_seen.append(node_id)
        if spec is not None:
            raise PeerCrash(
                "peer-crashed",
                node=node_id,
                label=label,
                party=spec.party,
            )

    def end_node(self) -> None:
        """Leave a plan node; the barrier requires every sent frame to
        have been delivered (a dropped or held frame expires the
        node).  An abort leaves the node scope set: it names the node
        a retry re-runs."""
        self._barrier()
        self.node = None
        self.node_label = ""
        self.top = None

    def end_plan(self, n_steps: int) -> None:
        """A plan of ``n_steps`` nodes finished: the next plan's nodes
        take the ordinals after its."""
        self._plan_base += n_steps

    def finish(self) -> None:
        """End-of-run barrier for traffic outside any node."""
        self._barrier()

    def _barrier(self) -> None:
        for party in (ALICE, BOB):
            if self._expected[party] != self._seq[party]:
                raise TimeoutAbort(
                    "deadline-expired",
                    node=self.node,
                    label=self.node_label,
                    seq=self._seq[party],
                    expected=self._expected[party],
                    party=party,
                )

    # -- checkpointing ---------------------------------------------------

    def commit_checkpoint(self, step_id: int) -> None:
        """The top of a plan node, before its first message: call
        :attr:`before_commit` with the node's ordinal; unless
        replaying, record the party's
        :class:`~repro.runtime.durable.Position` as :attr:`top`, and in
        durable mode journal it (fsync'd).  The peer learns nothing
        here: its outbox keeps every frame it sent, so a restart from
        any journalled position finds what it lost."""
        ordinal = self._plan_base + step_id
        if self.before_commit is not None:
            self.before_commit(ordinal)
        if self.replaying:
            return
        self.top = Position.of(ordinal, self)
        if self.durable is not None:
            self.durable.save_checkpoint(self.top)


def enable_session(
    ctx: "Context",
    faults: Optional[FaultPlan] = None,
    *,
    seed: int = 0,
) -> Session:
    """Attach a session to a context; every subsequent ``ctx.send``
    routes through it.  Returns the session."""
    session = Session(None, faults, seed)
    session.bind(ctx)
    return session
