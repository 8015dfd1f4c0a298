"""Communication transcript: byte- and round-metering for 2PC protocols.

Every message a protocol sends — real ciphertext in REAL mode, or the
*accounted* bytes of a simulated primitive in SIMULATED mode — is recorded
here.  The transcript is what the experiments report as "communication
cost", and its independence from private inputs is what the obliviousness
tests assert.

Rounds are counted as direction changes within a protocol section: a run
of consecutive messages in one direction forms (part of) a round, matching
how round complexity is counted in the 2PC literature.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Message",
    "Transcript",
    "TranscriptState",
    "ALICE",
    "BOB",
    "other_party",
]

#: Party identifiers.  Alice is, per the paper's convention, the designated
#: receiver of the query results.
ALICE = "alice"
BOB = "bob"


def other_party(party: str) -> str:
    if party == ALICE:
        return BOB
    if party == BOB:
        return ALICE
    raise ValueError(f"unknown party {party!r}")


@dataclass
class Message:
    """One metered message: who sent it, how many bytes, and which protocol
    section it belongs to."""

    sender: str
    n_bytes: int
    label: str


@dataclass(frozen=True)
class TranscriptState:
    """A transcript position for checkpoint/rollback (the session
    layer's node-granular retries truncate back to one of these)."""

    n_messages: int
    last_sender: Optional[str]
    rounds: int


class Transcript:
    """Accumulates all messages of a protocol run.

    ``section(label)`` pushes a label onto a stack so costs can be
    attributed to sub-protocols (e.g. ``"semijoin/psi/ot"``).
    """

    def __init__(self) -> None:
        self.messages: List[Message] = []
        self._labels: List[str] = []
        self._last_sender: Optional[str] = None
        self._rounds: int = 0

    # -- recording ------------------------------------------------------

    def send(self, sender: str, n_bytes: int, label: str) -> None:
        """Record ``n_bytes`` sent by ``sender`` under ``label``, which
        must be non-empty: every message is attributable to a protocol
        section."""
        if sender not in (ALICE, BOB):
            raise ValueError(f"unknown party {sender!r}")
        if n_bytes < 0:
            raise ValueError("cannot send a negative number of bytes")
        if not label:
            raise ValueError("every message needs a non-empty label")
        full = "/".join(self._labels + [label])
        self.messages.append(Message(sender, int(n_bytes), full))
        if sender != self._last_sender:
            self._rounds += 1
            self._last_sender = sender

    # -- checkpointing --------------------------------------------------

    def state(self) -> TranscriptState:
        """The current position, for a later :meth:`rollback`."""
        return TranscriptState(
            n_messages=len(self.messages),
            last_sender=self._last_sender,
            rounds=self._rounds,
        )

    def rollback(self, state: TranscriptState) -> None:
        """Truncate back to a previously captured position: messages
        recorded since are discarded and the round counter rewound, so
        a retried node re-meters from a clean slate."""
        if state.n_messages > len(self.messages):
            raise ValueError(
                "cannot roll a transcript forward "
                f"({state.n_messages} > {len(self.messages)} messages)"
            )
        del self.messages[state.n_messages:]
        self._last_sender = state.last_sender
        self._rounds = state.rounds

    @contextmanager
    def section(self, label: str) -> Iterator[None]:
        self._labels.append(label)
        try:
            yield
        finally:
            self._labels.pop()

    # -- reporting ------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(m.n_bytes for m in self.messages)

    @property
    def rounds(self) -> int:
        return self._rounds

    def bytes_from(self, sender: str) -> int:
        return sum(m.n_bytes for m in self.messages if m.sender == sender)

    def bytes_by_section(self, depth: int = 1) -> Dict[str, int]:
        """Total bytes keyed by the first ``depth`` components of each
        message's section path."""
        out: Dict[str, int] = {}
        for m in self.messages:
            key = "/".join(m.label.split("/")[:depth])
            out[key] = out.get(key, 0) + m.n_bytes
        return out

    def rounds_by_section(self, depth: int = 1) -> Dict[str, int]:
        """Round counts keyed like :meth:`bytes_by_section`: per section,
        the number of direction changes among that section's messages
        (interleaved sections each count their own sub-sequence)."""
        rounds: Dict[str, int] = {}
        last: Dict[str, str] = {}
        for m in self.messages:
            key = "/".join(m.label.split("/")[:depth])
            if m.sender != last.get(key):
                rounds[key] = rounds.get(key, 0) + 1
                last[key] = m.sender
        return rounds

    @staticmethod
    def slice_rounds(messages: List[Message]) -> int:
        """Rounds attributable to a contiguous message slice: direction
        changes within the slice, the first message opening a round."""
        rounds = 0
        last: Optional[str] = None
        for m in messages:
            if m.sender != last:
                rounds += 1
                last = m.sender
        return rounds

    def summary(self) -> str:
        lines = [
            f"total: {self.total_bytes:,} bytes in {len(self.messages)} "
            f"messages, {self.rounds} rounds"
        ]
        for key, b in sorted(
            self.bytes_by_section().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {key}: {b:,} bytes")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A serialisable summary (for dashboards / offline analysis)."""
        return {
            "total_bytes": self.total_bytes,
            "rounds": self.rounds,
            "messages": len(self.messages),
            "bytes_from": {
                ALICE: self.bytes_from(ALICE),
                BOB: self.bytes_from(BOB),
            },
            "by_section": self.bytes_by_section(),
            "rounds_by_section": self.rounds_by_section(),
        }

    def fingerprint(self) -> Tuple[Tuple[str, int, str], ...]:
        """A hashable view of (sender, size, label) for every message.

        Obliviousness tests assert that two runs on different private
        inputs of the same public shape produce identical fingerprints —
        i.e. the *observable* traffic pattern is input-independent.
        """
        return tuple((m.sender, m.n_bytes, m.label) for m in self.messages)
