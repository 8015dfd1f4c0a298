"""Disk-durable positions: the append-only journal.

A seeded run replays exactly in any fresh process
(``tests/test_replay.py``), so a party's journal need not hold its
memory, only how far it got.  At the top of every plan node, before
the node's first message, the session commits one
:class:`Position` — the node's ordinal in the run (its step id on a
single plan), the session's ``seq``/``expected``
counters and the transcript's message and round counts, all public —
to an append-only journal with atomic fsync'd commits.  A party can be
``kill -9``'d mid-query and restarted with ``repro net --resume``: the
run replays from step 0, unattached, up to the newest committed
node, checks the replayed position against the record, and only then
attaches journal and socket (:func:`repro.runtime.netrun.run_party`).
The resumed run's transcript fingerprint is byte-identical to the
unfaulted one (pinned by ``tests/test_durable.py``).

Record format (little-endian)::

    magic "SYJ2" | kind (1 byte) | payload length (8 bytes)
    | sha256(payload) (32 bytes) | payload

Every payload is JSON.  Appends are atomic in the torn-write sense: a
record counts only if its payload is complete and its digest verifies,
so :func:`Journal.scan` stops at the first torn or corrupt tail record
and recovery resumes from the last *committed* position — exactly the
state the peer's last durable ACK covers.  A journal of another format
(``SYJ1`` held pickled engine state) is refused outright, never
decoded: every refusal is a :class:`JournalRefused`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..mpc.transcript import ALICE, BOB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

__all__ = [
    "JOURNAL_MAGIC",
    "KIND_META",
    "KIND_CHECKPOINT",
    "KIND_DONE",
    "Position",
    "Journal",
    "JournalState",
    "DurableStore",
    "JournalRefused",
    "revive",
]

#: File magic identifying a journal record ("Secure Yannakakis Journal
#: v2": JSON positions; v1 pickled the engine).
JOURNAL_MAGIC = b"SYJ2"

_HEADER = struct.Struct("<4sBQ32s")

#: Run configuration (JSON) — always the first record.
KIND_META = 1
#: One committed :class:`Position` (JSON).
KIND_CHECKPOINT = 2
#: Terminal success marker (JSON run profile).
KIND_DONE = 3

_KINDS = (KIND_META, KIND_CHECKPOINT, KIND_DONE)


class JournalRefused(ValueError):
    """A journal that will not be resumed: none at all, another format,
    another run configuration, a malformed record, or no position to
    resume from.  Not a crash: ``repro net`` reports it on one line and
    exits with its own code."""


@dataclass(frozen=True)
class Position:
    """How far a party got: its public counters at the top of a plan
    node, before the node's first message.  ``step`` is the node's
    ordinal in the run, its step id on a single plan.  All zero is a
    fresh run's position at its first node."""

    step: int = 0
    seq_alice: int = 0
    seq_bob: int = 0
    expected_alice: int = 0
    expected_bob: int = 0
    n_messages: int = 0
    rounds: int = 0

    @classmethod
    def of(cls, step: int, session: "Session") -> "Position":
        seq, expected = session._seq, session._expected
        return cls(
            step, seq[ALICE], seq[BOB], expected[ALICE], expected[BOB],
            len(session.transcript.messages), session.transcript.rounds,
        )

    def to_json(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode()

    def first_difference(
        self, other: "Position"
    ) -> Optional[Tuple[str, int, int]]:
        """``(counter, ours, theirs)`` for the first counter that
        differs, else ``None``."""
        for f in fields(self):
            ours, theirs = getattr(self, f.name), getattr(other, f.name)
            if ours != theirs:
                return f.name, ours, theirs
        return None


def revive(blob: bytes) -> Position:
    """Decode and validate one committed checkpoint record: a JSON
    object of exactly the :class:`Position` counters, each a
    non-negative integer.  Raises :class:`JournalRefused` otherwise."""
    try:
        d = json.loads(blob)
    except ValueError:
        d = None
    if (
        not isinstance(d, dict)
        or sorted(d) != sorted(f.name for f in fields(Position))
        or any(type(v) is not int or v < 0 for v in d.values())
    ):
        raise JournalRefused(
            "checkpoint record does not hold a position"
        )
    return Position(**d)


class Journal:
    """Append-only record log with fsync'd, digest-verified commits."""

    def __init__(self, path: str, truncate: bool = False) -> None:
        self.path = path
        mode = "wb" if truncate else "ab"
        self._fh: Optional[io.BufferedWriter] = open(path, mode)

    def append(self, kind: int, payload: bytes) -> None:
        """Commit one record: header + payload, flushed and fsync'd
        before returning — after this call the record survives a
        ``kill -9`` (and a torn write of a *later* record)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        if self._fh is None:
            raise ValueError("journal is closed")
        digest = hashlib.sha256(payload).digest()
        self._fh.write(_HEADER.pack(JOURNAL_MAGIC, kind, len(payload), digest))
        self._fh.write(payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def scan(path: str) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(kind, payload)`` for every committed record,
        stopping silently at the first torn or corrupt tail record —
        an interrupted append must look like "that record never
        happened", never like an error.  A first record of another
        format raises :class:`JournalRefused`."""
        with open(path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                magic, kind, length, digest = _HEADER.unpack(header)
                if magic != JOURNAL_MAGIC and fh.tell() == _HEADER.size:
                    raise JournalRefused(
                        f"journal {path!r} has magic {magic!r}, not "
                        f"{JOURNAL_MAGIC!r}: a journal of another format "
                        "is refused, never decoded; start the run afresh"
                    )
                if magic != JOURNAL_MAGIC or kind not in _KINDS:
                    return
                payload = fh.read(length)
                if len(payload) < length:
                    return
                if hashlib.sha256(payload).digest() != digest:
                    return
                yield kind, payload


@dataclass
class JournalState:
    """Everything :func:`DurableStore.load` recovers from a journal."""

    meta: Dict[str, Any]
    checkpoints: List[Tuple[int, bytes]] = field(default_factory=list)
    done: Optional[Dict[str, Any]] = None

    @property
    def latest(self) -> Optional[Tuple[int, bytes]]:
        """Newest committed ``(step_id, position record)``."""
        return self.checkpoints[-1] if self.checkpoints else None


class DurableStore:
    """The session-facing sink over a :class:`Journal`.

    The session calls :meth:`save_checkpoint` at every node's commit;
    the runner calls :meth:`save_done` after the final barrier.
    ``create`` starts a fresh journal (first record = run meta, so a
    resume can rebuild the run deterministically); ``append_to``
    reopens an existing one for the records of a resumed run.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self.n_commits = 0

    @classmethod
    def create(cls, path: str, meta: Dict[str, Any]) -> "DurableStore":
        store = cls(Journal(path, truncate=True))
        store.journal.append(
            KIND_META, json.dumps(meta, sort_keys=True).encode()
        )
        return store

    @classmethod
    def append_to(cls, path: str) -> "DurableStore":
        return cls(Journal(path, truncate=False))

    def save_checkpoint(self, position: Position) -> None:
        """Commit one position record."""
        self.journal.append(KIND_CHECKPOINT, position.to_json())
        self.n_commits += 1

    def save_done(self, profile: Dict[str, Any]) -> None:
        self.journal.append(
            KIND_DONE, json.dumps(profile, sort_keys=True).encode()
        )

    def close(self) -> None:
        self.journal.close()

    @staticmethod
    def load(path: str) -> JournalState:
        """Read a journal into a :class:`JournalState`."""
        state: Optional[JournalState] = None
        for kind, payload in Journal.scan(path):
            if kind == KIND_META:
                meta = json.loads(payload.decode())
                if state is None:
                    state = JournalState(meta=meta)
                else:
                    # A resumed run re-records its meta; keep the first.
                    state.meta.setdefault("resumes", 0)
                    state.meta["resumes"] += 1
            elif state is None:
                raise JournalRefused(
                    f"journal {path!r} does not start with a meta record"
                )
            elif kind == KIND_CHECKPOINT:
                state.checkpoints.append((revive(payload).step, payload))
            elif kind == KIND_DONE:
                state.done = json.loads(payload.decode())
        if state is None:
            raise JournalRefused(
                f"journal {path!r} has no committed records"
            )
        return state
