"""Disk-durable checkpoints: the append-only journal.

The supervisor already captures a node-granular
:class:`~repro.runtime.checkpoint.Checkpoint` before every plan node —
slot environment, engine state (including the one-time base-OT
charging), transcript position and session counters, with the context
graph *pinned* (shared, not cloned) so the captured checkpoint carries
the live transcript prefix and RNG state.  A
:class:`DurableStore` serialises each capture to an append-only journal
with atomic fsync'd commits, so a party can be ``kill -9``'d mid-query
and restarted with ``repro net --resume``: :func:`revive` rebuilds the
engine, session and slot environment from the newest committed record
alone, and the resumed run's transcript fingerprint is byte-identical
to the unfaulted one (pinned by ``tests/test_durable.py``).

Record format (little-endian)::

    magic "SYJ1" | kind (1 byte) | payload length (8 bytes)
    | sha256(payload) (32 bytes) | payload

Appends are atomic in the torn-write sense: a record counts only if its
payload is complete and its digest verifies, so :func:`Journal.scan`
stops at the first torn or corrupt tail record and recovery resumes
from the last *committed* checkpoint — exactly the state the peer's
last durable ACK covers.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from .faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.engine import Engine
    from .checkpoint import Checkpoint
    from .session import Session

__all__ = [
    "JOURNAL_MAGIC",
    "KIND_META",
    "KIND_CHECKPOINT",
    "KIND_DONE",
    "Journal",
    "JournalState",
    "DurableStore",
    "revive",
]

#: File magic identifying a journal record ("Secure Yannakakis Journal v1").
JOURNAL_MAGIC = b"SYJ1"

_HEADER = struct.Struct("<4sBQ32s")

#: Run configuration (JSON) — always the first record.
KIND_META = 1
#: One committed checkpoint (pickled :class:`Checkpoint`).
KIND_CHECKPOINT = 2
#: Terminal success marker (JSON run profile).
KIND_DONE = 3

_KINDS = (KIND_META, KIND_CHECKPOINT, KIND_DONE)


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
        happened", never like an error."""
        with open(path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                magic, kind, length, digest = _HEADER.unpack(header)
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
        """Newest committed ``(step_id, pickled checkpoint)``."""
        return self.checkpoints[-1] if self.checkpoints else None


class DurableStore:
    """The session-facing sink over a :class:`Journal`.

    The supervisor calls :meth:`save_checkpoint` at every capture; the
    runner calls :meth:`save_done` after the final barrier.  ``create``
    starts a fresh journal (first record = run meta, so a resume can
    rebuild the public plan deterministically); ``append_to`` reopens
    an existing one for the records of a resumed run.
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

    def save_checkpoint(self, step_id: int, checkpoint: "Checkpoint") -> None:
        """Commit one captured checkpoint.  The checkpoint *pins* the
        live context (transcript, RNG, session), so pickling at
        capture time snapshots the whole recoverable state in one
        record."""
        self.journal.append(KIND_CHECKPOINT, pickle.dumps(checkpoint))
        self.n_commits += 1

    def save_done(self, profile: Dict[str, Any]) -> None:
        self.journal.append(
            KIND_DONE, json.dumps(profile, sort_keys=True).encode()
        )

    def close(self) -> None:
        self.journal.close()

    @staticmethod
    def load(path: str) -> JournalState:
        """Replay a journal into a :class:`JournalState`."""
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
                raise ValueError(
                    f"journal {path!r} does not start with a meta record"
                )
            elif kind == KIND_CHECKPOINT:
                step_id = pickle.loads(payload).step_id
                state.checkpoints.append((step_id, payload))
            elif kind == KIND_DONE:
                state.done = json.loads(payload.decode())
        if state is None:
            raise ValueError(f"journal {path!r} has no committed records")
        return state


def revive(
    blob: bytes,
) -> Tuple["Engine", "Session", Dict[str, Any], "Checkpoint"]:
    """Reconstruct a live ``(engine, session, env, checkpoint)`` from
    one committed checkpoint record.

    The pickled checkpoint's engine state carries the pinned context —
    transcript prefix, RNG, session counters — so nothing
    outside the record is needed.  Two deliberate resets:

    * the revived session's :class:`~repro.runtime.faults.FaultPlan` is
      cleared — the plan was pickled *before* its one-shot specs fired
      (capture precedes ``begin_node``), and the fault that killed the
      original process must not re-fire on the resumed one;
    * ephemeral process-local hooks (transport, durable sink, process
      faults) were nulled by ``Session.__getstate__`` and are re-wired
      by the caller.
    """
    from ..mpc.engine import Engine

    checkpoint: "Checkpoint" = pickle.loads(blob)
    engine_state = checkpoint._engine_state
    engine = Engine.__new__(Engine)
    engine.__dict__.update(engine_state)
    ctx = engine.ctx
    session = ctx.session
    if session is None:
        raise ValueError("checkpoint carries no session")
    session.faults = FaultPlan()
    env: Dict[str, Any] = {}
    checkpoint.restore(env, engine, session, None)
    return engine, session, env, checkpoint
