"""Structured execution tracing.

An :class:`ExecutionTrace` collects one :class:`NodeTrace` per executed
plan node: wall time, bytes sent, message and round counts, plus the
node's identity (kind, label, section).  The whole trace is
JSON-exportable — see ``docs/API.md`` for the schema.

This module is stdlib-only so the core operator layer can import
:func:`traced` without pulling in the scheduler.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.engine import Engine
    from ..mpc.transcript import Transcript

__all__ = ["NodeTrace", "ExecutionTrace", "traced"]


@dataclass
class NodeTrace:
    """Measurements for one executed plan node."""

    id: int
    kind: str
    label: str
    section: Optional[str]
    seconds: float
    n_bytes: int
    n_messages: int
    rounds: int
    #: Join back-end the node ran under and its pre-dispatch estimated
    #: bytes (fold/semijoin nodes only).  Optional: nodes without a
    #: back-end choice keep the golden-pinned schema unchanged.
    backend: Optional[str] = None
    est_bytes: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        d = asdict(self)
        if self.backend is None:
            del d["backend"]
            del d["est_bytes"]
        return d


@dataclass
class ExecutionTrace:
    """Per-node measurements for one scheduler run."""

    nodes: List[NodeTrace] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    #: The aborts and retries of the run, carried over from its failed
    #: attempts' traces (:func:`repro.runtime.supervisor.run_replayed`);
    #: ``nodes`` are the finishing attempt's.
    events: List[Dict[str, Any]] = field(default_factory=list)

    @contextmanager
    def node(
        self,
        transcript: "Transcript",
        *,
        id: int,
        kind: str,
        label: str,
        section: Optional[str] = None,
        backend: Optional[str] = None,
        est_bytes: Optional[int] = None,
    ) -> Iterator[None]:
        """Measure one node: wall time plus the transcript delta
        (bytes, messages, rounds) produced while the block runs."""
        start_msgs = len(transcript.messages)
        start_bytes = transcript.total_bytes
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            window = transcript.messages[start_msgs:]
            self.nodes.append(
                NodeTrace(
                    id=id,
                    kind=kind,
                    label=label,
                    section=section,
                    seconds=elapsed,
                    n_bytes=transcript.total_bytes - start_bytes,
                    n_messages=len(window),
                    rounds=transcript.slice_rounds(window),
                    backend=backend,
                    est_bytes=est_bytes,
                )
            )

    @property
    def total_seconds(self) -> float:
        return sum(n.seconds for n in self.nodes)

    @property
    def total_bytes(self) -> int:
        return sum(n.n_bytes for n in self.nodes)

    def by_section(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for n in self.nodes:
            key = n.section or ""
            out[key] = out.get(key, 0) + n.n_bytes
        return out

    def to_json(self) -> Dict[str, Any]:
        blob: Dict[str, Any] = {
            "meta": dict(self.meta),
            "total_seconds": self.total_seconds,
            "total_bytes": self.total_bytes,
            "nodes": [n.to_json() for n in self.nodes],
        }
        # Only present when a retry recorded something:
        # fault-free traces keep the golden-pinned schema unchanged.
        if self.events:
            blob["events"] = [dict(e) for e in self.events]
        return blob

    def dumps(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


@contextmanager
def traced(
    engine: "Engine",
    kind: str,
    label: str,
    section: Optional[str] = None,
) -> Iterator[None]:
    """Record a block against ``engine.tracer`` when one is attached;
    otherwise a no-op.  Lets operator code outside the scheduler (e.g.
    composition circuits) contribute trace nodes."""
    tracer = getattr(engine, "tracer", None)
    if tracer is None:
        yield
        return
    node_id = len(tracer.nodes)
    with tracer.node(
        engine.ctx.transcript,
        id=node_id,
        kind=kind,
        label=label,
        section=section,
    ):
        yield
