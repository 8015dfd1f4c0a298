"""Two-process query execution: ``repro net``.

One OS process per party, a real TCP socket between them
(:mod:`repro.runtime.transport`), and a disk journal of positions
(:mod:`repro.runtime.durable`).  Both parties run the same
deterministic orchestration from the same seed (the lockstep mirror
model — see the transport module docstring); the invariant this module
exists to enforce is that the *result rows* and the *transcript
fingerprint* of a two-process run — faulted, killed, reconnected,
resumed — are byte-identical to the solo in-process run.

Flow of a party, fresh and resumed alike, on the one recovery path of
:func:`~repro.runtime.supervisor.run_replayed`::

    config -> dataset, session; context and engine (deterministic)
    target : node 0 fresh; the journal's newest position on --resume
    replay : steps before the target run unattached — frames metered
             locally, no journal append, no ACK, no socket
    attach : at the top of the target node, before its commit, the
             replayed position is checked against the record, then the
             journal, the party's faults and SocketTransport attach
             (the handshake advertises the replayed counters)
    run    : the rest of the plan, one journalled position per node
    finish : session.finish barrier, profile, KIND_DONE record, BYE

Net mode pins ``max_attempts=1``: an in-node retry would re-run a node
on one process while the peer's mirror stays put, desynchronising the
frame streams — in two-process operation the recovery path *is*
restart + ``--resume`` over the journal.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..mpc import costs
from ..mpc.context import Mode
from ..mpc.transcript import ALICE, BOB
from .chaos import RunProfile, make_tpch_runner, profile_run
from .durable import DurableStore, JournalRefused, Position, revive
from .faults import FaultPlan, FaultSpec
from .session import Session
from .supervisor import run_replayed
from .transport import SocketTransport

__all__ = [
    "NET_QUERIES",
    "NetConfig",
    "profile_to_json",
    "profile_from_json",
    "solo_profile",
    "run_party",
    "parse_endpoint",
    "equal_to_baseline",
]

#: ``repro net``'s exit code for a journal it will not resume
#: (:class:`~repro.runtime.durable.JournalRefused`); a protocol abort
#: exits 2 and a crash 1.
EXIT_JOURNAL_REFUSED = 3

#: Queries ``repro net`` can run: the single-plan benchmarks (the
#: decomposed Q8/Q9 compose several plans per run and are out of scope
#: for the resume path).
NET_QUERIES = ("Q3", "Q10", "Q18")


@dataclass
class NetConfig:
    """Everything one party needs; both parties must agree on all
    protocol-visible fields (enforced by the handshake session id)."""

    role: str
    query: str = "Q3"
    scale_mb: float = 0.1
    seed: int = 7
    backend: str = "yannakakis"
    # Inert: frozen benchmarks/e2e reads it; ROADMAP item 1 drops it.
    group_bits: Optional[int] = None
    listen: Optional[Tuple[str, int]] = None
    connect: Optional[Tuple[str, int]] = None
    journal: Optional[str] = None
    resume: bool = False
    #: Process-level faults this party fires on itself (chaos hooks).
    faults: Sequence[FaultSpec] = ()

    def __post_init__(self) -> None:
        if self.role not in (ALICE, BOB):
            raise ValueError(f"unknown role {self.role!r}")
        if self.query.upper() not in NET_QUERIES:
            raise ValueError(
                f"net mode supports {NET_QUERIES}, not {self.query!r}"
            )
        self.query = self.query.upper()
        for spec in self.faults:
            if spec.level != "process" or spec.party not in (
                None, self.role,
            ):
                raise ValueError(
                    f"{spec} is not a process fault of {self.role}"
                )

    @property
    def session_id(self) -> str:
        """Digest of every protocol-visible knob and of the wire format
        (:data:`~repro.mpc.costs.WIRE_FORMAT`): the handshake rejects a
        peer configured for a different run or built for another wire
        format, and ``--resume`` a journal written under either."""
        blob = (
            f"{self.query}|{self.scale_mb}|{self.seed}|{self.backend}"
            f"|wire{costs.WIRE_FORMAT}"
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def meta(self) -> Dict[str, Any]:
        """The journal's meta record: the run configuration a resume
        is checked against."""
        return {
            "role": self.role,
            "query": self.query,
            "scale_mb": self.scale_mb,
            "seed": self.seed,
            "backend": self.backend,
            "session_id": self.session_id,
        }


def profile_to_json(profile: RunProfile) -> Dict[str, Any]:
    return {
        "rows": [list(r) for r in profile.rows],
        "bytes_by_section": [list(r) for r in profile.bytes_by_section],
        "rounds_by_section": [list(r) for r in profile.rounds_by_section],
        "fingerprint": [list(r) for r in profile.fingerprint],
        "n_messages": profile.n_messages,
        "nodes_seen": list(profile.nodes_seen),
        "n_retries": profile.n_retries,
    }


def profile_from_json(d: Dict[str, Any]) -> RunProfile:
    return RunProfile(
        rows=tuple((str(a), int(b)) for a, b in d["rows"]),
        bytes_by_section=tuple(
            (str(a), int(b)) for a, b in d["bytes_by_section"]
        ),
        rounds_by_section=tuple(
            (str(a), int(b)) for a, b in d["rounds_by_section"]
        ),
        fingerprint=tuple(
            (str(a), int(b), str(c)) for a, b, c in d["fingerprint"]
        ),
        n_messages=int(d["n_messages"]),
        nodes_seen=tuple(int(n) for n in d["nodes_seen"]),
        n_retries=int(d["n_retries"]),
    )


def _prepared(config: NetConfig) -> Any:
    from ..tpch import PREPARED, generate

    dataset = generate(config.scale_mb)
    return PREPARED[config.query](dataset)


def solo_profile(config: NetConfig) -> RunProfile:
    """The unfaulted single-process baseline for this configuration —
    what both parties of a two-process run must reproduce exactly."""
    return make_tpch_runner(
        config.query, scale_mb=config.scale_mb, seed=config.seed,
        backend=config.backend,
    )(FaultPlan())


# -- one party's run ---------------------------------------------------


def run_party(config: NetConfig) -> Dict[str, Any]:
    """Execute one party end to end, fresh or resumed on the one path
    of the module docstring.  Returns the outcome payload ``repro net``
    serialises: the run profile, the transport statistics and the
    resume position (if any).

    Raises :class:`~repro.runtime.durable.JournalRefused` for a journal
    it will not resume, and whatever the run raises — the CLI maps
    sanitized :class:`~repro.runtime.aborts.ProtocolAbort` (a replay
    that disagrees with its journal is a ``replay-divergence``) to a
    clean-abort exit code; anything else is a hard failure."""
    from ..mpc.engine import Engine

    target = Position()
    store: Optional[DurableStore] = None
    if config.resume:
        if not config.journal:
            raise ValueError("--resume needs a journal path")
        if not os.path.isfile(config.journal):
            raise JournalRefused(f"no journal at {config.journal!r}")
        state = DurableStore.load(config.journal)
        if state.done is not None:
            # Idempotent: the previous incarnation already finished
            # and journalled its profile.
            return dict(state.done, already_done=True)
        if state.meta.get("session_id") != config.session_id:
            raise JournalRefused(
                "journal belongs to a different run configuration"
            )
        if state.latest is None:
            raise JournalRefused(
                f"journal {config.journal!r} has no committed "
                "checkpoint to resume from"
            )
        target = revive(state.latest[1])
        store = DurableStore.append_to(config.journal)
    elif config.journal:
        store = DurableStore.create(config.journal, config.meta())

    prepared = _prepared(config)

    def build() -> "Engine":
        ctx = prepared.make_context(Mode.SIMULATED, seed=config.seed)
        engine = Engine(ctx)
        engine.backend = config.backend
        return engine

    session = Session(seed=config.seed)
    # Net mode fails closed on in-node faults: recovery is --resume.
    session.max_attempts = 1
    transport: Optional[SocketTransport] = None
    if config.listen is not None or config.connect is not None:
        transport = SocketTransport(
            role=config.role,
            session_id=config.session_id,
            listen=config.listen,
            connect=config.connect,
            seed=config.seed,
        )

    def attach() -> None:
        session.durable = store
        session.faults = FaultPlan(config.faults)
        if transport is not None:
            transport.attach(session)
            transport.start()

    try:
        result, engine = run_replayed(
            session, build, lambda e: prepared.run_secure(e)[0],
            target, attach,
        )
        session.finish()
        if transport is not None:
            # Linger until the peer is done too (or provably gone):
            # a killed peer's resume still needs our handshake replay.
            transport.finish_barrier()
    finally:
        if transport is not None:
            transport.close()

    profile = profile_run(engine.ctx, session, result)
    outcome: Dict[str, Any] = {
        "status": "done",
        "role": config.role,
        "query": config.query,
        "resumed_from": target.step if config.resume else None,
        "profile": profile_to_json(profile),
        "transport": dict(transport.stats) if transport else None,
        "checkpoints_committed": store.n_commits if store else 0,
    }
    if store is not None:
        store.save_done(outcome)
        store.close()
    return outcome


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (for the CLI)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


def equal_to_baseline(
    outcome: Dict[str, Any], baseline: RunProfile
) -> str:
    """'' when an outcome's profile matches the baseline, else the
    first material difference."""
    profile = profile_from_json(outcome["profile"])
    return profile.diff(baseline)
