"""Fault-tolerant session layer for the secure pipeline.

Framed, sequence-numbered, checksummed messaging over the metered
channel; deterministic fault injection, one :class:`~.faults.FaultSpec`
vocabulary for in-process message faults and ``repro net`` process
faults alike (:mod:`.faults`); typed protocol aborts;
recovery by replay, in process and across processes
(:mod:`.supervisor`); the one fault-sweep harness
(:mod:`.chaos`); and the two-process execution stack — real TCP
transport with reconnect (:mod:`.transport`), disk-durable crash
recovery (:mod:`.durable`), the ``repro net`` party runner
(:mod:`.netrun`) and the harness's process-level runner
(:mod:`.netchaos`).  See ``docs/ROBUSTNESS.md``.
"""

from .aborts import (
    REASONS,
    IntegrityAbort,
    PeerCrash,
    ProtocolAbort,
    SequenceAbort,
    TimeoutAbort,
    TransportAbort,
)
from .chaos import (
    CLASSIFICATIONS,
    Outcome,
    Report,
    RunProfile,
    build_specs,
    classify,
    classify_fault,
    fingerprint_sha256,
    make_tpch_runner,
    profile_run,
    sweep,
    sweep_faults,
)
from .durable import (
    DurableStore,
    Journal,
    JournalRefused,
    JournalState,
    Position,
    revive,
)
from .faults import (
    FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    kinds_of,
    perturb_share,
)
from .framing import FRAME_HEADER_BYTES, FRAME_MAGIC, Frame
from .session import Session, enable_session
from .netchaos import run_scenario, sweep_processes
from .netrun import (
    NET_QUERIES,
    NetConfig,
    parse_endpoint,
    run_party,
    solo_profile,
)
from .supervisor import run_replayed
from .transport import ReconnectPolicy, SocketTransport, free_port

__all__ = [
    "REASONS",
    "ProtocolAbort",
    "IntegrityAbort",
    "SequenceAbort",
    "TimeoutAbort",
    "PeerCrash",
    "TransportAbort",
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "kinds_of",
    "FaultSpec",
    "FaultPlan",
    "perturb_share",
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "Frame",
    "Session",
    "enable_session",
    "run_replayed",
    "CLASSIFICATIONS",
    "RunProfile",
    "Outcome",
    "Report",
    "profile_run",
    "classify",
    "sweep",
    "build_specs",
    "classify_fault",
    "sweep_faults",
    "make_tpch_runner",
    "Journal",
    "JournalState",
    "JournalRefused",
    "Position",
    "DurableStore",
    "revive",
    "SocketTransport",
    "ReconnectPolicy",
    "free_port",
    "NET_QUERIES",
    "NetConfig",
    "solo_profile",
    "run_party",
    "parse_endpoint",
    "fingerprint_sha256",
    "run_scenario",
    "sweep_processes",
]
