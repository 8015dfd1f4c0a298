"""Fault-tolerant session layer for the secure pipeline.

Framed, sequence-numbered, checksummed messaging over the metered
channel; deterministic fault injection; typed protocol aborts;
node-granular checkpoint/retry; the one fault-sweep harness
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
    fault_points,
    fingerprint_sha256,
    make_tpch_runner,
    profile_run,
    sweep,
    sweep_faults,
)
from .clock import VirtualClock
from .durable import DurableStore, Journal, JournalState, revive
from .faults import (
    FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    perturb_share,
)
from .framing import FRAME_HEADER_BYTES, FRAME_MAGIC, Frame
from .session import (
    DEFAULT_NODE_BUDGET,
    Session,
    SessionState,
    enable_session,
)
from .netchaos import (
    PROCESS_FAULT_KINDS,
    ProcessFaultSpec,
    build_process_specs,
    run_scenario,
    sweep_processes,
)
from .netrun import (
    NET_QUERIES,
    NetConfig,
    parse_endpoint,
    run_party,
    solo_profile,
)
from .supervisor import RetryPolicy, Supervisor
from .transport import (
    ProcessFaults,
    ReconnectPolicy,
    SocketTransport,
    free_port,
)

__all__ = [
    "REASONS",
    "ProtocolAbort",
    "IntegrityAbort",
    "SequenceAbort",
    "TimeoutAbort",
    "PeerCrash",
    "TransportAbort",
    "VirtualClock",
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "perturb_share",
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "Frame",
    "DEFAULT_NODE_BUDGET",
    "Session",
    "SessionState",
    "enable_session",
    "RetryPolicy",
    "Supervisor",
    "CLASSIFICATIONS",
    "RunProfile",
    "Outcome",
    "Report",
    "profile_run",
    "fault_points",
    "classify",
    "sweep",
    "build_specs",
    "classify_fault",
    "sweep_faults",
    "make_tpch_runner",
    "Journal",
    "JournalState",
    "DurableStore",
    "revive",
    "SocketTransport",
    "ReconnectPolicy",
    "ProcessFaults",
    "free_port",
    "NET_QUERIES",
    "NetConfig",
    "solo_profile",
    "run_party",
    "parse_endpoint",
    "fingerprint_sha256",
    "PROCESS_FAULT_KINDS",
    "ProcessFaultSpec",
    "build_process_specs",
    "run_scenario",
    "sweep_processes",
]
