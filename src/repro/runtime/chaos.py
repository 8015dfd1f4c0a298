"""The fault-sweep harness: every message is a fault point.

One harness serves every level a fault can be injected at.  A sweep
takes the **unfaulted** baseline :class:`RunProfile` — canonical output
rows, per-section byte/round accounting and the full transcript
fingerprint — re-runs the query once per fault point, and classifies
each run with the one shared classifier (:func:`classify`):

* ``completed-correct`` — everything that finished is byte-equal to
  the baseline (retried, reconnected and resumed runs must land here:
  same output, same accounting, same fingerprint);
* ``clean-abort`` — what did not finish raised a sanitized
  :class:`~repro.runtime.aborts.ProtocolAbort`, and nothing that did
  finish drifted;
* ``VIOLATION`` — anything else: a wrong answer, a profile drift, an
  uncaught exception, a hung or mis-exiting process, or an abort
  outside the public vocabulary.

Three thin runners produce the observations: this module's in-process
one (``FaultPlan -> RunProfile``, :func:`classify_fault`), the
victim + observer pair through a query service
(:mod:`repro.serve.chaos`) and two real OS processes over TCP
(:mod:`repro.runtime.netchaos`).  All three return the same
:class:`Outcome` and :class:`Report`.

The acceptance gate (``repro chaos --query q3 --scale tiny --sweep
all``) requires zero VIOLATIONs over the full cross product of message
indices × message-fault kinds, plus a party crash at every plan node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..mpc.transcript import ALICE, BOB
from .aborts import ProtocolAbort, payload_is_sanitized
from .faults import MESSAGE_FAULT_KINDS, FaultPlan, FaultSpec
from .session import DEFAULT_NODE_BUDGET, Session, enable_session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.context import Context

__all__ = [
    "CLASSIFICATIONS",
    "RunProfile",
    "Outcome",
    "Report",
    "profile_run",
    "fingerprint_sha256",
    "fault_points",
    "classify",
    "sweep",
    "build_specs",
    "failure_of",
    "classify_fault",
    "sweep_faults",
    "make_tpch_runner",
]

CLASSIFICATIONS = ("completed-correct", "clean-abort", "VIOLATION")

#: A runner executes the query once under the given fault plan and
#: returns the run's profile (raising whatever the run raises).
Runner = Callable[[FaultPlan], "RunProfile"]


@dataclass(frozen=True)
class RunProfile:
    """Everything two runs must agree on to be 'the same run'."""

    rows: Tuple[Tuple[str, int], ...]
    bytes_by_section: Tuple[Tuple[str, int], ...]
    rounds_by_section: Tuple[Tuple[str, int], ...]
    fingerprint: Tuple[Tuple[str, int, str], ...]
    n_messages: int
    nodes_seen: Tuple[int, ...]
    n_retries: int

    def diff(self, other: "RunProfile") -> str:
        """First material difference against a baseline ("" if equal;
        retry counts and wire indices are run-local, not compared)."""
        if self.rows != other.rows:
            return "output rows differ"
        if self.bytes_by_section != other.bytes_by_section:
            return "per-section byte accounting differs"
        if self.rounds_by_section != other.rounds_by_section:
            return "per-section round accounting differs"
        if self.fingerprint != other.fingerprint:
            return "transcript fingerprint differs"
        return ""


def profile_run(
    ctx: "Context", session: Session, result: Iterable[Tuple[Any, Any]]
) -> RunProfile:
    rows = tuple(
        sorted((str(row), int(value)) for row, value in result)
    )
    t = ctx.transcript
    return RunProfile(
        rows=rows,
        bytes_by_section=tuple(sorted(t.bytes_by_section().items())),
        rounds_by_section=tuple(sorted(t.rounds_by_section().items())),
        fingerprint=t.fingerprint(),
        n_messages=len(t.messages),
        nodes_seen=tuple(session.nodes_seen),
        n_retries=session.n_retries,
    )


def fingerprint_sha256(profile: RunProfile) -> str:
    """Stable digest of a transcript fingerprint, for log-friendly
    parity checks across processes."""
    blob = json.dumps(
        [list(r) for r in profile.fingerprint], sort_keys=True
    ).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Outcome:
    """Classification of one faulted run, at any level."""

    #: The injected fault (``FaultSpec`` / ``ProcessFaultSpec``), or
    #: ``None`` for the process level's no-fault smoke scenario.
    fault: Any
    classification: str
    detail: str = ""
    abort: Optional[Dict[str, Any]] = None
    #: How the run recovered: an in-node supervisor retry, a killed
    #: party restarted with ``--resume``, transport reconnects.
    retried: bool = False
    resumed: bool = False
    reconnects: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "fault": self.fault.to_json() if self.fault else None,
            "classification": self.classification,
            "detail": self.detail,
            "abort": self.abort,
            "retried": self.retried,
            "resumed": self.resumed,
            "reconnects": self.reconnects,
        }

    def __str__(self) -> str:
        tags = [t for t in ("retried", "resumed") if getattr(self, t)]
        if self.reconnects:
            tags.append(f"reconnects={self.reconnects}")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        extra = f": {self.detail}" if self.detail else ""
        return (
            f"{self.fault or 'no-fault'} -> "
            f"{self.classification}{suffix}{extra}"
        )


@dataclass
class Report:
    """One sweep's outcomes plus the baseline it judged against."""

    baseline: RunProfile
    outcomes: List[Outcome] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        out = {c: 0 for c in CLASSIFICATIONS}
        for o in self.outcomes:
            out[o.classification] += 1
        return out

    @property
    def violations(self) -> List[Outcome]:
        return [
            o for o in self.outcomes if o.classification == "VIOLATION"
        ]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def n_fault_points(self) -> int:
        return sum(1 for o in self.outcomes if o.fault is not None)

    def summary(self) -> str:
        c = self.counts
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        unfaulted = len(self.outcomes) - self.n_fault_points
        return (
            f"{status}: {self.n_fault_points} fault points "
            + (f"+ {unfaulted} no-fault run " if unfaulted else "")
            + f"over {self.baseline.n_messages} messages / "
            f"{len(self.baseline.nodes_seen)} nodes — "
            f"{c['completed-correct']} completed-correct, "
            f"{c['clean-abort']} clean-abort, "
            f"{c['VIOLATION']} violations"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "baseline_messages": self.baseline.n_messages,
            "baseline_nodes": len(self.baseline.nodes_seen),
            "baseline_fingerprint": fingerprint_sha256(self.baseline),
            "counts": self.counts,
            "ok": self.ok,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def fault_points(
    baseline: RunProfile,
    kinds: Sequence[str],
    node_kind: str,
    stride: int = 1,
) -> Iterator[Tuple[str, Optional[int], Optional[int], str]]:
    """Every fault point of a sweep as ``(kind, node, wire, party)``:
    ``node_kind`` at every plan node of the baseline, every other kind
    at every ``stride``-th wire-message index.  The targeted party
    alternates — with node parity, and from one wire point to the
    next — so both roles are faulted."""
    stride = max(stride, 1)
    for kind in kinds:
        if kind == node_kind:
            for node in baseline.nodes_seen:
                yield kind, node, None, ALICE if node % 2 else BOB
        else:
            for wire in range(0, baseline.n_messages, stride):
                party = ALICE if (wire // stride) % 2 else BOB
                yield kind, None, wire, party


def classify(
    fault: Any,
    baseline: RunProfile,
    profiles: Optional[Mapping[str, RunProfile]] = None,
    aborts: Optional[Mapping[str, Any]] = None,
    error: str = "",
    **recovery: Any,
) -> Outcome:
    """The one three-way classifier.  ``profiles`` maps each run or
    party that finished to its profile, ``aborts`` each one that ended
    in a protocol abort to the abort's JSON view
    (:meth:`ProtocolAbort.to_json`), and ``error`` names anything that
    is neither (an uncaught exception, a hang, an observer that
    drifted); ``recovery`` passes through to the :class:`Outcome`."""
    profiles = profiles or {}
    aborts = aborts or {}

    def outcome(classification: str, detail: str = "") -> Outcome:
        return Outcome(
            fault, classification, detail,
            next(iter(aborts.values()), None), **recovery,
        )

    if error:
        return outcome("VIOLATION", error)
    # Whatever finished must match the baseline exactly, abort or not.
    for who, profile in profiles.items():
        drift = profile.diff(baseline)
        if drift:
            return outcome("VIOLATION", f"{who}: {drift}")
    for who, payload in aborts.items():
        if not payload_is_sanitized(payload):
            return Outcome(
                fault, "VIOLATION", f"{who}: unsanitized abort",
                payload, **recovery,
            )
    if aborts:
        return outcome(
            "clean-abort",
            "; ".join(f"{w}: {a['message']}" for w, a in aborts.items()),
        )
    if not profiles:
        return outcome("VIOLATION", "nothing finished, nothing aborted")
    return outcome("completed-correct")


def sweep(
    specs: Sequence[Any],
    run_one: Callable[[Any], Outcome],
    baseline: RunProfile,
    on_progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> Report:
    """The one driver: classify every fault point in ``specs`` with
    ``run_one`` against an already-taken ``baseline``."""
    report = Report(baseline)
    for i, spec in enumerate(specs):
        outcome = run_one(spec)
        report.outcomes.append(outcome)
        if on_progress is not None:
            on_progress(i + 1, len(specs), outcome)
    return report


# -- the in-process runner ---------------------------------------------


def failure_of(exc: BaseException) -> Dict[str, Any]:
    """:func:`classify` keywords for an in-process run that raised.  A
    fault surfacing as anything but a ProtocolAbort is exactly the
    failure mode the session layer exists to close off."""
    if isinstance(exc, ProtocolAbort):
        return {"aborts": {"run": exc.to_json()}}
    return {"error": f"uncaught {type(exc).__name__}"}


def classify_fault(
    run: Runner, baseline: RunProfile, spec: FaultSpec
) -> Outcome:
    """Run once with ``spec`` injected and classify the outcome."""
    try:
        profile = run(FaultPlan([spec]))
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        return classify(spec, baseline, **failure_of(exc))
    return classify(
        spec, baseline, {"run": profile}, retried=profile.n_retries > 0
    )


def build_specs(
    baseline: RunProfile,
    kinds: Sequence[str] = MESSAGE_FAULT_KINDS + ("crash",),
    stride: int = 1,
    hang_ticks: int = DEFAULT_NODE_BUDGET + 1,
) -> List[FaultSpec]:
    """The message-level fault points: every ``stride``-th wire index
    for each message-fault kind, plus a crash at every plan node."""
    return [
        FaultSpec(kind, node=node, party=party)
        if wire is None
        else FaultSpec(
            kind,
            message_index=wire,
            ticks=hang_ticks if kind == "hang" else 0,
        )
        for kind, node, wire, party in fault_points(
            baseline, kinds, "crash", stride
        )
    ]


def sweep_faults(
    run: Runner,
    kinds: Sequence[str] = MESSAGE_FAULT_KINDS + ("crash",),
    stride: int = 1,
    hang_ticks: int = DEFAULT_NODE_BUDGET + 1,
    on_progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> Report:
    """Baseline once, then classify every message-level fault point."""
    baseline = run(FaultPlan())
    return sweep(
        build_specs(baseline, kinds, stride, hang_ticks),
        lambda spec: classify_fault(run, baseline, spec),
        baseline,
        on_progress,
    )


def make_tpch_runner(
    query: str = "Q3",
    scale_mb: float = 0.1,
    real: bool = False,
    seed: int = 7,
    node_budget: int = DEFAULT_NODE_BUDGET,
    backend: Optional[str] = None,
) -> Runner:
    """A :data:`Runner` over one prepared TPC-H query.  The dataset and
    query are built once; every call gets a fresh context, engine and
    session (the prepared query rebuilds its relations per run, so runs
    are independent).  ``backend`` selects the join back-end
    (``yannakakis``/``linear``/``auto``) so the chaos sweep can cover
    the DH-OPRF protocol's wire pattern too."""
    from ..mpc.context import Mode
    from ..mpc.engine import Engine
    from ..tpch import PREPARED, generate

    dataset = generate(scale_mb)
    prepared = PREPARED[query.upper()](dataset)
    mode = Mode.REAL if real else Mode.SIMULATED

    def run(faults: FaultPlan) -> RunProfile:
        ctx = prepared.make_context(mode, seed=seed)
        engine = Engine(ctx)
        if backend is not None:
            engine.backend = backend
        session = enable_session(
            ctx, faults, node_budget=node_budget, seed=seed
        )
        result, _ = prepared.run_secure(engine)
        session.finish()
        return profile_run(ctx, session, result)

    return run
