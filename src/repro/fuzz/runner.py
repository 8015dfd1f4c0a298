"""The differential fuzz runner and the obliviousness transcript audit.

Two machine-checked versions of the paper's headline guarantees:

* **Correctness** (:func:`run_differential`) — the secure protocol's
  revealed result must be semantically equal, as a K-relation, to the
  ``naive_join_aggregate`` oracle (join-then-aggregate by brute force)
  and to the plaintext Yannakakis executor, for every instance.

* **Data-obliviousness** (:func:`audit_obliviousness`) — running the
  same query shape on a value-disjoint database of identical
  cardinalities must produce the *identical* transcript: same per-
  message ``(sender, n_bytes, label)`` fingerprint, hence identical
  per-section byte totals and identical round counts.  This is the
  paper's leakage claim (input sizes + the revealed ``|J*|`` only)
  turned into an executable assertion.

Failures are reported as :class:`FuzzFailure` records carrying the
instance's ``(master_seed, index)`` so any finding replays from two
integers; :func:`fuzz` drives whole campaigns and can persist failing
instances as corpus JSON for regression replay.

The ``fault`` hook deliberately breaks the protocol — used by tests
and ``repro fuzz --inject-fault`` to prove the detectors actually have
teeth.  Faults are specified as a replayable
:class:`repro.runtime.faults.FaultPlan`: semantic faults (perturb one
input share) must be caught by the differential oracle, channel faults
(corrupt/truncate/drop/duplicate/reorder/hang/crash, injected by the
session layer) must surface as a typed
:class:`~repro.runtime.aborts.ProtocolAbort` — reported as failure
kind ``"abort"`` and persisted, fault spec included, in the failure
file.  Fuzz runs disable retries (one attempt) so detection
itself is what gets tested; resilience under retries is the chaos
harness's job (``repro chaos``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.protocol import secure_yannakakis
from ..core.relation import SecureRelation
from ..exec import audit_plan, compile_plan
from ..exec.audit import NodeLeakage
from ..leakage import BACKEND_CONTRACTS, BACKENDS
from ..mpc.context import Context, Mode
from ..mpc.engine import Engine
from ..mpc.params import SecurityParams
from ..mpc.transcript import Message, Transcript
from ..query.planner import BACKEND_POLICIES, choose_plan, route_backends
from ..runtime.aborts import ProtocolAbort
from ..runtime.faults import FaultPlan, perturb_share
from ..runtime.session import Session
from ..runtime.supervisor import run_replayed
from ..relalg.relation import AnnotatedRelation
from ..yannakakis.naive import naive_join_aggregate
from ..yannakakis.plain import execute_plan
from ..yannakakis.plan import YannakakisPlan, build_two_phase_plan
from .generator import (
    TINY_CONFIG,
    GeneratorConfig,
    QueryInstance,
    generate_instance,
    value_disjoint_twin,
)

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "FUZZ_BACKENDS",
    "run_differential",
    "audit_obliviousness",
    "audit_leakage",
    "check_instance",
    "fuzz",
    "save_failure",
    "replay_file",
]

#: Join back-ends the fuzzer can drive; "both" runs every check under
#: each concrete back-end (the cross-protocol differential oracle:
#: both must agree with the plaintext oracle, hence with each other,
#: and each must pass the obliviousness audit independently).
FUZZ_BACKENDS = BACKEND_POLICIES + ("both",)


@dataclass
class FuzzFailure:
    """One confirmed divergence, replayable from the instance seed."""

    kind: str  # "mismatch" | "transcript" | "leakage" | "crash" | "abort"
    seed: Tuple[int, int]
    detail: str
    mode: str = "simulated"
    #: Join back-end policy the failing run used.
    backend: str = "yannakakis"
    instance: Optional[QueryInstance] = None
    #: Exception class name for ``kind in ("crash", "abort")``
    #: (persisted in the failure file so crash classes can be triaged
    #: without replaying).
    exc_type: Optional[str] = None
    #: The injected fault plan (``FaultPlan.to_json()``), when the run
    #: was deliberately faulted — persisted so the failure file replays
    #: the identical fault.
    fault: Optional[List[Dict[str, Any]]] = None

    def replay_hint(self) -> str:
        master, index = self.seed
        return (
            f"repro fuzz --seed {master} --start {index} --iterations 1"
        )

    def __str__(self) -> str:
        where = (
            f" backend={self.backend}"
            if self.backend != "yannakakis"
            else ""
        )
        return (
            f"[{self.kind}] seed={list(self.seed)} mode={self.mode}"
            f"{where}: {self.detail}  (replay: {self.replay_hint()})"
        )


@dataclass
class FuzzReport:
    """Summary of one fuzz campaign."""

    iterations: int = 0
    real_iterations: int = 0
    audits: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{status}: {self.iterations} instances "
            f"({self.real_iterations} REAL-mode), "
            f"{self.audits} obliviousness audits, "
            f"{self.seconds:.1f}s"
        )


# ----------------------------------------------------------------------
# single-instance checks
# ----------------------------------------------------------------------


def _plan_for(instance: QueryInstance) -> YannakakisPlan:
    plan = choose_plan(
        instance.hypergraph(),
        instance.output,
        instance.owners,
        instance.sizes(),
        SecurityParams(ell=instance.ell),
    )
    if instance.two_phase:
        plan = build_two_phase_plan(plan.tree, plan.output)
    return plan


def _secure_inputs(
    instance: QueryInstance,
) -> Dict[str, SecureRelation]:
    return {
        name: SecureRelation.from_annotated(instance.owners[name], rel)
        for name, rel in instance.relations.items()
    }


def _run_secure(
    instance: QueryInstance,
    plan: YannakakisPlan,
    mode: Mode,
    engine_seed: int = 7,
    fault: Optional[FaultPlan] = None,
    backend: str = "yannakakis",
) -> Tuple[AnnotatedRelation, Context]:
    params = SecurityParams(ell=instance.ell)
    backends = route_backends(
        plan, instance.sizes(), instance.owners, backend=backend,
        params=params,
    )

    def build() -> Engine:
        return Engine(Context(mode, params, seed=engine_seed))

    def body(engine: Engine) -> AnnotatedRelation:
        inputs = _secure_inputs(instance)
        for _ in fault.input_faults() if fault is not None else ():
            perturb_share(engine, inputs)
        return secure_yannakakis(
            engine, inputs, plan, backends=backends
        )[0]

    if fault is None:
        engine = build()
        return body(engine), engine.ctx
    # A fresh (un-fired) copy per run, injected by the session layer.
    # One attempt only — the fuzzer tests *detection*; retry
    # resilience is the chaos harness's job.
    session = Session(None, fault.fresh(), seed=engine_seed)
    session.max_attempts = 1
    result, engine = run_replayed(session, build, body)
    session.finish()
    return result, engine.ctx


def run_differential(
    instance: QueryInstance,
    mode: Mode = Mode.SIMULATED,
    fault: Optional[FaultPlan] = None,
    backend: str = "yannakakis",
) -> List[FuzzFailure]:
    """Differential check of one instance: oracle vs plaintext plan vs
    the secure protocol, with each node routed by ``backend``
    ("yannakakis" | "linear" | "auto")."""
    failures: List[FuzzFailure] = []
    oracle = naive_join_aggregate(
        instance.relations, list(instance.output)
    )
    try:
        plan = _plan_for(instance)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # pragma: no cover - generator guarantees
        return [
            FuzzFailure(
                "crash", instance.seed,
                f"planner failed: {exc!r}", mode=mode.value,
                instance=instance, exc_type=type(exc).__name__,
            )
        ]
    plain = execute_plan(plan, instance.relations).nonzero()
    if not plain.semantically_equal(oracle):
        failures.append(
            FuzzFailure(
                "mismatch", instance.seed,
                "plaintext Yannakakis != naive oracle "
                f"({plain.to_dict()} vs {oracle.to_dict()})",
                mode=mode.value, instance=instance,
            )
        )

    def secure_failure(kind: str, detail: str, **extra: Any) -> None:
        failures.append(
            FuzzFailure(
                kind, instance.seed, detail,
                mode=mode.value, backend=backend, instance=instance,
                fault=fault.to_json() if fault is not None else None,
                **extra,
            )
        )

    try:
        result, _ = _run_secure(
            instance, plan, mode, fault=fault, backend=backend
        )
    except (KeyboardInterrupt, SystemExit):
        raise
    except ProtocolAbort as abort:
        # The session layer detected an injected (or genuine) channel
        # fault and failed closed — distinct from "crash" so triage
        # can tell a clean abort from a protocol bug.
        secure_failure(
            "abort", f"secure run aborted: {abort}",
            exc_type=type(abort).__name__,
        )
    except Exception as exc:
        secure_failure(
            "crash", f"secure run raised {exc!r}",
            exc_type=type(exc).__name__,
        )
    else:
        if not result.semantically_equal(oracle):
            secure_failure(
                "mismatch",
                "secure != oracle "
                f"({result.to_dict()} vs {oracle.to_dict()})",
            )
    return failures


def audit_obliviousness(
    instance: QueryInstance,
    mode: Mode = Mode.SIMULATED,
    twin_seed: int = 1,
    backend: str = "yannakakis",
) -> List[FuzzFailure]:
    """Run ``instance`` and its value-disjoint twin; the transcripts must
    agree on every observable: per-message fingerprints (sender, size,
    label), per-section byte totals, and round counts.

    The twin has the same relation sizes and plan, so it routes to the
    same per-node back-ends under any routing including "auto" — the
    audit therefore checks each back-end's obliviousness, never mixes
    them across twins."""
    return _audit_twins(instance, mode, twin_seed, backend)[0]


def _audit_twins(
    instance: QueryInstance, mode: Mode, twin_seed: int, backend: str
) -> Tuple[List[FuzzFailure], Transcript]:
    """:func:`audit_obliviousness`, also returning the instance's own
    transcript for :func:`audit_leakage`."""
    plan = _plan_for(instance)
    twin = value_disjoint_twin(instance, twin_seed)
    _, ctx_a = _run_secure(instance, plan, mode, backend=backend)
    _, ctx_b = _run_secure(twin, plan, mode, backend=backend)
    ta, tb = ctx_a.transcript, ctx_b.transcript
    failures: List[FuzzFailure] = []

    def fail(detail: str) -> None:
        failures.append(
            FuzzFailure(
                "transcript", instance.seed, detail,
                mode=mode.value, backend=backend, instance=instance,
            )
        )

    if ta.bytes_by_section() != tb.bytes_by_section():
        fail(
            "per-section bytes differ across value-disjoint twins: "
            f"{ta.bytes_by_section()} vs {tb.bytes_by_section()}"
        )
    if ta.rounds != tb.rounds or (
        ta.rounds_by_section() != tb.rounds_by_section()
    ):
        fail(
            "round structure differs across value-disjoint twins: "
            f"{ta.rounds}/{ta.rounds_by_section()} vs "
            f"{tb.rounds}/{tb.rounds_by_section()}"
        )
    if not failures and ta.fingerprint() != tb.fingerprint():
        # Byte- and round-aggregates agree but the message streams
        # differ — report the first diverging message.
        fa, fb = ta.fingerprint(), tb.fingerprint()
        for i, (ma, mb) in enumerate(zip(fa, fb)):
            if ma != mb:
                fail(
                    f"message {i} differs across value-disjoint twins: "
                    f"{ma} vs {mb}"
                )
                break
        else:
            fail(
                f"message counts differ: {len(fa)} vs {len(fb)}"
            )
    return failures, ta


#: What each back-end policy's routed plan may leak: a concrete
#: back-end its registered contract (docs/BACKENDS.md); "auto" mixes
#: them, so it is bounded by their union.  Single-owner instances
#: legitimately dispatch nothing and summarise ``{}`` under every
#: policy.
_LEAKAGE_MODELS: Dict[str, frozenset] = {
    **BACKEND_CONTRACTS,
    "auto": frozenset().union(*BACKEND_CONTRACTS.values()),
}


def audit_leakage(
    instance: QueryInstance,
    backend: str = "yannakakis",
    messages: Optional[Sequence[Message]] = None,
) -> List[FuzzFailure]:
    """Statically audit the instance's routed plan against the
    back-end's documented leakage model (failure kind ``"leakage"``).

    This is the plan-audit twin of the transcript audit: the composed
    :func:`~repro.exec.audit.audit_plan` summary of the compiled plan
    the secure run would execute must stay within what docs/BACKENDS.md
    promises for that back-end — an all-``yannakakis`` route must
    summarise exactly ``{}``; any route may at most add the linear
    back-end's ``join_pattern:parent``.

    The summary is only as good as the audit's per-node ``dispatched``
    flags, so the flags are also checked against the ``messages`` of a
    run of the instance under this back-end (:func:`_dispatch_problems`);
    without them, one SIMULATED run supplies its transcript."""
    plan = _plan_for(instance)
    routes = route_backends(
        plan, instance.sizes(), instance.owners, backend=backend,
        params=SecurityParams(ell=instance.ell),
    )
    report = audit_plan(compile_plan(plan, instance.owners, backends=routes))
    if messages is None:
        _, ctx = _run_secure(instance, plan, Mode.SIMULATED, backend=backend)
        messages = ctx.transcript.messages
    problems = report.violations(_LEAKAGE_MODELS[backend])
    problems += _dispatch_problems(report.nodes, messages)
    return [
        FuzzFailure(
            "leakage", instance.seed, detail,
            backend=backend, instance=instance,
        )
        for detail in problems
    ]


#: The sections each back-end's cross-owner join
#: (:data:`~repro.core.semijoin.CROSS_OWNER`) sends under.
_DISPATCH_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "yannakakis": ("psi", "psi_shared"),
    "linear": ("dhoprf",),
}


def _dispatch_problems(
    nodes: Sequence[NodeLeakage], messages: Sequence[Message]
) -> List[str]:
    """Each audited node against what the run sent under its label: a
    node sends its back-end's cross-owner sections (``psi`` or
    ``psi_shared`` on ``yannakakis``, ``dhoprf`` on ``linear``) iff the
    audit marks it dispatched, and no other back-end's.  A node marked
    undispatched that sends one is leakage the summary misses; a
    dispatched one that sends none is leakage it over-reports."""
    paths = {f"/{m.label}/" for m in messages}
    problems = []
    for n in nodes:
        own = f"/{n.label}/"
        sent = sorted(
            b for b, sections in _DISPATCH_SECTIONS.items()
            if any(
                own in p and f"/{s}/" in p for p in paths for s in sections
            )
        )
        if sent != ([n.backend] if n.dispatched else []):
            problems.append(
                f"node {n.label} (backend {n.backend}): the audit says "
                f"dispatched={n.dispatched}, but the run sent "
                f"{' and '.join(sent) or 'no'} cross-owner sections"
            )
    return problems


def check_instance(
    instance: QueryInstance,
    mode: Mode = Mode.SIMULATED,
    audit: bool = True,
    fault: Optional[FaultPlan] = None,
    backend: str = "yannakakis",
) -> List[FuzzFailure]:
    """Everything the fuzzer asserts about one instance.

    ``backend="both"`` is the cross-protocol differential oracle: the
    full differential check and obliviousness audit run once per
    concrete back-end.  Each back-end's revealed result must equal the
    plaintext oracle — hence the two back-ends must agree with each
    other — and each back-end's twin transcripts must be identical
    independently (the transcripts legitimately differ *between*
    back-ends; obliviousness is a per-protocol property).  Each
    back-end's routed plan is also statically audited
    (:func:`audit_leakage`) against its documented leakage model."""
    if backend not in FUZZ_BACKENDS:
        raise ValueError(
            f"unknown fuzz back-end {backend!r}; "
            f"choose from {FUZZ_BACKENDS}"
        )
    backends = (
        BACKENDS if backend == "both" else (backend,)
    )
    failures: List[FuzzFailure] = []
    for b in backends:
        failures += run_differential(
            instance, mode=mode, fault=fault, backend=b
        )
        if audit and fault is None:
            found, transcript = _audit_twins(instance, mode, 1, b)
            failures += found
            failures += audit_leakage(
                instance, backend=b, messages=transcript.messages
            )
    return failures


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------


def _refails(
    failure: FuzzFailure, fault: Optional[FaultPlan]
) -> Callable[[QueryInstance], bool]:
    """A predicate for :func:`minimize_instance`: does a shrunk instance
    still exhibit the same kind of failure?"""

    def check(candidate: QueryInstance) -> bool:
        if failure.kind == "transcript":
            found = audit_obliviousness(candidate, backend=failure.backend)
        else:
            found = run_differential(
                candidate, fault=fault, backend=failure.backend
            )
        return any(f.kind == failure.kind for f in found)

    return check


def fuzz(
    seed: int,
    iterations: int,
    start: int = 0,
    config: GeneratorConfig = GeneratorConfig(),
    real_every: int = 10,
    audit: bool = True,
    fault: Optional[FaultPlan] = None,
    max_failures: int = 10,
    on_progress: Optional[Callable[[int, "FuzzReport"], None]] = None,
    save_failures_to: Optional[str] = None,
    backend: str = "yannakakis",
) -> FuzzReport:
    """A fuzz campaign: instances ``start .. start+iterations-1`` of the
    ``seed`` stream.  Every instance runs the SIMULATED differential
    check plus the obliviousness audit; every
    ``real_every``-th instance additionally runs a *tiny* REAL-mode
    differential (0 disables REAL sampling).  Stops early after
    ``max_failures`` findings.  ``backend`` selects the join back-end
    ("both" cross-checks the two protocols on every instance)."""
    report = FuzzReport()
    t0 = time.perf_counter()
    real_backends = (
        BACKENDS if backend == "both" else (backend,)
    )
    for i in range(start, start + iterations):
        instance = generate_instance(seed, i, config)
        found = check_instance(
            instance, mode=Mode.SIMULATED, audit=audit, fault=fault,
            backend=backend,
        )
        report.iterations += 1
        if audit and fault is None:
            report.audits += 1
        if real_every and (i - start) % real_every == 0:
            tiny = generate_instance(seed, i, TINY_CONFIG)
            for b in real_backends:
                found += run_differential(
                    tiny, mode=Mode.REAL, fault=fault, backend=b,
                )
            report.real_iterations += 1
        for failure in found:
            if (
                failure.instance is not None
                and failure.mode == Mode.SIMULATED.value
            ):
                failure.instance = minimize_instance(
                    failure.instance, _refails(failure, fault)
                )
            report.failures.append(failure)
            if save_failures_to is not None:
                save_failure(failure, save_failures_to)
        if on_progress is not None:
            on_progress(i, report)
        if len(report.failures) >= max_failures:
            break
    report.seconds = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------------
# minimisation, failure persistence + replay
# ----------------------------------------------------------------------


def minimize_instance(
    instance: QueryInstance,
    still_fails: Callable[[QueryInstance], bool],
    max_steps: int = 200,
) -> QueryInstance:
    """Greedy delta-debugging: repeatedly drop one tuple (annotation
    included) wherever the failure persists, keeping at least one tuple
    per relation.  Deterministic; ``max_steps`` bounds the work."""
    current = instance
    steps = 0
    shrunk = True
    while shrunk and steps < max_steps:
        shrunk = False
        for name in sorted(current.relations):
            rel = current.relations[name]
            i = 0
            while i < len(rel.tuples) and len(rel.tuples) > 1:
                if steps >= max_steps:
                    return current
                steps += 1
                candidate_rel = AnnotatedRelation(
                    rel.attributes,
                    rel.tuples[:i] + rel.tuples[i + 1 :],
                    np.delete(rel.annotations, i),
                    rel.semiring,
                )
                candidate = QueryInstance(
                    seed=current.seed,
                    relations={
                        **current.relations, name: candidate_rel
                    },
                    owners=dict(current.owners),
                    output=current.output,
                    two_phase=current.two_phase,
                    ell=current.ell,
                    note=current.note or "minimized",
                )
                try:
                    if still_fails(candidate):
                        current = candidate
                        rel = candidate_rel
                        shrunk = True
                        continue
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    # The check itself crashed on the candidate — a
                    # crash still reproduces the failure, so keep it.
                    current = candidate
                    rel = candidate_rel
                    shrunk = True
                    continue
                i += 1
    return current


def save_failure(failure: FuzzFailure, directory: str) -> Path:
    """Persist a failing instance as a replayable corpus JSON file."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    master, index = failure.seed
    name = f"fail_{failure.kind}_s{master}_i{index}.json"
    blob = {
        "failure": {
            "kind": failure.kind,
            "detail": failure.detail,
            "mode": failure.mode,
            "backend": failure.backend,
            "exc_type": failure.exc_type,
            "fault": failure.fault,
            "replay": failure.replay_hint(),
        },
    }
    if failure.instance is not None:
        blob["instance"] = failure.instance.to_json()
    out = path / name
    out.write_text(json.dumps(blob, indent=2) + "\n")
    return out


def replay_file(path: str, audit: bool = True) -> List[FuzzFailure]:
    """Re-check a saved instance file (corpus entry or failure repro).

    Accepts either a bare instance JSON (``QueryInstance.to_json``) or
    a failure file produced by :func:`save_failure`.  A persisted fault
    spec is re-applied, so a deliberately-faulted failure replays with
    the identical fault.  A persisted back-end (failure files, or a
    top-level ``"backend"`` key on a corpus entry) replays under that
    back-end; corpus entries without one replay under "both" so every
    seeded edge case exercises the cross-protocol oracle."""
    blob = json.loads(Path(path).read_text())
    instance = QueryInstance.from_json(blob.get("instance", blob))
    fault_blob = blob.get("failure", {}).get("fault")
    fault = (
        FaultPlan.from_json(fault_blob) if fault_blob else None
    )
    backend = blob.get("failure", {}).get(
        "backend", blob.get("backend", "both")
    )
    return check_instance(
        instance, audit=audit, fault=fault, backend=backend
    )
