"""Scripted multi-tenant workloads over the TPC-H benchmark queries.

Helpers for the ``repro serve`` CLI and the isolation test battery:
build per-tenant :class:`~repro.serve.session.QueryRequest`\\ s over
prepared TPC-H queries, run them concurrently through a
:class:`~repro.serve.service.QueryService`, and compare every
session's :class:`~repro.runtime.chaos.RunProfile` against its **solo**
run — the same request executed alone.  The serving layer's hard
guarantee is that the two are byte-identical: interleaving, the shared
set-up store, and other tenants' faults must not shift a single
transcript byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpc.context import Mode
from ..runtime.chaos import RunProfile
from .service import QueryService, ServiceReport
from .session import DONE, QueryRequest, QuerySession

__all__ = [
    "TPCH_QUERIES",
    "tpch_request",
    "run_solo",
    "WorkloadResult",
    "run_workload",
]

TPCH_QUERIES = ("Q3", "Q10", "Q18", "Q8", "Q9")


def tpch_request(
    query: str,
    tenant: str,
    scale_mb: float = 0.1,
    real: bool = False,
    seed: int = 7,
    name: Optional[str] = None,
    faults: Optional[Any] = None,
    backend: str = "yannakakis",
) -> QueryRequest:
    """A :class:`QueryRequest` over one prepared TPC-H query
    (deterministic given ``scale_mb``).  The single-plan queries
    Q3/Q10/Q18 become ``query=`` requests, so admission prices and
    leakage-audits them at submit; Q8/Q9 are several plans plus a
    composition circuit and stay opaque ``run=`` requests.  ``backend``
    is the join back-end policy of the run (see docs/BACKENDS.md)."""
    from ..tpch import PREPARED, generate

    prepared = PREPARED[query.upper()](generate(scale_mb))
    build = prepared._build

    def run(engine: Any) -> Any:
        engine.backend = backend
        return prepared.run_secure(engine)[0]

    return QueryRequest(
        tenant=tenant,
        name=name if name is not None else query.upper(),
        query=build().set_backend(backend) if build is not None else None,
        run=run if build is None else None,
        ell=prepared.ell,
        mode=Mode.REAL if real else Mode.SIMULATED,
        seed=seed,
        faults=faults,
    )


def run_solo(request: QueryRequest) -> QuerySession:
    """Run one request alone, through the *same* session machinery the
    service uses (baton thread, yield points, runtime session), so its
    profile is directly comparable to a concurrent run's."""
    session = QuerySession(request)
    session.start()
    while session.step():
        pass
    return session


@dataclass
class WorkloadResult:
    """A concurrent workload run plus its per-session solo deltas."""

    report: ServiceReport
    sessions: List[QuerySession] = field(default_factory=list)
    #: request name -> "" (byte-identical to solo) or the first
    #: material difference (:meth:`RunProfile.diff`); only populated
    #: when the workload ran with ``check_solo=True``.
    solo_deltas: Dict[str, str] = field(default_factory=dict)

    @property
    def isolated(self) -> bool:
        return all(d == "" for d in self.solo_deltas.values())

    def to_json(self) -> Dict[str, Any]:
        blob = self.report.to_json()
        if self.solo_deltas:
            blob["solo_deltas"] = dict(self.solo_deltas)
            blob["isolated"] = self.isolated
        return blob


def run_workload(
    requests: Sequence[QueryRequest],
    interleave: str = "round_robin",
    budgets: Optional[Dict[str, Tuple[int, int]]] = None,
    check_solo: bool = False,
) -> WorkloadResult:
    """Submit every request to one service, run to completion, and
    (optionally) re-run each completed request solo to verify its
    transcript is byte-identical.

    ``budgets`` maps tenant -> (byte_capacity, round_capacity); absent
    tenants run unmetered.
    """
    service = QueryService(interleave=interleave)
    if budgets:
        for tenant, (byte_cap, round_cap) in budgets.items():
            service.register_tenant(tenant, byte_cap, round_cap)
    for request in requests:
        service.submit(request)
    report = service.run()
    result = WorkloadResult(report=report, sessions=list(service.sessions))
    if check_solo:
        for session in service.sessions:
            if session.state != DONE or session.profile is None:
                continue
            solo = run_solo(session.request)
            assert solo.profile is not None
            result.solo_deltas[session.request.name] = _diff(
                session.profile, solo.profile
            )
    return result


def _diff(concurrent: RunProfile, solo: RunProfile) -> str:
    return concurrent.diff(solo)
