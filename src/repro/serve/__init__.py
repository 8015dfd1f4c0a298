"""Multi-tenant query serving: sessions, shared set-up store, admission.

The serving layer turns the single-query engine into a service:

* :mod:`repro.serve.admission` — per-tenant byte/round budgets priced
  by the cost estimator, enforced before any protocol bytes move;
* :mod:`repro.serve.session` / :mod:`repro.serve.service` —
  baton-threaded query sessions interleaved deterministically by the
  coordinator, with crash containment per session and one shared
  :class:`~repro.mpc.runcache.SetupStore` of public gadget set-up
  material;
* :mod:`repro.serve.workload` / :mod:`repro.serve.chaos` — scripted
  TPC-H multi-tenant workloads with solo-run byte-comparison, and the
  tenant-isolation chaos sweep.

The invariant every piece preserves (and the test battery pins): a
tenant's transcript is **byte-identical** to its solo run — across
interleaving policies, a warm or cold set-up store, budget pressure,
and faults or crashes in other tenants' sessions.
"""

from .admission import ADMIT, QUEUE, REJECT, AdmissionController, TenantBudget
from .chaos import isolation_sweep
from .service import INTERLEAVE_POLICIES, QueryService, ServiceReport
from .session import (
    ADMITTED,
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    QueryRequest,
    QuerySession,
)
from .workload import (
    TPCH_QUERIES,
    WorkloadResult,
    run_solo,
    run_workload,
    tpch_request,
)

__all__ = [
    "ADMIT",
    "QUEUE",
    "REJECT",
    "ADMITTED",
    "DONE",
    "FAILED",
    "QUEUED",
    "REJECTED",
    "RUNNING",
    "AdmissionController",
    "TenantBudget",
    "isolation_sweep",
    "INTERLEAVE_POLICIES",
    "QueryService",
    "ServiceReport",
    "QueryRequest",
    "QuerySession",
    "TPCH_QUERIES",
    "WorkloadResult",
    "run_solo",
    "run_workload",
    "tpch_request",
]
