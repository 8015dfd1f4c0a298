"""Execution layer: typed IR + instrumented scheduler.

The secure Yannakakis pipeline in :mod:`repro.core.protocol` is a
sequential orchestration function.  This package factors it into two
halves:

* a **compiler** (:func:`compile_plan`) that lowers a
  :class:`~repro.yannakakis.plan.YannakakisPlan` plus party ownership
  into an :class:`ExecPlan` — a serialisable DAG of typed operator
  steps with explicit dataflow slots; and
* a **scheduler** (:class:`Scheduler`) that executes the DAG over an
  :class:`~repro.mpc.engine.Engine` in one fixed order that reproduces
  the legacy transcript byte-for-byte, with per-node structured
  tracing (:class:`ExecutionTrace`) and run-wide template caching (via
  :class:`~repro.mpc.runcache.RunCache` on the context).

The legacy entry points remain as thin wrappers; see
:func:`repro.core.protocol.secure_yannakakis`.
"""

from ..mpc.runcache import RunCache
from .audit import LeakageReport, NodeLeakage, audit_plan, audit_routes
from .compiler import compile_plan
from .ir import (
    AggregateStep,
    AlignStep,
    ExecPlan,
    JoinStep,
    ProductStep,
    ReduceFoldStep,
    RevealResultStep,
    RevealStep,
    SemijoinStep,
    ShareStep,
    Step,
)
from .scheduler import Scheduler
from .trace import ExecutionTrace, NodeTrace, traced

__all__ = [
    "AggregateStep",
    "AlignStep",
    "ExecPlan",
    "ExecutionTrace",
    "JoinStep",
    "LeakageReport",
    "NodeLeakage",
    "NodeTrace",
    "ProductStep",
    "ReduceFoldStep",
    "RevealResultStep",
    "RevealStep",
    "RunCache",
    "Scheduler",
    "SemijoinStep",
    "ShareStep",
    "Step",
    "audit_plan",
    "audit_routes",
    "compile_plan",
    "traced",
]
