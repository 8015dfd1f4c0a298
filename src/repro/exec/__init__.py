"""Execution layer: typed IR + instrumented scheduler.

The secure Yannakakis pipeline in :mod:`repro.core.protocol` runs in
two halves:

* a **compiler** (:func:`compile_plan`) that lowers a
  :class:`~repro.yannakakis.plan.YannakakisPlan` plus party ownership
  into an :class:`ExecPlan` — a serialisable tuple of typed operator
  steps, in execution order; and
* a **scheduler** (:class:`Scheduler`) that executes the steps over an
  :class:`~repro.mpc.engine.Engine` in that one fixed order, with
  per-node structured tracing (:class:`ExecutionTrace`).

The compiled plan is also what planning reads: the estimator prices
its steps, the back-end router labels them, and :func:`audit_plan`
composes their leakage.  The entry points are
:func:`repro.core.protocol.secure_yannakakis` and its shared variant.
"""

from .audit import LeakageReport, NodeLeakage, audit_plan
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
    "Scheduler",
    "SemijoinStep",
    "ShareStep",
    "Step",
    "audit_plan",
    "compile_plan",
    "traced",
]
