"""Baselines: the SMCQL-style monolithic garbled circuit and an honest
plaintext SQL engine.  The non-private evaluation is
``PreparedQuery.run_plain`` (its communication, by the paper's
convention, is ``PreparedQuery.effective_bytes``)."""

from .garbled_baseline import (
    GcBaselineCost,
    cartesian_gc_cost,
    gc_gate_rate,
    run_cartesian_gc,
)
from .sql_baseline import (
    SqlBaselineResult,
    run_sql_baseline,
    sql_backend_name,
)

__all__ = [
    "GcBaselineCost",
    "SqlBaselineResult",
    "cartesian_gc_cost",
    "gc_gate_rate",
    "run_cartesian_gc",
    "run_sql_baseline",
    "sql_backend_name",
]
