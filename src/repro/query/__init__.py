"""Query frontend: the join-aggregate query API and the cost-based
planner."""

from .builder import BACKEND_POLICIES, JoinAggregateQuery
from .decompose import decompose_by_attribute, run_decomposed
from .planner import choose_plan, route_backends
from .sql import SqlError, compile_sql, parse_sql

__all__ = [
    "BACKEND_POLICIES",
    "JoinAggregateQuery",
    "SqlError",
    "choose_plan",
    "compile_sql",
    "decompose_by_attribute",
    "parse_sql",
    "route_backends",
    "run_decomposed",
]
