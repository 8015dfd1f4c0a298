"""Plaintext Yannakakis: the modified 3-phase algorithm of Section 3.2."""

from .naive import full_join, naive_join_aggregate
from .plain import execute_plan, yannakakis
from .plan import YannakakisPlan, build_plan, build_two_phase_plan

__all__ = [
    "YannakakisPlan",
    "build_plan",
    "build_two_phase_plan",
    "execute_plan",
    "full_join",
    "naive_join_aggregate",
    "yannakakis",
]
