"""Benchmark harness for the paper's evaluation (Figures 2-6).

The planner imports :mod:`.estimator` on every run, so the package
loads the figure runner (and through it the baselines and ``sqlite3``)
only when one of its names is first used.
"""

from typing import Any

from .estimator import CostEstimate, estimate_plan_cost
from .shape import check_figure_shape, growth_exponent

__all__ = [
    "CostEstimate",
    "FIGURES",
    "FigureRow",
    "check_figure_shape",
    "estimate_plan_cost",
    "format_figure",
    "growth_exponent",
    "run_figure",
]

_RUNNER_NAMES = ("FIGURES", "FigureRow", "format_figure", "run_figure")


def __getattr__(name: str) -> Any:
    if name in _RUNNER_NAMES:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
