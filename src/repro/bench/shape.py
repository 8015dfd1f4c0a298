"""Shape checks for the reproduced figures.

The reproduction does not chase the paper's absolute numbers (different
substrate), but its *shapes* must hold.  These helpers are asserted by
the benchmark harness and tests:

* secure Yannakakis cost grows (near-)linearly in effective input size;
* the garbled-circuit baseline grows polynomially (degree = number of
  joined relations) and loses by orders of magnitude at every scale;
* the non-private baseline stays orders of magnitude below secure
  Yannakakis.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    from .runner import FigureRow

__all__ = ["growth_exponent", "check_figure_shape"]


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — 1.0 means linear
    growth, k means degree-k polynomial."""
    pts = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def check_figure_shape(rows: List[FigureRow]) -> List[str]:
    """Return a list of shape violations (empty = the figure reproduces
    the paper's qualitative claims)."""
    problems: List[str] = []
    if any(not r.matches_plaintext for r in rows):
        problems.append("secure result does not match plaintext")
    for r in rows:
        if r.gc_mb <= r.secure_mb:
            problems.append(
                f"at {r.scale_mb}MB the GC baseline communicates less "
                "than secure Yannakakis"
            )
        if r.gc_seconds <= r.secure_seconds:
            problems.append(
                f"at {r.scale_mb}MB the GC baseline is faster than "
                "secure Yannakakis"
            )
        if r.plain_mb >= r.secure_mb:
            problems.append(
                f"at {r.scale_mb}MB plaintext communicates more than "
                "the secure protocol"
            )
    if len(rows) >= 3:
        xs = [r.effective_mb for r in rows]
        slope_comm = growth_exponent(xs, [r.secure_mb for r in rows])
        if not 0.5 <= slope_comm <= 1.5:
            problems.append(
                f"secure communication grows with exponent "
                f"{slope_comm:.2f}, expected ~1 (linear)"
            )
        slope_gc = growth_exponent(xs, [r.gc_mb for r in rows])
        k = 3  # at least a 3-way join in every benchmark query
        if slope_gc < 2.0:
            problems.append(
                f"GC communication grows with exponent {slope_gc:.2f}, "
                f"expected ~{k} (polynomial)"
            )
    return problems
