"""The experiment grid of Section 8: one figure per query, each a pair
of (running time, communication) series over dataset scales, comparing

* **secure Yannakakis** — measured (SIMULATED-mode primitives with
  exact communication accounting);
* **garbled circuit** — the SMCQL-style Cartesian-product baseline,
  exact circuit size, time extrapolated from this machine's measured
  garbling rate (the paper's own methodology; it runs the circuit for
  real only at the smallest scale);
* **non-private** — plaintext Yannakakis; communication = effective
  input size (the paper's convention for MySQL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..baselines.garbled_baseline import cartesian_gc_cost, gc_gate_rate
from ..mpc.context import Mode
from ..mpc.engine import Engine
from ..tpch.datagen import SCALES_MB, generate
from ..tpch.queries import PREPARED, PreparedQuery, prepare

__all__ = ["FigureRow", "run_figure", "format_figure", "FIGURES"]

#: Figure number per query, as in the paper.
FIGURES = {"Q3": 2, "Q10": 3, "Q18": 4, "Q8": 5, "Q9": 6}


@dataclass
class FigureRow:
    """One x-position of one figure."""

    query: str
    scale_mb: float
    effective_mb: float
    secure_seconds: float
    secure_mb: float
    plain_seconds: float
    plain_mb: float
    gc_seconds: float
    gc_mb: float
    matches_plaintext: bool


def run_figure(
    query_name: str,
    scales: Sequence[float] = SCALES_MB,
    seed: int = 7,
    q9_nations: Optional[List[int]] = None,
) -> List[FigureRow]:
    """Regenerate one figure's series."""
    if query_name not in PREPARED:
        raise KeyError(
            f"unknown query {query_name!r}; choose from {sorted(PREPARED)}"
        )
    rate = gc_gate_rate()
    rows: List[FigureRow] = []
    for scale in scales:
        query = prepare(query_name, generate(scale), q9_nations)
        plain, plain_seconds = query.run_plain()

        ctx = query.make_context(Mode.SIMULATED, seed=seed)
        secure, stats = query.run_secure(Engine(ctx))
        matches = secure.semantically_equal(plain)

        gc = cartesian_gc_cost(
            query.gc_sizes,
            query.gc_conditions,
            gate_rate=rate,
            runs=query.gc_runs,
        )
        rows.append(
            FigureRow(
                query=query.name,
                scale_mb=scale,
                effective_mb=query.effective_bytes / 1e6,
                secure_seconds=stats.seconds,
                secure_mb=stats.total_bytes / 1e6,
                plain_seconds=plain_seconds,
                plain_mb=query.effective_bytes / 1e6,
                gc_seconds=gc.est_seconds,
                gc_mb=gc.comm_bytes / 1e6,
                matches_plaintext=matches,
            )
        )
    return rows


def _human_time(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.2f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}min"
    if seconds < 86400 * 3:
        return f"{seconds / 3600:.1f}h"
    if seconds < 86400 * 365 * 2:
        return f"{seconds / 86400:.1f}d"
    return f"{seconds / (86400 * 365.25):.1f}y"


def _human_mb(mb: float) -> str:
    if mb < 1:
        return f"{mb * 1000:.0f}KB"
    if mb < 1000:
        return f"{mb:.1f}MB"
    if mb < 1e6:
        return f"{mb / 1000:.1f}GB"
    if mb < 1e9:
        return f"{mb / 1e6:.1f}TB"
    if mb < 1e12:
        return f"{mb / 1e9:.1f}PB"
    return f"{mb / 1e12:.1f}EB"


def format_figure(rows: List[FigureRow]) -> str:
    """Render one figure's series as the paper's two panels."""
    if not rows:
        return "(no rows)"
    name = rows[0].query
    head = (
        f"Figure {FIGURES.get(name, '?')} — {name}: "
        "time and communication vs effective input size"
    )
    lines = [head, "-" * len(head)]
    lines.append(
        f"{'scale':>7} {'eff.input':>10} | {'SecYan time':>12} "
        f"{'GC time':>10} {'plain time':>11} | {'SecYan comm':>12} "
        f"{'GC comm':>10} {'plain comm':>11} | ok"
    )
    for r in rows:
        lines.append(
            f"{r.scale_mb:>6}M {_human_mb(r.effective_mb):>10} | "
            f"{_human_time(r.secure_seconds):>12} "
            f"{_human_time(r.gc_seconds):>10} "
            f"{_human_time(r.plain_seconds):>11} | "
            f"{_human_mb(r.secure_mb):>12} "
            f"{_human_mb(r.gc_mb):>10} "
            f"{_human_mb(r.plain_mb):>11} | "
            f"{'yes' if r.matches_plaintext else 'NO'}"
        )
    return "\n".join(lines)
