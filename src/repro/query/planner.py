"""Cost-based plan selection.

All rooted join trees that witness the free-connex property compute the
same result, but their constant factors differ in the secure setting: a
fold between two relations of one party runs locally, a cross-party one
pays for PSI, and every operator is padded to public sizes (Section
6.5).  An oblivious protocol's bytes are a function of those sizes
alone, so the planner prices each candidate with the exact model
(:func:`repro.bench.estimator.estimate_plan_cost`) and runs the
cheapest; back-ends are then routed per node on that tree.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from ..exec.compiler import compile_plan
from ..exec.ir import ReduceFoldStep, SemijoinStep
from ..leakage import BACKENDS
from ..mpc.params import SecurityParams
from ..relalg.hypergraph import Hypergraph
from ..yannakakis.plan import YannakakisPlan, candidate_plans

__all__ = ["BACKEND_POLICIES", "choose_plan", "route_backends"]

#: Join back-end policies a query (or engine) may select: the concrete
#: protocols plus cost-based per-node routing.
BACKEND_POLICIES = BACKENDS + ("auto",)

#: How many candidates :func:`choose_plan` prices before settling (an
#: 8-relation star has 262,144 join trees).  Bounds work only: past it
#: the choice is the cheapest of the first this-many, never "no plan".
MAX_CANDIDATES = 1024


def choose_plan(
    hypergraph: Hypergraph,
    output: Iterable[str],
    owners: Dict[str, str],
    sizes: Dict[str, int],
    params: SecurityParams,
) -> YannakakisPlan:
    """The cheapest of the query's
    :func:`~repro.yannakakis.plan.candidate_plans`, or ``ValueError`` if
    the query is not free-connex.

    Cheapest is fewest bytes, then rounds, of the paper's protocol on
    relations of these ``sizes`` before any output row
    (``estimate_plan_cost`` at ``out_size=0``: all that public sizes
    determine), then the smaller root name and sorted edge list — a
    function of the arguments alone, so both parties derive the same
    plan without a message.
    """
    from ..bench.estimator import estimate_plan_cost

    def price(plan: YannakakisPlan) -> Tuple[int, int, str, List[List[str]]]:
        est = estimate_plan_cost(plan, sizes, owners, 0, params)
        parent = plan.tree.parent
        edges = sorted(sorted((n, p)) for n, p in parent.items() if p)
        return est.total, est.rounds, plan.tree.root, edges

    output = tuple(dict.fromkeys(output))  # dedupe, keep caller's order
    priced = islice(candidate_plans(hypergraph, output), MAX_CANDIDATES)
    best = min(priced, key=price, default=None)
    if best is None:
        raise ValueError(
            "query is not free-connex; no rooted join tree compiles"
        )
    return best


def route_backends(
    plan: YannakakisPlan,
    sizes: Dict[str, int],
    owners: Dict[str, str],
    backend: str = "auto",
    params: Optional[SecurityParams] = None,
) -> Dict[str, str]:
    """Assign a join back-end to every fold/semijoin node of ``plan``.

    ``backend`` is a policy, not a protocol: ``"yannakakis"`` and
    ``"linear"`` force every node onto that back-end, while ``"auto"``
    prices each node under both via
    :func:`repro.bench.estimator.estimate_node_costs` and picks the
    cheaper one in bytes (ties break to ``"yannakakis"``, the paper's
    protocol — in particular every same-owner node, where the back-ends
    are identical, routes there).  Returns a map keyed by the compiled
    steps' labels, suitable for :func:`repro.exec.compiler.compile_plan`
    and :func:`repro.bench.estimator.estimate_plan_cost`.
    """
    from ..bench.estimator import DEFAULT_PARAMS, estimate_node_costs

    if backend in BACKENDS:
        return {
            step.label: backend
            for step in compile_plan(plan, owners).steps
            if isinstance(step, (ReduceFoldStep, SemijoinStep))
        }
    if backend != "auto":
        raise ValueError(
            f"unknown back-end policy {backend!r}; "
            f"choose from {BACKEND_POLICIES}"
        )
    node_costs = estimate_node_costs(
        plan, sizes, owners, params=params or DEFAULT_PARAMS
    )
    return {
        label: min(
            costs, key=lambda b: (costs[b], 0 if b == "yannakakis" else 1)
        )
        for label, costs in node_costs.items()
    }
