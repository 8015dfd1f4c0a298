"""Analytic cost estimation for a compiled plan.

Predicts the protocol's communication *without running it*, from the
plan structure, the relation sizes and the ownership map — the same
closed forms the SIMULATED mode charges, summed symbolically.  Useful
for planning ("what would this query cost?") and asserted against the
metered execution by the test suite.

The estimator walks the plan :func:`~repro.exec.compiler.compile_plan`
lowers, step by step in the order the scheduler runs it, so either
phase order (reduce first, or the two-phase ablation's semijoins first)
is priced as executed.  The estimate is exact for the deterministic
parts (circuit templates, OEP networks, OT batches) and uses the
deterministic bin/load formulas for PSI, so it matches the metered run
to the byte for a given plan and ownership — the only approximation is
that it assumes every operator takes its general path (no same-party
shortcuts beyond what ownership dictates, payload-shared PSI whenever
the child annotations are not input-plain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.builder import JoinAggregateQuery

from ..exec.compiler import compile_plan
from ..exec.ir import (
    AggregateStep,
    ExecPlan,
    ReduceFoldStep,
    SemijoinStep,
    ShareStep,
)
from ..leakage import BACKENDS
from ..mpc import costs, gadgets
from ..mpc.context import ALICE
from ..mpc.costs import Widths
from ..mpc.params import DEFAULT_PARAMS, SecurityParams
from ..yannakakis.plan import YannakakisPlan

__all__ = [
    "CostEstimate",
    "NodeShape",
    "estimate_node_bytes",
    "estimate_node_costs",
    "estimate_plan_cost",
    "estimate_query_cost",
    "session_framing_overhead",
]


class NodeShape(NamedTuple):
    """The public shape of one reduce- or semijoin-phase node:
    everything its price depends on."""

    #: the exec step kind: ``"reduce_fold"``, ``"semijoin"`` or
    #: ``"aggregate"`` (a root aggregation: the parent side is unused)
    kind: str
    parent_n: int
    child_n: int
    same_owner: bool
    child_plain: bool
    parent_plain: bool


def session_framing_overhead(n_messages: int) -> int:
    """Extra bytes the fault-tolerant session layer meters on top of a
    plain run: one fixed-size frame header (magic, sequence number,
    length, checksum) per wire message.  The session is accounting-
    neutral otherwise — a session run's total is exactly the plain
    run's total plus this overhead — so callers with a message count
    (from a metered run or an :class:`~repro.exec.trace.ExecutionTrace`)
    can reconcile estimates against session-enabled executions."""
    return int(n_messages) * costs.FRAME_HEADER_BYTES


@dataclass
class CostEstimate:
    """Predicted bytes, broken down by mechanism.

    ``rounds`` is a coarse upper-estimate of the communication rounds
    (direction changes): the byte prediction is exact, but round counts
    depend on message interleaving across operators, so the estimator
    charges a documented constant per primitive invocation instead
    (2 per OT batch, 2 per garbled-circuit exchange, 3 per PSI setup,
    1 per reveal).  Admission control budgets against it; nothing
    asserts it equals the metered round count."""

    total: int = 0
    by_part: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0

    def add(self, part: str, n_bytes: int) -> None:
        n_bytes = int(n_bytes)
        self.total += n_bytes
        self.by_part[part] = self.by_part.get(part, 0) + n_bytes

    def add_rounds(self, n: int) -> None:
        self.rounds += int(n)


class _Estimator:
    """Sums :mod:`repro.mpc.costs` sizes in the composition the
    operators run them: the only knowledge kept here is which
    primitives an operator invokes, at what shapes."""

    def __init__(self, params: SecurityParams):
        self.p = params
        self.est = CostEstimate()
        #: OT directions whose one-time base phase is already priced
        self._ot_base_charged: Set[bool] = set()

    # -- primitives -------------------------------------------------------

    def _ot_base(self, reverse: bool) -> None:
        """First use of an extension instance: Chou–Orlandi for the
        forward one; ``kappa`` seed OTs of it for its mirror."""
        if reverse in self._ot_base_charged:
            return
        self._ot_base_charged.add(reverse)
        kappa = self.p.kappa
        if reverse:
            self._ot_base(False)
            base = costs.cot_bytes(kappa, costs.seed_ot_widths(kappa))[0]
        else:
            base = sum(costs.base_ot_bytes(kappa))
        self.est.add("ot_base", base)
        self.est.add_rounds(2)

    def ot(self, widths: Widths, reverse: bool = False) -> None:
        u, corrections = costs.cot_bytes(self.p.kappa, widths)
        if u == 0:
            return
        self._ot_base(reverse)
        self.est.add("ot_u", u)
        self.est.add("ot_ct", corrections)
        self.est.add_rounds(2)

    def garbled(self, counts: Tuple[int, int, int], n: int) -> None:
        """``n`` garblings of a template with these
        :func:`~repro.mpc.costs.circuit_counts`."""
        if n == 0:
            return
        sizes = costs.garbled_bytes(*counts, n)
        self.est.add("gc_tables", sizes.tables)
        self.est.add("gc_labels", sizes.seed)
        self.ot([sizes.label_ots])
        self.est.add("gc_decode", sizes.decode)
        self.est.add_rounds(2)

    def oep(self, m: int, n_out: int) -> None:
        self.ot(costs.oep_widths(self.p.ell, m, n_out))

    def gilboa(self, n: int, n_cross_terms: int) -> None:
        for i in range(n_cross_terms):
            self.ot(costs.gilboa_widths(self.p.ell, n), reverse=bool(i % 2))

    def share(self, n: int) -> None:
        self.est.add("shares", costs.share_bytes(self.p.ell, n))
        self.est.add_rounds(1)

    def psi(self, m: int, n: int, shared_payload: bool) -> int:
        """One circuit PSI; returns its bin count."""
        b, load = costs.psi_bins(self.p, m, n)
        self.est.add("psi_seeds", costs.psi_seed_bytes(self.p.cuckoo_hashes))
        self.est.add_rounds(3)
        self._ot_base(reverse=True)  # the OPRF's base OTs come from it
        self.est.add("oprf", sum(costs.kkrt_setup_bytes(self.p.kappa, b)))
        self.est.add("opprf_hints", costs.opprf_hint_bytes(b, load, self.p.ell))
        circuit = gadgets.psi_bin_circuit(
            self.p.ell,
            costs.psi_token_bits(b, self.p.sigma),
            shared_payload,  # the payload is revealed iff it is an index
        )
        self.garbled(costs.circuit_counts(circuit), b)
        if shared_payload:
            # Section 5.5: two extra OEPs around the PSI.
            self.oep(n + b, n + b)
            self.oep(n + b, b)
        return b

    # -- the operator composition ----------------------------------------

    def node(self, shape: NodeShape, backend: str) -> None:
        """Price one node under ``backend``: its whole transcript
        window — the child's aggregation (a semijoin's support
        projection), then the reduce-join."""
        kind, parent_n, child_n, same_owner, child_plain, parent_plain = shape
        ell = self.p.ell
        if child_n and not child_plain:  # else: the owner-local fast path
            self.oep(child_n, child_n)
            chain = gadgets.merge_sum_circuit
            if kind == "semijoin":
                nonzero = gadgets.nonzero_circuit(ell)
                self.garbled(costs.circuit_counts(nonzero), child_n)
                chain = gadgets.merge_or_circuit
            self.garbled(
                costs.merge_chain_counts(lambda k: chain(ell, k), child_n), 1
            )
        if kind == "aggregate" or parent_n == 0:
            return
        if same_owner:
            # Back-end-independent: same-owner folds never cross the
            # PSI/DH-OPRF dispatch, so both back-ends price (and run)
            # identically here.
            if child_plain and parent_plain:
                return  # fully local
            if child_plain:
                self.share(child_n)
            self.oep(child_n + 1, parent_n)
        elif backend == "linear":
            # DH-OPRF matching, then the child payloads in token order.
            self.est.add(
                "dhoprf", sum(costs.dh_oprf_bytes(parent_n, child_n))
            )
            self.est.add_rounds(2)
            if child_n > 0:
                if child_plain:
                    self.share(child_n)
                else:
                    self.ot(costs.permutation_widths(ell, child_n))
            self.oep(child_n + 1, parent_n)
        else:
            b = self.psi(parent_n, child_n, shared_payload=not child_plain)
            self.oep(b, parent_n)
        self.gilboa(parent_n, n_cross_terms=1 if parent_plain else 2)


def estimate_node_bytes(
    shape: NodeShape, backend: str, params: SecurityParams
) -> int:
    """Marginal bytes of one fold/semijoin node under ``backend`` — what
    the scheduler's trace meters for it: the node's total minus its
    ``ot_base`` part, since the base-OT setup is charged once per engine
    (to whichever node runs the first OT batch), not per node.  The
    planner's routing pass, the scheduler's per-node ``est_bytes`` and
    :func:`estimate_plan_cost` all price a node through the same
    :meth:`_Estimator.node`."""
    e = _Estimator(params)
    e.node(shape, backend)
    return e.est.total - e.est.by_part.get("ot_base", 0)


def _walk_nodes(
    plan: ExecPlan, sizes: Dict[str, int]
) -> Tuple[Dict[str, Tuple[NodeShape, str]], Dict[str, bool]]:
    """The one plan walk: the shape and back-end of every reduce- and
    semijoin-phase step by step label, in the compiled plan's (executed)
    order, and which relations' annotations are still owner-plain
    afterwards.  Plainness is tracked along the way so the Section 6.5
    fast paths are credited exactly as the executor takes them; sizes
    never change (every operator pads to its input)."""
    owners = {
        s.relation: s.owner for s in plan.steps if isinstance(s, ShareStep)
    }
    plain = {name: True for name in sizes}
    nodes: Dict[str, Tuple[NodeShape, str]] = {}
    for step in plan.steps:
        if isinstance(step, ReduceFoldStep):
            p, c, backend = step.parent, step.child, step.backend
        elif isinstance(step, SemijoinStep):
            # A semijoin's child is the filter's support, plain iff it is.
            p, c, backend = step.target, step.filter, step.backend
        elif isinstance(step, AggregateStep):
            # An aggregation joins nothing: no back-end is dispatched.
            p = c = step.node
            backend = BACKENDS[0]
        else:
            continue
        same = owners[c] == owners[p]
        shape = NodeShape(
            step.kind, sizes[p], sizes[c], same, plain[c], plain[p]
        )
        nodes[step.label] = (shape, backend)
        plain[p] = plain[p] and plain[c] and same
    return nodes, plain


def estimate_plan_cost(
    plan: YannakakisPlan,
    sizes: Dict[str, int],
    owners: Dict[str, str],
    out_size: int,
    params: SecurityParams = DEFAULT_PARAMS,
    backends: Optional[Dict[str, str]] = None,
) -> CostEstimate:
    """Predict the protocol's communication for ``plan`` over relations
    of the given sizes/owners, with ``out_size`` final join rows.

    ``backends`` maps fold/semijoin labels to a join back-end (see
    :func:`repro.query.planner.route_backends`); unlisted nodes price
    as ``"yannakakis"``.
    """
    e = _Estimator(params)
    nodes, plain = _walk_nodes(
        compile_plan(plan, owners, backends=backends), sizes
    )
    for shape, backend in nodes.values():
        e.node(shape, backend)

    # Full join: reveal + OUT + per-relation OEP + products + result.
    reduced = plan.reduced_attrs
    for name, attrs in reduced.items():
        if plain[name]:
            e.share(sizes[name])
        # reveal circuits: indicator only for Alice-owned; indicator +
        # payload mux for Bob-owned.  Payload width is data-dependent;
        # callers wanting exactness supply integer-only relations, for
        # which the estimator assumes 4-byte slots per attribute.
        pbits = 0 if owners[name] == ALICE else 32 * len(attrs)
        reveal = gadgets.reveal_tuple_circuit(params.ell, pbits)
        e.garbled(costs.circuit_counts(reveal), sizes[name])
    e.est.add("out_size", costs.OUT_SIZE_BYTES)
    e.est.add_rounds(1)
    if out_size > 0:
        for name in reduced:
            e.oep(sizes[name] + 1, out_size)
        e.gilboa(out_size, n_cross_terms=2 * (len(reduced) - 1))
    e.est.add("result_reveal", costs.share_bytes(params.ell, out_size))
    e.est.add_rounds(1)
    return e.est


def estimate_node_costs(
    plan: YannakakisPlan,
    sizes: Dict[str, int],
    owners: Dict[str, str],
    params: SecurityParams = DEFAULT_PARAMS,
) -> Dict[str, Dict[str, int]]:
    """:func:`estimate_node_bytes` of every fold/semijoin node under
    each join back-end: ``{node_label: {backend: bytes}}`` — what the
    planner's routing pass decides on."""
    nodes, _ = _walk_nodes(compile_plan(plan, owners), sizes)
    return {
        label: {b: estimate_node_bytes(shape, b, params) for b in BACKENDS}
        for label, (shape, _) in nodes.items()
        if shape.kind != "aggregate"
    }


def estimate_query_cost(
    query: "JoinAggregateQuery",
    out_size: Optional[int] = None,
    params: Optional[SecurityParams] = None,
    # Inert: frozen benchmarks/e2e passes it; ROADMAP item 1 drops it.
    group_bits: Optional[int] = None,
    backends: Optional[Dict[str, str]] = None,
) -> CostEstimate:
    """Price a whole :class:`~repro.query.builder.JoinAggregateQuery`
    *without running it* — the admission controller's entry point.

    Sizes, owners and the ring width are read off the query; the plan
    is the one the query itself would execute.  ``out_size`` bounds the
    full-join output: when omitted, the worst case (the product of the
    sizes of the relations that survive the reduce phase — the ones the
    full join joins) is assumed, making the price an upper bound — a
    query admitted under it can never exceed its reservation on the
    final join.  ``backends`` overrides the per-node join back-end map;
    when omitted the query's own routing
    (:meth:`~repro.query.builder.JoinAggregateQuery.backend_assignments`)
    is priced, so the admission price follows the back-end the query
    will actually run.
    """
    sizes = {n: len(r) for n, r in query.relations.items()}
    if out_size is None:
        out_size = math.prod(sizes[n] for n in query.plan().reduced_nodes)
    if params is None:
        params = query.ring_params()
    if backends is None:
        backends = query.backend_assignments()
    return estimate_plan_cost(
        query.plan(),
        sizes,
        dict(query.owners),
        out_size,
        params=params,
        backends=backends,
    )
