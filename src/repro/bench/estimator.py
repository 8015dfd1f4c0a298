"""Analytic cost estimation for a compiled plan.

Predicts the protocol's communication *without running it*, from the
plan structure, the relation sizes and the ownership map, by running
SIMULATED mode's own charge paths — the OT extension's, the garbled
calls', the OPRF/OPPRF's and the DH-OPRF's — on a count-only meter in
place of a :class:`~repro.mpc.context.Context`.  Useful for planning
("what would this query cost?") and asserted against the metered
execution by the test suite.

The estimator walks the plan :func:`~repro.exec.compiler.compile_plan`
lowers, step by step in the order the scheduler runs it, so either
phase order (reduce first, or the two-phase ablation's semijoins first)
is priced as executed.  PSI bins and loads come from the same
deterministic formulas the protocol uses, so the estimate is the
metered run's bytes, message count and rounds for a given plan and
ownership — the only approximation is that it assumes every operator
takes its general path (no same-party shortcuts beyond what ownership
dictates, payload-shared PSI whenever the child annotations are not
input-plain).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Dict,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
)

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
from ..mpc.context import ALICE, BOB, Mode
from ..mpc.costs import Widths
from ..mpc.dhoprf import charge_dh_oprf
from ..mpc.ot import SimulatedOT
from ..mpc.params import DEFAULT_PARAMS, SecurityParams
from ..mpc.psi import charge_opprf
from ..mpc.yao import garbled_call
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
    #: the party running the parent side: which physical extension
    #: instances the node uses, which decides only the one-time base
    #: phases a plan total includes
    parent_owner: str = ALICE


def session_framing_overhead(n_messages: int) -> int:
    """Extra bytes the fault-tolerant session layer meters on top of a
    plain run: one fixed-size frame header (magic, sequence number,
    length, checksum) per wire message.  The session is accounting-
    neutral otherwise — a session run's total is exactly the plain
    run's total plus this overhead — so callers with a message count
    (from a metered run or an :class:`~repro.exec.trace.ExecutionTrace`)
    can reconcile estimates against session-enabled executions."""
    return int(n_messages) * costs.FRAME_HEADER_BYTES


class CostEstimate(NamedTuple):
    """A plan's predicted communication: what SIMULATED's charge paths
    send for it, counted.  Exact for the priced ``out_size`` — the
    bytes, the message count and the rounds (direction changes) of the
    metered transcript."""

    total: int
    messages: int
    rounds: int


class _Meter:
    """A count-only :class:`~repro.mpc.context.Meter`: the charge paths
    run on it as on a SIMULATED context, and it counts what they send —
    bytes, messages, and rounds as
    :class:`~repro.mpc.transcript.Transcript` counts them — without
    recording, labelling or computing anything."""

    mode = Mode.SIMULATED

    def __init__(self, params: SecurityParams) -> None:
        self.params = params
        self.roles_swapped = False
        self.total = self.messages = self.rounds = 0
        self._last: Optional[str] = None

    @contextmanager
    def swapped_roles(self) -> Iterator[None]:
        self.roles_swapped = not self.roles_swapped
        try:
            yield
        finally:
            self.roles_swapped = not self.roles_swapped

    def send(self, sender: str, n_bytes: int, label: str = "") -> None:
        if self.roles_swapped:
            sender = BOB if sender == ALICE else ALICE
        self.total += int(n_bytes)
        self.messages += 1
        if sender != self._last:
            self.rounds += 1
            self._last = sender

    def section(self, label: str) -> ContextManager[None]:
        return nullcontext()


class _Estimator:
    """Runs SIMULATED's charge paths on a :class:`_Meter` in the
    composition the operators run them: the only knowledge kept here is
    which primitives a node invokes, at what shapes, in which order."""

    def __init__(self, params: SecurityParams):
        self.p = params
        self.meter = _Meter(params)
        #: the forward extension instance, as an engine holds it
        self._ot = SimulatedOT(self.meter)

    @property
    def ot(self) -> SimulatedOT:
        """The instance the protocol's Bob sends on, as
        :attr:`~repro.mpc.engine.Engine.ot` reads it."""
        return self._ot.reverse if self.meter.roles_swapped else self._ot

    def _oriented(self, swapped: bool) -> ContextManager[None]:
        """Price the primitives inside as the oriented engine of
        physical Bob (``swapped``) or Alice runs them."""
        if swapped == self.meter.roles_swapped:
            return nullcontext()
        return self.meter.swapped_roles()

    # -- primitives -------------------------------------------------------

    def ot_batch(self, widths: Widths, reverse: bool = False) -> None:
        """One C-OT batch; ``reverse`` in protocol roles (Bob
        choosing)."""
        with self.meter.swapped_roles() if reverse else nullcontext():
            self.ot.correlated(None, widths).finish()

    def garbled(self, counts: costs.CircuitCounts, n: int) -> None:
        """``n`` garblings of a template with these
        :func:`~repro.mpc.costs.circuit_counts`."""
        garbled_call(
            self.meter, self.ot, counts, n,
            real=lambda: (), ideal=lambda: (None, None),
        )

    def oep(self, m: int, n_out: int) -> None:
        self.ot_batch(costs.oep_widths(self.p.ell, m, n_out))

    def gilboa(self, n: int, n_cross_terms: int) -> None:
        for i in range(n_cross_terms):
            self.ot_batch(costs.gilboa_widths(self.p.ell, n), bool(i % 2))

    def share(self, sender: str, n: int) -> None:
        """One message of ``n`` ring elements: a sharing or a reveal."""
        self.meter.send(sender, costs.share_bytes(self.p.ell, n))

    def psi(self, m: int, n: int, shared_payload: bool) -> int:
        """One circuit PSI; returns its bin count."""
        b, load = costs.psi_bins(self.p, m, n)
        if shared_payload:
            # Section 5.5: the other party's OEP into the PSI's payloads
            # runs first; the one onto the bins follows it.
            with self.meter.swapped_roles():
                self.oep(n + b, n + b)
        self.meter.send(ALICE, costs.psi_seed_bytes(self.p.cuckoo_hashes))
        charge_opprf(self.meter, self.ot, b, load)
        circuit = gadgets.psi_bin_circuit(
            self.p.ell,
            costs.psi_token_bits(b, self.p.sigma),
            shared_payload,  # the payload is revealed iff it is an index
        )
        self.garbled(costs.circuit_counts(circuit), b)
        if shared_payload:
            self.oep(n + b, b)
        return b

    # -- the operator composition ----------------------------------------

    def node(self, shape: NodeShape, backend: str) -> None:
        """Price one node under ``backend``: its whole transcript
        window — the child's aggregation (a semijoin's support
        projection), then the reduce-join."""
        (
            kind, parent_n, child_n, same_owner, child_plain, parent_plain,
            parent_owner,
        ) = shape
        ell = self.p.ell
        parent_bob = parent_owner != ALICE
        if child_n and not child_plain:  # else: the owner-local fast path
            # the child owner's aggregation: Bob's iff the parent's is
            # exactly when they share an owner
            with self._oriented(parent_bob == same_owner):
                self.oep(child_n, child_n)
                if kind == "semijoin":
                    nonzero = gadgets.nonzero_circuit(ell)
                    self.garbled(costs.circuit_counts(nonzero), child_n)
                    chain = costs.merge_chain_counts(
                        gadgets.merge_or_circuit, child_n
                    )
                    self.garbled(chain, 1)
                else:
                    self.ot_batch([(child_n - 1, costs.ring_bytes(ell))])
        if kind == "aggregate" or parent_n == 0:
            return
        with self._oriented(parent_bob):
            self._reduce_join(shape, backend)

    def _reduce_join(self, shape: NodeShape, backend: str) -> None:
        """The parent side of a node, under the parent owner's
        orientation."""
        _, parent_n, child_n, same_owner, child_plain, parent_plain, _ = shape
        ell = self.p.ell
        if same_owner:
            # Back-end-independent: same-owner folds never cross the
            # PSI/DH-OPRF dispatch, so both back-ends price (and run)
            # identically here.
            if child_plain and parent_plain:
                return  # fully local
            if child_plain:
                self.share(ALICE, child_n)
            self.oep(child_n + 1, parent_n)
        elif backend == "linear":
            # DH-OPRF matching, then the child payloads in token order.
            charge_dh_oprf(self.meter, parent_n, child_n)
            if child_n > 0:
                if child_plain:
                    self.share(BOB, child_n)
                else:  # the child owner's permutation
                    self.ot_batch(
                        costs.permutation_widths(ell, child_n), reverse=True
                    )
            self.oep(child_n + 1, parent_n)
        else:
            b = self.psi(parent_n, child_n, shared_payload=not child_plain)
            self.oep(b, parent_n)
        self.gilboa(parent_n, n_cross_terms=1 if parent_plain else 2)


def estimate_node_bytes(
    shape: NodeShape, backend: str, params: SecurityParams
) -> int:
    """Marginal bytes of one fold/semijoin node under ``backend`` — what
    the scheduler's trace meters for it: its bytes on a meter whose two
    extension instances have already run their base phases, since the
    base-OT setup — with the mirror's tree corrections, which ride in
    its first ``u`` — is charged once per engine (to whichever node runs
    the first OT batch), not per node.  The planner's routing pass, the
    scheduler's per-node ``est_bytes`` and :func:`estimate_plan_cost`
    all price a node through the same :meth:`_Estimator.node`."""
    e = _Estimator(params)
    for ot in (e.ot, e.ot.reverse):
        ot.labels(1)
    before = e.meter.total
    e.node(shape, backend)
    return e.meter.total - before


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
            step.kind, sizes[p], sizes[c], same, plain[c], plain[p],
            owners[p],
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
            e.share(owners[name], sizes[name])
        # reveal circuits: the indicator, and for a Bob-owned relation
        # his tuples disclosed under it (no gate).  Payload width is
        # data-dependent; callers wanting exactness supply integer-only
        # relations, for which the estimator assumes 4-byte slots per
        # attribute.
        pbits = 0 if owners[name] == ALICE else 32 * len(attrs)
        reveal = gadgets.reveal_tuple_circuit(params.ell, pbits)
        e.garbled(costs.circuit_counts(reveal), sizes[name])
    e.meter.send(ALICE, costs.OUT_SIZE_BYTES)
    if out_size > 0:
        for name in reduced:
            e.oep(sizes[name] + 1, out_size)
        e.gilboa(out_size, n_cross_terms=2 * (len(reduced) - 1))
    e.share(BOB, out_size)  # the result, revealed to Alice
    m = e.meter
    return CostEstimate(m.total, m.messages, m.rounds)


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
