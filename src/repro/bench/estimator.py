"""Analytic cost estimation for a compiled plan.

Predicts the protocol's communication *without running it*, from the
plan structure, the relation sizes and the ownership map, by running
the primitives' own send paths — the OT extension's, the garbled
calls', the OPRF/OPPRF's and the DH-OPRF's, through which both
execution modes send — on a count-only meter in place of a
:class:`~repro.mpc.context.Context`.  Useful for planning
("what would this query cost?") and asserted against the metered
execution by the test suite.

The estimator walks the plan :func:`~repro.exec.compiler.compile_plan`
lowers, step by step in the order the scheduler runs it, so either
phase order (reduce first, or the two-phase ablation's semijoins first)
and the full join's steps are priced as executed.  PSI bins and loads
come from the same deterministic formulas the protocol uses, so the
estimate is the metered run's bytes, message count and rounds for a
given plan and ownership — the only approximation is that it assumes
every operator takes its general path (no same-party shortcuts beyond
what ownership dictates, payload-shared PSI whenever the child
annotations are not input-plain).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.relation import SecureRelation
    from ..query.builder import JoinAggregateQuery

from ..core.semijoin import dispatched
from ..exec.compiler import compile_plan
from ..exec.ir import (
    AggregateStep,
    AlignStep,
    JoinStep,
    ProductStep,
    RevealResultStep,
    RevealStep,
    Step,
)
from ..leakage import BACKENDS, check_backend_keys
from ..mpc import costs, gadgets
from ..mpc.context import ALICE, BOB, Mode
from ..mpc.costs import Widths
from ..mpc.dhoprf import charge_dh_oprf
from ..mpc.leaves import LeafOts
from ..mpc.oprf import charge_oprf_setup
from ..mpc.ot import SimulatedOT
from ..mpc.params import CUCKOO_HASHES, DEFAULT_PARAMS, SIGMA, SecurityParams
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
    "estimate_step_bytes",
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
    #: the child has no attributes (a fold's empty ``agg_attrs``, a
    #: semijoin's empty ``shared_attrs``): the reduce-join scales by its
    #: sum on every back-end
    scalar: bool = False


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
    """A plan's predicted communication: what the primitives' send
    paths send for it, counted.  Exact for the priced ``out_size`` — the
    bytes, the message count and the rounds (direction changes) of the
    metered transcript."""

    total: int
    messages: int
    rounds: int


class _Meter:
    """A count-only :class:`~repro.mpc.context.Meter`: the send paths
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

    def send(self, sender: str, n_bytes: int, label: str) -> None:
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
    """Runs the primitives' send paths on a :class:`_Meter` in the
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

    def step(self) -> None:
        """A plan node starts: the scheduler closes both extension
        instances' silent-OT pools."""
        self._ot.close_pools()

    # -- primitives -------------------------------------------------------

    def ot_batch(self, widths: Widths, reverse: bool = False) -> None:
        """One C-OT batch; ``reverse`` in protocol roles (Bob
        choosing)."""
        with self.meter.swapped_roles() if reverse else nullcontext():
            self.ot.correlated(None, widths).finish()

    def garbled(
        self,
        counts: costs.CircuitCounts,
        n: int,
        alice_flow: Optional[Callable[[], None]] = None,
    ) -> None:
        """``n`` garblings of a template with these
        :func:`~repro.mpc.costs.circuit_counts`, ``alice_flow`` sending
        in Alice's label flow."""
        garbled_call(
            self.meter, self.ot, counts, n,
            real=lambda: (), ideal=lambda: (None, None),
            alice_flow=alice_flow,
        )

    def oep(self, m: int, n_out: int) -> None:
        self.ot_batch(costs.oep_widths(self.p.ell, m, n_out))

    def gilboa(self, n: int, n_cross_terms: int) -> None:
        for i in range(n_cross_terms):
            self.ot_batch(costs.gilboa_widths(self.p.ell, n), bool(i % 2))

    def share(self, sender: str, n: int, label: str) -> None:
        """One message of ``n`` ring elements: a sharing or a reveal."""
        self.meter.send(sender, costs.share_bytes(self.p.ell, n), label)

    def psi(self, m: int, n: int, shared_payload: bool) -> int:
        """One circuit PSI; returns its bin count."""
        b = costs.psi_bins(m)
        if shared_payload:
            # Section 5.5: the other party's OEP into the PSI's payloads
            # runs first; the one onto the bins follows it.
            with self.meter.swapped_roles():
                self.oep(n + b, n + b)
        self.meter.send(ALICE, costs.psi_seed_bytes(CUCKOO_HASHES), "seeds")
        charge_oprf_setup(self.meter, self.ot, b)
        fp_bits = costs.psi_token_bits(b, SIGMA)
        charge_opprf(self.meter, n, fp_bits)
        # the leaf OTs: Bob's random OTs, never finished, then Alice's
        # messages once her label batch is open
        leaves = LeafOts(self.meter, self.ot, b, fp_bits)
        circuit = gadgets.psi_bin_circuit(
            self.p.ell,
            fp_bits,
            shared_payload,  # the payload is revealed iff it is an index
        )
        self.garbled(costs.circuit_counts(circuit), b, leaves.send)
        if shared_payload:
            self.oep(n + b, b)
        return b

    # -- the operator composition ----------------------------------------

    def node(self, shape: NodeShape, backend: str) -> None:
        """Price one node under ``backend``: its whole transcript
        window — the child's aggregation (a semijoin's support
        projection), then the reduce-join."""
        ell = self.p.ell
        self.step()
        parent_bob = shape.parent_owner != ALICE
        child_n = shape.child_n
        if child_n and not shape.child_plain:  # else: owner-local
            # the child owner's aggregation: Bob's iff the parent's is
            # exactly when they share an owner
            with self._oriented(parent_bob == shape.same_owner):
                self.oep(child_n, child_n)
                if shape.kind == "semijoin":
                    nonzero = gadgets.nonzero_circuit(ell)
                    self.garbled(costs.circuit_counts(nonzero), child_n)
                    chain = costs.merge_chain_counts(
                        gadgets.merge_or_circuit, child_n
                    )
                    self.garbled(chain, 1)
                else:
                    self.ot_batch(costs.ring_widths(ell, child_n - 1))
        if shape.kind == "aggregate" or shape.parent_n == 0:
            return
        with self._oriented(parent_bob):
            self._reduce_join(shape, backend)

    def _reduce_join(self, shape: NodeShape, backend: str) -> None:
        """The parent side of a node, under the parent owner's
        orientation."""
        parent_n, child_n = shape.parent_n, shape.child_n
        same_owner, child_plain = shape.same_owner, shape.child_plain
        if same_owner and child_plain and shape.parent_plain:
            return  # fully local
        if not dispatched(shape.scalar, same_owner):
            # Back-end-independent.  A scalar child is shared and
            # summed, with no alignment; a same-owner one is OEP-aligned
            # by its owner.
            if child_plain:  # the child owner shares it
                self.share(ALICE if same_owner else BOB, child_n, "share")
            if not shape.scalar:
                self.oep(child_n + 1, parent_n)
        else:
            CROSS_OWNER_PRICE[backend](self, shape)
        self.gilboa(parent_n, n_cross_terms=1 if shape.parent_plain else 2)

    def _psi_payloads(self, shape: NodeShape) -> None:
        """The paper's PSI, then the OEP onto the parent's rows."""
        b = self.psi(shape.parent_n, shape.child_n, not shape.child_plain)
        self.oep(b, shape.parent_n)

    def _linear_payloads(self, shape: NodeShape) -> None:
        """DH-OPRF matching, then the child payloads in token order."""
        child_n = shape.child_n
        charge_dh_oprf(self.meter, shape.parent_n, child_n)
        if child_n > 0:
            if shape.child_plain:
                self.share(BOB, child_n, "payload")
            else:  # the child owner's permutation
                self.ot_batch(
                    costs.permutation_widths(self.p.ell, child_n),
                    reverse=True,
                )
        self.oep(child_n + 1, shape.parent_n)


#: The price of each back-end's cross-owner reduce-join, keyed like
#: :data:`repro.core.semijoin.CROSS_OWNER` and checked against the same
#: registry on import.
CROSS_OWNER_PRICE: Dict[str, Callable[[_Estimator, NodeShape], None]] = {
    "yannakakis": _Estimator._psi_payloads,
    "linear": _Estimator._linear_payloads,
}
check_backend_keys(CROSS_OWNER_PRICE, what="the estimator's price table")


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


def _shapes(
    steps: Sequence[Step],
    sizes: Dict[str, int],
    owners: Dict[str, str],
    plain: Dict[str, bool],
) -> Iterator[Tuple[Step, Optional[NodeShape]]]:
    """The one plan walk: every step in run order, with its shape if it
    is a reduce- or semijoin-phase node.  ``plain`` (which relations'
    annotations are still owner-plain) is tracked along the way so the
    Section 6.5 fast paths are credited exactly as the executor takes
    them; sizes never change (every operator pads to its input)."""
    for step in steps:
        join = step.reduce_join
        if join is not None:
            # A semijoin's child is the filter's support, plain iff it is.
            p, c, scalar = join
        elif isinstance(step, AggregateStep):
            p = c = step.node
            scalar = False
        else:
            yield step, None
            continue
        same = owners[c] == owners[p]
        yield step, NodeShape(
            step.kind, sizes[p], sizes[c], same, plain[c], plain[p],
            owners[p], scalar,
        )
        plain[p] = plain[p] and plain[c] and same


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
    ell = params.ell
    plain = dict.fromkeys(sizes, True)
    compiled = compile_plan(
        plan, owners, reveal_result=True, backends=backends
    )
    for step, shape in _shapes(compiled.steps, sizes, owners, plain):
        e.step()
        if shape is not None:
            # An aggregation joins nothing: no back-end is dispatched.
            e.node(shape, getattr(step, "backend", BACKENDS[0]))
        elif isinstance(step, RevealStep):
            name = step.relation
            if plain[name]:
                e.share(owners[name], sizes[name], "share")
            # reveal circuits: the indicator, and for a Bob-owned
            # relation his tuples disclosed under it (no gate).  Payload
            # width is data-dependent; callers wanting exactness supply
            # integer-only relations, for which the estimator assumes
            # 4-byte slots per attribute.
            pbits = (
                0 if owners[name] == ALICE
                else 32 * len(plan.reduced_attrs[name])
            )
            reveal = gadgets.reveal_tuple_circuit(ell, pbits)
            e.garbled(costs.circuit_counts(reveal), sizes[name])
        elif isinstance(step, JoinStep):
            e.meter.send(ALICE, costs.OUT_SIZE_BYTES, "out_size")  # |J*|
        elif isinstance(step, AlignStep) and out_size:
            e.oep(sizes[step.relation] + 1, out_size)
        elif isinstance(step, ProductStep) and out_size:
            e.gilboa(out_size, n_cross_terms=2 * (len(step.relations) - 1))
        elif isinstance(step, RevealResultStep):
            e.share(BOB, out_size, "result")  # revealed to Alice
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
    plain = dict.fromkeys(sizes, True)
    return {
        step.label: {
            b: estimate_node_bytes(shape, b, params) for b in BACKENDS
        }
        for step, shape in _shapes(plan.steps, sizes, owners, plain)
        if shape is not None and shape.kind != "aggregate"
    }


def estimate_step_bytes(
    steps: Sequence[Step],
    relations: Dict[str, "SecureRelation"],
    params: SecurityParams = DEFAULT_PARAMS,
) -> Dict[int, int]:
    """:func:`estimate_node_bytes` of every fold/semijoin step under its
    own routed back-end, keyed by step id: one plan walk over the input
    relations' sizes, owners and plainness.  These are the ``est_bytes``
    the scheduler's trace reports beside each node's metered bytes."""
    rels = relations.items()
    return {
        step.id: estimate_node_bytes(
            shape, step.backend, params  # type: ignore[attr-defined]
        )
        for step, shape in _shapes(
            steps,
            {n: len(r) for n, r in rels},
            {n: r.owner for n, r in rels},
            {n: r.annotations.kind == "plain" for n, r in rels},
        )
        if shape is not None and shape.kind != "aggregate"
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
        out_size = math.prod(sizes[n] for n in query.plan().reduced_attrs)
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
