"""Analytic cost estimation for a compiled plan.

Predicts the protocol's communication *without running it*, from the
plan structure, the relation sizes and the ownership map — the same
closed forms the SIMULATED mode charges, summed symbolically.  Useful
for planning ("what would this query cost?") and asserted against the
metered execution by the test suite.

The estimate is exact for the deterministic parts (circuit templates,
OEP networks, OT batches) and uses the deterministic bin/load formulas
for PSI, so it matches the metered run to the byte for a given plan and
ownership — the only approximation is that it assumes every operator
takes its general path (no same-party shortcuts beyond what ownership
dictates, payload-shared PSI whenever the child annotations are not
input-plain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.builder import JoinAggregateQuery

from ..mpc import gadgets
from ..mpc.costs import Widths, base_ot_bytes, cot_bytes, garbled_bytes
from ..mpc.cuckoo import max_bin_load, num_bins
from ..mpc.dhoprf import GROUP_BITS as DH_GROUP_BITS
from ..mpc.dhoprf import TOKEN_BYTES
from ..mpc.oprf import OPRF_WIDTH
from ..mpc.params import DEFAULT_PARAMS, SecurityParams
from ..mpc.psi import _token_bits
from ..mpc.waksman import switch_count
from ..yannakakis.plan import ReduceAggregate, ReduceFold, YannakakisPlan

__all__ = [
    "CostEstimate",
    "estimate_node_costs",
    "estimate_plan_cost",
    "estimate_query_cost",
    "session_framing_overhead",
]

#: The selectable join back-ends, in tie-break preference order (the
#: paper's protocol first).  Mirrors repro.core.semijoin.BACKENDS
#: without importing the operator layer into the estimator.
BACKENDS = ("yannakakis", "linear")


def session_framing_overhead(n_messages: int) -> int:
    """Extra bytes the fault-tolerant session layer meters on top of a
    plain run: one fixed-size frame header (magic, sequence number,
    length, checksum) per wire message.  The session is accounting-
    neutral otherwise — a session run's total is exactly the plain
    run's total plus this overhead — so callers with a message count
    (from a metered run or an :class:`~repro.exec.trace.ExecutionTrace`)
    can reconcile estimates against session-enabled executions."""
    from ..runtime.framing import FRAME_HEADER_BYTES

    return int(n_messages) * FRAME_HEADER_BYTES


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

    def with_session(self, n_messages: int) -> "CostEstimate":
        """A copy of this estimate with the session layer's framing
        overhead added as its own ``session_framing`` part."""
        out = CostEstimate(
            total=self.total,
            by_part=dict(self.by_part),
            rounds=self.rounds,
        )
        out.add("session_framing", session_framing_overhead(n_messages))
        return out


class _Estimator:
    def __init__(self, params: SecurityParams, group_bits: int = 2048):
        self.p = params
        self.group_bits = group_bits
        self.est = CostEstimate()
        self._ot_base_charged: Dict[bool, bool] = {
            False: False, True: False,
        }

    # -- primitive formulas (mirroring the SIMULATED charges) -----------

    def ot(self, widths: Widths, reverse: bool = False) -> None:
        u, corrections = cot_bytes(self.p.kappa, widths)
        if u == 0:
            return
        if not self._ot_base_charged[reverse]:
            self.est.add(
                "ot_base", sum(base_ot_bytes(self.p.kappa, self.group_bits))
            )
            self.est.add_rounds(2)
            self._ot_base_charged[reverse] = True
        self.est.add("ot_u", u)
        self.est.add("ot_ct", corrections)
        self.est.add_rounds(2)

    def _garbled(
        self, and_count: int, n_alice: int, n_outputs: int, n: int
    ) -> None:
        sizes = garbled_bytes(and_count, n_alice, n_outputs, n)
        self.est.add("gc_tables", sizes.tables)
        self.est.add("gc_labels", sizes.seed)
        self.ot([sizes.label_ots])
        self.est.add("gc_decode", sizes.decode)
        self.est.add_rounds(2)

    def garbled(self, circuit, n: int) -> None:
        if n == 0:
            return
        self._garbled(
            circuit.and_count,
            len(circuit.alice_inputs),
            len(circuit.outputs),
            n,
        )

    def merge_chain(self, make_circuit, n: int) -> None:
        ell = self.p.ell
        if n <= 0:
            return
        if n <= 3:
            self.garbled(make_circuit(ell, n), 1)
            return
        c2, c3 = make_circuit(ell, 2), make_circuit(ell, 3)

        def ex(f2, f3):
            return f2 + (n - 2) * (f3 - f2)

        self._garbled(
            ex(c2.and_count, c3.and_count),
            ex(len(c2.alice_inputs), len(c3.alice_inputs)),
            ex(len(c2.outputs), len(c3.outputs)),
            1,
        )

    def oep(self, m: int, n_out: int) -> None:
        n_work = 1
        while n_work < max(m, n_out, 1):
            n_work *= 2
        rb = (self.p.ell + 7) // 8
        self.ot([(2 * switch_count(n_work), 2 * rb), (n_work - 1, rb)])

    def permute(self, n: int) -> None:
        rb = (self.p.ell + 7) // 8
        self.ot([(switch_count(n), 2 * rb)])

    def gilboa(self, n: int, n_cross_terms: int = 2) -> None:
        ell = self.p.ell
        for i in range(n_cross_terms):
            self.ot([(n * ell, (ell + 7) // 8)], reverse=bool(i % 2))

    def share(self, n: int) -> None:
        self.est.add("shares", n * ((self.p.ell + 7) // 8))
        self.est.add_rounds(1)

    def dh_oprf(self, m: int, n: int) -> None:
        """The linear back-end's DH-OPRF matching: blind + eval (one
        group element per parent key, both directions) and ``n`` sorted
        tokens (:mod:`repro.mpc.dhoprf`)."""
        eb = (DH_GROUP_BITS + 7) // 8
        self.est.add("dhoprf", 2 * m * eb + n * TOKEN_BYTES)
        self.est.add_rounds(2)

    def psi(self, m: int, n: int, shared_payload: bool) -> None:
        b = num_bins(m, self.p.cuckoo_expansion)
        load = max_bin_load(n, b, self.p.cuckoo_hashes, self.p.sigma)
        ell = self.p.ell
        self.est.add("psi_seeds", 16 * self.p.cuckoo_hashes)
        self.est.add_rounds(3)
        self.est.add(
            "oprf",
            2048 // 8 * (1 + OPRF_WIDTH)
            + 32 * OPRF_WIDTH
            + OPRF_WIDTH * ((b + 7) // 8),
        )
        self.est.add("opprf_hints", 8 * 2 * load * b)
        reveal = shared_payload
        circuit = gadgets.psi_bin_circuit(
            ell, _token_bits(b, self.p.sigma), reveal
        )
        self.garbled(circuit, b)
        if shared_payload:
            # Section 5.5: two extra OEPs around the PSI.
            self.oep(n + b, n + b)
            self.oep(n + b, b)

    # -- operators --------------------------------------------------------

    def aggregate(self, n: int, annotations_plain: bool) -> None:
        if annotations_plain or n == 0:
            return  # local fast path
        self.oep(n, n)
        self.merge_chain(gadgets.merge_sum_circuit, n)

    def support_projection(self, n: int, annotations_plain: bool) -> None:
        if annotations_plain or n == 0:
            return
        self.oep(n, n)
        self.garbled(gadgets.nonzero_circuit(self.p.ell), n)
        self.merge_chain(gadgets.merge_or_circuit, n)

    def reduce_join(
        self,
        parent_n: int,
        child_n: int,
        same_owner: bool,
        child_plain: bool,
        parent_plain: bool,
        backend: str = "yannakakis",
    ) -> None:
        if parent_n == 0:
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
            self.dh_oprf(parent_n, child_n)
            if child_n > 0:
                if child_plain:
                    self.share(child_n)
                else:
                    self.permute(child_n)
            self.oep(child_n + 1, parent_n)
        else:
            if child_plain:
                self.psi(parent_n, child_n, shared_payload=False)
            else:
                self.psi(parent_n, child_n, shared_payload=True)
            b = num_bins(parent_n, self.p.cuckoo_expansion)
            self.oep(b, parent_n)
        if parent_plain:
            self.gilboa(parent_n, n_cross_terms=1)
        else:
            self.gilboa(parent_n, n_cross_terms=2)


def estimate_plan_cost(
    plan: YannakakisPlan,
    sizes: Dict[str, int],
    owners: Dict[str, str],
    out_size: int,
    params: SecurityParams = DEFAULT_PARAMS,
    group_bits: int = 2048,
    backends: Optional[Dict[str, str]] = None,
) -> CostEstimate:
    """Predict the protocol's communication for ``plan`` over relations
    of the given sizes/owners, with ``out_size`` final join rows.
    ``group_bits`` is the base-OT group size the engine was built with
    (the OPRF's group is fixed at 2048 by :mod:`repro.mpc.oprf`).

    Tracks which intermediate annotations are still owner-plain so the
    Section 6.5 fast paths are credited exactly as the executor takes
    them.  ``backends`` maps fold/semijoin labels to a join back-end
    (see :func:`repro.query.planner.route_backends`); unlisted nodes
    price as ``"yannakakis"``.
    """
    e = _Estimator(params, group_bits)
    n = dict(sizes)
    plain = {name: True for name in sizes}
    owner = dict(owners)
    routes = dict(backends or {})

    for step in plan.reduce_steps:
        if isinstance(step, ReduceFold):
            child, parent = step.child, step.parent
            e.aggregate(n[child], plain[child])
            same = owner[child] == owner[parent]
            e.reduce_join(
                n[parent], n[child], same, plain[child], plain[parent],
                backend=routes.get(
                    f"fold/{child}->{parent}", "yannakakis"
                ),
            )
            plain[parent] = (
                plain[parent] and plain[child] and same
            )
        elif isinstance(step, ReduceAggregate):
            e.aggregate(n[step.node], plain[step.node])
            # size unchanged (padded); plainness preserved

    for step in plan.semijoin_steps:
        t, f = step.target, step.filter
        e.support_projection(n[f], plain[f])
        same = owner[t] == owner[f]
        support_plain = plain[f]  # support of plain stays plain
        e.reduce_join(
            n[t], n[f], same, support_plain, plain[t],
            backend=routes.get(f"semi/{t}<-{f}", "yannakakis"),
        )
        plain[t] = plain[t] and support_plain and same

    # Full join: reveal + OUT + per-relation OEP + products + result.
    reduced = list(plan.reduced_attrs)
    ell_bytes = (params.ell + 7) // 8
    for name in reduced:
        if plain[name]:
            e.share(n[name])
        # reveal circuits: indicator only for Alice-owned; indicator +
        # payload mux for Bob-owned.  Payload width is data-dependent;
        # callers wanting exactness supply integer-only relations, for
        # which the estimator assumes 4-byte slots per attribute.
        arity = len(plan.reduced_attrs[name])
        from ..mpc.context import ALICE

        pbits = 0 if owner[name] == ALICE else 32 * max(arity, 0)
        e.garbled(
            gadgets.reveal_tuple_circuit(params.ell, pbits), n[name]
        )
    e.est.add("out_size", 8)
    e.est.add_rounds(1)
    if out_size > 0:
        for name in reduced:
            e.oep(n[name] + 1, out_size)
        e.gilboa(out_size, n_cross_terms=2 * (len(reduced) - 1))
    e.est.add("result_reveal", out_size * ell_bytes)
    e.est.add_rounds(1)
    return e.est


def estimate_node_costs(
    plan: YannakakisPlan,
    sizes: Dict[str, int],
    owners: Dict[str, str],
    params: SecurityParams = DEFAULT_PARAMS,
    group_bits: int = 2048,
) -> Dict[str, Dict[str, int]]:
    """Marginal byte cost of every fold/semijoin node under each join
    back-end: ``{node_label: {backend: bytes}}``.

    "Marginal" excludes the run-wide one-time base-OT setup (it is
    charged once per engine, not per node) and includes the node's
    whole transcript window — the child aggregation / support
    projection plus the reduce-join — matching what the scheduler's
    trace meters per node.  The planner's routing pass and the
    scheduler's per-node ``est_bytes`` both read these numbers.
    """
    n = dict(sizes)
    plain = {name: True for name in sizes}
    owner = dict(owners)
    out: Dict[str, Dict[str, int]] = {}

    def marginal(price: "Callable[[_Estimator, str], None]") -> Dict[str, int]:
        costs = {}
        for b in BACKENDS:
            e = _Estimator(params, group_bits)
            e._ot_base_charged = {False: True, True: True}
            price(e, b)
            costs[b] = e.est.total
        return costs

    for step in plan.reduce_steps:
        if isinstance(step, ReduceFold):
            child, parent = step.child, step.parent
            same = owner[child] == owner[parent]
            c_n, p_n = n[child], n[parent]
            c_plain, p_plain = plain[child], plain[parent]

            def price_fold(e: _Estimator, b: str) -> None:
                e.aggregate(c_n, c_plain)
                e.reduce_join(p_n, c_n, same, c_plain, p_plain, backend=b)

            out[f"fold/{child}->{parent}"] = marginal(price_fold)
            plain[parent] = plain[parent] and plain[child] and same

    for step in plan.semijoin_steps:
        t, f = step.target, step.filter
        same = owner[t] == owner[f]
        t_n, f_n = n[t], n[f]
        f_plain, t_plain = plain[f], plain[t]

        def price_semi(e: _Estimator, b: str) -> None:
            e.support_projection(f_n, f_plain)
            e.reduce_join(t_n, f_n, same, f_plain, t_plain, backend=b)

        out[f"semi/{t}<-{f}"] = marginal(price_semi)
        plain[t] = plain[t] and plain[f] and same
    return out


def estimate_query_cost(
    query: "JoinAggregateQuery",
    out_size: Optional[int] = None,
    params: Optional[SecurityParams] = None,
    group_bits: int = 2048,
    backends: Optional[Dict[str, str]] = None,
) -> CostEstimate:
    """Price a whole :class:`~repro.query.builder.JoinAggregateQuery`
    *without running it* — the admission controller's entry point.

    Sizes, owners and the ring width are read off the query; the plan
    is the one the query itself would execute.  ``out_size`` bounds the
    full-join output: when omitted, the worst case (the product of the
    relation sizes) is assumed, making the price an upper bound — a
    query admitted under it can never exceed its reservation on the
    final join.  ``backends`` overrides the per-node join back-end map;
    when omitted the query's own routing
    (:meth:`~repro.query.builder.JoinAggregateQuery.backend_assignments`)
    is priced, so the admission price follows the back-end the query
    will actually run.
    """
    sizes = {n: len(r) for n, r in query.relations.items()}
    if out_size is None:
        out_size = 1
        for n_rel in sizes.values():
            out_size *= n_rel
    if params is None:
        ells = {r.semiring.ell for r in query.relations.values()}
        if len(ells) != 1:
            raise ValueError(
                f"relations disagree on the ring width: {sorted(ells)}"
            )
        params = SecurityParams(ell=ells.pop())
    if backends is None:
        backends = query.backend_assignments()
    return estimate_plan_cost(
        query.plan(),
        sizes,
        dict(query.owners),
        out_size,
        params=params,
        group_bits=group_bits,
        backends=backends,
    )
