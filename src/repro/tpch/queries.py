"""The paper's five TPC-H benchmark queries (Section 8.1).

Each ``prepare_qN(dataset)`` applies the paper's rewrite — private
selections become zero-annotated dummy tuples, ``nation``/``region``
are treated as public, Q18's subquery is evaluated locally by
lineitem's owner, Q8/Q9 are decomposed per Section 7 — and returns a
:class:`PreparedQuery` that can run securely (any engine) or in
plaintext (the non-private baseline).  Preparing builds the masked
relations once; every run reuses them, and with them one plan and one
route map per back-end policy (DESIGN.md, "Prepared once").

Relations are partitioned between the parties in the worst possible
way, alternating owners along the join tree, exactly as the paper's
experiments do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.composition import divide_compose, subtract_compose
from ..core.protocol import ProtocolStats
from ..mpc.context import ALICE, BOB, Context, Mode
from ..mpc.engine import Engine
from ..mpc.params import SecurityParams
from ..query.builder import JoinAggregateQuery
from ..relalg.columns import TupleStore, fresh_nonces
from ..relalg.relation import AnnotatedRelation
from ..relalg.semiring import IntegerRing
from .datagen import TpchDataset
from .schema import Table, date_ordinal

__all__ = [
    "PreparedQuery",
    "prepare_q3",
    "prepare_q10",
    "prepare_q18",
    "prepare_q8",
    "prepare_q9",
    "PREPARED",
    "prepare",
    "to_signed",
]


def to_signed(value: int, ell: int) -> int:
    """Interpret a ring element as a signed integer (for aggregates that
    can be negative, e.g. Q9's ``amount``)."""
    value = int(value) % (1 << ell)
    return value - (1 << ell) if value >= 1 << (ell - 1) else value


@dataclass
class PreparedQuery:
    """A benchmark query ready to run.

    It holds its masked input relations, built once when it was
    prepared, and the queries over them that its runs execute: one for
    Q3, Q10 and Q18, one per half for Q8, one per nation and aggregate
    for Q9.  A held query plans on its first run and routes on its
    first run under each back-end policy; later runs reuse both, which
    are functions of public sizes, owners and the ring width alone."""

    name: str
    description: str
    ell: int
    effective_bytes: int
    input_tuples: int
    #: result scale: reported value = annotation / result_scale
    result_scale: int
    _secure: Callable[[Engine], AnnotatedRelation]
    _plain: Callable[[], AnnotatedRelation]
    #: a fresh, not yet planned query over the held relations of a
    #: single-plan query (None for the decomposed Q8/Q9): its caller
    #: may re-route or mirror it without touching this query's runs.
    _build: Optional[Callable[[], "JoinAggregateQuery"]] = None
    #: SMCQL-style baseline model: relation sizes of one Cartesian
    #: product, the number of join conditions, and how many times the
    #: (decomposed) query pays for it.
    gc_sizes: List[int] = field(default_factory=list)
    gc_conditions: int = 0
    gc_runs: int = 1

    def make_context(self, mode: Mode, seed: Optional[int] = None) -> Context:
        return Context(mode, SecurityParams(ell=self.ell), seed=seed)

    def run_secure(
        self, engine: Engine
    ) -> Tuple[AnnotatedRelation, ProtocolStats]:
        ctx = engine.ctx
        if ctx.params.ell != self.ell:
            raise ValueError(
                f"{self.name} needs ell={self.ell}; "
                f"the context has ell={ctx.params.ell}"
            )
        before = len(ctx.transcript.messages)
        t0 = time.perf_counter()
        result = self._secure(engine)
        seconds = time.perf_counter() - t0
        return result, ProtocolStats.of_window(ctx, before, seconds)

    def run_plain(self) -> Tuple[AnnotatedRelation, float]:
        t0 = time.perf_counter()
        result = self._plain()
        return result, time.perf_counter() - t0


def _maybe_flip(
    query: JoinAggregateQuery, flip_owners: bool
) -> JoinAggregateQuery:
    return query.swap_owners() if flip_owners else query


def _single_plan(build: Callable[[], JoinAggregateQuery]) -> Dict[str, Any]:
    """The run paths of a single-plan query: both run one held query
    built by ``build``, and ``_build`` is ``build`` itself."""
    held = build()
    return dict(
        _secure=lambda engine: held.run_secure(engine)[0],
        _plain=held.run_plain,
        _build=build,
    )


def _rename(rel: AnnotatedRelation, mapping: Dict[str, str]) -> AnnotatedRelation:
    return rel.replace(
        attributes=tuple(mapping.get(a, a) for a in rel.attributes)
    )


def _rel(
    table: Table,
    attrs: List[str],
    rename: Dict[str, str],
    ell: int,
    annotation=None,
    mask=None,
) -> AnnotatedRelation:
    rel = table.to_relation(
        attrs, annotation=annotation, mask=mask, semiring=IntegerRing(ell)
    )
    return _rename(rel, rename)


# ----------------------------------------------------------------------
# Query 3 (Figure 2)
# ----------------------------------------------------------------------


def prepare_q3(
    dataset: TpchDataset, flip_owners: bool = False
) -> PreparedQuery:
    """TPC-H Q3: revenue of AUTOMOBILE orders not yet shipped — already
    free-connex in its vanilla form; all selection selectivities are
    treated as private (dummy tuples)."""
    ell = 32
    cutoff = date_ordinal("1995-03-13")
    customer, orders, lineitem = (
        dataset["customer"], dataset["orders"], dataset["lineitem"],
    )
    c = _rel(
        customer, ["c_custkey"], {"c_custkey": "custkey"}, ell,
        mask=np.asarray(
            [s == "AUTOMOBILE" for s in customer.column("c_mktsegment")]
        ),
    )
    o = _rel(
        orders,
        ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        {"o_custkey": "custkey", "o_orderkey": "orderkey"},
        ell,
        mask=np.asarray(orders.column("o_orderdate")) < cutoff,
    )
    l = _rel(
        lineitem, ["l_orderkey"], {"l_orderkey": "orderkey"}, ell,
        annotation=lambda cols: np.asarray(cols["l_extendedprice"])
        * (100 - np.asarray(cols["l_discount"])),
        mask=np.asarray(lineitem.column("l_shipdate")) > cutoff,
    )

    def build() -> JoinAggregateQuery:
        q = (
            JoinAggregateQuery(
                output=["orderkey", "o_orderdate", "o_shippriority"]
            )
            .add_relation("customer", c, owner=ALICE)
            .add_relation("orders", o, owner=BOB)
            .add_relation("lineitem", l, owner=ALICE)
        )
        return _maybe_flip(q, flip_owners)

    eff = (
        customer.column_bytes(["c_custkey", "c_mktsegment"])
        + orders.column_bytes(
            ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"]
        )
        + lineitem.column_bytes(
            ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
        )
    )
    return PreparedQuery(
        name="Q3",
        description="revenue by undelivered AUTOMOBILE order",
        ell=ell,
        effective_bytes=eff,
        input_tuples=customer.n_rows + orders.n_rows + lineitem.n_rows,
        result_scale=100 * 100,  # cents x percent
        **_single_plan(build),
        gc_sizes=[customer.n_rows, orders.n_rows, lineitem.n_rows],
        gc_conditions=2,
    )


# ----------------------------------------------------------------------
# Query 10 (Figure 3)
# ----------------------------------------------------------------------


def prepare_q10(
    dataset: TpchDataset, flip_owners: bool = False
) -> PreparedQuery:
    """TPC-H Q10 with the paper's rewrite: ``nation`` is public, so the
    query groups by ``c_nationkey`` and the receiver looks names up."""
    ell = 32
    lo, hi = date_ordinal("1993-08-01"), date_ordinal("1993-11-01")
    customer, orders, lineitem = (
        dataset["customer"], dataset["orders"], dataset["lineitem"],
    )

    c = _rel(
        customer,
        ["c_custkey", "c_name", "c_nationkey"],
        {"c_custkey": "custkey"},
        ell,
    )
    odate = np.asarray(orders.column("o_orderdate"))
    o = _rel(
        orders, ["o_orderkey", "o_custkey"],
        {"o_custkey": "custkey", "o_orderkey": "orderkey"}, ell,
        mask=(odate >= lo) & (odate < hi),
    )
    l = _rel(
        lineitem, ["l_orderkey"], {"l_orderkey": "orderkey"}, ell,
        annotation=lambda cols: np.asarray(cols["l_extendedprice"])
        * (100 - np.asarray(cols["l_discount"])),
        mask=np.asarray(
            [f == "R" for f in lineitem.column("l_returnflag")]
        ),
    )

    def build() -> JoinAggregateQuery:
        q = (
            JoinAggregateQuery(output=["custkey", "c_name", "c_nationkey"])
            .add_relation("customer", c, owner=ALICE)
            .add_relation("orders", o, owner=BOB)
            .add_relation("lineitem", l, owner=ALICE)
        )
        return _maybe_flip(q, flip_owners)

    eff = (
        customer.column_bytes(["c_custkey", "c_name", "c_nationkey"])
        + orders.column_bytes(["o_orderkey", "o_custkey", "o_orderdate"])
        + lineitem.column_bytes(
            ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"]
        )
    )
    return PreparedQuery(
        name="Q10",
        description="returned-item revenue by customer",
        ell=ell,
        effective_bytes=eff,
        input_tuples=customer.n_rows + orders.n_rows + lineitem.n_rows,
        result_scale=100 * 100,
        **_single_plan(build),
        gc_sizes=[customer.n_rows, orders.n_rows, lineitem.n_rows],
        gc_conditions=2,
    )


# ----------------------------------------------------------------------
# Query 18 (Figure 4)
# ----------------------------------------------------------------------


def prepare_q18(
    dataset: TpchDataset, flip_owners: bool = False
) -> PreparedQuery:
    """TPC-H Q18: the ``having sum(l_quantity) > 300`` subquery is
    evaluated locally by lineitem's owner and padded with dummies to
    ``|lineitem|`` so its result size stays hidden."""
    ell = 32
    customer, orders, lineitem = (
        dataset["customer"], dataset["orders"], dataset["lineitem"],
    )

    c = _rel(
        customer, ["c_custkey", "c_name"], {"c_custkey": "custkey"}, ell
    )
    o = _rel(
        orders,
        ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        {"o_custkey": "custkey", "o_orderkey": "orderkey"},
        ell,
    )
    l = _rel(
        lineitem, ["l_orderkey"], {"l_orderkey": "orderkey"}, ell,
        annotation=lambda cols: np.asarray(cols["l_quantity"]),
    )
    # Local subquery at lineitem's owner: qualifying orderkeys,
    # padded to |lineitem| (Section 8.1).
    keys, group = np.unique(
        np.asarray(lineitem.column("l_orderkey")), return_inverse=True
    )
    totals = np.bincount(group, np.asarray(lineitem.column("l_quantity")))
    qualifying = keys[totals > 300]
    pad = lineitem.n_rows - len(qualifying)
    big = AnnotatedRelation(
        ("orderkey",),
        TupleStore.from_columns(
            ("orderkey",), [qualifying]
        ).with_dummies(fresh_nonces(pad)),
        np.arange(lineitem.n_rows) < len(qualifying),
        IntegerRing(ell),
    )

    def build() -> JoinAggregateQuery:
        q = (
            JoinAggregateQuery(
                output=[
                    "c_name", "custkey", "orderkey",
                    "o_orderdate", "o_totalprice",
                ]
            )
            .add_relation("customer", c, owner=ALICE)
            .add_relation("orders", o, owner=BOB)
            .add_relation("lineitem", l, owner=ALICE)
            .add_relation("bigorders", big, owner=ALICE)
        )
        return _maybe_flip(q, flip_owners)

    eff = (
        customer.column_bytes(["c_custkey", "c_name"])
        + orders.column_bytes(
            ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
        )
        + 2 * lineitem.column_bytes(["l_orderkey", "l_quantity"])
    )
    return PreparedQuery(
        name="Q18",
        description="large-volume customers",
        ell=ell,
        effective_bytes=eff,
        input_tuples=(
            customer.n_rows + orders.n_rows + 2 * lineitem.n_rows
        ),
        result_scale=1,
        **_single_plan(build),
        gc_sizes=[
            customer.n_rows, orders.n_rows,
            lineitem.n_rows, lineitem.n_rows,
        ],
        gc_conditions=3,
    )


# ----------------------------------------------------------------------
# Query 8 (Figure 5)
# ----------------------------------------------------------------------


def _q8_queries(
    dataset: TpchDataset, ell: int, flip_owners: bool = False
) -> Tuple[JoinAggregateQuery, JoinAggregateQuery]:
    """Q8's two halves, ``(numerator, denominator)``: they differ only
    in the supplier's annotation, so the other relations are shared."""
    lo, hi = date_ordinal("1995-01-01"), date_ordinal("1996-12-31")
    part, supplier, lineitem, orders, customer = (
        dataset["part"], dataset["supplier"], dataset["lineitem"],
        dataset["orders"], dataset["customer"],
    )
    p = _rel(
        part, ["p_partkey"], {"p_partkey": "partkey"}, ell,
        mask=np.asarray(
            [t == "SMALL PLATED COPPER" for t in part.column("p_type")]
        ),
    )
    l = _rel(
        lineitem,
        ["l_partkey", "l_suppkey", "l_orderkey"],
        {
            "l_partkey": "partkey",
            "l_suppkey": "suppkey",
            "l_orderkey": "orderkey",
        },
        ell,
        annotation=lambda cols: (
            np.asarray(cols["l_extendedprice"])
            * (100 - np.asarray(cols["l_discount"]))
            // 100
        ),
    )
    odate = np.asarray(orders.column("o_orderdate"))
    o = _rel(
        orders, ["o_orderkey", "o_custkey", "o_year"],
        {"o_orderkey": "orderkey", "o_custkey": "custkey"}, ell,
        mask=(odate >= lo) & (odate <= hi),
    )
    c = _rel(
        customer, ["c_custkey"], {"c_custkey": "custkey"}, ell,
        mask=np.isin(
            np.asarray(customer.column("c_nationkey")),
            [8, 9, 12, 18, 21],
        ),
    )

    def build(nation_indicator: bool) -> JoinAggregateQuery:
        if nation_indicator:
            s_annot = lambda cols: (
                np.asarray(cols["s_nationkey"]) == 8
            ).astype(np.int64)
        else:
            s_annot = None
        s = _rel(
            supplier, ["s_suppkey"], {"s_suppkey": "suppkey"}, ell,
            annotation=s_annot,
        )
        q = (
            JoinAggregateQuery(output=["o_year"])
            .add_relation("part", p, owner=ALICE)
            .add_relation("supplier", s, owner=BOB)
            .add_relation("lineitem", l, owner=ALICE)
            .add_relation("orders", o, owner=BOB)
            .add_relation("customer", c, owner=ALICE)
        )
        return _maybe_flip(q, flip_owners)

    return build(True), build(False)


def prepare_q8(
    dataset: TpchDataset, flip_owners: bool = False
) -> PreparedQuery:
    """TPC-H Q8 (national market share): a ratio of two sums, decomposed
    into two join-aggregate queries plus a division circuit (Section 7).
    Reported ``mkt_share`` is in 1/10000ths."""
    ell = 48
    scale = 10_000
    num_q, den_q = _q8_queries(dataset, ell, flip_owners)

    def secure(engine: Engine) -> AnnotatedRelation:
        num = num_q.run_secure_shared(engine)
        den = den_q.run_secure_shared(engine)
        return divide_compose(engine, num, den, scale=scale)

    def plain() -> AnnotatedRelation:
        num = num_q.run_plain()
        den = den_q.run_plain()
        num_map = num.to_dict()
        rows, vals = [], []
        for t, d in den.to_dict().items():
            rows.append(t)
            vals.append(num_map.get(t, 0) * scale // d)
        return AnnotatedRelation(
            den.attributes, rows, vals, IntegerRing(ell)
        )

    tables = ["part", "supplier", "lineitem", "orders", "customer"]
    eff = 2 * sum(
        dataset[t].column_bytes(list(dataset[t].columns))
        for t in tables
    )
    return PreparedQuery(
        name="Q8",
        description="national market share (ratio of sums)",
        ell=ell,
        effective_bytes=eff,
        input_tuples=2 * sum(dataset[t].n_rows for t in tables),
        result_scale=scale,
        _secure=secure,
        _plain=plain,
        gc_sizes=[
            dataset[t].n_rows
            for t in ("part", "supplier", "lineitem", "orders", "customer")
        ],
        gc_conditions=4,
        gc_runs=2,
    )


# ----------------------------------------------------------------------
# Query 9 (Figure 6)
# ----------------------------------------------------------------------


def _q9_queries(
    dataset: TpchDataset, ell: int, flip_owners: bool = False
):
    part, supplier, lineitem, partsupp, orders = (
        dataset["part"], dataset["supplier"], dataset["lineitem"],
        dataset["partsupp"], dataset["orders"],
    )
    green = np.asarray(
        ["green" in n for n in part.column("p_name")]
    )

    # Only the supplier mask depends on the nation, and only lineitem/
    # partsupp annotations depend on which aggregate is computed — build
    # each invariant relation once (the operators never mutate inputs).
    cache: Dict[str, AnnotatedRelation] = {}

    def cached(key: str, make) -> AnnotatedRelation:
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def build(nationkey: int, which: str) -> JoinAggregateQuery:
        p = cached(
            "part",
            lambda: _rel(
                part, ["p_partkey"], {"p_partkey": "partkey"}, ell,
                mask=green,
            ),
        )
        s = _rel(
            supplier, ["s_suppkey"], {"s_suppkey": "suppkey"}, ell,
            mask=np.asarray(supplier.column("s_nationkey")) == nationkey,
        )
        if which == "revenue":
            l_annot = lambda cols: (
                np.asarray(cols["l_extendedprice"])
                * (100 - np.asarray(cols["l_discount"]))
                // 100
            )
            ps_annot = None
        else:  # supply cost
            l_annot = lambda cols: np.asarray(cols["l_quantity"])
            ps_annot = lambda cols: np.asarray(cols["ps_supplycost"])
        l = cached(
            f"lineitem/{which}",
            lambda: _rel(
                lineitem,
                ["l_partkey", "l_suppkey", "l_orderkey"],
                {
                    "l_partkey": "partkey",
                    "l_suppkey": "suppkey",
                    "l_orderkey": "orderkey",
                },
                ell,
                annotation=l_annot,
            ),
        )
        ps = cached(
            f"partsupp/{which}",
            lambda: _rel(
                partsupp, ["ps_partkey", "ps_suppkey"],
                {"ps_partkey": "partkey", "ps_suppkey": "suppkey"}, ell,
                annotation=ps_annot,
            ),
        )
        o = cached(
            "orders",
            lambda: _rel(
                orders, ["o_orderkey", "o_year"],
                {"o_orderkey": "orderkey"}, ell,
            ),
        )
        q = (
            JoinAggregateQuery(output=["o_year"])
            .add_relation("part", p, owner=ALICE)
            .add_relation("supplier", s, owner=BOB)
            .add_relation("lineitem", l, owner=ALICE)
            .add_relation("partsupp", ps, owner=BOB)
            .add_relation("orders", o, owner=BOB)
        )
        return _maybe_flip(q, flip_owners)

    return build


def prepare_q9(
    dataset: TpchDataset,
    nations: Optional[List[int]] = None,
    flip_owners: bool = False,
) -> PreparedQuery:
    """TPC-H Q9 (product-type profit): acyclic but *not* free-connex —
    decomposed into one query per nation (``s_nationkey`` has a public
    domain of 25) and two aggregates per query whose shared results are
    subtracted locally (Section 8.1).

    ``nations`` restricts the per-nation loop (default: all 25, as in
    the paper).
    """
    ell = 48
    nations = list(range(25)) if nations is None else list(nations)
    build = _q9_queries(dataset, ell, flip_owners)
    queries = {
        (nk, which): build(nk, which)
        for nk in nations
        for which in ("revenue", "cost")
    }
    ring = IntegerRing(ell)

    def secure(engine: Engine) -> AnnotatedRelation:
        rows, vals = [], []
        for nk in nations:
            revenue = queries[nk, "revenue"].run_secure_shared(engine)
            cost = queries[nk, "cost"].run_secure_shared(engine)
            diff = subtract_compose(engine, revenue, cost)
            for t, v in diff:
                rows.append((nk,) + t)
                vals.append(v)
        return AnnotatedRelation(
            ("s_nationkey", "o_year"), rows, vals, ring
        )

    def plain() -> AnnotatedRelation:
        rows, vals = [], []
        for nk in nations:
            rev = queries[nk, "revenue"].run_plain().to_dict()
            cost = queries[nk, "cost"].run_plain().to_dict()
            for t in sorted(set(rev) | set(cost)):
                diff = (rev.get(t, 0) - cost.get(t, 0)) % ring.modulus
                if diff:
                    rows.append((nk,) + t)
                    vals.append(diff)
        return AnnotatedRelation(
            ("s_nationkey", "o_year"), rows, vals, ring
        )

    tables = ["part", "supplier", "lineitem", "partsupp", "orders"]
    per_nation = sum(
        dataset[t].column_bytes(list(dataset[t].columns)) for t in tables
    )
    return PreparedQuery(
        name="Q9",
        description="product-type profit (per-nation decomposition)",
        ell=ell,
        effective_bytes=2 * len(nations) * per_nation,
        input_tuples=2
        * len(nations)
        * sum(dataset[t].n_rows for t in tables),
        result_scale=100,  # cents
        _secure=secure,
        _plain=plain,
        gc_sizes=[
            dataset[t].n_rows
            for t in ("part", "supplier", "lineitem", "partsupp", "orders")
        ],
        gc_conditions=5,
        gc_runs=2 * len(nations),
    )


#: name -> prepare function, in figure order.
PREPARED: Dict[str, Callable[[TpchDataset], PreparedQuery]] = {
    "Q3": prepare_q3,
    "Q10": prepare_q10,
    "Q18": prepare_q18,
    "Q8": prepare_q8,
    "Q9": prepare_q9,
}


def prepare(
    name: str,
    dataset: TpchDataset,
    q9_nations: Optional[List[int]] = None,
) -> PreparedQuery:
    """``PREPARED[name](dataset)``, with Q9's per-nation loop restricted
    to ``q9_nations`` (the other queries take no such argument)."""
    if name == "Q9":
        return prepare_q9(dataset, nations=q9_nations)
    return PREPARED[name](dataset)
