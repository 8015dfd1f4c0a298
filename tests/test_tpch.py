"""TPC-H substrate: the generator's invariants and all five queries."""

from itertools import permutations

import numpy as np
import pytest

from repro.bench.estimator import estimate_plan_cost
from repro.mpc import Engine, Mode
from repro.mpc.transcript import other_party
from repro.query.planner import choose_plan
from repro.relalg import Hypergraph
from repro.tpch import (
    PREPARED,
    date_ordinal,
    generate,
    prepare,
    prepare_q10,
    prepare_q18,
    prepare_q3,
    prepare_q8,
    prepare_q9,
    to_signed,
    year_of_ordinals,
)
from repro.yannakakis.plan import candidate_plans


@pytest.fixture(scope="module")
def dataset():
    return generate(1)


class TestDatagen:
    def test_row_count_ratios(self, dataset):
        assert dataset["customer"].n_rows == 150
        assert dataset["orders"].n_rows == 1500
        assert dataset["part"].n_rows == 200
        assert dataset["supplier"].n_rows == 10
        assert dataset["partsupp"].n_rows == 800
        assert dataset["nation"].n_rows == 25
        assert dataset["region"].n_rows == 5
        # ~4 lineitems per order
        assert 1500 * 2 < dataset["lineitem"].n_rows < 1500 * 7

    def test_deterministic(self):
        d1, d2 = generate(1, seed=3), generate(1, seed=3)
        assert (
            d1["orders"].column("o_orderdate")
            == d2["orders"].column("o_orderdate")
        ).all()
        d3 = generate(1, seed=4)
        assert not (
            d1["orders"].column("o_orderdate")
            == d3["orders"].column("o_orderdate")
        ).all()

    def test_referential_integrity(self, dataset):
        custkeys = set(
            int(k) for k in dataset["customer"].column("c_custkey")
        )
        assert all(
            int(k) in custkeys
            for k in dataset["orders"].column("o_custkey")
        )
        orderkeys = set(
            int(k) for k in dataset["orders"].column("o_orderkey")
        )
        assert all(
            int(k) in orderkeys
            for k in dataset["lineitem"].column("l_orderkey")
        )

    def test_lineitem_partsupp_consistency(self, dataset):
        """Every lineitem's (partkey, suppkey) exists in partsupp — the
        invariant Q9's join relies on."""
        ps = set(
            zip(
                (int(k) for k in dataset["partsupp"].column("ps_partkey")),
                (int(k) for k in dataset["partsupp"].column("ps_suppkey")),
            )
        )
        li = set(
            zip(
                (int(k) for k in dataset["lineitem"].column("l_partkey")),
                (int(k) for k in dataset["lineitem"].column("l_suppkey")),
            )
        )
        assert li <= ps

    def test_dates_in_tpch_range(self, dataset):
        lo, hi = date_ordinal("1992-01-01"), date_ordinal("1998-08-02")
        od = np.asarray(dataset["orders"].column("o_orderdate"))
        assert (od >= lo).all() and (od <= hi).all()
        sd = np.asarray(dataset["lineitem"].column("l_shipdate"))
        assert (sd > lo).all()

    def test_o_year_column_consistent(self, dataset):
        od = np.asarray(dataset["orders"].column("o_orderdate"))
        assert (
            np.asarray(dataset["orders"].column("o_year"))
            == year_of_ordinals(od)
        ).all()

    def test_scaling(self):
        d3 = generate(3)
        assert d3["customer"].n_rows == 450
        assert d3["orders"].n_rows == 4500


class TestHelpers:
    def test_to_signed(self):
        assert to_signed(5, 32) == 5
        assert to_signed(2**32 - 1, 32) == -1
        assert to_signed(2**31, 32) == -(2**31)

    def test_date_ordinal_comparisons(self):
        assert date_ordinal("1995-03-13") > date_ordinal("1995-03-12")


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PREPARED))
def test_queries_secure_equals_plain(name, dataset):
    if name == "Q9":
        query = PREPARED[name](dataset, nations=[8, 14])
    else:
        query = PREPARED[name](dataset)
    plain, _ = query.run_plain()
    ctx = query.make_context(Mode.SIMULATED, seed=5)
    result, stats = query.run_secure(Engine(ctx))
    assert result.semantically_equal(plain), name
    assert stats.total_bytes > 0


@pytest.mark.parametrize("name", sorted(PREPARED))
def test_plan_is_the_cheapest_candidate_and_deterministic(
    name, dataset, monkeypatch
):
    """Every query a TPC-H driver plans runs the argmin of the one cost
    model over its candidates, under either owner split; the plan moves
    neither with the order the relations were declared in nor — on
    these five; prices are not flip-symmetric, so it is not a law —
    with the owner flip that ``swap_owners()`` pins it across."""
    planned = []

    def spy(hypergraph, output, owners, sizes, params):
        mirror = {n: other_party(o) for n, o in owners.items()}
        plans = []
        for split in (owners, mirror):
            def price(plan):
                est = estimate_plan_cost(plan, sizes, split, 0, params)
                return est.total, est.rounds

            plan = choose_plan(hypergraph, output, split, sizes, params)
            assert price(plan) == min(
                map(price, candidate_plans(hypergraph, plan.output))
            )
            orders = list(permutations(hypergraph.edges))
            for order in orders[:: max(1, len(orders) // 24)]:
                shuffled = Hypergraph({n: hypergraph.edges[n] for n in order})
                again = choose_plan(shuffled, output, split, sizes, params)
                assert again.describe() == plan.describe(), order
            plans.append(plan)
        assert plans[0].describe() == plans[1].describe()
        planned.append(plans[0])
        return plans[0]

    monkeypatch.setattr("repro.query.builder.choose_plan", spy)
    kwargs = {"nations": [8]} if name == "Q9" else {}
    PREPARED[name](dataset, **kwargs).run_plain()
    assert planned


class TestQueryDetails:
    def test_q3_group_keys_are_order_attributes(self, dataset):
        q = prepare_q3(dataset)
        plain, _ = q.run_plain()
        assert set(plain.attributes) == {
            "orderkey", "o_orderdate", "o_shippriority",
        }

    def test_q3_revenue_positive(self, dataset):
        plain, _ = prepare_q3(dataset).run_plain()
        assert all(v > 0 for _, v in plain)

    def test_q10_matches_manual_computation(self, dataset):
        q = prepare_q10(dataset)
        plain, _ = q.run_plain()
        lo, hi = date_ordinal("1993-08-01"), date_ordinal("1993-11-01")
        orders = dataset["orders"]
        lineitem = dataset["lineitem"]
        cust_of_order = {}
        for ok, ck, od in zip(
            orders.column("o_orderkey"),
            orders.column("o_custkey"),
            orders.column("o_orderdate"),
        ):
            if lo <= od < hi:
                cust_of_order[int(ok)] = int(ck)
        revenue = {}
        for ok, ep, disc, rf in zip(
            lineitem.column("l_orderkey"),
            lineitem.column("l_extendedprice"),
            lineitem.column("l_discount"),
            lineitem.column("l_returnflag"),
        ):
            if rf == "R" and int(ok) in cust_of_order:
                ck = cust_of_order[int(ok)]
                revenue[ck] = revenue.get(ck, 0) + int(ep) * (
                    100 - int(disc)
                )
        got = {t[0]: v for t, v in plain}
        assert got == {k: v for k, v in revenue.items() if v}

    def test_q18_having_threshold(self, dataset):
        plain, _ = prepare_q18(dataset).run_plain()
        for row, qty in plain:
            assert qty > 300

    def test_q18_local_subquery_padded_to_lineitem(self):
        """``bigorders``: the qualifying order keys in ascending order,
        then zero-annotated dummies up to ``|lineitem|`` — against the
        per-row loop the vectorised form replaced."""
        from repro.core import is_dummy_tuple

        dataset = generate(3)  # the smallest scale with a qualifying order
        lineitem = dataset["lineitem"]
        totals = {}
        for k, q in zip(
            lineitem.column("l_orderkey"), lineitem.column("l_quantity")
        ):
            totals[int(k)] = totals.get(int(k), 0) + int(q)
        expect = sorted((k,) for k, v in totals.items() if v > 300)
        assert expect
        big = prepare_q18(dataset)._build().relations["bigorders"]
        n, pad = len(expect), lineitem.n_rows - len(expect)
        assert big.tuples[:n] == expect
        assert big.annotations.tolist() == [1] * n + [0] * pad
        assert all(is_dummy_tuple(t) for t in big.tuples[n:])
        assert len(set(big.tuples[n:])) == pad

    def test_prepare_restricts_q9_only(self, dataset):
        assert prepare("Q9", dataset, [8, 9]).gc_runs == 4
        assert prepare("Q9", dataset).gc_runs == 50
        assert prepare("Q3", dataset, [8]).name == "Q3"

    def test_q9_amount_sign_handling(self, dataset):
        q = prepare_q9(dataset, nations=[8])
        plain, _ = q.run_plain()
        # cost can exceed revenue: signed interpretation must be sane
        for _, v in plain:
            signed = to_signed(v, q.ell)
            assert abs(signed) < 2 ** (q.ell - 1)

    def test_effective_bytes_positive_and_monotone(self):
        small = prepare_q3(generate(1))
        large = prepare_q3(generate(3))
        assert 0 < small.effective_bytes < large.effective_bytes

    def test_ell_mismatch_rejected(self, dataset):
        q8 = prepare_q8(dataset)
        wrong = prepare_q3(dataset).make_context(Mode.SIMULATED)
        with pytest.raises(ValueError):
            q8.run_secure(Engine(wrong))


class TestPreparedOnce:
    """A ``PreparedQuery`` builds its relations when it is prepared,
    plans on its first run and routes on its first run under each
    policy; ``_build()`` hands out fresh queries over the same
    relations, which plan for themselves."""

    @staticmethod
    def count_planning(monkeypatch):
        import repro.query.builder as builder

        calls = {"plan": 0, "route": 0}

        def counted(key, real):
            def call(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return call

        for key, name in (
            ("plan", "choose_plan"), ("route", "route_backends"),
        ):
            monkeypatch.setattr(
                builder, name, counted(key, getattr(builder, name))
            )
        return calls

    @staticmethod
    def run(prepared, backend=None):
        ctx = prepared.make_context(Mode.SIMULATED, seed=7)
        engine = Engine(ctx)
        engine.backend = backend
        result, _ = prepared.run_secure(engine)
        return sorted(result.to_dict().items()), ctx.transcript.fingerprint()

    @pytest.mark.parametrize("name, plans", [("Q3", 1), ("Q8", 2)])
    def test_a_second_run_neither_plans_nor_routes(
        self, name, plans, monkeypatch
    ):
        calls = self.count_planning(monkeypatch)
        prepared = PREPARED[name](generate(0.1))
        first = self.run(prepared, "auto")
        assert calls == {"plan": plans, "route": plans}
        assert self.run(prepared, "auto") == first
        assert calls == {"plan": plans, "route": plans}
        self.run(prepared, "linear")  # another policy routes, once
        self.run(prepared, "linear")
        assert calls == {"plan": plans, "route": 2 * plans}

    def test_mutating_a_built_query_leaves_the_runs_alone(self):
        prepared = prepare_q3(generate(0.1))
        before = self.run(prepared)
        built = prepared._build()
        assert built is not prepared._build() and built._plan is None
        assert all(
            rel is prepared._build().relations[name]
            for name, rel in built.relations.items()
        )
        built.set_backend("linear")
        built.swap_owners().set_backend("linear")
        assert self.run(prepared) == before

    def test_other_sizes_or_owners_plan_afresh(self, monkeypatch):
        calls = self.count_planning(monkeypatch)
        small = generate(0.1)
        for prepared in (
            prepare_q3(small),
            prepare_q3(generate(0.3)),
            prepare_q3(small, flip_owners=True),
        ):
            self.run(prepared)
            self.run(prepared)
        assert calls == {"plan": 3, "route": 3}
