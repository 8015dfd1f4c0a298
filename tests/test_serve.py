"""Serving-layer unit and property tests.

Three battery sections:

* **shared set-up store**: a run over a store another tenant already
  warmed (templates, garble plans, topologies) is byte-identical to a
  cold private-store run; counters stay per session.

* **admission control**: exact admit/queue/reject boundaries against
  the estimator's price, reservation accounting, queue draining on
  settle/replenish, and the regression that a rejected request moves
  **zero** protocol bytes (no context, no transcript sends).

* **service runs**: deterministic interleaving, cross-tenant set-up
  sharing, and served results equal to a direct ``run_secure``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.estimator import CostEstimate, estimate_query_cost
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_instance,
    value_disjoint_twin,
)
from repro.mpc import Context, Transcript
from repro.query.builder import JoinAggregateQuery
from repro.relalg import AnnotatedRelation, IntegerRing
from repro.serve import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    QueryRequest,
    QueryService,
    run_solo,
)

from .conftest import make_engine

pytestmark = pytest.mark.serve

#: Small instances keep each protocol run in the tens of messages.
SMALL = GeneratorConfig(max_relations=3, max_tuples=4)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def fuzz_query(master_seed: int, index: int = 0) -> JoinAggregateQuery:
    return generate_instance(master_seed, index, SMALL).query()


def tiny_query() -> JoinAggregateQuery:
    """A fixed two-relation cross-owner query."""
    ring = IntegerRing(32)
    r = AnnotatedRelation(("a", "b"), [(1, 2), (3, 4)], [1, 1], ring)
    s = AnnotatedRelation(("b", "c"), [(2, 5), (4, 6)], [1, 1], ring)
    return (
        JoinAggregateQuery(output=("a",))
        .add_relation("R", r, owner="alice")
        .add_relation("S", s, owner="bob")
    )


class TestPlanCache:
    """What serving caches across tenants is public set-up material —
    gadget templates, garble plans, Beneš topologies — in the service's
    one :class:`~repro.mpc.runcache.SetupStore`."""

    @settings(max_examples=10)
    @given(seed=seeds)
    def test_cached_run_byte_identical_to_cold(self, seed):
        """The hard guarantee of sharing: a run over a set-up store
        pre-warmed by another tenant is byte-identical to a cold
        private-store run."""
        inst = generate_instance(seed, 0, SMALL)
        req = lambda q: QueryRequest(  # noqa: E731
            tenant="t", name="q", query=q, seed=5
        )
        cold = run_solo(req(inst.query()))
        assert cold.state == "done", repr(cold.error)

        svc = QueryService()
        # Pre-warm with the value-disjoint twin: same public shapes, so
        # its run fills the store with everything the next one needs.
        svc.submit(
            QueryRequest(
                tenant="other",
                name="warm",
                query=value_disjoint_twin(inst).query(),
                seed=6,
            )
        )
        svc.run()
        svc.submit(req(inst.query()))
        svc.run()
        warmup, warm = svc.sessions
        assert warmup.state == "done", repr(warmup.error)
        assert warm.state == "done", repr(warm.error)
        assert warm.ctx.cache.store is warmup.ctx.cache.store is svc.store
        assert warm.ctx.cache.stats()["circuit_misses"] == 0
        assert warm.profile is not None and cold.profile is not None
        assert warm.profile.diff(cold.profile) == ""
        assert warm.profile.fingerprint == cold.profile.fingerprint


class TestSetupStoreViews:
    def test_counters_per_view_material_shared(self):
        """Sessions count their own hits/misses; the material lives in
        the shared store.  A default-constructed RunCache keeps a
        private store, so tests that assert hit/miss counts stay
        order-independent."""
        from repro.mpc.gadgets import merge_or_circuit
        from repro.mpc.runcache import RunCache, SetupStore

        store = SetupStore()
        a = RunCache(store=store)
        b = RunCache(store=store)
        assert a.circuit(merge_or_circuit, 32, 4) is b.circuit(
            merge_or_circuit, 32, 4
        )
        assert a.stats()["circuit_misses"] == 1
        assert a.stats()["circuit_hits"] == 0
        assert b.stats()["circuit_misses"] == 0
        assert b.stats()["circuit_hits"] == 1
        assert a.benes_topology(8) is b.benes_topology(8)
        assert store.sizes() == {
            "circuit_templates": 1,
            "topologies": 1,
            "garble_plans": 0,
        }
        # a fresh default cache shares nothing with the store above
        private = RunCache()
        private.circuit(merge_or_circuit, 32, 4)
        assert private.stats()["circuit_misses"] == 1
        assert store.sizes()["circuit_templates"] == 1


def priced(total: int, rounds: int = 0) -> CostEstimate:
    return CostEstimate(total, 0, rounds)


class TestAdmissionController:
    def test_exact_boundaries(self):
        ctl = AdmissionController()
        ctl.register("t", byte_capacity=100, round_capacity=10)
        # over total capacity: reject, never queue
        assert ctl.decide("t", priced(101)) == REJECT
        assert ctl.decide("t", priced(50, rounds=11)) == REJECT
        # exactly at capacity: admit
        assert ctl.decide("t", priced(100, rounds=10)) == ADMIT
        # capacity now reserved: fits total capacity -> queue
        assert ctl.decide("t", priced(1)) == QUEUE
        assert len(ctl.waiting) == 1

    def test_settle_frees_reservation_and_drain_admits(self):
        ctl = AdmissionController()
        ctl.register("t", byte_capacity=100)
        assert ctl.decide("t", priced(80), payload="first") == ADMIT
        assert ctl.decide("t", priced(60), payload="second") == QUEUE
        # Actual metered cost below the estimate: settling frees room.
        ctl.settle("t", priced(80), actual_bytes=30, actual_rounds=0)
        assert ctl.drain() == ["second"]
        b = ctl.budgets["t"]
        assert b.bytes_spent == 30 and b.bytes_reserved == 60

    def test_replenish_resets_window(self):
        ctl = AdmissionController()
        ctl.register("t", byte_capacity=100)
        assert ctl.decide("t", priced(100), payload="a") == ADMIT
        ctl.settle("t", priced(100), actual_bytes=100, actual_rounds=0)
        assert ctl.decide("t", priced(100), payload="b") == QUEUE
        assert ctl.replenish("t") == ["b"]
        assert ctl.budgets["t"].bytes_spent == 0
        assert ctl.budgets["t"].bytes_reserved == 100

    def test_fifo_per_tenant_no_cross_blocking(self):
        ctl = AdmissionController()
        ctl.register("t1", byte_capacity=10)
        ctl.register("t2", byte_capacity=10)
        assert ctl.decide("t1", priced(10), payload="t1-a") == ADMIT
        assert ctl.decide("t1", priced(5), payload="t1-b") == QUEUE
        assert ctl.decide("t2", priced(10), payload="t2-a") == ADMIT
        assert ctl.decide("t2", priced(4), payload="t2-b") == QUEUE
        # only t2 frees budget: t2-b admits, t1-b keeps its place
        ctl.settle("t2", priced(10), actual_bytes=0, actual_rounds=0)
        assert ctl.drain() == ["t2-b"]
        assert [r.payload for r in ctl.waiting] == ["t1-b"]

    def test_unpriced_policy(self):
        ctl = AdmissionController()
        ctl.register("lenient", byte_capacity=10)
        ctl.register("strict", byte_capacity=10, require_priced=True)
        assert ctl.decide("lenient", None) == ADMIT
        assert ctl.decide("strict", None) == REJECT
        # unknown tenants are unmetered
        assert ctl.decide("nobody", priced(10**9)) == ADMIT


class TestAdmissionInService:
    def test_estimator_priced_boundaries(self):
        q = fuzz_query(11)
        cost = estimate_query_cost(q)
        svc = QueryService()
        svc.register_tenant("t", byte_capacity=cost.total)
        req = lambda n: QueryRequest(  # noqa: E731
            tenant="t", name=n, query=fuzz_query(11), seed=5
        )
        assert svc.submit(req("q1")) == ADMIT
        assert svc.submit(req("q2")) == QUEUE

        tight = QueryService()
        tight.register_tenant("t", byte_capacity=cost.total - 1)
        assert tight.submit(req("q3")) == REJECT

    def test_rejection_moves_zero_protocol_bytes(self, monkeypatch):
        """Regression: a rejected request must be turned away before a
        context — let alone a transcript byte — exists."""
        contexts = []
        sends = []
        orig_init = Context.__init__
        orig_send = Transcript.send

        def spy_init(self, *a, **kw):
            contexts.append(self)
            return orig_init(self, *a, **kw)

        def spy_send(self, *a, **kw):
            sends.append(a)
            return orig_send(self, *a, **kw)

        monkeypatch.setattr(Context, "__init__", spy_init)
        monkeypatch.setattr(Transcript, "send", spy_send)

        svc = QueryService()
        svc.register_tenant("t", byte_capacity=1)
        decision = svc.submit(
            QueryRequest(tenant="t", name="big", query=fuzz_query(11))
        )
        assert decision == REJECT
        assert svc.sessions == []
        assert contexts == [] and sends == []
        report = svc.run()
        assert report.counts == {"rejected": 1}

    def test_queued_request_runs_after_settlement(self):
        q = fuzz_query(11)
        cost = estimate_query_cost(q)
        svc = QueryService()
        # room for one reservation at a time, two windows of actuals
        svc.register_tenant("t", byte_capacity=cost.total)
        mk = lambda n: QueryRequest(  # noqa: E731
            tenant="t", name=n, query=fuzz_query(11), seed=5
        )
        assert svc.submit(mk("first")) == ADMIT
        assert svc.submit(mk("second")) == QUEUE
        svc.run()
        # first settled under estimate; if actuals left room the queue
        # drained mid-run, otherwise replenish admits it.
        if any(s.request.name == "second" for s in svc.sessions):
            pass
        else:
            assert svc.replenish() == 1
            svc.run()
        states = {s.request.name: s.state for s in svc.sessions}
        assert states == {"first": "done", "second": "done"}


class TestService:
    def test_served_result_matches_direct_run(self):
        inst = generate_instance(23, 0, SMALL)
        session = run_solo(
            QueryRequest(tenant="t", name="q", query=inst.query(), seed=5)
        )
        assert session.state == "done", repr(session.error)
        direct, _ = inst.query().run_secure(make_engine(seed=5))
        served = sorted(
            (tuple(row), int(v)) for row, v in session.result
        )
        expected = sorted((tuple(row), int(v)) for row, v in direct)
        assert served == expected

    @pytest.mark.parametrize("interleave", ["round_robin", "clock"])
    def test_deterministic_interleaving(self, interleave):
        def run_once():
            svc = QueryService(interleave=interleave)
            for i, seed in enumerate((31, 32, 33)):
                svc.submit(
                    QueryRequest(
                        tenant=f"t{i}",
                        name=f"q{i}",
                        query=fuzz_query(seed),
                        seed=5,
                    )
                )
            report = svc.run()
            return (
                report.n_steps,
                [s.profile.fingerprint for s in svc.sessions],
            )

        assert run_once() == run_once()

    def test_plan_shared_across_tenants(self):
        inst = generate_instance(41, 0, SMALL)
        svc = QueryService()
        svc.submit(
            QueryRequest(
                tenant="t1", name="q", query=inst.query(), seed=5
            )
        )
        svc.submit(
            QueryRequest(
                tenant="t2",
                name="q",
                query=value_disjoint_twin(inst).query(),
                seed=6,
            )
        )
        report = svc.run()
        assert report.counts == {"done": 2}
        # Twins have the same public shapes, so together they build
        # what one of them builds alone — each template exactly once.
        solo = run_solo(
            QueryRequest(tenant="t1", name="q", query=inst.query(), seed=5)
        )
        templates = solo.ctx.cache.stats()["circuit_templates"]
        assert templates > 0
        assert report.setup_store == svc.store.sizes()
        assert report.setup_store["circuit_templates"] == templates
        assert templates == sum(
            s.ctx.cache.stats()["circuit_misses"] for s in svc.sessions
        )

    def test_trace_namespaced_per_tenant(self):
        svc = QueryService()
        svc.submit(
            QueryRequest(tenant="t1", name="qa", query=fuzz_query(51))
        )
        svc.submit(
            QueryRequest(tenant="t2", name="qb", query=fuzz_query(52))
        )
        svc.run()
        metas = [
            (s.trace.meta["tenant"], s.trace.meta["request"])
            for s in svc.sessions
        ]
        assert metas == [("t1", "qa"), ("t2", "qb")]
        assert all(len(s.trace.nodes) > 0 for s in svc.sessions)


class TestLeakageAdmission:
    """Tenant-pinned leakage budgets: the plan-level audit runs at
    submit time, before any protocol byte moves."""

    def _cross_owner_query(self, backend):
        q = tiny_query()
        q.set_backend(backend)
        return q

    def test_pinned_tenant_rejects_leaky_route(self):
        svc = QueryService()
        svc.register_tenant(
            "sealed", byte_capacity=1 << 30, allowed_leakage=frozenset()
        )
        linear = self._cross_owner_query("linear")
        assert svc.plan_leakage(
            QueryRequest(tenant="sealed", name="q", query=linear)
        ) == frozenset({"join_pattern:parent"})
        assert (
            svc.submit(
                QueryRequest(tenant="sealed", name="q", query=linear)
            )
            == REJECT
        )
        snap = svc.admission.snapshot()["sealed"]
        assert snap["leakage_rejected"] == 1
        assert svc.sessions == []

    def test_pinned_tenant_admits_oblivious_route(self):
        svc = QueryService()
        svc.register_tenant(
            "sealed", byte_capacity=1 << 30, allowed_leakage=frozenset()
        )
        decision = svc.submit(
            QueryRequest(
                tenant="sealed",
                name="q",
                query=self._cross_owner_query("yannakakis"),
                seed=3,
            )
        )
        assert decision == ADMIT
        report = svc.run()
        assert report.counts == {"done": 1}

    def test_budgeted_tenant_admits_declared_leakage(self):
        svc = QueryService()
        svc.register_tenant(
            "audited",
            byte_capacity=1 << 30,
            allowed_leakage=frozenset({"join_pattern:parent"}),
        )
        decision = svc.submit(
            QueryRequest(
                tenant="audited",
                name="q",
                query=self._cross_owner_query("linear"),
                seed=3,
            )
        )
        assert decision == ADMIT

    def test_unpinned_tenant_unaffected(self):
        svc = QueryService()
        svc.register_tenant("loose", byte_capacity=1 << 30)
        decision = svc.submit(
            QueryRequest(
                tenant="loose",
                name="q",
                query=self._cross_owner_query("linear"),
            )
        )
        assert decision == ADMIT
