"""Back-end selection: estimator boundaries, routing, and trace pins.

The PR-8 satellite battery for the dual join back-end: the analytic
estimator must prefer each back-end where it actually wins (and break
ties deterministically), ``route_backends`` must translate policies
into per-node maps, the scheduler must record its (deterministic)
choices in the execution trace, and a linear-routed run must meter
exactly what the estimator predicted.
"""

import numpy as np
import pytest

from repro.bench.estimator import (
    BACKENDS,
    DEFAULT_PARAMS,
    NodeShape,
    estimate_node_bytes,
    estimate_node_costs,
    estimate_query_cost,
)
from repro.exec import ExecutionTrace, audit_plan, compile_plan
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.query import (
    BACKEND_POLICIES,
    JoinAggregateQuery,
    route_backends,
)
from repro.relalg import AnnotatedRelation, IntegerRing

from .conftest import make_engine

RING = IntegerRing(32)


def node_cost(m, n, backend, same_owner=False, child_plain=True):
    """Marginal fold-node cost (child aggregation + reduce-join) as
    :func:`estimate_node_costs` computes it."""
    shape = NodeShape("reduce_fold", m, n, same_owner, child_plain, True)
    return estimate_node_bytes(shape, backend, DEFAULT_PARAMS)


def two_relation_query(
    n1, n2, owners=(ALICE, BOB), key_range=8, seed=0, ring=RING
):
    """r1(a,b) ⋈ r2(b,c), SUM over r2's annotations, output ``b``."""
    rng = np.random.default_rng(seed)
    r1 = AnnotatedRelation(
        ("a", "b"),
        [(int(x), int(y)) for x, y in rng.integers(0, key_range, (n1, 2))],
        rng.integers(1, 9, n1),
        ring,
    )
    r2 = AnnotatedRelation(
        ("b", "c"),
        [(int(x), int(y)) for x, y in rng.integers(0, key_range, (n2, 2))],
        rng.integers(1, 9, n2),
        ring,
    )
    q = JoinAggregateQuery(output=("b",))
    q.add_relation("r1", r1, owners[0])
    q.add_relation("r2", r2, owners[1])
    return q


def chain_query(owners=(ALICE, BOB, ALICE)):
    """r1(24) -- r2(4) -- r3(512): one node shape per back-end winner,
    so ``auto`` routes a genuinely mixed plan."""
    rng = np.random.default_rng(3)
    specs = [
        ("r1", ("a", "b"), 24, owners[0]),
        ("r2", ("b", "c"), 4, owners[1]),
        ("r3", ("c", "d"), 512, owners[2]),
    ]
    q = JoinAggregateQuery(output=("b",))
    for name, attrs, n, owner in specs:
        rel = AnnotatedRelation(
            attrs,
            [(int(x), int(y)) for x, y in rng.integers(0, 6, (n, 2))],
            rng.integers(1, 9, n),
            RING,
        )
        q.add_relation(name, rel, owner)
    return q


class TestEstimatorBoundary:
    """Each back-end must win somewhere, and ties must be ties."""

    def test_linear_wins_square_shapes(self):
        # Balanced cross-owner nodes: DH-OPRF's O(m+n) group elements
        # beat the PSI's per-bin leaf OTs and garbled trees by 2-3x.
        for m, n in [(16, 16), (24, 24), (64, 64)]:
            assert node_cost(m, n, "linear") < node_cost(m, n, "yannakakis")

    def test_yannakakis_wins_tiny_parent_large_plain_child(self):
        # Few cuckoo bins (parent side) keep the PSI cheap, while the
        # linear path pays a child-sized share + OEP regardless.  (4,
        # 256) left the list when the OEP's networks shrank to their
        # true size with one-word switches: the PSI wins there up to a
        # parent of 2 rows only (test_boundary_rows).
        for m, n in [(2, 256), (4, 512), (8, 512)]:
            assert node_cost(m, n, "yannakakis") < node_cost(m, n, "linear")

    @pytest.mark.parametrize(
        "n, last",
        [(256, 3), (512, 14), (1024, 36)],
        ids=["256", "512", "1024"],
    )
    def test_boundary_rows(self, n, last):
        # The largest parent a plain child of n rows still sends to the
        # PSI: 2 / 13 / 42 before Gilboa's triangle, bit-packed OPPRF
        # slots, 5-bit leaves and the truncated first network (the last
        # cheapens the linear path's OEP into a parent-sized output
        # most), 100 / 201 / 403 while the linear path's OEP ran padded
        # networks of two-word switches, 50 / 100 / 213 while a bin's
        # tokens were compared by a
        # 54-AND garbled eq, 36 / 80 / 177 while the OPPRF hints were per-bin
        # polynomials padded to the worst bin, 18 / 40 / 90 while a
        # DH-OPRF element was 256 bytes, 17 /
        # 39 / 87 while shared bin outputs were masked in the circuit,
        # 25 / 55 / 123 while the bin circuits' input labels crossed as
        # OT corrections, 32 / 72 / 159 while the OT extension's ``u``
        # was kappa bits per OT (IKNP) rather than kappa / 4, 20 / 45 /
        # 100 while an AND's table was half-gates' 32 B, 24 / 51 / 112
        # while the bin circuits garbled Alice's payload.
        wins = [
            m
            for m in range(1, 512)
            if node_cost(m, n, "yannakakis") < node_cost(m, n, "linear")
        ]
        assert wins == list(range(1, last + 1))

    def test_same_owner_nodes_are_exact_ties(self):
        # Same-owner folds never reach the PSI/DH-OPRF dispatch, so the
        # two back-ends price (and execute) identically.
        for m, n in [(4, 256), (24, 24)]:
            assert node_cost(m, n, "yannakakis", same_owner=True) == (
                node_cost(m, n, "linear", same_owner=True)
            )

    def test_node_costs_cover_both_backends(self):
        q = two_relation_query(24, 24)
        costs = estimate_node_costs(
            q.plan(), {n: len(r) for n, r in q.relations.items()}, q.owners
        )
        assert costs  # at least one fold/semijoin node
        for per_backend in costs.values():
            assert sorted(per_backend) == sorted(BACKENDS)


class TestRouting:
    def test_forced_policies_are_uniform(self):
        q = two_relation_query(24, 24)
        for concrete in BACKENDS:
            routes = q.backend_assignments(concrete)
            assert routes and set(routes.values()) == {concrete}

    def test_auto_picks_linear_on_square_cross_owner(self):
        q = two_relation_query(24, 24)
        assert "linear" in q.backend_assignments("auto").values()

    def test_auto_tie_breaks_to_yannakakis(self):
        # Same-owner everywhere -> every node is an exact tie -> the
        # paper's protocol wins the tie deterministically.
        q = two_relation_query(24, 24, owners=(ALICE, ALICE))
        routes = q.backend_assignments("auto")
        assert routes and set(routes.values()) == {"yannakakis"}

    @pytest.mark.parametrize(
        "ell, winner, prices",
        [
            (32, "linear", {"yannakakis": 81_194, "linear": 78_340}),
            (48, "yannakakis", {"yannakakis": 96_296, "linear": 98_070}),
        ],
    )
    def test_auto_routes_at_the_relations_ring_width(self, ell, winner, prices):
        # Parent 40 x child 1024 (104 while AND tables were
        # half-gates', 120 while the bin circuits garbled Alice's
        # payload, 190 while the OPPRF hints were padded polynomials,
        # 240 while a bin's tokens were compared by a garbled eq, 420
        # while the OEP ran padded networks of two-word switches, 56
        # before the wire's true widths; both widths route 56 linear
        # now),
        # cross-owner, both plain: the fold's winner depends on the
        # ring width, so routing every query at the default ell = 32
        # sent this one to the dearer back-end at ell = 48 while the
        # estimator priced it at its own width.
        q = two_relation_query(40, 1024, ring=IntegerRing(ell))
        sizes = {n: len(r) for n, r in q.relations.items()}
        assert estimate_node_costs(
            q.plan(), sizes, q.owners, params=q.ring_params()
        ) == {"fold/r2->r1": prices}
        assert q.backend_assignments("auto") == {"fold/r2->r1": winner}

    def test_auto_rejects_mixed_ring_widths(self):
        q = two_relation_query(8, 8)
        q.relations["r2"].semiring = IntegerRing(48)
        with pytest.raises(ValueError, match="ring width"):
            q.backend_assignments("auto")

    def test_auto_is_deterministic(self):
        q = two_relation_query(24, 24)
        assert q.backend_assignments("auto") == q.backend_assignments("auto")

    def test_mixed_plan_exists(self):
        # One node shape per winner (see TestEstimatorBoundary) in a
        # single chain query -> auto routes a genuinely mixed plan.
        q = chain_query()
        routes = q.backend_assignments("auto")
        assert set(routes.values()) == {"yannakakis", "linear"}
        # ... and the mixed plan still computes the right answer.
        engine = make_engine(seed=11)
        engine.backend = "auto"
        result, _ = q.run_secure(engine)
        assert result.semantically_equal(q.run_plain())

    def test_scalar_children_are_never_dispatched(self):
        # R1(a, x) and R2(b, y) share no attribute, so both semijoins of
        # the output-(a, b) plan have scalar children: they join by the
        # same sharing and Gilboa products under either back-end, so
        # auto ties to the paper's protocol and a linear route leaks
        # nothing and sends no DH-OPRF message.
        rng = np.random.default_rng(2)
        q = JoinAggregateQuery(output=("a", "b"))
        for name, attrs, n, owner in [
            ("R1", ("a", "x"), 10, ALICE), ("R2", ("b", "y"), 6, BOB),
        ]:
            rows = [(int(u), int(v)) for u, v in rng.integers(0, 5, (n, 2))]
            rel = AnnotatedRelation(attrs, rows, rng.integers(1, 9, n), RING)
            q.add_relation(name, rel, owner)
        auto = q.backend_assignments("auto")
        assert len(auto) == 2 and set(auto.values()) == {"yannakakis"}
        linear = q.backend_assignments("linear")
        report = audit_plan(compile_plan(q.plan(), q.owners, backends=linear))
        assert [n.dispatched for n in report.nodes] == [False, False]
        assert report.summary == frozenset()
        ctx = Context(Mode.SIMULATED, seed=3)
        result, _ = q.set_backend("linear").run_secure(Engine(ctx))
        assert result.semantically_equal(q.run_plain())
        assert not any("dhoprf" in m.label for m in ctx.transcript.messages)

    def test_route_backends_rejects_unknown_policy(self):
        q = two_relation_query(8, 8)
        with pytest.raises(ValueError):
            route_backends(
                q.plan(),
                {n: len(r) for n, r in q.relations.items()},
                q.owners,
                backend="bogus",
            )

    def test_set_backend_validates(self):
        q = two_relation_query(8, 8)
        for policy in BACKEND_POLICIES:
            assert q.set_backend(policy) is q
        with pytest.raises(ValueError):
            q.set_backend("bogus")

    def test_engine_override_beats_query_setting(self):
        q = two_relation_query(24, 24).set_backend("yannakakis")
        engine = make_engine(seed=1)
        engine.backend = "linear"
        assert set(q._effective_backends(engine).values()) == {"linear"}
        engine.backend = None
        assert set(q._effective_backends(engine).values()) == {"yannakakis"}


@pytest.mark.parametrize("backend", ["yannakakis", "linear", "auto"])
class TestCorrectness:
    def test_cross_owner_matches_plaintext(self, backend):
        q = two_relation_query(20, 15, seed=7).set_backend(backend)
        result, _ = q.run_secure(make_engine(seed=7))
        assert result.semantically_equal(q.run_plain())

    def test_reverse_ownership(self, backend):
        q = two_relation_query(
            12, 18, owners=(BOB, ALICE), seed=9
        ).set_backend(backend)
        result, _ = q.run_secure(make_engine(seed=9))
        assert result.semantically_equal(q.run_plain())

    def test_empty_child(self, backend):
        q = two_relation_query(10, 0, seed=2).set_backend(backend)
        result, _ = q.run_secure(make_engine(seed=2))
        assert result.semantically_equal(q.run_plain())

    @pytest.mark.real
    def test_real_mode_small(self, backend):
        q = two_relation_query(6, 5, seed=4).set_backend(backend)
        result, _ = q.run_secure(make_engine(Mode.REAL, seed=4))
        assert result.semantically_equal(q.run_plain())


class TestBackendsDiffer:
    def test_transcripts_actually_differ(self):
        """The two back-ends are distinct protocols: same results,
        different transcripts (message labels disjoint on the join)."""
        labels = {}
        for backend in BACKENDS:
            q = two_relation_query(16, 16, seed=5).set_backend(backend)
            engine = make_engine(seed=5)
            q.run_secure(engine)
            labels[backend] = {
                m.label for m in engine.ctx.transcript.messages
            }
        assert any(
            "dhoprf" in lbl for lbl in labels["linear"]
        ), labels["linear"]
        assert not any(
            "dhoprf" in lbl for lbl in labels["yannakakis"]
        )


class TestTracePin:
    def run_traced(self, q, backend):
        tracer = ExecutionTrace()
        engine = Engine(
            Context(Mode.SIMULATED, seed=13),
            tracer=tracer,
        )
        engine.backend = backend
        q.run_secure(engine)
        return tracer.to_json()

    def test_trace_records_backend_and_estimate(self):
        q = two_relation_query(24, 24, seed=6)
        blob = self.run_traced(q, "auto")
        routed = {
            n["label"]: n
            for n in blob["nodes"]
            if "backend" in n
        }
        assert routed, "no fold/semijoin node carried a backend"
        # The trace's per-node choices are exactly the planner's.
        expected = q.backend_assignments("auto")
        assert {
            lbl: n["backend"] for lbl, n in routed.items()
        } == expected
        for n in routed.values():
            assert n["est_bytes"] >= 0

    def test_trace_shows_mixed_backend_plan(self):
        # Acceptance pin: a traced auto run whose nodes carry BOTH
        # back-ends, with the choice made by the estimator.
        q = chain_query()
        blob = self.run_traced(q, "auto")
        chosen = {
            n["label"]: n["backend"]
            for n in blob["nodes"]
            if "backend" in n
        }
        assert set(chosen.values()) == {"yannakakis", "linear"}
        assert chosen == q.backend_assignments("auto")

    def test_trace_choice_is_deterministic(self):
        q = two_relation_query(24, 24, seed=6)
        pick = lambda blob: [  # noqa: E731
            (n["label"], n["backend"])
            for n in blob["nodes"]
            if "backend" in n
        ]
        assert pick(self.run_traced(q, "auto")) == pick(
            self.run_traced(q, "auto")
        )


class TestEstimateExactness:
    def test_linear_route_is_byte_exact(self):
        q = two_relation_query(24, 24, seed=8).set_backend("linear")
        engine = make_engine(seed=8)
        result, stats = q.run_secure(engine)
        est = estimate_query_cost(q, out_size=len(result))
        assert est.total == stats.total_bytes

    def test_auto_route_is_byte_exact(self):
        q = two_relation_query(24, 24, seed=8).set_backend("auto")
        engine = make_engine(seed=8)
        result, stats = q.run_secure(engine)
        est = estimate_query_cost(q, out_size=len(result))
        assert est.total == stats.total_bytes
