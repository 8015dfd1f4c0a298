"""The query frontend: builder API and cost-based planner."""

import time
from itertools import islice

import numpy as np
import pytest

from repro.bench.estimator import estimate_plan_cost
from repro.fuzz.generator import generate_instance
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.params import SecurityParams
from repro.query import JoinAggregateQuery, choose_plan
from repro.query.planner import MAX_CANDIDATES
from repro.relalg import AnnotatedRelation, Hypergraph, IntegerRing
from repro.relalg.semiring import BooleanSemiring
from repro.exec.ir import ReduceFoldStep
from repro.yannakakis.plan import candidate_plans

from .conftest import chain, star

RING = IntegerRing(32)


def rel(attrs, tuples, annots=None):
    return AnnotatedRelation(attrs, tuples, annots, RING)


def paper_query():
    return (
        JoinAggregateQuery(output=["cls"])
        .add_relation(
            "R1", rel(("p", "coins"), [(1, 20), (2, 50)], [80, 50]),
            owner=ALICE,
        )
        .add_relation(
            "R2",
            rel(
                ("p", "d"), [(1, 10), (1, 11), (2, 10), (3, 10)],
                [100, 30, 200, 70],
            ),
            owner=BOB,
        )
        .add_relation(
            "R3", rel(("d", "cls"), [(10, "resp"), (11, "resp")]),
            owner=ALICE,
        )
    )


class TestBuilder:
    def test_duplicate_relation_rejected(self):
        q = JoinAggregateQuery(output=["a"])
        q.add_relation("R", rel(("a",), [(1,)]))
        with pytest.raises(ValueError):
            q.add_relation("R", rel(("a",), [(1,)]))

    def test_free_connex_detection(self):
        assert paper_query().is_free_connex()
        tri = (
            JoinAggregateQuery(output=["a"])
            .add_relation("R1", rel(("a", "b"), [(1, 2)]))
            .add_relation("R2", rel(("b", "c"), [(2, 3)]))
            .add_relation("R3", rel(("a", "c"), [(1, 3)]))
        )
        assert not tri.is_free_connex()
        with pytest.raises(ValueError):
            tri.plan()

    def test_input_size(self):
        assert paper_query().input_size == 2 + 4 + 2

    def test_plan_cached_until_relations_change(self):
        q = paper_query()
        assert q.plan() is q.plan()

    def test_run_plain_equals_naive(self):
        q = paper_query()
        assert q.run_plain().semantically_equal(q.run_naive())

    def test_run_plain_over_boolean_semiring(self):
        """Planning takes the width from ``Semiring.bit_length``: a
        Boolean query (no ``.ell``) plans and runs in plaintext."""
        sr = BooleanSemiring()
        q = (
            JoinAggregateQuery(output=["b"])
            .add_relation(
                "R1", AnnotatedRelation(("a", "b"), [(1, 2), (3, 2)], None, sr)
            )
            .add_relation(
                "R2", AnnotatedRelation(("b", "c"), [(2, 4)], None, sr),
                owner=BOB,
            )
        )
        assert q.run_plain().to_dict() == {(2,): 1}
        assert q.ring_params().ell == 1

    def test_swap_owners_pins_the_plan(self):
        """Alone, the chooser would root the mirrored query at the other
        relation (``TestPlanner.test_sizes_weight_the_choice``'s query
        at equal sizes: the root follows Alice)."""
        q = (
            JoinAggregateQuery(output=["b"])
            .add_relation("R1", rel(("a", "b"), [(1, 2)]), owner=ALICE)
            .add_relation("R2", rel(("b", "c"), [(2, 4)]), owner=BOB)
        )
        m = q.swap_owners()
        assert m.plan() is q.plan()
        sizes = {n: len(r) for n, r in m.relations.items()}
        args = m.hypergraph(), m.output, m.owners, sizes, m.ring_params()
        assert choose_plan(*args).root != m.plan().root

    def test_run_secure(self):
        q = paper_query()
        engine = Engine(Context(Mode.SIMULATED, seed=1))
        result, stats = q.run_secure(engine)
        assert result.semantically_equal(q.run_plain())
        assert stats.total_bytes > 0

    def test_run_secure_shared_keeps_annotations_hidden(self):
        q = paper_query()
        engine = Engine(Context(Mode.SIMULATED, seed=2))
        res = q.run_secure_shared(engine)
        expect = q.run_plain().to_dict()
        got = {
            t: int(v)
            for t, v in zip(res.tuples, res.annotations.reconstruct())
            if int(v)
        }
        assert got == expect


PARAMS = SecurityParams(ell=32)


def plan_bytes(plan, owners, sizes):
    return estimate_plan_cost(plan, sizes, owners, 0, PARAMS).total


class TestPlanner:
    def test_prefers_same_owner_folds(self):
        # R1, R2, R3 all share b, so any of the three trees and roots
        # compiles: the cheapest crosses parties as rarely as the split
        # allows, and is the minimum of the one cost model.
        h = Hypergraph(
            {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("b", "d")}
        )
        sizes = dict.fromkeys(h.edges, 8)
        candidates = list(candidate_plans(h, ("b",)))
        assert len(candidates) == 9
        for split in (ALICE, ALICE, BOB), (ALICE, BOB, ALICE), (BOB,) * 3:
            owners = dict(zip(h.edges, split))
            plan = choose_plan(h, ("b",), owners, sizes, PARAMS)
            crossing = [
                s for s in plan.steps if isinstance(s, ReduceFoldStep)
                and owners[s.child] != owners[s.parent]
            ]
            assert len(crossing) == len(set(split)) - 1
            assert plan_bytes(plan, owners, sizes) == min(
                plan_bytes(c, owners, sizes) for c in candidates
            )

    def test_sizes_weight_the_choice(self):
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        owners = {"R1": ALICE, "R2": BOB}

        def root(sizes):
            return choose_plan(h, ("b",), owners, sizes, PARAMS).tree.root

        # Cuckoo-hashing the parent and revealing the root both scale
        # with the root's size: the small side is the root.
        assert root({"R1": 10_000, "R2": 1}) == "R2"
        assert root({"R1": 1, "R2": 10_000}) == "R1"

    def test_choice_ignores_declaration_order(self):
        """Trees, roots and each node's children are enumerated by
        name, so the whole plan — not only its (root, edge set) — is
        the same however ``add_relation`` was ordered: on fuzz seeds
        0-1 x 100, under the reversed and a random order."""
        rng = np.random.default_rng(11)
        moved = 0
        for seed in (0, 1):
            for index in range(100):
                inst = generate_instance(seed, index)
                h = inst.hypergraph()
                args = inst.output, inst.owners, inst.sizes()
                params = SecurityParams(ell=inst.ell)
                plan = choose_plan(h, *args, params)
                names = list(h.edges)
                orders = [names[::-1], list(rng.permutation(names))]
                for order in orders:
                    moved += order != names
                    shuffled = Hypergraph({n: h.edges[n] for n in order})
                    again = choose_plan(shuffled, *args, params)
                    assert again.describe() == plan.describe(), (seed, index)
        assert moved > 350

    def test_output_order_preserved(self):
        h = Hypergraph({"R1": ("a", "b", "c")})
        plan = choose_plan(h, ("c", "a"), {"R1": ALICE}, {"R1": 1}, PARAMS)
        assert plan.output == ("c", "a")

    def test_non_free_connex_raises(self):
        h = Hypergraph(
            {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("a", "c")}
        )
        owners = {"R1": ALICE, "R2": BOB, "R3": ALICE}
        with pytest.raises(ValueError, match="not free-connex"):
            choose_plan(h, ("a",), owners, dict.fromkeys(owners, 1), PARAMS)

    @pytest.mark.parametrize(
        "h,seconds", [(chain(7), 0.05), (chain(8), 0.05), (chain(10), 0.05),
                      (star(8), 2.0)],
        ids=["chain7", "chain8", "chain10", "star8"],
    )
    def test_wide_queries_plan(self, h, seconds):
        """The parent's 2,000-spanning-tree cap turned the 7-relation
        chain into "not free-connex"; the budget now only bounds how
        many of the star's 8 * 8^6 candidates are priced."""
        names = list(h.edges)
        owners = {n: (ALICE, BOB)[i % 2] for i, n in enumerate(names)}
        sizes = {n: 10 + i for i, n in enumerate(names)}
        output = sorted(h.edges[names[0]])
        choose_plan(h, output, owners, sizes, PARAMS)  # warm the templates
        t0 = time.perf_counter()
        plan = choose_plan(h, output, owners, sizes, PARAMS)
        assert time.perf_counter() - t0 < seconds
        priced = islice(candidate_plans(h, output), MAX_CANDIDATES)
        assert plan_bytes(plan, owners, sizes) == min(
            plan_bytes(c, owners, sizes) for c in priced
        )

    def test_cheaper_ownership_costs_less_at_runtime(self):
        """The Section 6.5 point, measured end to end: a party holding a
        connected subtree pays less than a fully alternating split."""

        def run(owners):
            q = JoinAggregateQuery(output=["d"])
            rng = np.random.default_rng(0)
            for name, attrs in {
                "R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d"),
            }.items():
                n = 40
                tuples = [
                    tuple(int(v) for v in rng.integers(0, 10, 2))
                    for _ in range(n)
                ]
                q.add_relation(
                    name, rel(attrs, tuples, rng.integers(1, 5, n)),
                    owner=owners[name],
                )
            engine = Engine(Context(Mode.SIMULATED, seed=3))
            q.run_secure(engine)
            return engine.ctx.transcript.total_bytes

        connected = run({"R1": BOB, "R2": BOB, "R3": ALICE})
        alternating = run({"R1": ALICE, "R2": BOB, "R3": ALICE})
        assert connected < alternating
