"""A 5-relation walkthrough in the spirit of the paper's Example 3.2:
reduce folds the lower part of the tree, a stopped node aggregates away
its non-output attribute, and the semijoin + full-join phases run over
the surviving output-only relations."""

import numpy as np
import pytest

from repro.core import SecureRelation, secure_yannakakis
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
    is_free_connex,
)
from repro.exec.ir import AggregateStep, ReduceFoldStep, SemijoinStep
from repro.yannakakis import build_plan, naive_join_aggregate


RING = IntegerRing(32)

SCHEMA = {
    "R1": ("A", "B"),
    "R2": ("A", "C"),
    "R3": ("B", "D", "E"),
    "R4": ("D", "F", "G"),
    "R5": ("D", "E", "F"),
}
OUTPUT = ("B", "D", "E", "F")


def make_instance(seed=11):
    rng = np.random.default_rng(seed)
    rels = {}
    for name, attrs in SCHEMA.items():
        n = int(rng.integers(3, 12))
        tuples = [
            tuple(int(v) for v in rng.integers(0, 3, len(attrs)))
            for _ in range(n)
        ]
        rels[name] = AnnotatedRelation(
            attrs, tuples, rng.integers(0, 9, n), RING
        )
    return rels


class TestStructure:
    def test_query_is_free_connex(self):
        h = Hypergraph(SCHEMA)
        assert h.is_acyclic()
        assert is_free_connex(h, set(OUTPUT))

    def test_plan_has_all_three_phases(self):
        h = Hypergraph(SCHEMA)
        tree = find_free_connex_tree(h, set(OUTPUT))
        plan = build_plan(tree, OUTPUT)
        folds = [s for s in plan.steps if isinstance(s, ReduceFoldStep)]
        aggs = [s for s in plan.steps if isinstance(s, AggregateStep)]
        # R2 and R1 fold away; G is aggregated out of R4.
        assert {f.child for f in folds} >= {"R2"}
        assert any("G" not in s.attrs for s in aggs)
        # multiple output-only nodes remain
        assert any(isinstance(s, SemijoinStep) for s in plan.steps)
        assert plan.join_order
        # Everything left is output-only.
        for attrs in plan.reduced_attrs.values():
            assert set(attrs) <= set(OUTPUT)

    def test_non_output_attrs_gone_before_semijoins(self):
        h = Hypergraph(SCHEMA)
        tree = find_free_connex_tree(h, set(OUTPUT))
        plan = build_plan(tree, OUTPUT)
        surviving = set().union(
            *(set(a) for a in plan.reduced_attrs.values())
        )
        assert surviving == set(OUTPUT)


class TestSemantics:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_plaintext_matches_naive(self, seed):
        from repro.yannakakis import yannakakis

        rels = make_instance(seed)
        got = yannakakis(rels, list(OUTPUT))
        expect = naive_join_aggregate(rels, list(OUTPUT))
        assert got.semantically_equal(expect)

    def test_secure_matches_naive(self):
        rels = make_instance(14)
        h = Hypergraph(SCHEMA)
        tree = find_free_connex_tree(h, set(OUTPUT))
        plan = build_plan(tree, OUTPUT)
        engine = Engine(Context(Mode.SIMULATED, seed=15))
        owners = {
            name: (ALICE if i % 2 else BOB)
            for i, name in enumerate(sorted(SCHEMA))
        }
        sec = {
            n: SecureRelation.from_annotated(owners[n], rels[n])
            for n in rels
        }
        result, _ = secure_yannakakis(engine, sec, plan)
        expect = naive_join_aggregate(rels, list(OUTPUT))
        assert result.semantically_equal(expect)
