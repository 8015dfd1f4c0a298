"""The two-phase (original Yannakakis) ablation: same results, higher
cost than the paper's reduce-first modification."""

import numpy as np
import pytest

from repro.core import SecureRelation, secure_yannakakis
from repro.exec.ir import SemijoinStep
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import (
    build_plan,
    build_two_phase_plan,
    execute_plan,
    naive_join_aggregate,
)

RING = IntegerRing(32)


def make_inputs(seed=0, n=30):
    rng = np.random.default_rng(seed)
    rels = {}
    for name, attrs in {
        "R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d"),
    }.items():
        tuples = [
            tuple(int(v) for v in rng.integers(0, 8, 2)) for _ in range(n)
        ]
        rels[name] = AnnotatedRelation(
            attrs, tuples, rng.integers(0, 20, n), RING
        )
    return rels


def plans(output=("d",)):
    h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d")})
    tree = find_free_connex_tree(h, set(output))
    return build_plan(tree, output), build_two_phase_plan(tree, output)


class TestEquivalence:
    def test_plain_executors_agree(self):
        rels = make_inputs()
        three, two = plans()
        expect = naive_join_aggregate(rels, ["d"])
        assert execute_plan(three, rels).semantically_equal(expect)
        assert execute_plan(two, rels).semantically_equal(expect)

    def test_two_phase_semijoins_whole_tree(self):
        three, two = plans()

        def semijoins(plan):
            return [s for s in plan.steps if isinstance(s, SemijoinStep)]

        # The passes run first, over the unreduced tree's attributes.
        assert two.steps[:4] == tuple(semijoins(two))
        assert len(semijoins(two)) >= len(semijoins(three))
        assert len(semijoins(two)) == 4  # 2 edges x 2 passes
        assert all(s.shared_attrs for s in semijoins(two))
        assert two.join_order == three.join_order

    def test_secure_two_phase_matches(self):
        rels = make_inputs(seed=1, n=12)
        _, two = plans()
        expect = naive_join_aggregate(rels, ["d"])
        engine = Engine(Context(Mode.SIMULATED, seed=2))
        sec = {
            n: SecureRelation.from_annotated(
                ALICE if i % 2 == 0 else BOB, rels[n]
            )
            for i, n in enumerate(sorted(rels))
        }
        result, _ = secure_yannakakis(engine, sec, two)
        assert result.semantically_equal(expect)


class TestCost:
    def test_reduce_first_is_cheaper(self):
        """The paper's Section 6.4 remark, measured: semijoining before
        reducing pays for operators the reduce phase would have
        eliminated."""
        rels = make_inputs(seed=3, n=40)

        def run(plan):
            engine = Engine(Context(Mode.SIMULATED, seed=4))
            sec = {
                n: SecureRelation.from_annotated(
                    ALICE if i % 2 == 0 else BOB, rels[n]
                )
                for i, n in enumerate(sorted(rels))
            }
            _, stats = secure_yannakakis(engine, sec, plan)
            return stats.total_bytes

        three, two = plans()
        # exact: EXPERIMENTS.md's ablation table quotes this pair (4.0x)
        assert (run(three), run(two)) == (243_479, 972_304)
