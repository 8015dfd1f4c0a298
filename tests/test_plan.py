"""The 3-phase plan compiler: step structure on known trees."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.yannakakis.plan as plan_module
from repro.exec.ir import AggregateStep, ReduceFoldStep, SemijoinStep
from repro.relalg import Hypergraph, JoinTree
from repro.yannakakis.plan import build_plan

SRC = Path(repro.__file__).resolve().parent


def chain_tree(root="R3"):
    h = Hypergraph(
        {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d")}
    )
    return JoinTree(h, [("R1", "R2"), ("R2", "R3")], root)


def of_kind(plan, cls):
    return [s for s in plan.steps if isinstance(s, cls)]


class TestReducePhase:
    def test_full_collapse_when_output_at_root(self):
        plan = build_plan(chain_tree(), ("d",))
        folds = of_kind(plan, ReduceFoldStep)
        assert [(f.child, f.parent) for f in folds] == [
            ("R1", "R2"), ("R2", "R3"),
        ]
        assert list(plan.reduced_attrs) == ["R3"]
        assert of_kind(plan, SemijoinStep) == []
        assert plan.join_order == ()

    def test_fold_aggregates_to_join_attrs(self):
        plan = build_plan(chain_tree(), ("d",))
        first = plan.steps[0]
        assert isinstance(first, ReduceFoldStep)
        assert first.agg_attrs == ("b",)  # only the join attribute

    def test_stop_keeps_output_attrs(self):
        # Output spread over both ends: R1 must stop, not fold.
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b", "c"))
        assert of_kind(plan, ReduceFoldStep) == []
        assert set(plan.reduced_attrs) == {"R1", "R2"}

    def test_root_aggregated_to_output(self):
        plan = build_plan(chain_tree(), ())
        # everything folds into the root, which then aggregates to ()
        last = plan.steps[-1]
        assert isinstance(last, AggregateStep)
        assert last.node == "R3" and last.attrs == ()

    def test_invalid_tree_raises(self):
        # Grouping by a and c on a chain cannot compile on any root.
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        for root in ("R1", "R2"):
            tree = JoinTree(h, [("R1", "R2")], root)
            with pytest.raises(ValueError):
                build_plan(tree, ("a", "c"))

    def test_reduced_attrs_are_output_only(self):
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b", "c"))
        for node, attrs in plan.reduced_attrs.items():
            assert set(attrs) <= {"a", "b", "c"}


class TestSemijoinPhase:
    def test_two_passes_bottom_up_then_top_down(self):
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b", "c"))
        assert plan.steps == (
            SemijoinStep(id=0, target="R2", filter="R1", shared_attrs=("b",)),
            SemijoinStep(id=1, target="R1", filter="R2", shared_attrs=("b",)),
        )

    def test_join_steps_bottom_up(self):
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b", "c"))
        assert plan.join_order == (("R1", "R2"),)

    def test_star_semijoin_count(self):
        h = Hypergraph(
            {"F": ("a", "b"), "D1": ("a", "x"), "D2": ("b", "y")}
        )
        tree = JoinTree(h, [("F", "D1"), ("F", "D2")], "F")
        plan = build_plan(tree, ("a", "b", "x", "y"))
        # D1, D2 stop (they carry output attrs outside F):
        # 2 bottom-up + 2 top-down semijoins
        assert len(of_kind(plan, SemijoinStep)) == 4

    def test_dimensions_contained_in_parent_fold(self):
        # A child whose attributes all lie inside the parent folds even
        # when they are output attributes (F' subset of Fp).
        h = Hypergraph(
            {"F": ("a", "b"), "D1": ("a",), "D2": ("b",)}
        )
        tree = JoinTree(h, [("F", "D1"), ("F", "D2")], "F")
        plan = build_plan(tree, ("a", "b"))
        assert list(plan.reduced_attrs) == ["F"]
        assert of_kind(plan, SemijoinStep) == []


class TestPlanMetadata:
    def test_root_detected(self):
        plan = build_plan(chain_tree(), ("d",))
        assert plan.root == "R3"

    def test_reduced_parent_consistency(self):
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b", "c"))
        assert plan.root == "R2"
        assert plan.join_order == (("R1", "R2"),)

    def test_describe_round_trips_step_names(self):
        plan = build_plan(chain_tree(), ("d",))
        text = plan.describe()
        assert "R1" in text and "SEMIJOIN" not in text  # fully collapsed


class TestOneVocabulary:
    """The plan is written in the execution IR's own steps: the plan
    module imports :mod:`repro.exec.ir`, so the compiler may name the
    plan type for typing only."""

    def test_plan_module_defines_no_step_class(self):
        classes = {
            name
            for name, value in vars(plan_module).items()
            if isinstance(value, type)
            and value.__module__ == plan_module.__name__
        }
        assert classes == {"YannakakisPlan"}

    def test_compiler_imports_the_plan_for_typing_only(self):
        tree = ast.parse((SRC / "exec" / "compiler.py").read_text())
        typing_only = {
            id(node)
            for guard in ast.walk(tree)
            if isinstance(guard, ast.If)
            and getattr(guard.test, "id", None) == "TYPE_CHECKING"
            for node in ast.walk(guard)
        }
        runtime = [
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and "yannakakis" in (node.module or "")
            and id(node) not in typing_only
        ]
        assert runtime == []

    @pytest.mark.parametrize(
        "module", ["repro.yannakakis.plan", "repro.exec.compiler"]
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"], timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_two_phase_semijoins_see_unreduced_attributes(self):
        # R1(a, b) folds into R2 on b for output (c,); the two-phase
        # order semijoins the unreduced pair on b first.
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b", "c")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        two = plan_module.build_two_phase_plan(tree, ("c",))
        assert [s.kind for s in two.steps] == [
            "semijoin", "semijoin", "reduce_fold", "aggregate",
        ]
        assert two.steps[0].shared_attrs == ("b",)
        assert [s.id for s in two.steps] == list(range(len(two.steps)))

    def test_scalar_semijoin_records_no_shared_attrs(self):
        h = Hypergraph({"R1": ("a", "x"), "R2": ("b", "y")})
        tree = JoinTree(h, [("R1", "R2")], "R2")
        plan = build_plan(tree, ("a", "b"))
        semis = of_kind(plan, SemijoinStep)
        assert len(semis) == 2
        assert all(s.shared_attrs == () for s in semis)
