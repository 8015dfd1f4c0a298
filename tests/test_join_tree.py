"""Join trees, the free-connex property, and the two characterisations."""

import numpy as np
import pytest

from repro.fuzz.generator import generate_instance
from repro.mpc.params import SecurityParams
from repro.query import choose_plan
from repro.relalg import (
    Hypergraph,
    JoinTree,
    find_free_connex_tree,
    is_free_connex,
)
from repro.yannakakis.plan import build_plan

from .conftest import chain, star


def paper_example():
    """Example 1.1: R1(person, coins, state), R2(person, disease, cost),
    R3(disease, class)."""
    return Hypergraph(
        {
            "R1": ("person", "coins", "state"),
            "R2": ("person", "disease", "cost"),
            "R3": ("disease", "class"),
        }
    )


class TestJoinTreeStructure:
    def test_orientation_and_depth(self):
        h = paper_example()
        tree = JoinTree(h, [("R1", "R2"), ("R2", "R3")], root="R3")
        assert tree.parent["R3"] is None
        assert tree.parent["R2"] == "R3"
        assert tree.parent["R1"] == "R2"
        assert tree.depth["R1"] == 2

    def test_bottom_up_children_first(self):
        h = paper_example()
        tree = JoinTree(h, [("R1", "R2"), ("R2", "R3")], root="R3")
        order = tree.bottom_up()
        assert order.index("R1") < order.index("R2") < order.index("R3")
        assert tree.top_down() == list(reversed(order))

    def test_top_of(self):
        h = paper_example()
        tree = JoinTree(h, [("R1", "R2"), ("R2", "R3")], root="R3")
        assert tree.top_of("disease") == "R3"
        assert tree.top_of("person") == "R2"
        assert tree.top_of("state") == "R1"
        with pytest.raises(KeyError):
            tree.top_of("nope")

    def test_is_ancestor_is_proper(self):
        h = paper_example()
        tree = JoinTree(h, [("R1", "R2"), ("R2", "R3")], root="R3")
        assert tree.is_ancestor("R3", "R1")
        assert not tree.is_ancestor("R1", "R3")
        assert not tree.is_ancestor("R2", "R2")

    def test_rejects_unknown_root(self):
        with pytest.raises(ValueError):
            JoinTree(paper_example(), [("R1", "R2"), ("R2", "R3")], "R9")

    def test_rejects_non_spanning(self):
        with pytest.raises(ValueError):
            JoinTree(paper_example(), [("R1", "R2")], "R2")


class TestFreeConnex:
    def test_paper_example_class_output(self):
        h = paper_example()
        assert is_free_connex(h, {"class"})
        tree = find_free_connex_tree(h, {"class"})
        assert tree is not None
        assert tree.satisfies_free_connex({"class"})

    def test_paper_counterexample_class_coins(self):
        # Grouping by {class, coins} breaks free-connexity (Section 3.1).
        h = paper_example()
        assert not is_free_connex(h, {"class", "coins"})
        assert find_free_connex_tree(h, {"class", "coins"}) is None

    def test_empty_output_always_free_connex_when_acyclic(self):
        h = paper_example()
        assert is_free_connex(h, set())
        assert find_free_connex_tree(h, set()) is not None

    def test_cyclic_never_free_connex(self):
        tri = Hypergraph(
            {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("A", "C")}
        )
        assert not is_free_connex(tri, {"A"})

    def test_all_attributes_output(self):
        h = paper_example()
        assert is_free_connex(h, set(h.vertices))

    def test_output_must_exist(self):
        with pytest.raises(ValueError):
            is_free_connex(paper_example(), {"ghost"})

    def test_q9_shape_not_free_connex(self):
        # The Q9 situation (Section 8.1): grouping by attributes from two
        # different "ends" of the tree is acyclic but not free-connex.
        h = Hypergraph(
            {
                "supplier": ("sk", "nk"),
                "lineitem": ("ok", "pk", "sk"),
                "orders": ("ok", "year"),
                "part": ("pk",),
            }
        )
        assert h.is_acyclic()
        assert not is_free_connex(h, {"nk", "year"})
        # Fixing one side (the per-nation decomposition) restores it.
        assert is_free_connex(h, {"year"})


def compiles_somewhere(h, out):
    """Reference search: try every (join tree, root), no early exit."""
    found = False
    for edges in h.join_trees():
        for root in h.edges:
            try:
                build_plan(JoinTree(h, edges, root), tuple(sorted(out)))
                found = True
            except ValueError:
                pass
    return found


class TestCharacterisationsAgree:
    def test_random_hypergraphs(self):
        """The virtual-edge characterisation and the exhaustive rooted
        tree search must agree on random small queries."""
        rng = np.random.default_rng(7)
        agree = 0
        for _ in range(120):
            n_rel = int(rng.integers(2, 5))
            n_attr = int(rng.integers(2, 6))
            attrs = [f"A{i}" for i in range(n_attr)]
            edges = {}
            for i in range(n_rel):
                k = int(rng.integers(1, min(3, n_attr) + 1))
                pick = rng.choice(n_attr, size=k, replace=False)
                edges[f"R{i}"] = tuple(attrs[j] for j in pick)
            h = Hypergraph(edges)
            out_k = int(rng.integers(0, len(h.vertices) + 1))
            out = set(
                rng.choice(sorted(h.vertices), size=out_k, replace=False)
            )
            witness = find_free_connex_tree(h, out)
            characterised = is_free_connex(h, out)
            assert (witness is not None) == characterised, (edges, out)
            assert compiles_somewhere(h, out) == characterised, (edges, out)
            if witness is not None:
                # The paper's TOP-ancestor condition is sufficient: any
                # rooted tree satisfying it must compile.
                if witness.satisfies_free_connex(out):
                    build_plan(witness, tuple(sorted(out)))
            agree += 1
        assert agree == 120

    def test_planner_never_contradicts_gyo(self):
        """``choose_plan`` raises, and ``find_free_connex_tree`` is
        ``None``, iff GYO says not free-connex: on fuzz seeds 0-1 x 150
        under their own and a random output set, and on shapes wider
        than any candidate budget (the parent's 2,000-tree cap called a
        7-relation chain "not free-connex")."""
        rng = np.random.default_rng(5)
        cases = []
        for seed in (0, 1):
            for index in range(150):
                instance = generate_instance(seed, index)
                h = instance.hypergraph()
                cases.append((h, set(instance.output)))
                attrs = sorted(h.vertices)
                k = int(rng.integers(1, len(attrs) + 1))
                cases.append((h, set(rng.choice(attrs, k, replace=False))))
        for n in (7, 8, 10):
            h = chain(n)
            cases += [(h, {"a0"}), (h, {"a3", "a4"}), (h, {"a0", f"a{n}"})]
        h = star(8)
        cases += [(h, {"x0"}), (h, {"k", "x0", "x1"}), (h, {"x0", "x1"})]

        verdicts = set()
        for h, out in cases:
            free_connex = is_free_connex(h, out)
            verdicts.add(free_connex)
            assert (find_free_connex_tree(h, out) is not None) == free_connex
            owners = dict.fromkeys(h.edges, "alice")
            sizes = dict.fromkeys(h.edges, 3)
            args = h, sorted(out), owners, sizes, SecurityParams(ell=32)
            if free_connex:
                assert choose_plan(*args).output == tuple(sorted(out))
            else:
                with pytest.raises(ValueError, match="not free-connex"):
                    choose_plan(*args)
                if len(h.edges) <= 5:
                    assert not compiles_somewhere(h, out), (h, out)
        assert verdicts == {True, False}
