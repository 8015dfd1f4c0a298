"""Hypergraphs, GYO acyclicity, and join-tree construction."""

from itertools import combinations, islice

import numpy as np
import pytest

from repro.relalg import Hypergraph

from .conftest import chain, star


class TestAcyclicity:
    def test_single_edge(self):
        assert Hypergraph({"R": ("A", "B")}).is_acyclic()

    def test_path_query(self):
        h = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D")})
        assert h.is_acyclic()

    def test_triangle_is_cyclic(self):
        h = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("A", "C")})
        assert not h.is_acyclic()

    def test_triangle_with_covering_edge_is_acyclic(self):
        # alpha-acyclicity: adding the covering hyperedge breaks the cycle
        h = Hypergraph(
            {
                "R1": ("A", "B"),
                "R2": ("B", "C"),
                "R3": ("A", "C"),
                "R4": ("A", "B", "C"),
            }
        )
        assert h.is_acyclic()

    def test_star_query(self):
        h = Hypergraph(
            {
                "F": ("A", "B", "C"),
                "D1": ("A", "X"),
                "D2": ("B", "Y"),
                "D3": ("C", "Z"),
            }
        )
        assert h.is_acyclic()

    def test_cycle_of_four(self):
        h = Hypergraph(
            {
                "R1": ("A", "B"),
                "R2": ("B", "C"),
                "R3": ("C", "D"),
                "R4": ("D", "A"),
            }
        )
        assert not h.is_acyclic()

    def test_duplicate_edges_ok(self):
        h = Hypergraph({"R1": ("A", "B"), "R2": ("A", "B")})
        assert h.is_acyclic()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Hypergraph({})

    def test_tpch_q9_shape_is_acyclic(self):
        h = Hypergraph(
            {
                "part": ("pk",),
                "supplier": ("sk", "nk"),
                "lineitem": ("ok", "pk", "sk"),
                "partsupp": ("pk", "sk"),
                "orders": ("ok", "od"),
            }
        )
        assert h.is_acyclic()


class TestJoinTrees:
    def test_join_tree_of_path(self):
        h = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D")})
        assert list(h.join_trees()) == [[("R1", "R2"), ("R2", "R3")]]

    def test_join_tree_of_cyclic_is_none(self):
        h = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("A", "C")})
        assert list(h.join_trees()) == []

    def test_disconnected_components_linked(self):
        h = Hypergraph({"R1": ("A",), "R2": ("B",)})
        assert list(h.join_trees()) == [[("R1", "R2")]]

    def test_single_relation_tree(self):
        assert list(Hypergraph({"R": ("A",)}).join_trees()) == [[]]

    def test_every_join_tree_is_valid(self):
        h = Hypergraph(
            {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("B", "D")}
        )
        trees = list(h.join_trees())
        assert len(trees) == 3  # every spanning tree of the B-triangle
        assert all(h._is_valid_join_tree(t) for t in trees)
        # A spanning tree that separates B's holders R1 and R2.
        path = Hypergraph(
            {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D")}
        )
        assert not path._is_valid_join_tree([("R1", "R3"), ("R2", "R3")])

    def test_join_trees_are_exactly_the_valid_spanning_trees(self):
        """Brute force over every (n-1)-subset of pairs of small random
        hypergraphs, Cartesian components included; the order is by
        name, whatever order the relations were declared in."""
        rng = np.random.default_rng(11)
        for _ in range(150):
            n_rel = int(rng.integers(2, 6))
            attrs = [f"A{i}" for i in range(int(rng.integers(1, 6)))]
            edges = {
                f"R{i}": tuple(
                    rng.choice(attrs, size=rng.integers(1, 3), replace=True)
                )
                for i in rng.permutation(n_rel)
            }
            h = Hypergraph(edges)
            names = sorted(edges)

            def spans(tree):
                reached = {names[0]}
                for _ in tree:
                    for a, b in tree:
                        if (a in reached) != (b in reached):
                            reached |= {a, b}
                return len(reached) == n_rel

            expected = [
                list(tree)
                for tree in combinations(combinations(names, 2), n_rel - 1)
                if spans(tree) and h._is_valid_join_tree(tree)
            ]
            got = list(h.join_trees())
            assert sorted(map(sorted, got)) == sorted(expected), edges
            assert bool(got) == h.is_acyclic(), edges
            assert got == list(
                Hypergraph({n: edges[n] for n in names}).join_trees()
            )

    def test_wide_queries_enumerate_lazily(self):
        assert len(list(chain(10).join_trees())) == 1
        first = list(islice(star(8).join_trees(), 500))  # of 8^6 = 262,144
        assert len({tuple(sorted(t)) for t in first}) == 500
        assert sum(1 for _ in star(5).join_trees()) == 5**3  # Cayley

    def test_with_edge(self):
        h = Hypergraph({"R": ("A", "B")})
        h2 = h.with_edge("O", ("A",))
        assert "O" in h2.edges and "O" not in h.edges
        with pytest.raises(ValueError):
            h.with_edge("R", ("A",))
