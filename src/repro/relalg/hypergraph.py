"""Query hypergraphs and acyclicity testing (Section 3.1).

A join query is modelled as a hypergraph whose vertices are attributes and
whose hyperedges are relations.  Acyclicity is decided with the classical
GYO (Graham / Yu–Ozsoyoglu) reduction; join trees are constructed with the
maximum-weight spanning tree method of Bernstein & Goodman (weight =
number of shared attributes), which yields a join tree iff the hypergraph
is alpha-acyclic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["Hypergraph"]


class Hypergraph:
    """A named hypergraph: each hyperedge has a unique name (the relation
    name) and a set of attribute vertices."""

    def __init__(self, edges: Dict[str, Iterable[str]]):
        if not edges:
            raise ValueError("hypergraph needs at least one hyperedge")
        self.edges: Dict[str, FrozenSet[str]] = {
            name: frozenset(attrs) for name, attrs in edges.items()
        }
        self.vertices: FrozenSet[str] = frozenset().union(*self.edges.values())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}({', '.join(sorted(attrs))})"
            for name, attrs in self.edges.items()
        )
        return f"Hypergraph[{body}]"

    # ------------------------------------------------------------------
    # acyclicity
    # ------------------------------------------------------------------

    def is_acyclic(self) -> bool:
        """GYO reduction: repeatedly remove ear vertices (vertices in a
        single hyperedge) and ear edges (edges contained in another edge).
        The hypergraph is alpha-acyclic iff the reduction empties it."""
        edges: List[FrozenSet[str]] = list(self.edges.values())
        changed = True
        while changed and len(edges) > 1:
            changed = False
            # Remove vertices that occur in exactly one hyperedge.
            counts: Dict[str, int] = {}
            for e in edges:
                for v in e:
                    counts[v] = counts.get(v, 0) + 1
            lonely = {v for v, c in counts.items() if c == 1}
            if lonely:
                new_edges = [e - lonely for e in edges]
                if new_edges != edges:
                    edges = new_edges
                    changed = True
            # Remove edges contained in some other edge (including dups).
            kept: List[FrozenSet[str]] = []
            for i, e in enumerate(edges):
                contained = any(
                    (e <= f) and (i != j) and (e != f or i > j)
                    for j, f in enumerate(edges)
                )
                if not contained:
                    kept.append(e)
            if len(kept) != len(edges):
                edges = kept
                changed = True
        return len(edges) == 1

    # ------------------------------------------------------------------
    # join trees
    # ------------------------------------------------------------------

    def _is_valid_join_tree(self, tree: Sequence[Tuple[str, str]]) -> bool:
        """Check the running-intersection property: for every attribute,
        the tree nodes containing it induce a connected subtree — i.e.
        (``tree`` being a forest) exactly one tree edge fewer than nodes
        lies inside them."""
        holders = [
            {n for n, attrs in self.edges.items() if v in attrs}
            for v in self.vertices
        ]
        return all(
            sum(a in h and b in h for a, b in tree) == len(h) - 1
            for h in holders
        )

    def join_trees(self) -> Iterator[List[Tuple[str, str]]]:
        """Lazily yield every (unrooted) join tree as a list of name
        pairs; nothing if the hypergraph is cyclic.

        The join trees are exactly the maximum-weight spanning trees of
        the complete intersection graph (weight = shared attributes, so
        Cartesian components attach anywhere through weight-0 edges).
        Kruskal's scan over the edges, heaviest first, branches on every
        edge that joins two components: taking it always extends to a
        maximum-weight tree; skipping it does iff an equally heavy later
        edge can still close the same gap.  Every branch therefore ends
        in a tree, and the order depends on relation names only.
        """
        names = sorted(self.edges)
        pairs = sorted(
            (-len(self.edges[a] & self.edges[b]), a, b)
            for a, b in combinations(names, 2)
        )

        def merged(comp: Dict[str, str], a: str, b: str) -> Dict[str, str]:
            return {n: comp[a] if c == comp[b] else c for n, c in comp.items()}

        def grow(
            i: int, comp: Dict[str, str], tree: List[Tuple[str, str]]
        ) -> Iterator[List[Tuple[str, str]]]:
            if len(tree) == len(names) - 1:
                yield tree
                return
            w, a, b = pairs[i]
            reach = comp
            if comp[a] != comp[b]:
                yield from grow(i + 1, merged(comp, a, b), tree + [(a, b)])
                for w2, c, d in pairs[i + 1 :]:
                    if w2 == w:
                        reach = merged(reach, c, d)
            if reach[a] == reach[b]:
                yield from grow(i + 1, comp, tree)

        trees = grow(0, {n: n for n in names}, [])
        first = next(trees)
        if self._is_valid_join_tree(first):  # one fails iff all do: cyclic
            yield first
            yield from trees

    def with_edge(self, name: str, attrs: Iterable[str]) -> "Hypergraph":
        """A copy with one extra hyperedge (used by the free-connex test,
        which adds the output attributes as a virtual hyperedge)."""
        if name in self.edges:
            raise ValueError(f"edge name {name!r} already present")
        new = dict(self.edges)
        new[name] = frozenset(attrs)
        return Hypergraph(new)
