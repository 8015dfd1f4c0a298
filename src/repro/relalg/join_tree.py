"""Rooted join trees and the free-connex property (Section 3.1).

A join-aggregate query ``pi_O (⋈ R_F)`` is *free-connex* iff its hypergraph
is acyclic and admits a rooted join tree such that for every output
attribute ``A`` and non-output attribute ``B``, ``TOP(B)`` is not a proper
ancestor of ``TOP(A)`` (``TOP(X)`` is the highest tree node containing
``X``).  Equivalently (Bagan, Durand & Grandjean), the hypergraph stays
acyclic after adding the output attribute set as a virtual hyperedge —
both characterisations are implemented here and cross-checked in tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .hypergraph import Hypergraph

__all__ = ["JoinTree", "is_free_connex", "find_free_connex_tree"]


class JoinTree:
    """A rooted join tree over a hypergraph's relations.

    Nodes are relation names; each carries the attribute set of its
    hyperedge.  The tree is immutable; phases that shrink the tree (the
    reduce phase) build plan objects instead of mutating it.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        edges: Sequence[Tuple[str, str]],
        root: str,
    ):
        self.hypergraph = hypergraph
        self.root = root
        names = set(hypergraph.edges)
        if root not in names:
            raise ValueError(f"root {root!r} is not a relation in the query")
        adj: Dict[str, List[str]] = {n: [] for n in names}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        # Orient away from the root with a BFS.
        self.parent: Dict[str, Optional[str]] = {root: None}
        self.children: Dict[str, List[str]] = {n: [] for n in names}
        self.depth: Dict[str, int] = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[str] = []
            for u in frontier:
                for v in adj[u]:
                    if v not in self.parent:
                        self.parent[v] = u
                        self.children[u].append(v)
                        self.depth[v] = self.depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(self.parent) != len(names):
            raise ValueError("join tree edges do not span all relations")

    @property
    def nodes(self) -> List[str]:
        return list(self.hypergraph.edges)

    def attrs(self, node: str) -> FrozenSet[str]:
        return self.hypergraph.edges[node]

    def bottom_up(self) -> List[str]:
        """Post-order: every node appears after all of its children."""
        order: List[str] = []

        def visit(n: str) -> None:
            for c in self.children[n]:
                visit(c)
            order.append(n)

        visit(self.root)
        return order

    def top_down(self) -> List[str]:
        """Pre-order: every node appears before all of its children."""
        return list(reversed(self.bottom_up()))

    def is_ancestor(self, a: str, b: str) -> bool:
        """True iff ``a`` is a *proper* ancestor of ``b``."""
        node = self.parent[b]
        while node is not None:
            if node == a:
                return True
            node = self.parent[node]
        return False

    def top_of(self, attr: str) -> str:
        """The highest node containing ``attr``.  Unique because the
        running-intersection property makes the containing nodes a
        connected subtree."""
        best: Optional[str] = None
        for n in self.nodes:
            if attr in self.attrs(n):
                if best is None or self.depth[n] < self.depth[best]:
                    best = n
        if best is None:
            raise KeyError(f"attribute {attr!r} not in any relation")
        return best

    def satisfies_free_connex(self, output: Iterable[str]) -> bool:
        """Condition (2) of Section 3.1 for this rooted tree."""
        output = set(output)
        non_output = self.hypergraph.vertices - output
        if not output:
            return True
        tops_out = [self.top_of(a) for a in output]
        for b in non_output:
            top_b = self.top_of(b)
            if any(self.is_ancestor(top_b, t) for t in tops_out):
                return False
        return True

    def __repr__(self) -> str:
        parts = [
            f"{n}->{self.parent[n]}" for n in self.nodes if self.parent[n]
        ]
        return f"JoinTree(root={self.root}, {', '.join(parts)})"


def is_free_connex(hypergraph: Hypergraph, output: Iterable[str]) -> bool:
    """Free-connex test via the virtual-hyperedge characterisation: the
    query is free-connex iff the hypergraph is acyclic both with and
    without the output set added as an extra hyperedge."""
    output = set(output)
    if not output <= set(hypergraph.vertices):
        raise ValueError(
            f"output attributes {output - set(hypergraph.vertices)} "
            "do not appear in the query"
        )
    if not hypergraph.is_acyclic():
        return False
    if not output:
        return True
    return hypergraph.with_edge("__output__", output).is_acyclic()


def find_free_connex_tree(
    hypergraph: Hypergraph, output: Iterable[str]
) -> Optional[JoinTree]:
    """A rooted join tree on which the 3-phase plan compiles (the reduce
    phase removes every non-output attribute), or ``None`` if the query
    is not free-connex: the tree of the first of
    :func:`repro.yannakakis.plan.candidate_plans`.  Trees satisfying the
    paper's TOP-ancestor condition (2) always compile; the compile-based
    test additionally admits Cartesian-product components.
    """
    from ..yannakakis.plan import candidate_plans

    first = next(candidate_plans(hypergraph, tuple(sorted(output))), None)
    return first.tree if first is not None else None
