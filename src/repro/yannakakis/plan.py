"""The 3-phase Yannakakis plan (Section 3.2, modified version).

The paper splits the classical two-phase Yannakakis algorithm into

1. **Reduce** — a bottom-up pass that removes all non-output attributes,
   folding each fully-processed node into its parent via
   ``R_Fp <- R_Fp ⋈⊗ pi_F'^(+)(R_F)`` when ``F' ⊆ Fp``, or stopping with a
   local aggregation ``R_F <- pi_F'^(+)(R_F)`` when ``F'`` has attributes
   outside the parent (all of which are output attributes, by
   free-connexity).
2. **Semijoin** — a bottom-up then top-down pass of annotated semijoins
   that removes (secure version: zero-annotates) dangling tuples.
3. **Full join** — a bottom-up pass of annotated joins; the root relation
   is then exactly the query result.

Both the plaintext executor and the secure protocol run the *same* plan,
which is what makes the plaintext algorithm a correctness oracle for the
secure one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..relalg.hypergraph import Hypergraph
from ..relalg.join_tree import JoinTree, is_free_connex

__all__ = [
    "ReduceFold",
    "ReduceAggregate",
    "SemijoinStep",
    "JoinStep",
    "YannakakisPlan",
    "build_plan",
    "candidate_plans",
]


@dataclass(frozen=True)
class ReduceFold:
    """``R_parent <- R_parent ⋈⊗ pi_agg_attrs^(+)(R_child)``; child removed."""

    child: str
    parent: str
    agg_attrs: Tuple[str, ...]


@dataclass(frozen=True)
class ReduceAggregate:
    """``R_node <- pi_attrs^(+)(R_node)``; node stays with new attributes."""

    node: str
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class SemijoinStep:
    """``R_target <- R_target ⋉⊗ R_filter``."""

    target: str
    filter: str


@dataclass(frozen=True)
class JoinStep:
    """``R_parent <- R_parent ⋈⊗ R_child``; child removed."""

    child: str
    parent: str


@dataclass
class YannakakisPlan:
    """A fully-ordered 3-phase plan over a rooted join tree.

    ``semijoin_first`` marks the *original* two-phase Yannakakis order
    (semijoins on the unreduced relations, then reduce, then full join)
    — kept as an ablation of the paper's Section 6.4 remark that
    semijoining before reducing "would incur unnecessary computation".
    """

    tree: JoinTree
    output: Tuple[str, ...]
    reduce_steps: List[object]
    #: Attribute sets of the nodes that survive the reduce phase.
    reduced_attrs: Dict[str, Tuple[str, ...]]
    #: Parent map of the reduced tree (root maps to ``None``).
    reduced_parent: Dict[str, Optional[str]]
    semijoin_steps: List[SemijoinStep]
    join_steps: List[JoinStep]
    root: str = ""
    semijoin_first: bool = False

    def __post_init__(self):
        if not self.root:
            roots = [n for n, p in self.reduced_parent.items() if p is None]
            if len(roots) != 1:
                raise ValueError(
                    "reduced_parent must describe a single-rooted tree; "
                    f"found roots {roots!r}"
                )
            self.root = roots[0]

    @property
    def reduced_nodes(self) -> List[str]:
        return list(self.reduced_attrs)

    def describe(self) -> str:
        """Human-readable plan listing, one step per line."""
        lines = [f"root: {self.tree.root}  output: {list(self.output)}"]
        lines.append("-- reduce --")
        for s in self.reduce_steps:
            if isinstance(s, ReduceFold):
                lines.append(
                    f"{s.parent} <- {s.parent} JOIN agg_{list(s.agg_attrs)}({s.child})"
                )
            else:
                lines.append(f"{s.node} <- agg_{list(s.attrs)}({s.node})")
        lines.append("-- semijoin --")
        for s in self.semijoin_steps:
            lines.append(f"{s.target} <- {s.target} SEMIJOIN {s.filter}")
        lines.append("-- full join --")
        for s in self.join_steps:
            lines.append(f"{s.parent} <- {s.parent} JOIN {s.child}")
        return "\n".join(lines)


def build_plan(tree: JoinTree, output: Sequence[str]) -> YannakakisPlan:
    """Compile a rooted free-connex join tree into a 3-phase plan.

    Raises ``ValueError`` if the rooted tree violates the free-connex
    condition — callers should obtain the tree from
    :func:`repro.relalg.find_free_connex_tree`.
    """
    output_set = set(output)

    # --- Phase 1: reduce ------------------------------------------------
    # Bottom-up over the rooted tree.  A childless node folds into its
    # parent when its needed attributes fit there, else it stops with a
    # local aggregation.  A node with remaining (stopped) children — and
    # the root — may still aggregate away attributes needed by no other
    # remaining relation and not in the output: this is the standard
    # aggregation push-down, valid by semiring distributivity, and it
    # extends the paper's reduce phase to Cartesian-product components.
    reduce_steps: List[object] = []
    attrs: Dict[str, FrozenSet[str]] = {
        n: tree.attrs(n) for n in tree.nodes
    }
    removed: set = set()
    remaining_children: Dict[str, set] = {
        n: set(tree.children[n]) for n in tree.nodes
    }

    for node in tree.bottom_up():
        parent = tree.parent[node]
        parent_attrs = attrs[parent] if parent is not None else frozenset()
        if not remaining_children[node] and parent is not None:
            f_prime = (output_set | parent_attrs) & attrs[node]
            if f_prime <= parent_attrs:
                reduce_steps.append(
                    ReduceFold(node, parent, tuple(sorted(f_prime)))
                )
                removed.add(node)
                remaining_children[parent].discard(node)
                continue
        needed = output_set | parent_attrs
        for child in remaining_children[node]:
            needed |= attrs[child]
        new_attrs = frozenset(needed & attrs[node])
        if new_attrs != attrs[node]:
            reduce_steps.append(
                ReduceAggregate(node, tuple(sorted(new_attrs)))
            )
            attrs[node] = new_attrs

    reduced = [n for n in tree.nodes if n not in removed]
    for n in reduced:
        if not attrs[n] <= output_set:
            raise ValueError(
                f"reduce leaves non-output attributes in {n}: "
                f"{set(attrs[n]) - output_set} — this rooted join tree "
                "does not witness the free-connex property"
            )
    reduced_attrs = {n: tuple(sorted(attrs[n])) for n in reduced}
    reduced_parent: Dict[str, Optional[str]] = {}
    for n in reduced:
        p = tree.parent[n]
        while p is not None and p in removed:  # cannot happen, but be safe
            p = tree.parent[p]
        reduced_parent[n] = p

    # --- Phase 2: semijoins ----------------------------------------------
    # Bottom-up: parent <- parent ⋉ child; top-down: child <- child ⋉ parent.
    reduced_set = set(reduced)
    bottom_up = [n for n in tree.bottom_up() if n in reduced_set]
    semijoin_steps: List[SemijoinStep] = []
    for n in bottom_up:
        p = reduced_parent[n]
        if p is not None:
            semijoin_steps.append(SemijoinStep(target=p, filter=n))
    for n in reversed(bottom_up):
        p = reduced_parent[n]
        if p is not None:
            semijoin_steps.append(SemijoinStep(target=n, filter=p))

    # --- Phase 3: full join ------------------------------------------------
    join_steps = [
        JoinStep(child=n, parent=reduced_parent[n])
        for n in bottom_up
        if reduced_parent[n] is not None
    ]

    return YannakakisPlan(
        tree=tree,
        output=tuple(output),
        reduce_steps=reduce_steps,
        reduced_attrs=reduced_attrs,
        reduced_parent=reduced_parent,
        semijoin_steps=semijoin_steps,
        join_steps=join_steps,
    )


def candidate_plans(
    hypergraph: Hypergraph, output: Sequence[str]
) -> Iterator[YannakakisPlan]:
    """Lazily compile every (join tree, root) of the query on which the
    reduce phase succeeds — the one candidate loop, behind
    :func:`repro.query.planner.choose_plan` and
    :func:`repro.relalg.find_free_connex_tree`.  Yields nothing iff the
    query is not free-connex (GYO decides up front, so stopping early
    never reads as "no plan").  Trees, roots and each node's children —
    the order its folds run in — all come in name order.
    """
    if not is_free_connex(hypergraph, output):
        return
    for edges in map(sorted, hypergraph.join_trees()):
        for root in sorted(hypergraph.edges):
            try:
                yield build_plan(JoinTree(hypergraph, edges, root), output)
            except ValueError:
                continue


def build_two_phase_plan(
    tree: JoinTree, output: Sequence[str]
) -> YannakakisPlan:
    """The ORIGINAL Yannakakis order: two semijoin passes over the
    *unreduced* tree first, then the reduce folds, then the full join.

    Semantically equivalent to :func:`build_plan`, but the semijoins run
    on relations whose non-output attributes have not been aggregated
    away — the extra cost the paper's Section 6.4 remark warns about.
    Exposed for the ablation benchmark only.
    """
    base = build_plan(tree, output)
    semijoins: List[SemijoinStep] = []
    order = tree.bottom_up()
    for n in order:
        p = tree.parent[n]
        if p is not None:
            semijoins.append(SemijoinStep(target=p, filter=n))
    for n in reversed(order):
        p = tree.parent[n]
        if p is not None:
            semijoins.append(SemijoinStep(target=n, filter=p))
    return YannakakisPlan(
        tree=tree,
        output=base.output,
        reduce_steps=base.reduce_steps,
        reduced_attrs=base.reduced_attrs,
        reduced_parent=base.reduced_parent,
        semijoin_steps=semijoins,
        join_steps=base.join_steps,
        semijoin_first=True,
    )
