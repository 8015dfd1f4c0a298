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

The first two phases are written in the execution IR's own steps
(:mod:`repro.exec.ir`), in the order they run; this module is the one
place that order is decided.  Both the plaintext executor and the
secure protocol run the *same* steps, which is what makes the plaintext
algorithm a correctness oracle for the secure one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple, Union

from ..exec.ir import AggregateStep, ReduceFoldStep, SemijoinStep
from ..relalg.hypergraph import Hypergraph
from ..relalg.join_tree import JoinTree, is_free_connex

__all__ = [
    "PlanStep",
    "YannakakisPlan",
    "build_plan",
    "build_two_phase_plan",
    "candidate_plans",
]

#: A reduce- or semijoin-phase step.
PlanStep = Union[ReduceFoldStep, AggregateStep, SemijoinStep]


@dataclass(frozen=True)
class YannakakisPlan:
    """A fully-ordered 3-phase plan over a rooted join tree."""

    tree: JoinTree
    output: Tuple[str, ...]
    #: The reduce- and semijoin-phase steps in run order, ids ``0..n-1``
    #: (:func:`~repro.exec.compiler.compile_plan` re-numbers them).
    steps: Tuple[PlanStep, ...]
    #: Attribute sets of the nodes that survive the reduce phase.
    reduced_attrs: Dict[str, Tuple[str, ...]]
    #: The full join's bottom-up ``(child, parent)`` order.
    join_order: Tuple[Tuple[str, str], ...]

    @property
    def root(self) -> str:
        """The reduced tree's root: the join tree's, which never folds."""
        return self.tree.root

    def describe(self) -> str:
        """Human-readable plan listing, one step per line, phases in run
        order."""
        lines = [f"root: {self.root}  output: {list(self.output)}"]
        sections = [s.section for s in self.steps] + ["reduce", "semijoin"]
        for section in dict.fromkeys(sections):
            lines.append(f"-- {section} --")
            lines.extend(_spell(s) for s in self.steps if s.section == section)
        lines.append("-- full join --")
        lines.extend(f"{p} <- {p} JOIN {c}" for c, p in self.join_order)
        return "\n".join(lines)


def _spell(s: PlanStep) -> str:
    if isinstance(s, ReduceFoldStep):
        agg = f"agg_{list(s.agg_attrs)}({s.child})"
        return f"{s.parent} <- {s.parent} JOIN {agg}"
    if isinstance(s, AggregateStep):
        return f"{s.node} <- agg_{list(s.attrs)}({s.node})"
    return f"{s.target} <- {s.target} SEMIJOIN {s.filter}"


def _reduce(
    tree: JoinTree, output: Sequence[str]
) -> Tuple[List[PlanStep], Dict[str, FrozenSet[str]]]:
    """The reduce phase's steps, and the attributes of the nodes that
    survive it.

    Bottom-up over the rooted tree.  A childless node folds into its
    parent when its needed attributes fit there, else it stops with a
    local aggregation.  A node with remaining (stopped) children — and
    the root — may still aggregate away attributes needed by no other
    remaining relation and not in the output: this is the standard
    aggregation push-down, valid by semiring distributivity, and it
    extends the paper's reduce phase to Cartesian-product components.
    A fold removes only childless nodes, so a survivor's parent
    survives too.
    """
    output_set = set(output)
    steps: List[PlanStep] = []
    attrs = {n: tree.attrs(n) for n in tree.nodes}
    remaining_children = {n: set(tree.children[n]) for n in tree.nodes}

    for node in tree.bottom_up():
        parent = tree.parent[node]
        parent_attrs = attrs[parent] if parent is not None else frozenset()
        if not remaining_children[node] and parent is not None:
            f_prime = (output_set | parent_attrs) & attrs[node]
            if f_prime <= parent_attrs:
                steps.append(ReduceFoldStep(
                    id=0, child=node, parent=parent,
                    agg_attrs=tuple(sorted(f_prime)),
                ))
                del attrs[node]
                remaining_children[parent].discard(node)
                continue
        needed = output_set | parent_attrs
        for child in remaining_children[node]:
            needed |= attrs[child]
        new_attrs = frozenset(needed & attrs[node])
        if new_attrs != attrs[node]:
            steps.append(AggregateStep(
                id=0, node=node, attrs=tuple(sorted(new_attrs))
            ))
            attrs[node] = new_attrs

    for n, a in attrs.items():
        if not a <= output_set:
            raise ValueError(
                f"reduce leaves non-output attributes in {n}: "
                f"{set(a) - output_set} — this rooted join tree "
                "does not witness the free-connex property"
            )
    return steps, attrs


def _edges(
    tree: JoinTree, nodes: Dict[str, FrozenSet[str]]
) -> List[Tuple[str, str]]:
    """The tree's ``(child, parent)`` edges among ``nodes``, bottom-up."""
    return [
        (n, p)
        for n in tree.bottom_up()
        for p in [tree.parent[n]]
        if n in nodes and p is not None
    ]


def _semijoin_passes(
    tree: JoinTree, attrs: Dict[str, FrozenSet[str]]
) -> List[PlanStep]:
    """Bottom-up ``parent <- parent ⋉ child``, then top-down
    ``child <- child ⋉ parent``, over the nodes of ``attrs`` with those
    attributes."""

    def semijoin(target: str, filter: str) -> SemijoinStep:
        shared = tuple(sorted(attrs[target] & attrs[filter]))
        return SemijoinStep(
            id=0, target=target, filter=filter, shared_attrs=shared
        )

    edges = _edges(tree, attrs)
    return [semijoin(p, c) for c, p in edges] + [
        semijoin(c, p) for c, p in reversed(edges)
    ]


def _plan(
    tree: JoinTree,
    output: Sequence[str],
    steps: List[PlanStep],
    reduced: Dict[str, FrozenSet[str]],
) -> YannakakisPlan:
    return YannakakisPlan(
        tree=tree,
        output=tuple(output),
        steps=tuple(replace(s, id=i) for i, s in enumerate(steps)),
        reduced_attrs={
            n: tuple(sorted(reduced[n])) for n in tree.nodes if n in reduced
        },
        join_order=tuple(_edges(tree, reduced)),
    )


def build_plan(tree: JoinTree, output: Sequence[str]) -> YannakakisPlan:
    """Compile a rooted free-connex join tree into a 3-phase plan.

    Raises ``ValueError`` if the rooted tree violates the free-connex
    condition — callers should obtain the tree from
    :func:`repro.relalg.find_free_connex_tree`.
    """
    reduce, reduced = _reduce(tree, output)
    return _plan(tree, output, reduce + _semijoin_passes(tree, reduced),
                 reduced)


def build_two_phase_plan(
    tree: JoinTree, output: Sequence[str]
) -> YannakakisPlan:
    """The ORIGINAL Yannakakis order: two semijoin passes over the
    *unreduced* tree first, then the reduce folds, then the full join.

    Semantically equivalent to :func:`build_plan`, but the semijoins run
    on relations whose non-output attributes have not been aggregated
    away — the extra cost the paper's Section 6.4 remark warns about
    ("would incur unnecessary computation").  Kept as that ablation.
    """
    reduce, reduced = _reduce(tree, output)
    unreduced = {n: tree.attrs(n) for n in tree.nodes}
    return _plan(tree, output, _semijoin_passes(tree, unreduced) + reduce,
                 reduced)


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
