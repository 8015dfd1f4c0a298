"""The execution-plan IR.

An :class:`ExecPlan` is a tuple of typed :class:`Step` nodes.  Step ids
are the steps' positions, ``0..n-1``: the tuple is the one execution
order, and :attr:`Step.label` the one spelling of a node's name.  Steps
are frozen dataclasses so plans are hashable and comparable.  A plan
lives only in the process that compiles it
(:func:`repro.exec.compiler.compile_plan`): it has no file format.  The
slots steps read and write live in :mod:`repro.exec.scheduler`, the one
place that executes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "Step",
    "ShareStep",
    "ReduceFoldStep",
    "AggregateStep",
    "SemijoinStep",
    "RevealStep",
    "JoinStep",
    "AlignStep",
    "ProductStep",
    "RevealResultStep",
    "ExecPlan",
]


@dataclass(frozen=True)
class Step:
    """One operator invocation in the plan."""

    id: int

    kind = "step"

    @property
    def reduce_join(self) -> Optional[Tuple[str, str, bool]]:
        """``(parent, child, scalar)`` of the reduce-join a fold or a
        semijoin ends in (Section 6.2), ``None`` for other steps: a
        fold's child is its aggregated child, a semijoin's the filter's
        support, and ``scalar`` says it keeps no attribute.  The
        estimator, the router, the trace and the audit read it here."""
        return None

    @property
    def label(self) -> str:
        return self.kind

    @property
    def section(self) -> Optional[str]:
        """The transcript section this step's messages belong to
        (``None`` for steps that emit outside any section)."""
        return None


@dataclass(frozen=True)
class ShareStep(Step):
    """Bring one input relation into the environment (no messages for
    already-shared inputs; plain inputs are secret-shared lazily by the
    first consuming operator)."""

    relation: str = ""
    owner: str = ""

    kind = "share"

    @property
    def label(self) -> str:
        return f"input/{self.relation}"


@dataclass(frozen=True)
class ReduceFoldStep(Step):
    """Aggregate a child relation onto the join attributes and fold it
    into its parent's annotations (reduce phase, Section 6.1)."""

    child: str = ""
    parent: str = ""
    agg_attrs: Tuple[str, ...] = ()
    #: Join back-end for the fold's reduce-join (see
    #: :data:`repro.core.semijoin.BACKENDS`); only cross-owner nodes
    #: behave differently.
    backend: str = "yannakakis"

    kind = "reduce_fold"

    @property
    def reduce_join(self) -> Tuple[str, str, bool]:
        return self.parent, self.child, not self.agg_attrs

    @property
    def label(self) -> str:
        return f"fold/{self.child}->{self.parent}"

    @property
    def section(self) -> Optional[str]:
        return "reduce"


@dataclass(frozen=True)
class AggregateStep(Step):
    """Project a relation onto its output attributes, summing annotations
    of collapsing tuples (root aggregation of the reduce phase)."""

    node: str = ""
    attrs: Tuple[str, ...] = ()

    kind = "aggregate"

    @property
    def label(self) -> str:
        return f"agg/{self.node}"

    @property
    def section(self) -> Optional[str]:
        return "reduce"


@dataclass(frozen=True)
class SemijoinStep(Step):
    """Zero out the target's dangling annotations via a PSI with the
    filter relation (semijoin phase, Section 6.2)."""

    target: str = ""
    filter: str = ""
    #: The attributes target and filter share; none makes the filter a
    #: scalar child, which never reaches the back-end dispatch.
    shared_attrs: Tuple[str, ...] = ()
    #: Join back-end for the semijoin's reduce-join (see
    #: :data:`repro.core.semijoin.BACKENDS`).
    backend: str = "yannakakis"

    kind = "semijoin"

    @property
    def reduce_join(self) -> Tuple[str, str, bool]:
        return self.target, self.filter, not self.shared_attrs

    @property
    def label(self) -> str:
        return f"semi/{self.target}<-{self.filter}"

    @property
    def section(self) -> Optional[str]:
        return "semijoin"


@dataclass(frozen=True)
class RevealStep(Step):
    """Oblivious-join step 1 for one relation: share its annotations and
    reveal the nonzero sub-relation to Alice."""

    relation: str = ""

    kind = "reveal"

    @property
    def label(self) -> str:
        return f"reveal/{self.relation}"

    @property
    def section(self) -> Optional[str]:
        return "full_join"


@dataclass(frozen=True)
class JoinStep(Step):
    """Oblivious-join step 2: Alice's local star join over the revealed
    sub-relations; ``|J*|`` (optionally padded) goes to Bob."""

    relations: Tuple[str, ...] = ()
    join_order: Tuple[Tuple[str, str], ...] = ()
    pad_out_to: int = 0

    kind = "join"

    @property
    def label(self) -> str:
        return "join"

    @property
    def section(self) -> Optional[str]:
        return "full_join"


@dataclass(frozen=True)
class AlignStep(Step):
    """Oblivious-join step 3a for one relation: OEP-align its annotation
    shares with the join rows."""

    relation: str = ""

    kind = "align"

    @property
    def label(self) -> str:
        return f"oep/{self.relation}"

    @property
    def section(self) -> Optional[str]:
        return "full_join"


@dataclass(frozen=True)
class ProductStep(Step):
    """Oblivious-join step 3b: multiply the aligned factors into the
    result annotations and strip the hidden index columns."""

    relations: Tuple[str, ...] = ()

    kind = "product"

    @property
    def label(self) -> str:
        return "prod"

    @property
    def section(self) -> Optional[str]:
        return "full_join"


@dataclass(frozen=True)
class RevealResultStep(Step):
    """Open the result annotations to Alice (full-query entry point; a
    shared pipeline feeding a composition circuit omits this step)."""

    kind = "reveal_result"

    @property
    def label(self) -> str:
        return "result"


@dataclass
class ExecPlan:
    """The compiled plan: its step tuple is the one execution order."""

    steps: Tuple[Step, ...]
    inputs: Tuple[str, ...]
    result_slot: str = "result"
    name: str = ""

    def __post_init__(self) -> None:
        if [s.id for s in self.steps] != list(range(len(self.steps))):
            raise ValueError("step ids must be 0..n-1 in tuple order")
