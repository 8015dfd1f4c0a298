"""The execution-plan IR.

An :class:`ExecPlan` is a DAG of typed :class:`Step` nodes over named
*dataflow slots* (an environment of intermediate values).  Each step
declares the slots it ``reads``, ``writes`` and ``deletes``; the plan
derives the dependency edges from those declarations:

* a read depends on the slot's last writer (RAW);
* a write depends on every read since the last write (WAR), so a step
  may not clobber a slot another step still needs;
* repeated writes chain through the readers in between (WAW follows
  from WAR + RAW).

Step ids are the steps' positions, ``0..n-1``, and every dependency
points backwards: the step tuple is the one execution order, and
:attr:`Step.label` the one spelling of a node's name.  Steps are frozen
dataclasses so plans are hashable, comparable and serialisable:
:meth:`ExecPlan.to_json` / :meth:`ExecPlan.from_json` round-trip through
plain dicts.

Slot naming scheme:

=====================  ===================================================
``{relation}``         a :class:`~repro.core.relation.SecureRelation`
``shares:{relation}``  its annotation shares (oblivious-join step 1)
``revealed:{relation}``its revealed nonzero ``(pos, tuple)`` list
``joined``             Alice's local star join ``J*`` (with index cols)
``factor:{relation}``  the relation's OEP-aligned annotation factor
``result``             the :class:`ObliviousJoinResult`
``output``             ``(result, revealed_values)`` after the final open
=====================  ===================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple, Type

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
    """One operator invocation in the DAG."""

    id: int

    kind = "step"

    @property
    def label(self) -> str:
        return self.kind

    @property
    def section(self) -> Optional[str]:
        """The transcript section this step's messages belong to
        (``None`` for steps that emit outside any section)."""
        return None

    @property
    def restartable(self) -> bool:
        """Whether the runtime supervisor may retry this step from its
        node-granular checkpoint after a retryable
        :class:`~repro.runtime.aborts.ProtocolAbort`.  Every current
        step kind is a pure function of the (checkpointed) slot
        environment, engine state and context RNG, so all are
        restartable; a future operator with external side effects
        overrides this to opt out."""
        return True

    @property
    def reads(self) -> Tuple[str, ...]:
        return ()

    @property
    def writes(self) -> Tuple[str, ...]:
        return ()

    @property
    def deletes(self) -> Tuple[str, ...]:
        return ()

    def to_json(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            d[f.name] = getattr(self, f.name)
        return d


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

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.relation,)


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
    def label(self) -> str:
        return f"fold/{self.child}->{self.parent}"

    @property
    def section(self) -> Optional[str]:
        return "reduce"

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.child, self.parent)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.parent,)

    @property
    def deletes(self) -> Tuple[str, ...]:
        return (self.child,)


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

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.node,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.node,)


@dataclass(frozen=True)
class SemijoinStep(Step):
    """Zero out the target's dangling annotations via a PSI with the
    filter relation (semijoin phase, Section 6.2)."""

    target: str = ""
    filter: str = ""
    #: Join back-end for the semijoin's reduce-join (see
    #: :data:`repro.core.semijoin.BACKENDS`).
    backend: str = "yannakakis"

    kind = "semijoin"

    @property
    def label(self) -> str:
        return f"semi/{self.target}<-{self.filter}"

    @property
    def section(self) -> Optional[str]:
        return "semijoin"

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.target, self.filter)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (self.target,)


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

    @property
    def reads(self) -> Tuple[str, ...]:
        return (self.relation,)

    @property
    def writes(self) -> Tuple[str, ...]:
        return (f"shares:{self.relation}", f"revealed:{self.relation}")


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

    @property
    def reads(self) -> Tuple[str, ...]:
        return tuple(self.relations) + tuple(
            f"revealed:{r}" for r in self.relations
        )

    @property
    def writes(self) -> Tuple[str, ...]:
        return ("joined",)


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

    @property
    def reads(self) -> Tuple[str, ...]:
        return ("joined", f"shares:{self.relation}")

    @property
    def writes(self) -> Tuple[str, ...]:
        return (f"factor:{self.relation}",)


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

    @property
    def reads(self) -> Tuple[str, ...]:
        return ("joined",) + tuple(
            f"factor:{r}" for r in self.relations
        )

    @property
    def writes(self) -> Tuple[str, ...]:
        return ("result",)


@dataclass(frozen=True)
class RevealResultStep(Step):
    """Open the result annotations to Alice (full-query entry point; a
    shared pipeline feeding a composition circuit omits this step)."""

    kind = "reveal_result"

    @property
    def label(self) -> str:
        return "result"

    @property
    def reads(self) -> Tuple[str, ...]:
        return ("result",)

    @property
    def writes(self) -> Tuple[str, ...]:
        return ("output",)


_STEP_KINDS: Dict[str, Type[Step]] = {
    cls.kind: cls
    for cls in (
        ShareStep,
        ReduceFoldStep,
        AggregateStep,
        SemijoinStep,
        RevealStep,
        JoinStep,
        AlignStep,
        ProductStep,
        RevealResultStep,
    )
}


def _detuple(value: Any) -> Any:
    """JSON arrays back into the tuples the frozen dataclasses expect."""
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def step_from_json(d: Dict[str, Any]) -> Step:
    kind = d.get("kind")
    cls = _STEP_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown step kind: {kind!r}")
    kwargs = {
        f.name: _detuple(d[f.name]) for f in fields(cls) if f.name in d
    }
    return cls(**kwargs)


@dataclass
class ExecPlan:
    """The compiled DAG: steps plus derived dependency structure."""

    steps: Tuple[Step, ...]
    inputs: Tuple[str, ...]
    result_slot: str = "result"
    name: str = ""
    deps: Dict[int, Tuple[int, ...]] = field(init=False, repr=False)
    stage_of: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if [s.id for s in self.steps] != list(range(len(self.steps))):
            raise ValueError("step ids must be 0..n-1 in tuple order")
        self.deps = self._compute_deps()
        self.stage_of = self._compute_stages()

    def _compute_deps(self) -> Dict[int, Tuple[int, ...]]:
        deps: Dict[int, set] = {s.id: set() for s in self.steps}
        last_writer: Dict[str, int] = {}
        readers_since: Dict[str, List[int]] = {}
        for step in self.steps:
            for slot in step.reads:
                if slot in last_writer:
                    deps[step.id].add(last_writer[slot])
                readers_since.setdefault(slot, []).append(step.id)
            for slot in step.writes + step.deletes:
                for reader in readers_since.get(slot, ()):
                    if reader != step.id:
                        deps[step.id].add(reader)
                if slot in last_writer:
                    deps[step.id].add(last_writer[slot])
                last_writer[slot] = step.id
                readers_since[slot] = []
        return {i: tuple(sorted(d)) for i, d in deps.items()}

    def _compute_stages(self) -> Dict[int, int]:
        """Longest-path level of each node: stage 0 has no dependencies,
        stage ``k`` depends on something in stage ``k - 1``.  Steps are
        topologically ordered by construction, so one forward pass."""
        stage: Dict[int, int] = {}
        for step in self.steps:
            ds = self.deps[step.id]
            stage[step.id] = (
                1 + max(stage[d] for d in ds) if ds else 0
            )
        return stage

    @property
    def stages(self) -> List[List[Step]]:
        """Steps grouped by stage, in stage order; within a stage, by id."""
        n_stages = 1 + max(self.stage_of.values(), default=-1)
        out: List[List[Step]] = [[] for _ in range(n_stages)]
        for step in self.steps:
            out[self.stage_of[step.id]].append(step)
        return out

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "result_slot": self.result_slot,
            "steps": [s.to_json() for s in self.steps],
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "ExecPlan":
        return cls(
            steps=tuple(step_from_json(s) for s in d["steps"]),
            inputs=tuple(d["inputs"]),
            result_slot=d.get("result_slot", "result"),
            name=d.get("name", ""),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, s: str) -> "ExecPlan":
        return cls.from_json(json.loads(s))

    def describe(self) -> str:
        """Human-readable stage listing (for logs and the CLI)."""
        lines = [f"ExecPlan {self.name or '<anonymous>'}: "
                 f"{len(self.steps)} steps, {len(self.stages)} stages"]
        for k, group in enumerate(self.stages):
            for s in group:
                ds = ",".join(str(d) for d in self.deps[s.id]) or "-"
                lines.append(
                    f"  stage {k}: #{s.id} {s.kind:<13} {s.label:<28}"
                    f" deps[{ds}]"
                )
        return "\n".join(lines)
