"""The public query API.

A :class:`JoinAggregateQuery` bundles the relations (each with its
owner), the output attributes, and the annotation semantics, and can be
evaluated three ways:

* ``run_plain``  — plaintext Yannakakis (the non-private baseline);
* ``run_naive``  — plaintext join-then-aggregate (oracle);
* ``run_secure`` — the secure Yannakakis protocol over a 2PC engine.

Example
-------
>>> q = (JoinAggregateQuery(output=["cls"])
...      .add_relation("R1", r1, owner=ALICE)
...      .add_relation("R2", r2, owner=BOB))
>>> result, stats = q.run_secure(engine)
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Optional, Sequence, Tuple

from ..core.join import ObliviousJoinResult
from ..core.protocol import (
    ProtocolStats,
    secure_yannakakis,
    secure_yannakakis_shared,
)
from ..core.relation import SecureRelation
from ..mpc.context import ALICE
from ..mpc.engine import Engine
from ..mpc.params import SecurityParams
from ..relalg.hypergraph import Hypergraph
from ..relalg.join_tree import is_free_connex
from ..relalg.relation import AnnotatedRelation
from ..yannakakis.plain import execute_plan
from ..yannakakis.naive import naive_join_aggregate
from ..yannakakis.plan import YannakakisPlan
from .planner import BACKEND_POLICIES, choose_plan, route_backends

__all__ = ["BACKEND_POLICIES", "JoinAggregateQuery"]


class JoinAggregateQuery:
    """A free-connex join-aggregate query over party-owned relations."""

    def __init__(self, output: Sequence[str]) -> None:
        self.output: Tuple[str, ...] = tuple(output)
        self.relations: Dict[str, AnnotatedRelation] = {}
        self.owners: Dict[str, str] = {}
        #: Join back-end policy for secure runs (``"yannakakis"`` |
        #: ``"linear"`` | ``"auto"``); an engine-level override
        #: (``engine.backend``) takes precedence.  See docs/BACKENDS.md.
        self.backend: str = "yannakakis"
        self._plan: Optional[YannakakisPlan] = None
        #: policy -> (the plan it was routed on, its route map)
        self._routes: Dict[str, Tuple[YannakakisPlan, Dict[str, str]]] = {}

    def add_relation(
        self,
        name: str,
        relation: AnnotatedRelation,
        owner: str = ALICE,
    ) -> "JoinAggregateQuery":
        if name in self.relations:
            raise ValueError(f"relation {name!r} added twice")
        self.relations[name] = relation
        self.owners[name] = owner
        self._plan = None
        return self

    def swap_owners(self) -> "JoinAggregateQuery":
        """The mirrored query: every ALICE-owned relation becomes
        BOB-owned and vice versa, pinned to this query's plan, so the
        protocol must mirror the reduce/semijoin communication between
        the parties (``tests/test_owner_symmetry.py``).  Pinned, because
        prices are *not* flip-symmetric — only Bob-owned relations
        reveal a payload in the full join, so between near-equal plans
        the root follows Alice; the five TPC-H queries keep their tree
        unaided (``tests/test_tpch.py``)."""
        from ..mpc.transcript import other_party

        mirrored = JoinAggregateQuery(self.output)
        for name, rel in self.relations.items():
            mirrored.add_relation(
                name, rel, owner=other_party(self.owners[name])
            )
        mirrored.backend = self.backend
        mirrored._plan = self.plan()
        return mirrored

    def set_backend(self, backend: str) -> "JoinAggregateQuery":
        """Select the join back-end policy for secure runs."""
        if backend not in BACKEND_POLICIES:
            raise ValueError(
                f"unknown back-end policy {backend!r}; "
                f"choose from {BACKEND_POLICIES}"
            )
        self.backend = backend
        return self

    # -- structure --------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        return Hypergraph(
            {n: r.attributes for n, r in self.relations.items()}
        )

    def is_free_connex(self) -> bool:
        return is_free_connex(self.hypergraph(), set(self.output))

    def plan(self) -> YannakakisPlan:
        """The cheapest plan by estimated bytes at the public sizes,
        whatever the back-end policy (cached until relations change)."""
        if self._plan is None:
            sizes = {n: len(r) for n, r in self.relations.items()}
            bits = [r.semiring.bit_length for r in self.relations.values()]
            self._plan = choose_plan(
                self.hypergraph(), self.output, self.owners, sizes,
                SecurityParams(ell=max(bits, default=1)),  # the widest ring
            )
        return self._plan

    @property
    def input_size(self) -> int:
        """IN: the total number of input tuples."""
        return sum(len(r) for r in self.relations.values())

    def ring_params(self) -> SecurityParams:
        """Default security parameters at the relations' own ring width
        — what this query's nodes are priced at, by the router and the
        estimator alike."""
        ells = {r.semiring.bit_length for r in self.relations.values()}
        if len(ells) != 1:
            raise ValueError(
                f"relations disagree on the ring width: {sorted(ells)}"
            )
        return SecurityParams(ell=ells.pop())

    def backend_assignments(
        self, backend: Optional[str] = None
    ) -> Dict[str, str]:
        """The per-node back-end map a secure run of this query would
        execute (label-keyed, as the compiler and estimator expect).
        ``backend`` overrides the query's own policy (an engine-level
        override is resolved the same way by ``run_secure``).  Routed
        once per policy and plan: like the plan, a route map is a
        function of public sizes, owners and the ring width alone."""
        policy = backend if backend is not None else self.backend
        plan = self.plan()
        cached = self._routes.get(policy)
        if cached is None or cached[0] is not plan:
            cached = self._routes[policy] = plan, route_backends(
                plan,
                {n: len(r) for n, r in self.relations.items()},
                self.owners,
                backend=policy,
                params=self.ring_params() if policy == "auto" else None,
            )
        return cached[1]

    # -- evaluation ---------------------------------------------------------

    def run_plain(
        self, operators: Optional[ModuleType] = None
    ) -> AnnotatedRelation:
        """``operators`` selects the relational-operator module (the
        columnar default or the tuple-path oracle of
        ``tests/relalg_reference.py``)."""
        return execute_plan(self.plan(), self.relations, operators)

    def run_naive(self) -> AnnotatedRelation:
        return naive_join_aggregate(self.relations, list(self.output))

    def secure_inputs(self) -> Dict[str, SecureRelation]:
        """The relations wrapped as owner-tagged
        :class:`~repro.core.relation.SecureRelation` inputs, in
        insertion order (the order the compiler's ``input_order``
        must match)."""
        return {
            name: SecureRelation.from_annotated(self.owners[name], rel)
            for name, rel in self.relations.items()
        }

    def _effective_backends(self, engine: Engine) -> Dict[str, str]:
        """Resolve the back-end policy for a run on ``engine``: the
        engine-level override wins, else the query's own setting."""
        override = getattr(engine, "backend", None)
        return self.backend_assignments(override)

    def run_secure(
        self, engine: Engine
    ) -> Tuple[AnnotatedRelation, ProtocolStats]:
        return secure_yannakakis(
            engine, self.secure_inputs(), self.plan(),
            backends=self._effective_backends(engine),
        )

    def run_secure_shared(
        self, engine: Engine, pad_out_to: int = 0
    ) -> ObliviousJoinResult:
        """Query-composition building block: results stay shared.
        ``pad_out_to`` hides the true output size behind a declared
        bound (Section 4)."""
        return secure_yannakakis_shared(
            engine, self.secure_inputs(), self.plan(), pad_out_to,
            backends=self._effective_backends(engine),
        )
