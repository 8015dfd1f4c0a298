"""Plan-level leakage audit.

The run-time contracts (:mod:`repro.leakage`) hold what each primitive
*may* leak; this module answers the composition question for one
concrete plan: given the per-node ``backend`` assignments a routed
:class:`~repro.exec.ir.ExecPlan` carries, what does the *whole plan*
reveal beyond the public sizes?

Composition follows the paper's argument: every node that never
reaches the cross-owner back-end dispatch (same-owner folds, scalar
children; :func:`~repro.core.semijoin.dispatched`, the predicate the
operator itself branches on) is back-end-independent and leaks
nothing; every dispatched node contributes its back-end's registered
contract
(:data:`repro.leakage.BACKEND_CONTRACTS`).  The whole-plan summary is
the union — an all-``yannakakis`` route is exactly ``{}``, a route
with any dispatched ``linear`` node is ``{join_pattern:parent}``.

Two consumers, each auditing the plan
:func:`~repro.exec.compiler.compile_plan` lowers:

* the serving layer rejects a tenant's plan *statically* at admission
  when its summary exceeds the tenant's pinned leakage budget
  (:meth:`repro.serve.service.QueryService.register_tenant`);
* the fuzzer asserts every routed instance matches its back-end's
  documented model (docs/BACKENDS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.semijoin import dispatched
from ..leakage import BACKEND_CONTRACTS
from .ir import ExecPlan, ShareStep

__all__ = ["NodeLeakage", "LeakageReport", "audit_plan"]


@dataclass(frozen=True)
class NodeLeakage:
    """The leakage contribution of one routed plan node."""

    label: str  #: the step's :attr:`~repro.exec.ir.Step.label`
    kind: str  #: ``"reduce_fold"`` | ``"semijoin"``
    backend: str
    #: Whether the node reaches the cross-owner back-end dispatch at
    #: all (same-owner nodes and scalar children run the same path
    #: under every back-end and leak nothing).
    dispatched: bool
    atoms: FrozenSet[str]
    #: Set when ``backend`` has no BACKEND_CONTRACTS entry — an
    #: unregistered back-end is itself an audit failure.
    unknown_backend: bool = False


@dataclass
class LeakageReport:
    """Composed leakage of one routed plan."""

    nodes: Tuple[NodeLeakage, ...]

    @property
    def summary(self) -> FrozenSet[str]:
        """Union of every dispatched node's contract atoms."""
        out: FrozenSet[str] = frozenset()
        for n in self.nodes:
            if n.dispatched:
                out |= n.atoms
        return out

    def violations(
        self, allow: FrozenSet[str] = frozenset()
    ) -> List[str]:
        """Human-readable failures against an allowed-atom budget."""
        out: List[str] = []
        for n in self.nodes:
            if n.unknown_backend:
                out.append(
                    f"node {n.label}: back-end '{n.backend}' has no "
                    "BACKEND_CONTRACTS entry"
                )
            if not n.dispatched:
                continue
            excess = sorted(n.atoms - allow)
            if excess:
                out.append(
                    f"node {n.label} (backend {n.backend}) leaks "
                    f"{excess} beyond the allowed budget "
                    f"{sorted(allow)}"
                )
        return out

    def ok(self, allow: FrozenSet[str] = frozenset()) -> bool:
        return not self.violations(allow)


def audit_plan(
    plan: ExecPlan,
    owners: Optional[Dict[str, str]] = None,
) -> LeakageReport:
    """Audit a compiled, routed :class:`ExecPlan`.

    ``owners`` (relation name -> party) defaults to the plan's own
    :class:`~repro.exec.ir.ShareStep` declarations.
    """
    if owners is None:
        owners = {
            s.relation: s.owner
            for s in plan.steps
            if isinstance(s, ShareStep) and s.owner
        }
    nodes: List[NodeLeakage] = []
    for step in plan.steps:
        join = step.reduce_join
        if join is None:
            continue
        parent, child, scalar = join
        backend: str = step.backend  # type: ignore[attr-defined]
        atoms = BACKEND_CONTRACTS.get(backend)
        # Unknown ownership is audited conservatively as cross-owner.
        owner = owners.get(parent)
        same = owner is not None and owner == owners.get(child)
        nodes.append(NodeLeakage(
            step.label, step.kind, backend, dispatched(scalar, same),
            atoms or frozenset(), unknown_backend=atoms is None,
        ))
    return LeakageReport(nodes=tuple(nodes))
