"""The multi-tenant query service coordinator.

``submit`` prices a request with the cost estimator and routes it
through admission control — **before** any
:class:`~repro.mpc.context.Context` exists, so rejected and queued
requests move zero protocol bytes.  Admitted requests become
:class:`~repro.serve.session.QuerySession`\\ s; ``run`` then interleaves
every active session on the baton protocol, one exec-plan step at a
time, under one of two policies:

* ``"round_robin"`` — cycle through active sessions in submission
  order;
* ``"clock"`` — always step the session that has sent the fewest wire
  messages (:attr:`~repro.runtime.session.Session.wire_index`; ties
  broken by submission order).

Both are deterministic: the interleaving is a pure function of the
submission sequence, so a service run is exactly reproducible.  When a
session finishes — completed, aborted, or crashed — its actually
metered cost is settled against its tenant's budget and the admission
queue is drained, which may start new sessions mid-run.  A failed
session is contained: its worker parks permanently, its error is
recorded on the session, and every other session's transcript is
unaffected (pinned by ``tests/test_serve_isolation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional

from .admission import ADMIT, REJECT, AdmissionController
from .session import ADMITTED, REJECTED, QueryRequest, QuerySession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.estimator import CostEstimate

__all__ = ["INTERLEAVE_POLICIES", "ServiceReport", "QueryService"]

INTERLEAVE_POLICIES = ("round_robin", "clock")


@dataclass
class ServiceReport:
    """Everything one service run produced."""

    sessions: List[Dict[str, Any]] = field(default_factory=list)
    admission: Dict[str, Dict[str, int]] = field(default_factory=dict)
    interleave: str = "round_robin"
    n_steps: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.sessions:
            out[s["state"]] = out.get(s["state"], 0) + 1
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "interleave": self.interleave,
            "n_steps": self.n_steps,
            "counts": self.counts,
            "sessions": list(self.sessions),
            "admission": dict(self.admission),
        }

    def summary(self) -> str:
        c = self.counts
        parts = ", ".join(f"{n} {state}" for state, n in sorted(c.items()))
        return (
            f"{len(self.sessions)} sessions ({parts}); "
            f"{self.n_steps} interleaved steps"
        )


class QueryService:
    """Accepts tenant query requests, admits them against budgets, and
    interleaves the admitted sessions deterministically."""

    def __init__(
        self,
        interleave: str = "round_robin",
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if interleave not in INTERLEAVE_POLICIES:
            raise ValueError(
                f"unknown interleave {interleave!r}; "
                f"expected one of {INTERLEAVE_POLICIES}"
            )
        self.interleave = interleave
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.sessions: List[QuerySession] = []
        self.rejected: List[QueryRequest] = []
        self._rr_next = 0
        self._n_steps = 0

    # -- admission ---------------------------------------------------------

    def register_tenant(
        self,
        tenant: str,
        byte_capacity: int,
        round_capacity: int = 1 << 30,
        require_priced: bool = False,
        allowed_leakage: Optional[FrozenSet[str]] = None,
    ) -> None:
        """``allowed_leakage`` pins the tenant to a static leakage
        budget: every plan-bearing request is audited at submit time
        (:func:`~repro.exec.audit.audit_plan`) and rejected before
        any protocol byte moves if its composed summary exceeds the
        budget.  ``frozenset()`` admits only fully-oblivious routes;
        ``None`` (default) leaves the tenant unpinned."""
        self.admission.register(
            tenant,
            byte_capacity,
            round_capacity,
            require_priced,
            allowed_leakage=allowed_leakage,
        )

    def price(self, request: QueryRequest) -> Optional["CostEstimate"]:
        """The request's cost: declared if present, estimated for plan
        queries, ``None`` (unpriced) for opaque ``run=`` requests."""
        if request.cost is not None:
            return request.cost
        if request.query is None:
            return None
        from ..bench.estimator import estimate_query_cost

        return estimate_query_cost(
            request.query, out_size=request.out_size_bound
        )

    def plan_leakage(self, request: QueryRequest) -> Optional[FrozenSet[str]]:
        """The statically-audited leakage summary of the plan a secure
        run of ``request`` would execute (``None`` for opaque ``run=``
        requests, which carry no auditable plan)."""
        if request.query is None:
            return None
        from ..exec import audit_plan, compile_plan

        query = request.query
        return audit_plan(
            compile_plan(
                query.plan(),
                query.owners,
                backends=query.backend_assignments(),
            )
        ).summary

    def submit(self, request: QueryRequest) -> str:
        """Price, audit, decide, and (on ADMIT) build the session.
        Returns the admission decision."""
        cost = self.price(request)
        decision = self.admission.decide(
            request.tenant,
            cost,
            payload=(request, cost),
            leakage=self.plan_leakage(request),
        )
        if decision == ADMIT:
            self._build_session(request, cost)
        elif decision == REJECT:
            self.rejected.append(request)
        return decision

    def _build_session(
        self, request: QueryRequest, cost: Optional["CostEstimate"]
    ) -> QuerySession:
        session = QuerySession(request)
        session.cost = cost
        self.sessions.append(session)
        return session

    def replenish(self, tenant: Optional[str] = None) -> int:
        """New budget window; admits what the queue now allows.
        Returns how many queued requests were admitted."""
        admitted = self.admission.replenish(tenant)
        for request, cost in admitted:
            self._build_session(request, cost)
        return len(admitted)

    # -- the interleaved run ----------------------------------------------

    def run(self) -> ServiceReport:
        """Drive every admitted session to completion, one step at a
        time under the interleave policy."""
        for session in self.sessions:
            if session.state == ADMITTED:
                session.start()
        active = [s for s in self.sessions if not s.done]
        while active:
            session = self._pick(active)
            session.step()
            self._n_steps += 1
            if session.done:
                self._settle(session)
                active = [s for s in self.sessions if not s.done]
        return self.report()

    def _pick(self, active: List[QuerySession]) -> QuerySession:
        if self.interleave == "clock":
            # Fewest wire messages first; submission order breaks
            # ties, so the pick sequence is deterministic.
            return min(
                active,
                key=lambda s: (
                    s.runtime_session.wire_index,
                    self.sessions.index(s),
                ),
            )
        # round_robin over the full submission list, skipping done.
        n = len(self.sessions)
        for offset in range(n):
            candidate = self.sessions[(self._rr_next + offset) % n]
            if candidate in active:
                self._rr_next = (
                    self.sessions.index(candidate) + 1
                ) % n
                return candidate
        return active[0]  # pragma: no cover - active is non-empty

    def _settle(self, session: QuerySession) -> None:
        """Charge the tenant what the session actually metered (even a
        failed run's partial transcript), release its reservation, and
        drain the admission queue — a finished session may free budget
        for a queued one, which starts immediately."""
        transcript = session.ctx.transcript
        self.admission.settle(
            session.request.tenant,
            session.cost,
            actual_bytes=sum(m.n_bytes for m in transcript.messages),
            actual_rounds=transcript.rounds,
        )
        for request, cost in self.admission.drain():
            self._build_session(request, cost).start()

    # -- reporting ---------------------------------------------------------

    def report(self) -> ServiceReport:
        return ServiceReport(
            sessions=[s.summary() for s in self.sessions]
            + [
                {
                    "tenant": r.tenant,
                    "request": r.name,
                    "state": REJECTED,
                    "n_messages": 0,
                    "total_bytes": 0,
                }
                for r in self.rejected
            ],
            admission=self.admission.snapshot(),
            interleave=self.interleave,
            n_steps=self._n_steps,
        )
