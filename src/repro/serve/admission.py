"""Admission control: per-tenant byte/round budgets.

Every priced request is charged *before* any protocol bytes move: the
service prices the query with the cost estimator
(:func:`repro.bench.estimator.estimate_query_cost` — bytes and rounds
exact for the priced ``out_size``, an upper bound only through the
worst-case ``out_size``), and the :class:`AdmissionController` decides

* **ADMIT** — the estimate fits the tenant's currently-available
  budget; the estimate is *reserved* so concurrent requests cannot
  double-spend, and :meth:`~AdmissionController.settle` later swaps
  the reservation for the actually-metered transcript cost.
* **QUEUE** — the estimate fits the tenant's total capacity but not
  what is available right now; the request parks in a FIFO queue and
  is re-examined after every settle/replenish
  (:meth:`~AdmissionController.drain`).
* **REJECT** — the estimate exceeds the tenant's total capacity; no
  amount of waiting makes it fit.  Rejection happens before a
  :class:`~repro.mpc.context.Context` even exists, so a rejected
  query moves **zero** protocol bytes (pinned by
  ``tests/test_serve.py``).

Budgets are per accounting window: :meth:`~AdmissionController.replenish`
zeroes the spent counters (a new window) and drains the queue.
Unpriced requests (cost ``None`` — e.g. composed TPC-H pipelines the
single-plan estimator cannot price) admit by default and settle their
actual metered cost; set ``require_priced`` on the tenant's budget to
reject them instead.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.estimator import CostEstimate

__all__ = ["ADMIT", "QUEUE", "REJECT", "TenantBudget", "AdmissionController"]

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"


@dataclass
class TenantBudget:
    """One tenant's budget for the current accounting window.

    ``byte_capacity``/``round_capacity`` are the window totals;
    ``*_spent`` is settled usage, ``*_reserved`` is held by admitted
    but not-yet-settled requests."""

    tenant: str
    byte_capacity: int
    round_capacity: int
    bytes_spent: int = 0
    rounds_spent: int = 0
    bytes_reserved: int = 0
    rounds_reserved: int = 0
    require_priced: bool = False
    #: Static leakage budget: the set of leakage atoms this tenant's
    #: plans may carry (``None`` = unpinned, any route admits;
    #: ``frozenset()`` = fully-oblivious routes only).  Checked by
    #: :meth:`AdmissionController.decide` against the plan's composed
    #: :func:`~repro.exec.audit.audit_plan` summary — *before* any
    #: protocol byte moves, so an over-leaky plan is rejected
    #: statically, not caught mid-run.
    allowed_leakage: Optional[FrozenSet[str]] = None
    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    leakage_rejected: int = 0

    @property
    def bytes_available(self) -> int:
        return self.byte_capacity - self.bytes_spent - self.bytes_reserved

    @property
    def rounds_available(self) -> int:
        return self.round_capacity - self.rounds_spent - self.rounds_reserved

    def snapshot(self) -> Dict[str, int]:
        return {
            "byte_capacity": self.byte_capacity,
            "round_capacity": self.round_capacity,
            "bytes_spent": self.bytes_spent,
            "rounds_spent": self.rounds_spent,
            "bytes_reserved": self.bytes_reserved,
            "rounds_reserved": self.rounds_reserved,
            "admitted": self.admitted,
            "queued": self.queued,
            "rejected": self.rejected,
            "leakage_rejected": self.leakage_rejected,
        }


@dataclass
class _QueuedRequest:
    tenant: str
    cost: Optional["CostEstimate"]
    payload: Any = None


@dataclass
class AdmissionController:
    """Prices requests against per-tenant budgets; owns the wait queue."""

    budgets: Dict[str, TenantBudget] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lock = threading.RLock()
        self.waiting: Deque[_QueuedRequest] = deque()

    def register(
        self,
        tenant: str,
        byte_capacity: int,
        round_capacity: int = 1 << 30,
        require_priced: bool = False,
        allowed_leakage: Optional[FrozenSet[str]] = None,
    ) -> TenantBudget:
        budget = TenantBudget(
            tenant=tenant,
            byte_capacity=int(byte_capacity),
            round_capacity=int(round_capacity),
            require_priced=require_priced,
            allowed_leakage=(
                None
                if allowed_leakage is None
                else frozenset(allowed_leakage)
            ),
        )
        with self.lock:
            self.budgets[tenant] = budget
        return budget

    # -- the decision ------------------------------------------------------

    def decide(
        self,
        tenant: str,
        cost: Optional["CostEstimate"],
        payload: Any = None,
        leakage: Optional[FrozenSet[str]] = None,
    ) -> str:
        """ADMIT / QUEUE / REJECT ``payload`` for ``tenant`` at the
        estimated ``cost``.  On ADMIT the cost is reserved; on QUEUE
        the request is parked for :meth:`drain`.

        ``leakage`` is the request's statically-audited plan leakage
        summary (``None`` for opaque ``run=`` requests, which cannot
        be audited).  A tenant pinned to an ``allowed_leakage`` budget
        rejects any plan whose summary exceeds it — like the capacity
        check, no amount of waiting makes an over-leaky route fit, so
        this is REJECT, never QUEUE."""
        with self.lock:
            budget = self.budgets.get(tenant)
            if budget is None:
                # Unmetered tenant: no budget, everything admits.
                return ADMIT
            if (
                budget.allowed_leakage is not None
                and leakage is not None
                and leakage - budget.allowed_leakage
            ):
                budget.rejected += 1
                budget.leakage_rejected += 1
                return REJECT
            if cost is None:
                if budget.require_priced:
                    budget.rejected += 1
                    return REJECT
                budget.admitted += 1
                return ADMIT
            if (
                cost.total > budget.byte_capacity
                or cost.rounds > budget.round_capacity
            ):
                budget.rejected += 1
                return REJECT
            if (
                cost.total > budget.bytes_available
                or cost.rounds > budget.rounds_available
            ):
                budget.queued += 1
                self.waiting.append(_QueuedRequest(tenant, cost, payload))
                return QUEUE
            self._reserve(budget, cost)
            budget.admitted += 1
            return ADMIT

    def _reserve(self, budget: TenantBudget, cost: "CostEstimate") -> None:
        budget.bytes_reserved += cost.total
        budget.rounds_reserved += cost.rounds

    # -- settlement --------------------------------------------------------

    def settle(
        self,
        tenant: str,
        cost: Optional["CostEstimate"],
        actual_bytes: int,
        actual_rounds: int,
    ) -> None:
        """Swap the reservation for the actually-metered cost once the
        request finishes (or release it, ``actual=0``, if the request
        never ran)."""
        with self.lock:
            budget = self.budgets.get(tenant)
            if budget is None:
                return
            if cost is not None:
                budget.bytes_reserved -= cost.total
                budget.rounds_reserved -= cost.rounds
            budget.bytes_spent += int(actual_bytes)
            budget.rounds_spent += int(actual_rounds)

    def drain(self) -> List[Any]:
        """Re-examine the wait queue FIFO; reserve-and-return the
        payloads that now fit.  Requests that still do not fit keep
        their queue position (per-tenant FIFO order is preserved; a
        stuck tenant does not block others)."""
        with self.lock:
            admitted: List[Any] = []
            blocked_tenants: set = set()
            still_waiting: Deque[_QueuedRequest] = deque()
            while self.waiting:
                req = self.waiting.popleft()
                budget = self.budgets.get(req.tenant)
                fits = (
                    budget is None
                    or req.cost is None
                    or (
                        req.tenant not in blocked_tenants
                        and req.cost.total <= budget.bytes_available
                        and req.cost.rounds <= budget.rounds_available
                    )
                )
                if fits:
                    if budget is not None and req.cost is not None:
                        self._reserve(budget, req.cost)
                        budget.admitted += 1
                    admitted.append(req.payload)
                else:
                    blocked_tenants.add(req.tenant)
                    still_waiting.append(req)
            self.waiting = still_waiting
            return admitted

    def replenish(self, tenant: Optional[str] = None) -> List[Any]:
        """Start a new accounting window (for one tenant, or all) and
        drain the queue.  Returns the newly-admitted payloads."""
        with self.lock:
            targets = (
                [self.budgets[tenant]]
                if tenant is not None
                else list(self.budgets.values())
            )
            for budget in targets:
                budget.bytes_spent = 0
                budget.rounds_spent = 0
            return self.drain()

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        with self.lock:
            return {t: b.snapshot() for t, b in self.budgets.items()}
