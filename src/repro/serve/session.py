"""One tenant query session, cooperatively scheduled.

The service interleaves many sessions on one coordinator thread using a
*baton* protocol: each session runs its protocol code on a private
worker thread, but only ever between an explicit hand-off
(:meth:`QuerySession.step`) and the next yield point — the
:attr:`~repro.mpc.engine.Engine.yield_hook` the exec scheduler fires
before every plan step.  Exactly one worker runs at a time, so the
global interleaving is a deterministic function of the coordinator's
pick sequence, and the sessions share no mutable protocol state: each
has its own :class:`~repro.mpc.context.Context` (transcript, RNG, the
nonces of the dummy rows its operators make),
its own runtime :class:`~repro.runtime.session.Session` (framing,
virtual clock, fault plan), and its own
:class:`~repro.exec.trace.ExecutionTrace` namespaced by tenant.  What
they do share is public: the process-wide caches of circuit templates
(:mod:`repro.mpc.gadgets`) and Beneš topologies
(:func:`repro.mpc.waksman.benes_topology`), pure functions of shapes,
and the process-wide counter TPC-H's data preparation draws its masked
rows' dummy nonces from, which moves shares but no message (DESIGN.md,
"Determinism checked by replay").

Crash containment: whatever the worker raises —
:class:`~repro.runtime.aborts.ProtocolAbort` or an arbitrary crash —
is caught at the worker's top level, recorded on the session, and the
baton is returned.  The coordinator and every other session keep
running; the isolation battery (``tests/test_serve_isolation.py``)
pins that a crashed neighbour leaves a session's transcript
byte-identical to its solo run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional

from ..mpc.context import Context, Mode
from ..mpc.engine import Engine
from ..mpc.params import SecurityParams
from ..runtime.aborts import ProtocolAbort
from ..runtime.chaos import RunProfile, profile_run
from ..runtime.faults import FaultPlan
from ..runtime.session import DEFAULT_NODE_BUDGET, enable_session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.estimator import CostEstimate
    from ..query.builder import JoinAggregateQuery

__all__ = [
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "DONE",
    "FAILED",
    "REJECTED",
    "QueryRequest",
    "QuerySession",
]

QUEUED = "queued"
ADMITTED = "admitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

#: Wall-clock seconds the coordinator waits for a worker to reach its
#: next yield point before declaring the service wedged.  Time inside
#: the protocol is *virtual* (ticks), so only a genuine deadlock bug
#: can trip this.
STEP_TIMEOUT = 600.0


@dataclass
class QueryRequest:
    """One tenant's query submission.

    Exactly one of ``query`` (a
    :class:`~repro.query.builder.JoinAggregateQuery` — priced by the
    cost estimator and leakage-audited at submit) or ``run`` (an
    arbitrary ``Engine -> result-rows`` callable, e.g. a decomposed
    TPC-H query — unpriced unless ``cost`` is declared) must be set.
    """

    tenant: str
    name: str
    query: Optional["JoinAggregateQuery"] = None
    run: Optional[Callable[[Engine], Iterable[Any]]] = None
    ell: Optional[int] = None
    mode: Mode = Mode.SIMULATED
    seed: int = 11
    faults: Optional[FaultPlan] = None
    node_budget: int = DEFAULT_NODE_BUDGET
    #: Declared cost (overrides estimation); ``None`` + ``query`` set
    #: means the service estimates; ``None`` + ``run`` means unpriced.
    cost: Optional["CostEstimate"] = None
    #: Output-size bound fed to the estimator (``None``: the product
    #: of the sizes of the relations the full join joins — the worst
    #: case the protocol itself assumes).
    out_size_bound: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.query is None) == (self.run is None):
            raise ValueError(
                "exactly one of query= or run= must be provided"
            )

    def effective_ell(self) -> int:
        if self.query is not None:
            return self.query.ring_params().ell
        if self.ell is None:
            raise ValueError("run= requests must declare ell=")
        return self.ell


class QuerySession:
    """A query request bound to its private execution state and worker
    thread.  Built by the service *after* admission — a rejected
    request never reaches this class, so it moves zero protocol
    bytes."""

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.state = ADMITTED
        self.error: Optional[BaseException] = None
        self.result: Optional[Iterable[Any]] = None
        self.profile: Optional[RunProfile] = None
        self.cost: Optional["CostEstimate"] = request.cost

        params = SecurityParams(ell=request.effective_ell())
        self.ctx = Context(request.mode, params, seed=request.seed)
        from ..exec.trace import ExecutionTrace

        self.trace = ExecutionTrace()
        self.trace.meta["tenant"] = request.tenant
        self.trace.meta["request"] = request.name
        self.engine = Engine(self.ctx, tracer=self.trace)
        self.runtime_session = enable_session(
            self.ctx,
            request.faults,
            node_budget=request.node_budget,
            seed=request.seed,
        )
        self.engine.yield_hook = self._yield_point

        self._go = threading.Event()
        self._parked = threading.Event()
        self._finished = False
        self._thread = threading.Thread(
            target=self._work,
            name=f"serve:{request.tenant}:{request.name}",
            daemon=True,
        )

    # -- baton protocol ---------------------------------------------------

    def start(self) -> None:
        """Spawn the worker and run it up to its first yield point."""
        self.state = RUNNING
        self._thread.start()
        self._await_parked()

    def step(self) -> bool:
        """Hand the baton to the worker for one step; returns ``True``
        while the session still has work left."""
        if self._finished:
            return False
        self._parked.clear()
        self._go.set()
        self._await_parked()
        return not self._finished

    @property
    def done(self) -> bool:
        return self._finished

    def _await_parked(self) -> None:
        if not self._parked.wait(STEP_TIMEOUT):  # pragma: no cover
            raise RuntimeError(
                f"session {self.request.tenant}:{self.request.name} "
                f"did not reach a yield point within {STEP_TIMEOUT}s"
            )

    def _yield_point(self, step: object) -> None:
        """Called by the exec scheduler before each plan step, on the
        worker thread: park, hand the baton back, wait for it."""
        self._parked.set()
        self._go.wait()
        self._go.clear()

    # -- the worker -------------------------------------------------------

    def _work(self) -> None:
        try:
            # Park before the first protocol byte so the coordinator
            # controls the interleaving from message zero.
            self._yield_point(None)
            self.result = self._execute()
            self.runtime_session.finish()
            self.profile = profile_run(
                self.ctx, self.runtime_session, self.result
            )
            self.state = DONE
        except ProtocolAbort as abort:
            self.error = abort
            self.state = FAILED
        except BaseException as exc:  # noqa: BLE001 - crash containment
            self.error = exc
            self.state = FAILED
        finally:
            self._finished = True
            self._parked.set()

    def _execute(self) -> Iterable[Any]:
        request = self.request
        if request.run is not None:
            return request.run(self.engine)
        assert request.query is not None
        return request.query.run_secure(self.engine)[0]

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "tenant": self.request.tenant,
            "request": self.request.name,
            "state": self.state,
            "clock": self.runtime_session.clock.now,
            "n_messages": len(self.ctx.transcript.messages),
            "total_bytes": sum(
                m.n_bytes for m in self.ctx.transcript.messages
            ),
            "rounds": self.ctx.transcript.rounds,
        }
        if self.error is not None:
            out["error"] = type(self.error).__name__
        return out
