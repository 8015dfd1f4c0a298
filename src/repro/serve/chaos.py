"""Tenant-isolation chaos sweeps.

The serving layer's hard guarantee: **a crashed or faulted session
leaves every other tenant's transcript byte-identical to its solo
run.**  This module proves it the same way the single-session chaos
harness (:mod:`repro.runtime.chaos`) proves fault-tolerance — by
sweeping every fault point:

1. run the *victim* request (session A) solo and unfaulted to learn
   its fault surface (message count, plan nodes);
2. run the *observer* request (session B) solo to capture the
   baseline :class:`~repro.runtime.chaos.RunProfile` it must always
   reproduce;
3. for every fault point in A — every message-fault kind at every
   (strided) wire index, plus a party crash at every plan node — run
   A and B concurrently through one
   :class:`~repro.serve.service.QueryService` with the fault injected
   into A only, and compare B's profile byte-for-byte against its
   solo baseline.

Any drift in B is a VIOLATION — carrying the drift string —
regardless of what happened to A.  Otherwise A is classified by the
shared :func:`~repro.runtime.chaos.classify` exactly like a
single-session chaos run, so the sweep doubles as a regression check
that serving did not weaken single-session fault-tolerance.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..runtime.chaos import (
    Outcome,
    Report,
    build_specs,
    classify,
    failure_of,
    sweep,
)
from ..runtime.faults import MESSAGE_FAULT_KINDS, FaultPlan, FaultSpec
from .service import QueryService
from .session import DONE, QueryRequest
from .workload import run_solo

__all__ = ["isolation_sweep"]

#: Builds a fresh request; the sweep passes the victim's fault plan
#: (``None`` for the unfaulted baseline and for the observer).
RequestFactory = Callable[[Optional[FaultPlan]], QueryRequest]


def isolation_sweep(
    make_victim: RequestFactory,
    make_observer: RequestFactory,
    interleave: str = "round_robin",
    kinds: Sequence[str] = MESSAGE_FAULT_KINDS,
    stride: int = 1,
    on_progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> Report:
    """Sweep every fault point in the victim; require the observer's
    profile byte-identical to its solo baseline at each."""
    victim_solo = run_solo(make_victim(None))
    observer_solo = run_solo(make_observer(None))
    if victim_solo.profile is None or observer_solo.profile is None:
        raise RuntimeError(
            "unfaulted baseline run failed: "
            f"victim={victim_solo.state} ({victim_solo.error!r}), "
            f"observer={observer_solo.state} ({observer_solo.error!r})"
        )
    victim_baseline = victim_solo.profile
    observer_baseline = observer_solo.profile

    def run_one(spec: FaultSpec) -> Outcome:
        service = QueryService(interleave=interleave)
        service.submit(make_victim(FaultPlan([spec])))
        service.submit(make_observer(None))
        service.run()
        victim, observer = service.sessions
        if observer.state != DONE or observer.profile is None:
            drift = f"{observer.state}: {observer.error!r}"
        else:
            drift = observer.profile.diff(observer_baseline)
        seen: Dict[str, Any]
        if drift:
            seen = {"error": f"observer drift: {drift}"}
        elif victim.state == DONE and victim.profile is not None:
            seen = {
                "profiles": {"victim": victim.profile},
                "retried": victim.profile.n_retries > 0,
            }
        elif victim.error is None:
            seen = {"error": f"victim in unexpected state {victim.state}"}
        else:
            seen = failure_of(victim.error)
        return classify(spec, victim_baseline, **seen)

    report = sweep(
        build_specs(victim_baseline, kinds, stride),
        run_one,
        victim_baseline,
        on_progress,
    )
    report.meta.update(interleave=interleave, stride=stride)
    return report
