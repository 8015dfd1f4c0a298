"""Recovery by replay: the one way a run gets past a fault.

A seeded run replays exactly in any fresh process
(``tests/test_replay.py``), so recovery needs no copy of a party's
memory, only how far it got.  :func:`run_replayed` runs a query over an
engine built from the run's seed with the caller's
:class:`~repro.runtime.session.Session` bound to it.  A retryable
:class:`~repro.runtime.aborts.ProtocolAbort` inside a plan node — only
a ``ProtocolAbort``: operator bugs propagate untouched — is handled the
way a crashed party resumes: rebuild the context and engine from the
seed and bind the same session (wire index and fault plan carry over);
replay the nodes before the failed one unattached
(``Session.replaying``); at the failed node's top, check the replayed
:class:`~repro.runtime.durable.Position` against the failed attempt's
(else a ``replay-divergence`` abort); re-key and run the node again,
at once: the protocol is a fixed message sequence, so there is nothing
to wait for.  Terminal aborts (a peer crash, retries exhausted, any
abort between nodes) propagate.  ``repro net`` resumes a killed party
on the same path, its target read from the journal
(:func:`repro.runtime.netrun.run_party`).

The re-key gives the retried node a fresh RNG subkey and continues the
tweak and dummy-nonce streams from where the failed attempt left them
(:meth:`~repro.mpc.context.Context.rekey`), so the node never hashes
fresh inputs under a tweak whose output crossed in the failed attempt.
Every later replay repeats each re-key at its node, so a second retry
replays the first byte-identically.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, TypeVar,
)

import numpy as np

from .aborts import ProtocolAbort, TransportAbort
from .durable import Position
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpc.engine import Engine

__all__ = ["run_replayed"]

T = TypeVar("T")

#: Domain-separation constant for retry RNG subkeys.
_RETRY_STREAM = 0x53594E31  # "SYN1"


def run_replayed(
    session: Session,
    build: Callable[[], "Engine"],
    body: Callable[["Engine"], T],
    target: Optional[Position] = None,
    attach: Optional[Callable[[], None]] = None,
) -> Tuple[T, "Engine"]:
    """Run ``body`` over an engine from ``build`` (a fresh context of
    the run's seed on every call), recovering per the module docstring,
    at most :attr:`~repro.runtime.session.Session.max_attempts` tries
    per node.  Returns the result and the
    finishing attempt's engine.

    ``target`` starts the first attempt as a replay up to that position
    (a resumed party's journal record); ``attach`` is called when the
    run first reaches its target.  Abort and retry events go to the
    engine's tracer, if any, carried over from attempt to attempt."""
    attempts: Dict[int, int] = {}
    rekeys: Dict[int, Tuple[int, Tuple[int, int]]] = {}
    events: List[Dict[str, Any]] = []
    while True:
        engine = build()
        ctx = engine.ctx
        session.bind(ctx)
        session.replaying = target is not None
        if engine.tracer is not None:
            engine.tracer.events = events

        def at_node(ordinal: int, target: Optional[Position] = target) -> None:
            if target is not None and session.replaying and (
                ordinal >= target.step
            ):
                diff = Position.of(ordinal, session).first_difference(
                    target
                )
                if diff is not None:
                    raise TransportAbort(
                        "replay-divergence", node=target.step,
                        label=diff[0], seq=diff[1], expected=diff[2],
                    )
                session.replaying = False
                if attach is not None:
                    attach()
            if ordinal in rekeys:
                attempt, counters = rekeys[ordinal]
                ctx.rekey(
                    np.random.default_rng(
                        [_RETRY_STREAM, session.seed, ordinal, attempt]
                    ),
                    counters,
                )

        session.before_commit = at_node
        try:
            result = body(engine)
        except ProtocolAbort as abort:
            top = session.top
            if top is None:
                raise  # between nodes: nothing to re-run
            session.n_aborts += 1
            ordinal = top.step
            attempt = attempts[ordinal] = attempts.get(ordinal, 0) + 1
            event: Dict[str, Any] = {
                "node": session.node, "ordinal": ordinal,
                "label": session.node_label, "attempt": attempt,
                "abort": abort.to_json(),
            }
            events.append(dict(event, type="abort"))
            if not abort.retryable:
                raise
            if attempt >= session.max_attempts:
                raise type(abort)(
                    "retries-exhausted", node=session.node,
                    label=session.node_label, attempts=attempt,
                ) from abort
            rekeys[ordinal] = (attempt, ctx.counters)
            target = top
            session.n_retries += 1
            events.append(dict(event, type="retry"))
            continue
        finally:
            session.before_commit = None
        if session.replaying:  # the run ended before its target node
            assert target is not None
            raise TransportAbort("replay-divergence", node=target.step)
        return result, engine
