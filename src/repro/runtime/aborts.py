"""The typed protocol-abort taxonomy.

Every fault the session layer can *detect* maps to exactly one
:class:`ProtocolAbort` subclass, and every abort is built from a fixed
vocabulary of **public** fields: reason codes, plan nodes, sequence
numbers, transcript labels, byte counts and party names.
No constructor accepts free-form payloads, so no abort path can ever
surface reconstructed plaintext — the chaos harness and the unit tests
assert :func:`payload_is_sanitized` on every abort they observe.

The retry decision is a class attribute: transient channel
faults (integrity, sequencing, timeout) are ``retryable``; a peer
crash is terminal.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

__all__ = [
    "REASONS",
    "payload_is_sanitized",
    "ProtocolAbort",
    "IntegrityAbort",
    "SequenceAbort",
    "TimeoutAbort",
    "PeerCrash",
    "TransportAbort",
]

#: The closed vocabulary of abort reasons.  ``reason`` must be one of
#: these strings; anything else is a programming error, not a fault.
REASONS = (
    "checksum-mismatch",
    "length-mismatch",
    "sequence-gap",
    "sequence-replay",
    "deadline-expired",
    "peer-crashed",
    "retries-exhausted",
    "connection-lost",
    "handshake-failed",
    "peer-divergence",
    "replay-divergence",
)


#: The public fields an abort may carry besides its reason, in the
#: order the canonical message renders them.
_FIELDS = (
    "node", "label", "seq", "expected", "party", "n_bytes", "attempts",
)
_PAYLOAD_KEYS = frozenset(
    ("type", "reason", "retryable", "message") + _FIELDS
)


def _render(reason: Any, fields: Mapping[str, Any]) -> str:
    """The canonical message: the reason, then every set public field."""
    return " ".join(
        [str(reason)]
        + [
            f"{name}={fields[name]}"
            for name in _FIELDS
            if fields.get(name) not in (None, "")
        ]
    )


def payload_is_sanitized(payload: Any) -> bool:
    """The structural no-leak check on an abort's JSON view
    (:meth:`ProtocolAbort.to_json`): only the public keys, the reason
    from the closed vocabulary, and the message exactly the canonical
    rendering of the public fields (nothing smuggled in)."""
    return (
        isinstance(payload, dict)
        and set(payload) <= _PAYLOAD_KEYS
        and payload.get("reason") in REASONS
        and payload.get("message") == _render(payload["reason"], payload)
    )


class ProtocolAbort(RuntimeError):
    """Base of the abort taxonomy.

    Fields are restricted to public channel metadata; see the module
    docstring.  ``retryable`` tells
    :func:`~repro.runtime.supervisor.run_replayed` whether the node may
    be retried.
    """

    retryable = False

    def __init__(
        self,
        reason: str,
        *,
        node: Optional[int] = None,
        label: str = "",
        seq: Optional[int] = None,
        expected: Optional[int] = None,
        party: Optional[str] = None,
        n_bytes: Optional[int] = None,
        attempts: Optional[int] = None,
    ) -> None:
        if reason not in REASONS:
            raise ValueError(f"unknown abort reason {reason!r}")
        self.reason = reason
        self.node = node
        self.label = label
        self.seq = seq
        self.expected = expected
        self.party = party
        self.n_bytes = n_bytes
        self.attempts = attempts
        super().__init__(self._describe())

    def _describe(self) -> str:
        return _render(self.reason, vars(self))

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": type(self).__name__,
            "reason": self.reason,
            "retryable": self.retryable,
            **{name: getattr(self, name) for name in _FIELDS},
            "message": str(self),
        }

    def is_sanitized(self) -> bool:
        """The structural no-leak check: see :func:`payload_is_sanitized`
        (an abort is judged by its JSON view, so one that crossed a
        process boundary is held to the same standard as a live one)."""
        return payload_is_sanitized(self.to_json())


class IntegrityAbort(ProtocolAbort):
    """A frame failed verification: checksum or length mismatch."""

    retryable = True


class SequenceAbort(ProtocolAbort):
    """A frame arrived out of order: gap (lost/held frame ahead of it)
    or replay (sequence number already delivered)."""

    retryable = True


class TimeoutAbort(ProtocolAbort):
    """A frame of the current plan node hung, or the node ended with
    sent-but-undelivered frames outstanding."""

    retryable = True


class PeerCrash(ProtocolAbort):
    """The remote party crashed; no retry can help."""

    retryable = False


class TransportAbort(ProtocolAbort):
    """A real (socket) transport failed terminally: the reconnect
    budget is exhausted (``connection-lost``), the peer identified as
    a different session or role (``handshake-failed``), the peer's
    frame stream disagreed with the locally mirrored one
    (``peer-divergence``), or a resumed party's replay reached a
    position other than its journal's record (``replay-divergence``).

    Terminal by design: an in-node retry would re-run the node on one
    OS process while the peer's mirror stays put, desynchronising the
    two frame streams.  Recovery from transport loss is process
    restart + ``repro net --resume`` over the durable journal, not an
    in-node retry."""

    retryable = False
