"""Deterministic fault injection: :class:`FaultSpec` and :class:`FaultPlan`.

A fault plan is pure data — *which* fault, at *which* wire index or
plan node, against *which* party — so any faulted run replays from its
spec alone.  One spec type describes a fault at every level it can be
injected at:

* **message** faults perturb frames inside one process's session layer
  (:mod:`.session`): ``repro chaos``, ``repro serve --isolation-sweep``
  and ``repro fuzz --inject-fault`` inject them;
* **process** faults hit one ``repro net`` party's OS process or socket
  (:mod:`.transport`): ``repro chaos --level process`` hands them to
  the targeted party as ``repro net --fault SPEC``;
* the **input** fault perturbs a secret share before the protocol
  starts; only the fuzzer's differential oracle can catch it.

Each spec fires **once**: a retry keeps the session, whose wire index
the replayed prefix does not advance (:mod:`.supervisor`), so a fault
consumed on attempt 1 does not re-fire on attempt 2.  That one-shot
semantics is what makes "retry by replay" converge.  A node fault keys
on the node's ordinal in the run, its step id on a single plan (Q8
runs two plans in one context).  A process fault keys on the
transport's exchange count, which equals the session's wire index on a
fresh ``repro net`` run (net mode injects no message faults).

The kind table :data:`FAULT_KINDS` is the only list of kinds (every CLI
choice list and sweep reads it; docs/ROBUSTNESS.md says what each
does).  Every CLI writes a spec as ``KIND[@AT][:MS][/PARTY]``, which
is also what ``str(spec)`` prints: ``AT`` is the wire index or plan
node the kind targets, ``MS`` is the wall-clock duration of a kind
that has one and defaults to the table's — ``corrupt@3``, ``hang@5``,
``crash@2/bob``, ``stall@12:400``, ``perturb_share``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple,
)

from ..mpc.transcript import ALICE, BOB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.relation import SecureRelation
    from ..mpc.engine import Engine

__all__ = [
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "FaultKind",
    "kinds_of",
    "FaultSpec",
    "FaultPlan",
    "perturb_share",
]

@dataclass(frozen=True)
class FaultKind:
    """One row of the kind table: the kind's level (``message``,
    ``process`` or ``input``), the :class:`FaultSpec` fields holding
    its target (``message_index`` or ``node``) and, for a kind that
    lasts, its wall-clock duration (``ms``), and the duration a spec's
    text form defaults to."""

    level: str
    target: Optional[str] = None
    unit: Optional[str] = None
    default: int = 0


_WIRE = "message_index"

#: Every fault kind, in sweep order.  No name means two faults.
FAULT_KINDS: Dict[str, FaultKind] = {
    "corrupt": FaultKind("message", _WIRE),  # flip a checksum bit
    "truncate": FaultKind("message", _WIRE),  # lose the last payload byte
    "drop": FaultKind("message", _WIRE),  # the frame never arrives
    "duplicate": FaultKind("message", _WIRE),  # ... is delivered twice
    "reorder": FaultKind("message", _WIRE),  # overtaken by the next one
    "hang": FaultKind("message", _WIRE),  # expires the node it is in
    "crash": FaultKind("message", "node"),  # PeerCrash entering the node
    "perturb_share": FaultKind("input"),  # +1 on one input share
    "kill-node": FaultKind("process", "node"),  # SIGKILL self
    "kill-wire": FaultKind("process", _WIRE),  # SIGKILL self
    "disconnect": FaultKind("process", _WIRE),  # force-close the socket
    "stall": FaultKind("process", _WIRE, "ms", 400),  # freeze
    "partition": FaultKind("process", _WIRE, "ms", 400),  # both at once
}


def kinds_of(*levels: str) -> Tuple[str, ...]:
    """The table's kinds at the given levels, in table order."""
    return tuple(k for k, v in FAULT_KINDS.items() if v.level in levels)


#: What ``repro chaos`` sweeps at each ``--level``.
MESSAGE_FAULT_KINDS = kinds_of("message")
PROCESS_FAULT_KINDS = kinds_of("process")

_FIELDS = ("kind", "message_index", "node", "party", "ms")
#: The target and duration fields, each with its unset value.
_SLOTS = (("message_index", None), ("node", None), ("ms", 0))
_SYNTAX = re.compile(
    r"(?P<kind>[a-z_-]+)(?:@(?P<at>\d+))?(?::(?P<duration>\d+))?"
    r"(?:/(?P<party>[a-z]+))?"
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, fully determined by its fields.  A spec sets
    exactly the fields its kind reads (see :data:`FAULT_KINDS`)."""

    kind: str
    message_index: Optional[int] = None  #: wire index the kind targets
    node: Optional[int] = None  #: plan-node ordinal the kind targets
    party: Optional[str] = None  #: the faulted party (crash, process)
    ms: int = 0  #: wall-clock duration (``stall``, ``partition``)

    def __post_init__(self) -> None:
        kind = FAULT_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.party not in (None, ALICE, BOB):
            raise ValueError(f"unknown fault party {self.party!r}")
        if kind.target is not None and getattr(self, kind.target) is None:
            raise ValueError(f"{self.kind!r} fault needs a {kind.target}")
        for name, unset in _SLOTS:
            value = getattr(self, name)
            if value == unset:
                continue
            if name not in (kind.target, kind.unit):
                raise ValueError(f"{self.kind!r} fault takes no {name}")
            if isinstance(value, bool) or not isinstance(value, int) or (
                value < 0
            ):
                raise ValueError(
                    f"fault {name} must be a non-negative int, "
                    f"got {value!r}"
                )

    @property
    def level(self) -> str:
        return FAULT_KINDS[self.kind].level

    @property
    def at(self) -> Optional[int]:
        """The wire index or plan node the fault targets."""
        target = FAULT_KINDS[self.kind].target
        return getattr(self, target) if target is not None else None

    @staticmethod
    def make(
        kind: str,
        at: Optional[int] = None,
        party: Optional[str] = None,
        duration: Optional[int] = None,
    ) -> "FaultSpec":
        """Build a spec by role rather than by field: ``at`` lands in
        the kind's target field, ``duration`` (default: the table's)
        in its unit field; one the kind lacks lands in a field the
        spec then rejects."""
        row = FAULT_KINDS.get(kind, FaultKind(""))
        fields: Dict[str, Any] = {}
        if at is not None:
            fields[row.target or _WIRE] = at
        if duration is not None or row.unit is not None:
            fields[row.unit or "ms"] = (
                row.default if duration is None else duration
            )
        return FaultSpec(kind, party=party, **fields)

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Inverse of ``str(spec)``: ``KIND[@AT][:MS][/PARTY]``."""
        m = _SYNTAX.fullmatch(text.strip())
        if m is None:
            raise ValueError(
                f"malformed fault spec {text!r} "
                "(expected KIND[@AT][:MS][/PARTY])"
            )
        at, duration = (
            None if g is None else int(g) for g in (m["at"], m["duration"])
        )
        return FaultSpec.make(m["kind"], at, m["party"], duration)

    def __str__(self) -> str:
        row = FAULT_KINDS[self.kind]
        text = self.kind
        if row.target is not None:
            text += f"@{self.at}"
        if row.unit is not None:
            text += f":{getattr(self, row.unit)}"
        if self.party is not None:
            text += f"/{self.party}"
        return text

    def to_json(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in _FIELDS}

    @staticmethod
    def from_json(d: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_json`; fields are validated, never
        coerced (a replayed ``"3"`` would match no wire index)."""
        if not isinstance(d, dict) or "kind" not in d:
            raise ValueError(f"not a fault spec: {d!r}")
        unknown = sorted(set(d) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown fault field(s) {unknown}")
        return FaultSpec(**d)


class FaultPlan:
    """A set of one-shot fault specs the session and transport consult.

    ``for_message`` / ``for_node`` / ``for_exchange`` return (and
    consume) the first un-fired spec matching the probe;
    :meth:`fresh` returns an un-fired copy for the next run of a
    campaign.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._fired: Set[int] = set()

    def __len__(self) -> int:
        return len(self.specs)

    def __str__(self) -> str:
        return "+".join(str(s) for s in self.specs) or "(no faults)"

    def fresh(self) -> "FaultPlan":
        return FaultPlan(self.specs)

    def _take(
        self, levels: Tuple[str, ...], target: str, at: int
    ) -> Optional[FaultSpec]:
        for i, spec in enumerate(self.specs):
            row = FAULT_KINDS[spec.kind]
            if i not in self._fired and row.level in levels and (
                row.target == target and spec.at == at
            ):
                self._fired.add(i)
                return spec
        return None

    def for_message(self, wire_index: int) -> Optional[FaultSpec]:
        """A message fault at the session's wire index."""
        return self._take(("message",), _WIRE, wire_index)

    def for_exchange(self, index: int) -> Optional[FaultSpec]:
        """A process fault at the transport's exchange count."""
        return self._take(("process",), _WIRE, index)

    def for_node(self, ordinal: int) -> Optional[FaultSpec]:
        """A ``crash`` or ``kill-node`` entering the plan node of this
        ordinal in the run."""
        return self._take(("message", "process"), "node", ordinal)

    def input_faults(self) -> List[FaultSpec]:
        """The semantic (pre-run) faults: applied to the secret-shared
        inputs before the protocol starts."""
        return [s for s in self.specs if s.level == "input"]

    def to_json(self) -> List[Dict[str, Any]]:
        return [s.to_json() for s in self.specs]

    @staticmethod
    def from_json(blobs: Sequence[Dict[str, Any]]) -> "FaultPlan":
        return FaultPlan([FaultSpec.from_json(b) for b in blobs])


def perturb_share(
    engine: "Engine", inputs: Dict[str, "SecureRelation"]
) -> None:
    """The semantic fault: secret-share the first relation's
    annotations and add 1 to Alice's share of entry 0.  The sharing is
    transcript-neutral in accounting terms, but the reconstructed
    annotation is wrong — the differential oracle must catch it."""
    name = sorted(inputs)[0]
    rel = inputs[name]
    if len(rel) == 0:  # pragma: no cover - generators emit >=1 tuple
        return
    from ..core.relation import SecureAnnotations

    shares = rel.annotations.to_shared(engine, label="fault")
    shares.alice[0] = (int(shares.alice[0]) + 1) % engine.ctx.modulus
    rel.annotations = SecureAnnotations.shared(shares)
