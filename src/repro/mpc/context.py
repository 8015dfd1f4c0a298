"""The two-party protocol context.

A :class:`Context` bundles everything a protocol invocation needs: the
security parameters, the execution mode, the communication transcript, and
a deterministic randomness source.  Protocols are written as orchestration
functions over one context; in REAL mode the cryptographic primitives
actually run, in SIMULATED mode functionally-identical fast paths run.
Each primitive sends through one path in both modes, sized from public
shapes; REAL checks its payloads' sizes against it (:class:`Checked`).
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from .params import DEFAULT_PARAMS, KAPPA, SIGMA, SecurityParams
from .transcript import ALICE, BOB, Transcript, other_party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.session import Session

__all__ = [
    "Mode", "Context", "Channel", "Meter", "Checked", "ScheduleMismatch",
    "ALICE", "BOB",
]

#: The first nonce :meth:`Context.dummy_nonces` returns: above every
#: nonce the process-wide counter of data preparation
#: (:func:`repro.relalg.columns.fresh_nonces`) reaches, so a run's
#: dummies never equal a prepared relation's.
_RUN_NONCE_BASE = 1 << 62


@runtime_checkable
class Channel(Protocol):
    """What :meth:`Context.send` needs from a communication layer.

    The bare :class:`~repro.mpc.transcript.Transcript` satisfies it
    (record-only), as does the runtime
    :class:`~repro.runtime.session.Session` (framed, checksummed,
    sequence-checked — and, in two-process mode, exchanged over a
    real socket transport).  Channels meter message *metadata*; no
    payload ever crosses this interface."""

    def send(self, sender: str, n_bytes: int, label: str) -> None:
        """Record/deliver one logical message of ``n_bytes``."""
        ...  # pragma: no cover - protocol stub


class Mode(enum.Enum):
    """Primitive back-end selection.

    ``REAL`` runs genuine cryptography (garbled circuits, DH-based OT,
    masked PSI) — used by the test suite at small scale.  ``SIMULATED``
    computes the same functionality directly and meters the same
    communication — used at TPC-H benchmark scale.  See DESIGN.md,
    "Execution modes".
    """

    REAL = "real"
    SIMULATED = "simulated"


class Meter(Protocol):
    """What a primitive's send path needs of its context: the
    parameters, the mode, the role orientation, :meth:`send` and
    :meth:`section`.  A :class:`Context` is one, in either mode; so is
    the cost estimator's count-only meter, which prices a plan through
    the same send paths without building a context (see
    :mod:`repro.bench.estimator`)."""

    params: SecurityParams
    mode: Mode

    def swapped_roles(self) -> ContextManager[None]: ...

    def send(self, sender: str, n_bytes: int, label: str) -> None: ...

    def section(self, label: str) -> ContextManager[None]: ...


class ScheduleMismatch(RuntimeError):
    """A REAL payload whose size is not what its primitive's send path
    sends for the public shapes: a bug in the primitive, not a fault of
    the run, so not a :class:`~repro.runtime.aborts.ProtocolAbort`,
    which a retry would re-run."""


class Checked:
    """A primitive's sends, sized from public shapes alone and, in REAL,
    checked against the payloads.  Both modes run the primitive's one
    send path; REAL hands it ``payloads``, the sizes of the payloads it
    computed in send order, and each :meth:`send` first compares its
    scheduled size with the next of them.  SIMULATED, and the cost
    estimator's meter, have no payloads and pass ``None``."""

    def __init__(
        self, ctx: Meter, payloads: Optional[Sequence[int]] = None
    ) -> None:
        self._ctx = ctx
        self._payloads: Optional[List[int]] = (
            None if payloads is None else list(payloads)
        )

    def send(self, sender: str, n_bytes: int, label: str) -> None:
        if self._payloads is not None:
            payload = self._payloads.pop(0) if self._payloads else None
            if payload != n_bytes:
                raise ScheduleMismatch(
                    f"{label!r}: REAL computed a payload of {payload} B, "
                    f"its send path sends {n_bytes} B"
                )
        self._ctx.send(sender, n_bytes, label)


class Context:
    """Shared state of one protocol session between Alice and Bob."""

    def __init__(
        self,
        mode: Mode = Mode.SIMULATED,
        params: SecurityParams = DEFAULT_PARAMS,
        seed: Optional[int] = None,
    ) -> None:
        self.mode = mode
        self.params = params
        self.transcript = Transcript()
        self.rng = np.random.default_rng(seed)
        self._roles_swapped = False
        self._session: Optional["Session"] = None
        self._channel: Channel = self.transcript
        #: the next :meth:`tweak_batch` number
        self._tweak_batch = 0
        #: the next :meth:`dummy_nonces` nonce
        self._dummy_nonce = _RUN_NONCE_BASE
        #: the secret salt of every item digest of the session
        #: (:func:`repro.mpc.cuckoo.item_digests`), drawn as it starts
        self.digest_salt = self.random_bytes(16)

    @property
    def session(self) -> Optional["Session"]:
        """Optional fault-tolerant session layer
        (:func:`repro.runtime.session.enable_session` attaches one);
        when set, every :meth:`send` is framed, checksummed and
        sequence-checked before it is metered.  Assigning a session
        routes every send through it (``None`` restores the bare
        transcript)."""
        return self._session

    @session.setter
    def session(self, session: Optional["Session"]) -> None:
        self._session = session
        self._channel = session if session is not None else self.transcript

    # -- convenience ----------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.params.modulus

    @property
    def mask(self) -> np.uint64:
        return np.uint64(self.params.modulus - 1)

    def random_ring_vector(self, n: int) -> np.ndarray:
        """``n`` independent uniform elements of ``Z_{2^ell}``."""
        return self.rng.integers(
            0, self.params.modulus, size=n, dtype=np.uint64
        )

    def random_bytes(self, n: int) -> bytes:
        return self.rng.bytes(n)

    def tweak_batch(self) -> int:
        """A public batch number no earlier call returned: what makes
        the tweaks of one batch of fixed-key hashes
        (:func:`repro.mpc.batch.tccr_hash`) unique within the context.
        Both parties draw it in the same protocol order, so neither
        sends it.  A retried node hashes under fresh tweaks: see
        :meth:`rekey`."""
        n = self._tweak_batch
        self._tweak_batch = n + 1
        return n

    def dummy_nonces(self, k: int) -> np.ndarray:
        """``k`` dummy-row nonces (:mod:`repro.relalg.columns`) no
        earlier call returned, for the dummies an operator makes while
        the plan runs: a run's dummies are a function of its context,
        so one process replays a seeded run."""
        start = self._dummy_nonce
        self._dummy_nonce = start + k
        return np.arange(start, start + k, dtype=np.int64)

    @property
    def counters(self) -> Tuple[int, int]:
        """The next :meth:`tweak_batch` number and the next
        :meth:`dummy_nonces` nonce: how far the context's one-time
        streams have run."""
        return self._tweak_batch, self._dummy_nonce

    def rekey(
        self, rng: np.random.Generator, counters: Tuple[int, int]
    ) -> None:
        """Re-key a retried node: fresh randomness, and the tweak and
        nonce streams continued from ``counters``, where the failed
        attempt left them, so no tweak or nonce it drew is drawn again
        (:mod:`repro.runtime.supervisor`)."""
        self.rng = rng
        self._tweak_batch, self._dummy_nonce = counters

    def send(self, sender: str, n_bytes: int, label: str) -> None:
        if self._roles_swapped:
            sender = other_party(sender)
        self._channel.send(sender, n_bytes, label)

    def section(self, label: str) -> ContextManager[None]:
        return self.transcript.section(label)

    @property
    def roles_swapped(self) -> bool:
        """Whether protocol-Alice is physical Bob right now."""
        return self._roles_swapped

    @contextmanager
    def swapped_roles(self) -> Iterator[None]:
        """Mirror the protocol roles: inside this block, code written for
        "Alice evaluates / Bob garbles" runs with the physical parties
        exchanged.  Operators use this so that the relation *owner* always
        plays the protocol-Alice role of Section 6, whichever physical
        party it is.  Nesting toggles back."""
        self._roles_swapped = not self._roles_swapped
        try:
            yield
        finally:
            self._roles_swapped = not self._roles_swapped

    def __repr__(self) -> str:
        return (
            f"Context(mode={self.mode.value}, kappa={KAPPA}, "
            f"sigma={SIGMA}, ell={self.params.ell})"
        )
