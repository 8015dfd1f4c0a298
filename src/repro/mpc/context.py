"""The two-party protocol context.

A :class:`Context` bundles everything a protocol invocation needs: the
security parameters, the execution mode, the communication transcript, and
a deterministic randomness source.  Protocols are written as orchestration
functions over one context; in REAL mode the cryptographic primitives
actually run, in SIMULATED mode functionally-identical fast paths run and
charge the identical communication to the transcript.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

from .params import DEFAULT_PARAMS, SecurityParams
from .runcache import RunCache
from .transcript import ALICE, BOB, Transcript, other_party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.session import Session

__all__ = ["Mode", "Context", "Channel", "ALICE", "BOB"]


@runtime_checkable
class Channel(Protocol):
    """What :meth:`Context.send` needs from a communication layer.

    The bare :class:`~repro.mpc.transcript.Transcript` satisfies it
    (record-only), as does the runtime
    :class:`~repro.runtime.session.Session` (framed, checksummed,
    deadline-supervised — and, in two-process mode, exchanged over a
    real socket transport).  Channels meter message *metadata*; no
    payload ever crosses this interface."""

    def send(self, sender: str, n_bytes: int, label: str = "") -> None:
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
        self.cache = RunCache()
        self._roles_swapped = False
        self._session: Optional["Session"] = None
        self._channel: Channel = self.transcript
        #: the next :meth:`tweak_batch` number, in a cell that
        #: :meth:`fresh` children share
        self._tweak_batches = [0]

    @property
    def channel(self) -> Channel:
        """The pluggable communication layer every :meth:`send` routes
        through.  Defaults to the bare transcript; attaching a session
        (see :attr:`session`) swaps it; custom channels (test doubles,
        alternative transports) may be assigned directly as long as
        they ultimately meter into :attr:`transcript`."""
        return self._channel

    @channel.setter
    def channel(self, channel: Channel) -> None:
        self._channel = channel

    @property
    def session(self) -> Optional["Session"]:
        """Optional fault-tolerant session layer
        (:func:`repro.runtime.session.enable_session` attaches one);
        when set, every :meth:`send` is framed, checksummed and
        deadline-supervised before it is metered.  Assigning a session
        also makes it the active :attr:`channel` (``None`` restores
        the bare transcript)."""
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
        sends it.  Like :attr:`rng`, a checkpoint restore does not
        rewind it: a retried node hashes under fresh tweaks."""
        n = self._tweak_batches[0]
        self._tweak_batches[0] = n + 1
        return n

    def send(self, sender: str, n_bytes: int, label: str = "") -> None:
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

    def cache_stats(self) -> dict:
        """Hit/miss counters of the per-run setup cache (circuit
        templates and Beneš topologies) — see
        :meth:`repro.mpc.runcache.RunCache.stats`.  Because
        :meth:`fresh` shares the cache, these counters aggregate over
        every sub-protocol of the run."""
        return self.cache.stats()

    def fresh(self) -> "Context":
        """A new context with the same configuration but an empty
        transcript (used when measuring a sub-protocol in isolation).

        The role orientation carries over: a sub-protocol measured inside
        a :meth:`swapped_roles` block must keep attributing bytes to the
        correct physical party.  The run cache is shared — setup material
        is public and per-run, not per-transcript.  The session layer is
        deliberately **not** inherited: an isolated measurement meters
        its private transcript unframed."""
        child = Context(self.mode, self.params)
        child.rng = self.rng
        child._tweak_batches = self._tweak_batches
        child.cache = self.cache
        child._roles_swapped = self._roles_swapped
        return child

    def __repr__(self) -> str:
        return (
            f"Context(mode={self.mode.value}, kappa={self.params.kappa}, "
            f"sigma={self.params.sigma}, ell={self.params.ell})"
        )
