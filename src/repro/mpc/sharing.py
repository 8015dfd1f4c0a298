"""Additive (arithmetic) secret sharing over ``Z_{2^ell}`` (Section 5.1).

A value ``v`` is split as ``v = ([[v]]_1 + [[v]]_2) mod 2^ell`` with
``[[v]]_1`` uniform — each share alone is a uniform random ring element and
reveals nothing.  :class:`SharedVector` holds both parties' share arrays;
this is an artefact of the in-process simulation — protocol code only ever
combines the two arrays through metered primitives, and the obliviousness
tests check the resulting traffic is input-independent.

Local operations (addition of shares, negation, multiplication by a public
constant) need no communication, exactly as in the paper.
"""

from __future__ import annotations

import operator
from typing import Sequence, Union

import numpy as np

from ..leakage import reveals
from .context import ALICE, Context
from .costs import share_bytes
from .transcript import other_party

__all__ = [
    "SharedVector",
    "share_vector",
    "reveal_vector",
    "as_ring_column",
]


def _to_ring(values: Sequence[int] | np.ndarray, modulus: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        # Python ints of 2^63 and more beside smaller ones convert to
        # floats: keep them objects (the path below refuses real floats).
        arr = np.asarray(values, dtype=object)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if arr.dtype.kind == "f":
        raise TypeError("annotations must be integers, not floats")
    if arr.dtype.kind not in ("i", "u", "b"):
        # Object arrays (Python bignums): reduce in object space.
        return np.asarray(
            [operator.index(v) % modulus for v in arr.tolist()],
            dtype=np.uint64,
        )
    # Reduce in uint64 space: the unsigned cast wraps mod 2^64 (exact
    # for negatives), and the ring modulus divides 2^64, so the mask
    # finishes the reduction.  An int64 detour would corrupt uint64
    # inputs >= 2^63 and overflow for 2^63-moduli.
    return arr.astype(np.uint64, copy=False) & np.uint64(modulus - 1)


def as_ring_column(
    values: Sequence[int] | np.ndarray, modulus: int
) -> np.ndarray:
    """Validate/coerce a ``(n,)`` integer vector into ring elements.

    The column-level entry points (``Engine.share_column`` and friends)
    funnel through here so every phase marshals whole columns with one
    call and one transcript charge."""
    arr = _to_ring(values, modulus)
    if arr.ndim != 1:
        raise ValueError(
            f"expected a flat (n,) column, got shape {np.asarray(values).shape}"
        )
    return arr


class SharedVector:
    """A vector of secret-shared ring elements.

    ``alice + bob (mod 2^ell)`` reconstructs the cleartext vector.
    """

    __slots__ = ("alice", "bob", "modulus")

    def __init__(
        self, alice: np.ndarray, bob: np.ndarray, modulus: int
    ) -> None:
        alice = np.asarray(alice, dtype=np.uint64)
        bob = np.asarray(bob, dtype=np.uint64)
        if alice.shape != bob.shape:
            raise ValueError(
                f"share shapes differ: {alice.shape} vs {bob.shape}"
            )
        self.alice = alice
        self.bob = bob
        self.modulus = modulus

    def __len__(self) -> int:
        return len(self.alice)

    @property
    def _mask(self) -> np.uint64:
        return np.uint64(self.modulus - 1)

    # -- local (communication-free) share arithmetic ---------------------

    def __add__(self, other: "SharedVector") -> "SharedVector":
        self._check(other)
        return SharedVector(
            (self.alice + other.alice) & self._mask,
            (self.bob + other.bob) & self._mask,
            self.modulus,
        )

    def __sub__(self, other: "SharedVector") -> "SharedVector":
        self._check(other)
        return SharedVector(
            (self.alice - other.alice) & self._mask,
            (self.bob - other.bob) & self._mask,
            self.modulus,
        )

    def __neg__(self) -> "SharedVector":
        return SharedVector(
            (-self.alice) & self._mask, (-self.bob) & self._mask, self.modulus
        )

    def add_public(
        self, values: Sequence[int] | np.ndarray, holder: str = ALICE
    ) -> "SharedVector":
        """Add a public (or ``holder``-known) vector: only the holder's
        share changes, no communication."""
        vals = _to_ring(values, self.modulus)
        if holder == ALICE:
            return SharedVector(
                (self.alice + vals) & self._mask, self.bob, self.modulus
            )
        return SharedVector(
            self.alice, (self.bob + vals) & self._mask, self.modulus
        )

    def mul_public(self, values: Sequence[int] | np.ndarray) -> "SharedVector":
        """Multiply elementwise by a *public* vector (both parties know it,
        so each scales their own share — no communication)."""
        vals = _to_ring(values, self.modulus)
        return SharedVector(
            (self.alice * vals) & self._mask,
            (self.bob * vals) & self._mask,
            self.modulus,
        )

    def sum(self) -> "SharedVector":
        """Shares of the ring sum of all elements (local)."""
        return SharedVector(
            np.asarray([self.alice.sum() & self._mask], dtype=np.uint64),
            np.asarray([self.bob.sum() & self._mask], dtype=np.uint64),
            self.modulus,
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> "SharedVector":
        """Sub-vector by position.

        NOTE: a plain ``take`` exposes *which* positions are selected; the
        secure protocol only uses it with position sets that are public or
        known to the party doing the selection (e.g. Alice's own cuckoo
        table layout).  Data-dependent selection must go through OEP.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return SharedVector(self.alice[idx], self.bob[idx], self.modulus)

    def concat(self, other: "SharedVector") -> "SharedVector":
        self._check(other)
        return SharedVector(
            np.concatenate([self.alice, other.alice]),
            np.concatenate([self.bob, other.bob]),
            self.modulus,
        )

    def swapped(self) -> "SharedVector":
        """The same sharing with the parties' roles mirrored — used with
        :meth:`Context.swapped_roles` to run a protocol in the opposite
        orientation."""
        return SharedVector(self.bob, self.alice, self.modulus)

    @classmethod
    def zeros(cls, n: int, modulus: int) -> "SharedVector":
        """The trivial all-zero sharing of the zero vector (both shares
        zero — used for padding slots whose value is publicly zero)."""
        return cls(
            np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64), modulus
        )

    @classmethod
    def fresh(cls, ctx: Context, plain: np.ndarray) -> "SharedVector":
        """A fresh uniform sharing of ``plain`` — how every SIMULATED
        primitive outputs the value its REAL twin computes shared."""
        a = ctx.random_ring_vector(len(plain))
        return cls(
            a, (np.asarray(plain).astype(np.uint64) - a) & ctx.mask,
            ctx.modulus,
        )

    def _check(self, other: "SharedVector") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixing shares over different rings")

    # -- test-only ------------------------------------------------------

    def reconstruct(self) -> np.ndarray:
        """Combine both shares.  For tests and for *designated reveals*
        only — never called on data that must stay hidden."""
        return (self.alice + self.bob) & self._mask

    def __repr__(self) -> str:
        return f"SharedVector(n={len(self)}, modulus=2**{self.modulus.bit_length() - 1})"


def share_vector(
    ctx: Context, owner: str, values: Sequence[int] | np.ndarray, label: str = "share"
) -> SharedVector:
    """``owner`` secret-shares a vector it holds: it samples its own share
    uniformly and sends the complement to the other party."""
    vals = _to_ring(values, ctx.modulus)
    own = ctx.random_ring_vector(len(vals))
    complement = (vals - own) & ctx.mask
    ctx.send(owner, share_bytes(ctx.params.ell, len(vals)), label)
    if owner == ALICE:
        return SharedVector(own, complement, ctx.modulus)
    return SharedVector(complement, own, ctx.modulus)


@reveals("opened:result")
def reveal_vector(
    ctx: Context, sv: SharedVector, to: str, label: str = "reveal"
) -> np.ndarray:
    """Reveal a shared vector to one party: the other party sends its
    share.  Only used on values that are part of the query result (or
    otherwise derivable from it), per Section 5.1."""
    sender = other_party(to)
    ctx.send(sender, share_bytes(ctx.params.ell, len(sv)), label)
    return sv.reconstruct()
