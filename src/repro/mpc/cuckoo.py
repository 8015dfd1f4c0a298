"""Cuckoo hashing for the PSI protocol (Section 5.3).

Alice maps her ``M`` items into ``B = 1.27 * M`` bins with 3 hash
functions so that each bin holds at most one item (failure probability
below ``2^-sigma``; on failure we re-draw hash seeds, which the protocol
permits since seeds are chosen before any data-dependent interaction).
Bob hashes each of his items into *all three* candidate bins ("simple
hashing"); his entries are programmed into one oblivious key-value
store sized by his item count (:mod:`repro.mpc.okvs`), so no bin is
padded.

Items are serialised with a canonical encoding shared by both parties
and hashed **once**, under the session's secret salt, into a 32-byte
digest (:func:`repro.mpc.batch.aes_digests`), one row of an ``(n, 4)``
``uint64`` matrix: word 0 (masked to 62 bits) is the fingerprint the
bin circuits compare, words 1-3 keyed with the 16-byte seeds give the
three bin hashes, and the whole row is the DH-OPRF token input
(:mod:`repro.mpc.dhoprf`).  Everything below the digest is array code;
every entry point takes either a sequence of hashable items or a
precomputed digest matrix.  Dummy slots draw from party-reserved
fingerprint spaces so they can never collide with real items or with
the other party's dummies.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence, Tuple, Union

import numpy as np

from .batch import aes_digests

__all__ = [
    "Items",
    "LOCAL_SALT",
    "encode_item",
    "item_digests",
    "has_duplicates",
    "fingerprints",
    "candidate_bins",
    "CuckooTable",
    "simple_hash_bins",
    "splitmix",
    "num_bins",
    "FINGERPRINT_BITS",
    "DUMMY_ALICE",
    "DUMMY_BOB",
]

#: What the PSI / DH-OPRF entry points accept: hashable items, or their
#: ``(n, 4)`` ``uint64`` digest matrix computed up front.
Items = Union[Sequence[Hashable], np.ndarray]

#: Fingerprints are 64-bit; the top two bits partition the space into
#: real items (00/01), Alice dummies (10) and Bob dummies (11).
FINGERPRINT_BITS = 64
_REAL_MASK = np.uint64((1 << 62) - 1)
DUMMY_ALICE = 2 << 62
DUMMY_BOB = 3 << 62

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: The public salt of digests outside a protocol run (tests, tools); a
#: run digests under its context's secret ``Context.digest_salt``.
LOCAL_SALT = bytes(16)


def encode_item(item: Hashable) -> bytes:
    """Canonical byte encoding, identical on both parties."""
    if isinstance(item, bool):
        return b"b" + bytes([item])
    if isinstance(item, int):
        if _INT64_MIN <= item <= _INT64_MAX:
            # Fixed width, so whole int columns encode as one matrix
            # (:func:`repro.core.relation.row_digests`).
            return b"i" + item.to_bytes(8, "little", signed=True)
        # Wider ints: length-prefixed under their own tag (injective).
        length = (item.bit_length() + 8) // 8
        return (
            b"I"
            + length.to_bytes(4, "little")
            + item.to_bytes(length, "little", signed=True)
        )
    if isinstance(item, str):
        return b"s" + item.encode("utf-8")
    if isinstance(item, bytes):
        return b"y" + item
    if isinstance(item, tuple):
        parts = [encode_item(x) for x in item]
        header = b"t" + len(parts).to_bytes(4, "little")
        return header + b"".join(
            len(p).to_bytes(4, "little") + p for p in parts
        )
    raise TypeError(f"cannot encode {type(item).__name__} as a PSI item")


def item_digests(items: Items, salt: bytes = LOCAL_SALT) -> np.ndarray:
    """The digest matrix of ``items`` under ``salt``: each item's
    :func:`encode_item` bytes, grouped by length, one
    :func:`~repro.mpc.batch.aes_digests` call per length.  A matrix
    passes through."""
    if isinstance(items, np.ndarray) and items.dtype == np.uint64:
        if items.ndim != 2 or items.shape[1] != 4:
            raise ValueError("a digest matrix has shape (n, 4)")
        return np.ascontiguousarray(items)
    encoded = [encode_item(x) for x in items]
    length = np.array([len(e) for e in encoded], dtype=np.int64)
    out = np.empty((len(encoded), 32), dtype=np.uint8)
    for w in np.unique(length).tolist():
        ks = np.flatnonzero(length == w)
        block = np.frombuffer(b"".join([encoded[k] for k in ks]), np.uint8)
        out[ks] = aes_digests(salt, block.reshape(len(ks), w))
    return out.view("<u8")


def has_duplicates(digests: np.ndarray) -> bool:
    """Whether two items are equal (= two digest rows are)."""
    words = np.sort(digests[:, 0])
    if not (words[1:] == words[:-1]).any():
        return False  # distinct 64-bit prefixes: the usual case
    return len(np.unique(digests.view("S32"))) < len(digests)


def fingerprints(digests: np.ndarray) -> np.ndarray:
    """62-bit item fingerprints in the "real" subspace.  A collision
    between distinct items is a correctness failure with probability
    ``< M*N / 2^62``, within the protocol's ``2^-sigma`` failure budget."""
    return digests[:, 0] & _REAL_MASK


def candidate_bins(
    digests: np.ndarray, seeds: Sequence[bytes], n_bins: int
) -> np.ndarray:
    """``(n, len(seeds))`` candidate bins: hash ``h`` is the splitmix64
    finaliser of digest word ``1 + h % 3`` keyed with seed ``h``."""
    out = np.empty((len(digests), len(seeds)), dtype=np.int64)
    for h, seed in enumerate(seeds):
        k0, k1 = np.frombuffer(seed, dtype="<u8")
        x = splitmix(digests[:, 1 + h % 3] ^ k0)
        out[:, h] = (x + k1) % np.uint64(n_bins)
    return out


def splitmix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise on ``uint64`` words."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def num_bins(n_items: int, expansion: float = 1.27) -> int:
    """Cuckoo table size ``B`` (footnote 3: B = 1.27 M suffices)."""
    return max(1, math.ceil(n_items * expansion))


class CuckooTable:
    """Alice's cuckoo hash table: each bin holds at most one item index."""

    def __init__(
        self,
        items: Items,
        n_bins: Optional[int] = None,
        n_hashes: int = 3,
        seed: int = 0,
        max_rounds: int = 500,
        max_rehashes: int = 32,
    ) -> None:
        self.digests = item_digests(items)
        if has_duplicates(self.digests):
            raise ValueError("cuckoo hashing requires distinct items")
        n = len(self.digests)
        self.n_bins = n_bins if n_bins is not None else num_bins(n)
        if self.n_bins < 1:
            raise ValueError("need at least one bin")
        rng = np.random.default_rng(seed)
        for attempt in range(max_rehashes):
            self.seeds = [bytes(rng.bytes(16)) for _ in range(n_hashes)]
            #: candidates[i] = item i's ``n_hashes`` candidate bins
            self.candidates = candidate_bins(
                self.digests, self.seeds, self.n_bins
            )
            if self._try_build(max_rounds):
                return
        raise RuntimeError(
            f"cuckoo hashing failed after {max_rehashes} rehashes "
            f"({n} items, {self.n_bins} bins)"
        )

    def _try_build(self, max_rounds: int) -> bool:
        """Insertion in vectorised rounds: every pending item proposes
        its next candidate bin, the lowest item index among a bin's
        proposers takes it, and the occupant it evicts and the
        proposers it beat move on to their own next candidates.  No
        free slot for some item after ``max_rounds`` rounds: a rehash."""
        n, n_hashes = self.candidates.shape
        bins = np.full(self.n_bins, -1, dtype=np.int64)
        claim = np.full(self.n_bins, n, dtype=np.int64)  # lowest proposer
        tries = np.zeros(n, dtype=np.int64)  # candidates tried so far
        pending = np.arange(n, dtype=np.int64)
        for _ in range(max_rounds):
            if not len(pending):
                break
            want = self.candidates[pending, tries[pending] % n_hashes]
            np.minimum.at(claim, want, pending)
            won = claim[want] == pending
            claim[want] = n
            taken = want[won]
            evicted = bins[taken]
            bins[taken] = pending[won]
            pending = np.concatenate([pending[~won], evicted[evicted >= 0]])
            tries[pending] += 1
        self.bins = bins
        return not len(pending)

    def occupancy(self) -> int:
        return int((self.bins >= 0).sum())


def simple_hash_bins(
    items: Items, seeds: Sequence[bytes], n_bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bob's side: hash each item (by index) into all its candidate
    bins.  Returns ``(members, counts)``: bin ``b`` holds ``counts[b]``
    items, and ``members`` lists the bins' item indices back to back
    (bin 0's, then bin 1's, ...; ascending within a bin).  An item whose
    hash functions collide occupies a single slot of that bin."""
    cand = candidate_bins(item_digests(items), seeds, n_bins)
    keep = np.ones(cand.shape, dtype=bool)
    for h in range(1, cand.shape[1]):
        keep[:, h] = (cand[:, h : h + 1] != cand[:, :h]).all(axis=1)
    bins = cand[keep]  # row-major: item indices ascending
    order = np.argsort(bins, kind="stable")
    return np.nonzero(keep)[0][order], np.bincount(bins, minlength=n_bins)
