"""Oblivious key-value store: PSI's OPPRF hint (Section 5.3).

Bob programs one table ``T`` of 16-byte slots so that every key he
encodes decodes to its value.  Decoding key ``x`` is a GF(2) inner
product,

    decode(T, x) = T[h_0(x)] ^ T[h_1(x)] ^ T[h_2(x)] ^ <r(x), D>,

the 3-hash garbled cuckoo table of Garimella, Pinkas, Rosulek, Trieu
and Yanai ("Oblivious Key-Value Stores and Amplification for PSI",
CRYPTO 2021): ``h_j`` picks one slot in the ``j``-th third of a sparse
part of ``3 k`` slots, ``k = ceil(1.3 n / 3)`` for a public bound ``n``
on the key count, and ``r(x)`` is ``d`` pseudorandom bits selecting
slots of a dense part ``D`` (:func:`dense_width`).

Encoding peels the sparse rows — a slot only one remaining key touches
is that key's to set, last — a round at a time, every round one vector
step; the 2-core that peeling cannot remove is small and is solved
with the dense part by Gauss–Jordan elimination over GF(2).  Every
slot no equation pins stays uniform, so for uniform values the table
is uniform: it tells Alice nothing about Bob's keys.  An encoding
fails only if the keys' rows are linearly dependent, with probability
at most ``2^-sigma``; it then aborts — a retry with fresh hash seeds
would be visible and data dependent.

Decoding is XOR-linear, so a decode of the table's low bits is the low
bits of a decode: PSI sends each slot at the bits Alice reads
(:func:`~repro.mpc.costs.opprf_hint_bytes`).
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import List, Tuple

import numpy as np

from .batch import bits_to_words, words_to_bits
from .cuckoo import splitmix

__all__ = [
    "EXPANSION",
    "Okvs",
    "dense_width",
    "okvs_slots",
    "pack_table",
    "unpack_table",
]

#: Sparse slots per key bound (the 3-hash table peels below 1.22).
EXPANSION = 1.3

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _block(n: int) -> int:
    """Slots in each third of the sparse part."""
    return max(1, math.ceil(EXPANSION * n / 3))


@functools.lru_cache(maxsize=256)
def dense_width(n: int, sigma: int) -> int:
    """Dense slots ``d`` that bound an encoding failure of at most
    ``n`` keys by ``2^-sigma``.

    Encoding fails iff some nonempty set of rows sums to zero.  Its
    sparse parts must then sum to zero — in each third, the set's
    ``s`` slots fall on every slot an even number of times, probability
    ``q(s)`` (zero for odd ``s``) — and, independently, its dense parts
    too, probability ``2^-d``.  The union bound over sets is
    ``2^-d * E`` with ``E = sum_s C(n, s) q(s)^3``, and ``d = sigma +
    ceil(log2 E)`` when ``E > 1``.  ``E`` is summed with the smaller
    of two bounds on ``q``: pairing the ``s`` balls within their slots,
    ``(s - 1)!! / k^(s/2)``; and the character sum ``q(s) = 2^-k
    sum_j C(k, j) (1 - 2j/k)^s <= 2 ((1 + e^(-2s/k)) / 2)^k``.  ``E``
    peaks at 1.6 near ``n = 20`` and falls as ``6 / n``.
    """
    t = np.arange(1, n // 2 + 1, dtype=np.float64)
    if not len(t):
        return sigma
    k = _block(n)
    s = 2 * t
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    si, ti = s.astype(np.int64), t.astype(np.int64)
    log_choose = log_fact[n] - log_fact[si] - log_fact[n - si]
    pairing = log_fact[si] - log_fact[ti] - t * math.log(2 * k)
    character = math.log(2) + k * (np.log1p(np.exp(-2 * s / k)) - math.log(2))
    terms = log_choose + 3 * np.minimum(np.minimum(pairing, character), 0.0)
    top = terms.max()
    log2_e = (top + math.log(np.exp(terms - top).sum())) / math.log(2)
    return sigma + max(0, math.ceil(log2_e))


def okvs_slots(n: int, sigma: int) -> int:
    """Table size for at most ``n`` keys: a function of public sizes."""
    return 3 * _block(n) + dense_width(n, sigma)


def pack_table(table: np.ndarray, bits: Tuple[int, int]) -> np.ndarray:
    """A table on the wire at ``bits`` of its two columns: per slot
    column 0's low ``bits[0]`` bits, then column 1's low ``bits[1]``,
    low first, packed across the table."""
    columns = [words_to_bits(table[:, j], b) for j, b in enumerate(bits)]
    return np.packbits(np.hstack(columns), bitorder="little")


def unpack_table(
    wire: np.ndarray, n_slots: int, bits: Tuple[int, int]
) -> np.ndarray:
    """:func:`pack_table`'s ``(n_slots, 2)`` table, each word its sent
    bits zero-extended: it decodes to the low bits of every decode of
    the packed table."""
    flat = np.unpackbits(wire, count=n_slots * sum(bits), bitorder="little")
    flat = flat.reshape(n_slots, sum(bits))
    return np.stack(
        [bits_to_words(flat[:, : bits[0]]), bits_to_words(flat[:, bits[0] :])],
        axis=1,
    )


def _xor_select(bits: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Row ``i``: the XOR of ``slots[j]`` over the bits ``j`` set in
    row ``i`` of the little-endian packed ``bits`` — a GF(2) matrix
    product: the 256 subset sums of each byte column's 8 slots, then
    one gather per byte."""
    g = bits.shape[1]
    eights = np.zeros((g * 8, 2), dtype=np.uint64)
    eights[: len(slots)] = slots
    eights = eights.reshape(g, 8, 2)
    sums = np.zeros((g, 1, 2), dtype=np.uint64)
    for i in range(8):  # bit i doubles every column's sums
        sums = np.concatenate([sums, sums ^ eights[:, i : i + 1]], axis=1)
    out = np.zeros((len(bits), 2), dtype=np.uint64)
    for j in range(g):
        out ^= sums[j, bits[:, j]]
    return out


class Okvs:
    """The table shape for at most ``n`` keys and the hash functions of
    one ``seed``; keys are ``(n, 2)`` and values ``(n, 2)`` ``uint64``
    arrays, a 16-byte value per key."""

    def __init__(self, n: int, sigma: int, seed: bytes) -> None:
        self.n, self.k = n, _block(n)
        self.d = dense_width(n, sigma)
        self.slots = 3 * self.k + self.d
        words = np.frombuffer(
            hashlib.sha256(b"okvs" + seed).digest(), dtype="<u8"
        )
        # one pair of keys per output word: 3 slots, then dense bits
        steps = np.arange(1, 4 + (self.d + 63) // 64, dtype=np.uint64)
        self._keys = [splitmix(w + _GOLDEN * steps) for w in words[:2]]

    def rows(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every key's three sparse slots and its ``d`` dense bits,
        packed little-endian."""
        k0, k1 = self._keys
        words = splitmix(splitmix(keys[:, :1] ^ k0) ^ keys[:, 1:] ^ k1)
        pos = (words[:, :3] % np.uint64(self.k)).astype(np.int64)
        pos += self.k * np.arange(3)
        bits = np.ascontiguousarray(words[:, 3:]).view(np.uint8)
        bits = bits[:, : (self.d + 7) // 8].copy()
        if self.d % 8:
            bits[:, -1] &= (1 << self.d % 8) - 1
        return pos, bits

    def decode(self, table: np.ndarray, keys: np.ndarray) -> np.ndarray:
        pos, bits = self.rows(keys)
        sparse = table[pos[:, 0]] ^ table[pos[:, 1]] ^ table[pos[:, 2]]
        return sparse ^ _xor_select(bits, table[3 * self.k :])

    def encode(
        self, keys: np.ndarray, values: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """A table that decodes each of the distinct ``keys`` to its
        value, uniform in every slot no key pins."""
        if len(keys) > self.n:
            raise ValueError(f"{len(keys)} keys exceed the bound {self.n}")
        m = 3 * self.k
        table = rng.integers(0, 1 << 64, size=(self.slots, 2), dtype=np.uint64)
        pos, bits = self.rows(keys)
        rounds, core = _peel(pos, m)
        if len(core):
            _solve(table, m, pos[core], bits[core], values[core])
        dense = _xor_select(bits, table[m:])
        for keys_, slots in reversed(rounds):
            p = pos[keys_]
            table[slots] ^= (
                table[p[:, 0]] ^ table[p[:, 1]] ^ table[p[:, 2]]
                ^ dense[keys_] ^ values[keys_]
            )
        return table


def _peel(
    pos: np.ndarray, m: int
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Peeling rounds ``(keys, their own slots)`` and the 2-core's keys.

    A slot with one remaining key names it by the sum of the key
    indices on the slot.  No key touches a slot that another key of its
    round or of an earlier one claims, so setting the claimed slots
    round by round from the last is a valid back-substitution."""
    owner = np.repeat(np.arange(len(pos)), 3)
    flat = pos.ravel()
    count = np.bincount(flat, minlength=m)
    key_sum = np.bincount(flat, weights=owner, minlength=m)
    alive = np.ones(len(pos), dtype=bool)
    rounds = []
    frontier = np.flatnonzero(count == 1)
    while len(frontier):
        keys, first = np.unique(
            key_sum[frontier].astype(np.int64), return_index=True
        )
        rounds.append((keys, frontier[first]))
        alive[keys] = False
        gone = pos[keys].ravel()
        count -= np.bincount(gone, minlength=m)
        key_sum -= np.bincount(gone, weights=np.repeat(keys, 3), minlength=m)
        frontier = np.unique(gone[count[gone] == 1])
    return rounds, np.flatnonzero(alive)


def _solve(
    table: np.ndarray,
    m: int,
    pos: np.ndarray,
    bits: np.ndarray,
    values: np.ndarray,
) -> None:
    """Set the slots the 2-core's rows touch: Gauss–Jordan over GF(2)
    on those rows, one pivot slot per row, every other slot left as
    drawn."""
    cols, local = np.unique(pos, return_inverse=True)
    r, c = len(pos), len(cols)
    d = len(table) - m
    a = np.zeros((r, c + d), dtype=bool)
    a[np.arange(r)[:, None], local.reshape(r, 3)] = True
    a[:, c:] = np.unpackbits(bits, axis=1, count=d, bitorder="little")
    rhs = values.copy()
    pivots: List[int] = []
    for col in range(a.shape[1]):
        row = len(pivots)
        if row == r:
            break
        hits = np.flatnonzero(a[row:, col])
        if not len(hits):
            continue
        p = row + hits[0]
        a[[row, p]], rhs[[row, p]] = a[[p, row]], rhs[[p, row]]
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        a[others] ^= a[row]
        rhs[others] ^= rhs[row]
        pivots.append(col)
    if len(pivots) < r:
        raise RuntimeError(
            "OKVS encoding failed: the keys' rows are linearly dependent "
            "(probability <= 2^-sigma); aborting"
        )
    unknown = np.concatenate([cols, np.arange(m, m + d)])
    x = table[unknown]
    x[pivots] = 0
    x[pivots] = rhs ^ _xor_select(np.packbits(a, axis=1, bitorder="little"), x)
    table[unknown] = x
