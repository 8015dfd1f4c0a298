"""Vectorised marshalling and hashing kernels for the 2PC hot paths.

The REAL-mode primitives move millions of tiny values between numpy
vectors, Python ints, and wire-format byte strings.  Doing that one
``int.to_bytes`` at a time dominates every benchmark, so the hot paths
(:meth:`repro.mpc.engine.Engine._ring_cot`,
:func:`repro.mpc.yao.garbled_call`,
:meth:`repro.mpc.ot.SoftSpokenExtension.correlated`, the OEP switch
network) marshal through the batch kernels here instead:

* ring-element <-> little-endian byte **matrices** via ``view(np.uint8)``
  reinterpretation rather than per-element ``int.to_bytes`` loops;
* ring-element <-> little-endian bit matrices (the garbled-circuit input
  encoding of :func:`repro.mpc.gadgets.bits_of`) via ``np.unpackbits``;
* :func:`tccr_hash`, the fixed-key AES hash of every 16-byte block the
  symmetric layer hashes — the AND gates, garbler label expansion, the OT
  extension's GGM trees and leaf PRG, KKRT's column PRG and correlated-OT
  pads — one OpenSSL call per batch;
* :func:`aes_prp`, AES-128 under a per-call secret key over a block
  matrix — the SIMULATED DH-OPRF's token function, one OpenSSL call;
* :func:`aes_digests`, the 32-byte item digests under PSI and the
  DH-OPRF join (:func:`repro.mpc.cuckoo.item_digests`,
  :func:`repro.core.relation.row_digests`): CBC-MAC under a secret salt
  over rows of equal length, one OpenSSL call per 16-byte block
  position for every row of a slice at once — no hash call per row;
* :func:`sorted_lookup`: one argsort + ``searchsorted`` wherever an
  owner-local match used a dict probe per key (PSI's SIMULATED
  functionality, DH-OPRF token matching, same-owner alignment).

The scalar twins the kernels are pinned against (identical outputs,
byte-identical transcript fingerprints) live with the differential
tests, ``tests/test_batch_kernels.py`` and ``tests/reference.py``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np
from cryptography.hazmat.primitives.ciphers import (
    Cipher,
    CipherContext,
    algorithms,
    modes,
)

__all__ = [
    "words_to_le_bytes",
    "le_bytes_to_words",
    "words_to_bits",
    "bits_to_words",
    "tccr_hash",
    "tweaks",
    "aes_prp",
    "aes_ctr",
    "DigestMessages",
    "aes_digests",
    "sorted_lookup",
]


def words_to_le_bytes(words: np.ndarray, width: int) -> np.ndarray:
    """``(n,)`` uint64 ring elements -> ``(n, width)`` little-endian bytes.

    The vectorised equivalent of ``int(w).to_bytes(width, "little")`` per
    element; ``width`` may be 1..8 (values must fit, high bytes are
    truncated exactly like the ring mask guarantees).
    """
    if not 1 <= width <= 8:
        raise ValueError("ring element width must be 1..8 bytes")
    w = np.ascontiguousarray(words, dtype="<u8")
    return w.view(np.uint8).reshape(-1, 8)[:, :width]


def le_bytes_to_words(mat: np.ndarray) -> np.ndarray:
    """``(n, width)`` little-endian byte matrix -> ``(n,)`` uint64."""
    mat = np.asarray(mat, dtype=np.uint8)
    n, width = mat.shape
    if width > 8:
        raise ValueError("ring element width must be <= 8 bytes")
    if width < 8:
        full = np.zeros((n, 8), dtype=np.uint8)
        full[:, :width] = mat
    else:
        full = np.ascontiguousarray(mat)
    return full.view("<u8").reshape(n)


def words_to_bits(words: np.ndarray, ell: int) -> np.ndarray:
    """``(n,)`` ring elements -> ``(n, ell)`` little-endian bit matrix.

    Row ``i`` equals ``gadgets.bits_of(int(words[i]), ell)``.
    """
    b = words_to_le_bytes(np.asarray(words, dtype=np.uint64), (ell + 7) // 8)
    bits = np.unpackbits(
        np.ascontiguousarray(b), axis=1, bitorder="little"
    )
    return bits[:, :ell]


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """``(n, ell)`` little-endian bit matrix -> ``(n,)`` uint64 words.

    Row-wise inverse of :func:`words_to_bits`
    (= ``gadgets.int_of`` per row).
    """
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if bits.size == 0:
        # An empty batch arrives as shape (0,): no rows, no words.
        return np.zeros(0, dtype=np.uint64)
    if bits.shape[1] > 64:
        raise ValueError("at most 64 bits per word")
    packed = np.packbits(bits, axis=1, bitorder="little")
    return le_bytes_to_words(packed)


#: The public AES-128 key of :func:`tccr_hash` (the first 128 bits of
#: pi's fractional part): fixed-key garbling needs a key everyone knows.
FIXED_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")
#: The reduction term of doubling in GF(2^128) mod x^128 + x^7 + x^2 + x + 1.
_GF128_R = np.uint64(0x87)
_ONE = np.uint64(1)
_TOP = np.uint64(63)
_ROW = np.uint64(32)

#: One encryptor per thread: ECB keeps no state between ``update`` calls,
#: but an encryptor object is not safe to share across threads.
_local = threading.local()


def _ecb(key: bytes) -> CipherContext:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


def _fixed_key_aes() -> CipherContext:
    enc: Optional[CipherContext] = getattr(_local, "aes", None)
    if enc is None:
        enc = _local.aes = _ecb(FIXED_KEY)
    return enc


def _blocks(words: np.ndarray) -> np.ndarray:
    """``(..., 2)`` 64-bit words as ``(...)`` 16-byte elements (a
    ``complex128`` view, never computed on): a broadcast copy moves one
    block per element, not two words per inner loop."""
    return words.view(np.complex128)[..., 0]


def tccr_hash(x: np.ndarray, tweak: np.ndarray) -> np.ndarray:
    """The tweakable correlation-robust hash ``H(x, t) = pi(sigma(x) ^ t)
    ^ sigma(x)`` of Guo, Katz, Wang and Yu (S&P 2020), block-wise.

    ``x`` and ``tweak`` are ``(..., 16)`` byte arrays of blocks that
    broadcast together — one hash per element of the broadcast shape,
    so a block hashed under many tweaks (a seed's expansion) is passed
    once; ``tweak`` comes from :func:`tweaks`, and a block is the
    little-endian integer of its bytes.
    ``sigma`` is doubling in ``GF(2^128)`` — linear, and ``sigma(x) ^ x``
    is a permutation too, the orthomorphism the bound needs — and ``pi``
    is AES-128 under the public :data:`FIXED_KEY`, every block of the
    call in one OpenSSL ``update_into``.  The bound holds while no
    tweak repeats, so callers build tweaks from a public batch number
    that is fresh per hashing batch (:meth:`repro.mpc.context.Context.
    tweak_batch`).

    ``sigma(x)`` is computed once per distinct block, in ``x``'s shape,
    and copied block-wise to the broadcast shape only when ``x`` is
    smaller; the AES input is built in its own buffer, so every
    word-wise operation runs over contiguous memory."""
    x64 = np.ascontiguousarray(x, dtype=np.uint8).view("<u8")
    t64 = np.ascontiguousarray(tweak, dtype=np.uint8).view("<u8")
    shape = np.broadcast_shapes(x64.shape, t64.shape)
    s = np.left_shift(x64, _ONE)
    carry = x64 >> _TOP
    s[..., 1] |= carry[..., 0]
    carry[..., 1] *= _GF128_R
    s[..., 0] ^= carry[..., 1]
    if s.shape != shape:
        full = np.empty(shape, dtype="<u8")
        np.copyto(_blocks(full), _blocks(s))
        s = full
    inp = np.empty(shape, dtype="<u8")
    if t64.shape != shape:
        np.copyto(_blocks(inp), _blocks(t64))
        inp ^= s
    else:
        np.bitwise_xor(s, t64, out=inp)
    if not inp.size:
        return inp.view(np.uint8)
    out = np.empty(inp.nbytes + 15, dtype=np.uint8)
    _fixed_key_aes().update_into(inp.data.cast("B"), out)
    h = out[: inp.nbytes].view("<u8").reshape(shape)
    h ^= s
    return h.view(np.uint8)


def tweaks(batch: int, row: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``(..., 16)`` :func:`tccr_hash` tweaks, one per element of
    ``row`` and ``index`` broadcast together: the low 64 bits hold the
    public batch number, the high 64 ``row`` (an instance or OT number)
    over ``index`` (the hash's position within the row), 32 bits each.
    Built as one base block, the batch number, whose high word takes
    the row/index offset in place."""
    row = np.asarray(row, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    t = np.empty(np.broadcast_shapes(row.shape, index.shape) + (2,), "<u8")
    t[..., 0] = batch
    np.bitwise_or(row << _ROW, index, out=t[..., 1])
    return t.view(np.uint8)


def aes_prp(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """AES-128 under the secret ``key`` of every row of an ``(n, 16)``
    byte matrix, one OpenSSL call: a keyed pseudorandom permutation, so
    equal blocks map to equal outputs and distinct blocks to distinct
    ones (the SIMULATED DH-OPRF's token function)."""
    return _encrypt(_ecb(key), blocks)


def _encrypt(enc: CipherContext, blocks: np.ndarray) -> np.ndarray:
    """Every row of an ``(n, 16)`` byte matrix under the ECB encryptor
    ``enc``, which keeps no state between calls."""
    blocks = np.ascontiguousarray(blocks, dtype=np.uint8).reshape(-1, 16)
    if not blocks.size:
        return blocks
    out = np.empty(blocks.nbytes + 15, dtype=np.uint8)
    enc.update_into(blocks.data.cast("B"), out)
    return out[: blocks.nbytes].reshape(-1, 16)


def aes_ctr(key: bytes, first: int, n_blocks: int) -> np.ndarray:
    """Blocks ``first`` to ``first + n_blocks - 1`` of AES-128-CTR's
    keystream under ``key``, the counter one big-endian 128-bit block,
    as ``(n_blocks, 16)`` bytes: a random-access PRG for public
    randomness (the silent-OT pool's LPN code), one OpenSSL call."""
    counter = first.to_bytes(16, "big")
    enc = Cipher(algorithms.AES(key), modes.CTR(counter)).encryptor()
    out = np.zeros(16 * n_blocks + 15, dtype=np.uint8)
    enc.update_into(out[: 16 * n_blocks].data, out)
    return out[: 16 * n_blocks].reshape(n_blocks, 16)


#: Rows :func:`aes_digests` hashes at a time, so its block-major
#: temporaries stay a few MB however many rows a block has.
_DIGEST_SLICE = 1 << 12


class DigestMessages(NamedTuple):
    """Rows of one ``length`` laid out as :func:`aes_digests` hashes
    them: ``msg[i]`` is the length as 8 little-endian bytes, row ``i``
    and zero padding to whole 16-byte blocks.  A caller that writes its
    rows straight into :attr:`rows` saves copying them."""

    msg: np.ndarray
    length: int

    @classmethod
    def zeros(cls, m: int, length: int) -> "DigestMessages":
        """``m`` all-zero rows, their length prefixes set."""
        msg = np.zeros((m, 16 * ((8 + length + 15) // 16)), dtype=np.uint8)
        msg.view("<u8")[:, 0] = length
        return cls(msg, length)

    @property
    def rows(self) -> np.ndarray:
        """The ``(m, length)`` view of the rows inside :attr:`msg`."""
        return self.msg[:, 8 : 8 + self.length]


def aes_digests(
    salt: bytes, rows: Union[np.ndarray, DigestMessages]
) -> np.ndarray:
    """The 32-byte digest of every row of an ``(m, L)`` byte matrix
    under the secret 16-byte ``salt``: the CBC-MAC (AES-128 keyed by
    ``salt``, zero IV) of ``L`` as 8 little-endian bytes, the row and
    zero padding — a PRF, since the length prefix makes the messages
    prefix-free — run one block further twice, with the blocks ``1``
    and ``2``, for the two halves.  One ECB call, as in :func:`aes_prp`,
    per block position over every row of a slice.  Rows already laid
    out as :class:`DigestMessages` are hashed where they are."""
    if not isinstance(rows, DigestMessages):
        laid_out = DigestMessages.zeros(*rows.shape)
        laid_out.rows[...] = rows
        rows = laid_out
    enc = _ecb(salt)
    out = np.empty((len(rows.msg), 32), dtype=np.uint8)
    for lo in range(0, len(out), _DIGEST_SLICE):
        msg = rows.msg[lo : lo + _DIGEST_SLICE]
        # Block-major, so each block position is contiguous (moved as
        # 16-byte ``complex128`` elements, never computed on).
        chunks = msg.view(np.complex128).T.copy()
        mac = _encrypt(enc, chunks[0].view(np.uint8))
        for chunk in chunks[1:]:
            mac = _encrypt(enc, mac ^ chunk.view(np.uint8).reshape(-1, 16))
        tail = np.repeat(mac, 2, axis=0)
        tail[0::2, 0] ^= 1
        tail[1::2, 0] ^= 2
        out[lo : lo + len(msg)] = _encrypt(enc, tail).reshape(-1, 32)
    return out


def sorted_lookup(
    keys: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, slot)``: ``order`` sorts ``keys`` and ``slot[i]`` is
    the position of ``queries[i]`` in the sorted keys, or ``-1`` when it
    is absent — one argsort + one ``searchsorted`` in place of a dict
    probe per query.  The queries are probed in sorted order, so the
    binary searches sweep the keys once instead of jumping about them,
    and their slots are scattered back.

    ``keys`` must be distinct, so the order is the one sort of them
    whatever the algorithm; a duplicate, found in one pass over the
    sorted keys, raises ``ValueError``."""
    order = np.argsort(keys)
    if not len(keys):
        return order, np.full(len(queries), -1, dtype=np.int64)
    srt = keys[order]
    if (srt[1:] == srt[:-1]).any():
        raise ValueError("sorted_lookup requires distinct keys")
    by_query = np.argsort(queries)
    probes = queries[by_query]
    pos = np.minimum(np.searchsorted(srt, probes), len(keys) - 1)
    slot = np.empty(len(queries), dtype=np.int64)
    slot[by_query] = np.where(srt[pos] == probes, pos, -1)
    return order, slot
