"""Vectorised marshalling kernels for the 2PC hot paths.

The REAL-mode primitives move millions of tiny values between numpy
vectors, Python ints, and wire-format byte strings.  Doing that one
``int.to_bytes`` at a time dominates every benchmark, so the hot paths
(:meth:`repro.mpc.engine.Engine._gilboa_cross`,
:func:`repro.mpc.yao.garbled_call`,
:meth:`repro.mpc.ot.IknpExtension.transfer`, the OEP switch network)
marshal through the batch kernels here instead:

* ring-element <-> little-endian byte **matrices** via ``view(np.uint8)``
  reinterpretation rather than per-element ``int.to_bytes`` loops;
* ring-element <-> little-endian bit matrices (the garbled-circuit input
  encoding of :func:`repro.mpc.gadgets.bits_of`) via ``np.unpackbits``;
* batched SHA-256: one C call per row of a contiguous input matrix,
  digests landing in one output matrix so the stream-cipher XOR is a
  single vectorised operation;
* :func:`sorted_lookup`: one argsort + ``searchsorted`` wherever an
  owner-local match used a dict probe per key (PSI's SIMULATED
  functionality, DH-OPRF token matching, same-owner alignment).

Every kernel is pinned against the scalar reference implementations in
:mod:`repro.mpc._reference` by the differential tests
(``tests/test_batch_kernels.py``): identical outputs, byte-identical
transcript fingerprints.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

__all__ = [
    "words_to_le_bytes",
    "le_bytes_to_words",
    "words_to_bits",
    "bits_to_words",
    "sha256_rows",
    "kdf_rows",
    "keystream_rows",
    "stream_xor_rows",
    "sorted_lookup",
]

#: Separator byte of :func:`repro.mpc.ot._kdf` (``sha256(b"\x00".join(parts))``).
_KDF_SEP = 0


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


def sha256_rows(rows: np.ndarray) -> np.ndarray:
    """SHA-256 of every row of a ``(m, L)`` byte matrix -> ``(m, 32)``."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    m, length = rows.shape
    out = bytearray(m * 32)
    buf = rows.data.cast("B")
    sha = hashlib.sha256
    pos = 0
    start = 0
    for _ in range(m):
        out[pos : pos + 32] = sha(buf[start : start + length]).digest()
        pos += 32
        start += length
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(m, 32)


def kdf_rows(*parts: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.mpc.ot._kdf` over byte-matrix parts.

    Each part is ``(m, w_i)`` (or a 1-D ``(w_i,)`` array broadcast to all
    rows); row ``j`` of the result is
    ``sha256(b"\\x00".join(part[j] for part in parts))``.
    """
    mats = []
    m = None
    for p in parts:
        p = np.asarray(p, dtype=np.uint8)
        if p.ndim == 2:
            m = p.shape[0] if m is None else m
    if m is None:
        raise ValueError("at least one 2-D part is required")
    for i, p in enumerate(parts):
        p = np.asarray(p, dtype=np.uint8)
        if p.ndim == 1:
            p = np.broadcast_to(p, (m, p.shape[0]))
        if i:
            mats.append(np.full((m, 1), _KDF_SEP, dtype=np.uint8))
        mats.append(p)
    return sha256_rows(np.concatenate(mats, axis=1))


def keystream_rows(keys: np.ndarray, length: int) -> np.ndarray:
    """``(m, 32)`` KDF keys -> ``(m, length)`` stream-cipher keystream.

    Row ``j`` equals the first ``length`` bytes of the
    :func:`repro.mpc.ot._stream_xor` keystream under ``keys[j]``:
    block ``c`` is ``sha256(key || 0x00 || c_le64)``.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    m = keys.shape[0]
    blocks = []
    produced = 0
    counter = 0
    while produced < length:
        ctr = np.frombuffer(
            counter.to_bytes(8, "little"), dtype=np.uint8
        )
        blocks.append(kdf_rows(keys, ctr))
        produced += 32
        counter += 1
    ks = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    return ks[:, :length]


def stream_xor_rows(keys: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Encrypt/decrypt a ``(m, w)`` message matrix row-by-row under the
    ``(m, 32)`` key matrix — the batched form of
    :func:`repro.mpc.ot._stream_xor`."""
    data = np.asarray(data, dtype=np.uint8)
    if data.shape[1] == 0:
        return data.copy()
    return data ^ keystream_rows(keys, data.shape[1])


def sorted_lookup(
    keys: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, slot)``: ``order`` stably sorts ``keys`` and
    ``slot[i]`` is the position of ``queries[i]`` in the sorted keys,
    or ``-1`` when it is absent — one argsort + one ``searchsorted``
    in place of a dict probe per query."""
    order = np.argsort(keys, kind="stable")
    if not len(keys):
        return order, np.full(len(queries), -1, dtype=np.int64)
    srt = keys[order]
    pos = np.minimum(np.searchsorted(srt, queries), len(keys) - 1)
    return order, np.where(srt[pos] == queries, pos, -1)
