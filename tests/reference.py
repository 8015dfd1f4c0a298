"""Scalar reference implementations of the vectorised hot paths.

The batch kernels in :mod:`repro.mpc.batch` and the IKNP extension built
on them replaced one-value-at-a-time loops.  The scalar forms live on
here, one block or one pair at a time, and the differential tests in
``tests/test_batch_kernels.py`` pin the vectorised code against them:
identical outputs and byte-identical transcript fingerprints.  The
protocol-level consumers — garbled batches, Gilboa, the switch network
— have no twin: their tests pin semantics and REAL == SIMULATED
fingerprints instead.

Nothing in ``src/`` imports this module; it exists only as the ground
truth for tests and for line-by-line auditing of the batched code.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.mpc.batch import FIXED_KEY
from repro.mpc.context import ALICE, BOB
from repro.mpc.ot import IknpExtension, Pair, _kdf

__all__ = [
    "stream_xor",
    "tccr",
    "tweak",
    "prg_bits",
    "pad",
    "ReferenceIknpExtension",
]

_MASK128 = (1 << 128) - 1


def stream_xor(key: bytes, data: bytes) -> bytes:
    """The Chou–Orlandi ``_stream_xor``: byte-at-a-time XOR against a
    block-by-block SHA-256 keystream."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out.extend(_kdf(key, counter.to_bytes(8, "little")))
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out[: len(data)]))


def tccr(x: bytes, tweak: bytes) -> bytes:
    """``H(x, t) = AES_k(2x ^ t) ^ 2x`` for one 16-byte block, with the
    doubling in ``GF(2^128)`` (modulus ``x^128 + x^7 + x^2 + x + 1``) on
    the little-endian integer of the block written out."""
    v = int.from_bytes(x, "little")
    doubled = ((v << 1) & _MASK128) ^ (0x87 if v >> 127 else 0)
    block = (doubled ^ int.from_bytes(tweak, "little")).to_bytes(16, "little")
    aes = Cipher(algorithms.AES(FIXED_KEY), modes.ECB()).encryptor()
    cipher = int.from_bytes(aes.update(block) + aes.finalize(), "little")
    return (cipher ^ doubled).to_bytes(16, "little")


def tweak(batch: int, row: int, index: int) -> bytes:
    """The 16-byte tweak of :func:`repro.mpc.batch.tweaks`."""
    return batch.to_bytes(8, "little") + ((row << 32) | index).to_bytes(
        8, "little"
    )


def prg_bits(seed: bytes, n_bits: int, batch: int, row: int) -> np.ndarray:
    """Column ``row`` of the IKNP column PRG, one block at a time:
    ``H(seed, (batch, row, c))`` for ``c = 0, 1, ...``."""
    raw = b"".join(
        tccr(seed, tweak(batch, row, c)) for c in range((n_bits + 127) // 128)
    )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits]


def pad(row: bytes, batch: int, j: int, width: int) -> bytes:
    """OT ``j``'s ``width``-byte pad under IKNP row ``row``."""
    blocks = b"".join(
        tccr(row, tweak(batch, j, c)) for c in range((width + 15) // 16)
    )
    return blocks[:width]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class ReferenceIknpExtension(IknpExtension):
    """IKNP extension with a per-column PRG and a per-pair transfer
    loop, every hash one :func:`tccr` block.

    Shares the (already scalar) base phase with the production class, so
    only :meth:`transfer` differs.
    """

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]:
        if len(pairs) != len(choices):
            raise ValueError("one choice bit per message pair is required")
        if not pairs:
            return []
        if not self._base_done:
            self._base_phase()
        ctx = self.ctx
        m = len(pairs)
        batch = ctx.tweak_batch()
        r = np.asarray(choices, dtype=np.uint8) & 1

        t_cols = np.stack(
            [
                prg_bits(self._seeds_alice[i][0], m, batch, i)
                for i in range(self.kappa)
            ]
        )  # kappa x m
        u_cols = np.stack(
            [
                t_cols[i]
                ^ prg_bits(self._seeds_alice[i][1], m, batch, i)
                ^ r
                for i in range(self.kappa)
            ]
        )
        ctx.send(ALICE, self.kappa * ((m + 7) // 8), "ot/ext/u")

        q_cols = np.stack(
            [
                prg_bits(self._seeds_bob[i], m, batch, i)
                ^ (self._s[i] * u_cols[i])
                for i in range(self.kappa)
            ]
        )
        q_rows = np.packbits(q_cols.T, axis=1)  # m x kappa/8
        t_rows = np.packbits(t_cols.T, axis=1)
        s_packed = np.packbits(self._s)
        pad_batch = ctx.tweak_batch()

        out: List[bytes] = []
        total = 0
        for j, (m0, m1) in enumerate(pairs):
            if len(m0) != len(m1):
                raise ValueError("OT messages in a pair must be equal-length")
            w = len(m0)
            qj = q_rows[j].tobytes()
            qj_s = (q_rows[j] ^ s_packed).tobytes()
            y0 = _xor(m0, pad(qj, pad_batch, j, w))
            y1 = _xor(m1, pad(qj_s, pad_batch, j, w))
            total += len(y0) + len(y1)
            # T_j equals Q_j or Q_j ^ s as r_j says: its pad opens y_{r_j}.
            tj = t_rows[j].tobytes()
            out.append(_xor(y1 if r[j] else y0, pad(tj, pad_batch, j, w)))
        ctx.send(BOB, total, "ot/ext/ciphertexts")
        return out
