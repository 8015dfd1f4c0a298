"""Scalar reference implementations of the vectorised hot paths.

The batch kernels in :mod:`repro.mpc.batch` and the chosen-message
:meth:`IknpExtension.transfer` built on them replaced one-value-at-a-
time loops.  Those legacy loops live on here — with the OT-layer bugfix
applied (full-width base-OT exponents) so that they compute the
*intended* functionality — and the differential tests in
``tests/test_batch_kernels.py`` pin the vectorised code against them:
identical outputs and byte-identical transcript fingerprints.  (The
scalar garbling scheme itself, ``garble``/``evaluate_garbled``, lives
next to the batched one in :mod:`repro.mpc.circuits.garbling`.)  The
protocol-level consumers — garbled batches, Gilboa, the switch network
— have no twin: their tests pin semantics and REAL == SIMULATED
fingerprints instead.

Nothing here is exported through the package; it exists only as the
ground truth for tests and for line-by-line auditing of the batched
implementations.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .context import ALICE, BOB
from .ot import IknpExtension, Pair, _kdf

__all__ = [
    "stream_xor",
    "prg_bits",
    "ReferenceIknpExtension",
]


def stream_xor(key: bytes, data: bytes) -> bytes:
    """The pre-vectorisation ``_stream_xor``: byte-at-a-time XOR against
    a block-by-block SHA-256 keystream."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out.extend(_kdf(key, counter.to_bytes(8, "little")))
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out[: len(data)]))


def prg_bits(seed: bytes, n_bits: int, salt: bytes) -> np.ndarray:
    """The pre-vectorisation per-seed PRG expansion (one seed at a time,
    Python chunk loop) that ``_prg_bits_all`` batches."""
    n_bytes = (n_bits + 7) // 8
    chunks: List[bytes] = []
    counter = 0
    while sum(len(c) for c in chunks) < n_bytes:
        chunks.append(_kdf(seed, salt, counter.to_bytes(8, "little")))
        counter += 1
    raw = b"".join(chunks)[:n_bytes]
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits]


class ReferenceIknpExtension(IknpExtension):
    """IKNP extension with the legacy per-pair transfer loop (column
    PRG expansion, key derivation, and the stream cipher all scalar).

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
        salt = self._batch.to_bytes(8, "little")
        self._batch += 1
        r = np.asarray(choices, dtype=np.uint8) & 1

        t_cols = np.stack(
            [
                prg_bits(self._seeds_alice[i][0], m, salt)
                for i in range(self.kappa)
            ]
        )  # kappa x m
        u_cols = np.stack(
            [
                t_cols[i]
                ^ prg_bits(self._seeds_alice[i][1], m, salt)
                ^ r
                for i in range(self.kappa)
            ]
        )
        ctx.send(ALICE, self.kappa * ((m + 7) // 8), "ot/ext/u")

        q_cols = np.stack(
            [
                prg_bits(self._seeds_bob[i], m, salt)
                ^ (self._s[i] * u_cols[i])
                for i in range(self.kappa)
            ]
        )
        q_rows = np.packbits(q_cols.T, axis=1)  # m x kappa/8
        t_rows = np.packbits(t_cols.T, axis=1)
        s_packed = np.packbits(self._s)

        out: List[bytes] = []
        total = 0
        for j, (m0, m1) in enumerate(pairs):
            if len(m0) != len(m1):
                raise ValueError("OT messages in a pair must be equal-length")
            qj = q_rows[j].tobytes()
            qj_s = (q_rows[j] ^ s_packed).tobytes()
            jb = j.to_bytes(8, "little")
            y0 = stream_xor(_kdf(jb, salt, qj), m0)
            y1 = stream_xor(_kdf(jb, salt, qj_s), m1)
            total += len(y0) + len(y1)
            tj = t_rows[j].tobytes()
            key = _kdf(jb, salt, tj)  # equals the k_{r_j} key
            out.append(stream_xor(key, y1 if r[j] else y0))
        ctx.send(BOB, total, "ot/ext/ciphertexts")
        return out
