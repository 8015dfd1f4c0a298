"""Batched oblivious PRF (KKRT-style), the base of PSI's OPPRF.

The circuit-based PSI of Pinkas et al. [27] rests on an *oblivious
programmable PRF*: per cuckoo bin, Alice learns one pseudorandom value
``F_b(x_b)`` for her single item while Bob can program the function so
that every one of his items hashed to the bin maps to a chosen target.
The programming is one oblivious key-value store over all of Bob's
``(bin, item)`` pairs (:mod:`repro.mpc.okvs`), each value padded with
Bob's ``F_b(y)``; Alice decodes her bins' keys and strips her own.

* :class:`BatchedOprf` — the OT-extension-based batched OPRF of
  Kolesnikov et al. (KKRT16): an IKNP matrix widened to ``w = 448``
  columns whose row ``j`` is correlated with the pseudorandom code
  ``C(x_j)`` of Alice's input; Bob, holding the secret column-selection
  ``s``, can evaluate ``F_j(y) = H(j, Q_j xor (C(y) & s))`` on any
  ``y``, a 16-byte output.  Its 448 base OTs are random OTs of the
  engine's reverse extension instance (:func:`_column_seeds`), as in
  KKRT itself.

Both modes send the set-up through :func:`charge_oprf_setup`.
SIMULATED mode never builds a :class:`BatchedOprf`: it has no values to
compute, and PSI's one mode fork (:func:`repro.mpc.psi._opprf`) calls
the send path alone; REAL's :class:`BatchedOprf` hands it the
correction it computed, whose size is checked.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from .batch import tccr_hash, tweaks
from .context import ALICE, Checked, Context, Meter, Mode
from .costs import OPRF_WIDTH, kkrt_setup_bytes, seed_ot_widths
from .ot import OT, CorrelatedBatch, _prg_bits_all

__all__ = ["OPRF_WIDTH", "BatchedOprf", "charge_oprf_setup"]

#: Entries :meth:`BatchedOprf.bob_eval` masks at a time.
_EVAL_SLICE = 1 << 15


#: 16-byte blocks of one code, truncated to ``OPRF_WIDTH`` bits.
_CODE_BLOCKS = -(-OPRF_WIDTH // 128)


def _codes(fps: np.ndarray, batch: int) -> np.ndarray:
    """Pseudorandom codes ``C(fp)``, one ``OPRF_WIDTH``-bit row per
    fingerprint, in one :func:`~repro.mpc.batch.tccr_hash` call: block
    ``c`` hashes the fingerprint under the public tweak of row ``c`` of
    ``batch``, above the bit doubling carries into, so every ``(fp, c)``
    is a distinct AES input."""
    blocks = np.zeros((len(fps), 1, 2), dtype="<u8")
    blocks[:, 0, 0] = fps
    t = tweaks(batch, np.arange(_CODE_BLOCKS), np.zeros(1, np.uint64))
    bits = np.unpackbits(tccr_hash(blocks.view(np.uint8), t), axis=-1)
    return bits.reshape(len(fps), 128 * _CODE_BLOCKS)[:, :OPRF_WIDTH]


def _out_hashes(
    rows: np.ndarray, row_bits: np.ndarray, salt: bytes
) -> np.ndarray:
    """``H(j, bits)`` for every ``(rows[i], row_bits[i])``: keyed
    BLAKE2b over the row number and the packed bits, 16-byte outputs
    as ``(n, 2)`` ``uint64`` rows — one pad for an OKVS slot."""
    data = np.hstack(
        [
            np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
            .reshape(-1, 8),
            np.packbits(row_bits, axis=1),
        ]
    )
    blake, key = hashlib.blake2b, salt[:16]
    digests = b"".join(
        blake(row.tobytes(), digest_size=16, key=key).digest() for row in data
    )
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2).astype(np.uint64)


def _column_seeds(
    ctx: Meter, ot: OT, s: Optional[np.ndarray]
) -> CorrelatedBatch:
    """The OPRF's base OTs, roles reversed — Bob (the OPRF sender)
    receives with secret choice ``s``, Alice owns the seed pairs:
    :data:`OPRF_WIDTH` random OTs of the reverse extension instance, a
    batch that is never finished."""
    with ctx.swapped_roles(), ctx.section("oprf/base"):
        seeds = ot.reverse.correlated(s, seed_ot_widths(OPRF_WIDTH))
        # Bob reads his seeds once Alice's ``u`` comes: any SPCOT bytes
        # the draw left owing go first, in her flow.
        ot.reverse.send_pool()
    return seeds


class BatchedOprf:
    """One OPRF instance per row (= cuckoo bin).

    After construction, ``alice_values[j]`` is Alice's output
    ``F_j(x_j)`` and :meth:`bob_eval` lets Bob evaluate the ``F_j`` on
    arbitrary fingerprints.
    """

    def __init__(self, ctx: Context, ot: OT, alice_fps: np.ndarray) -> None:
        if ctx.mode != Mode.REAL:
            raise ValueError(
                "BatchedOprf computes the KKRT protocol's values, which "
                "SIMULATED mode has none of; both modes send its "
                "messages through charge_oprf_setup"
            )
        self.ctx = ctx
        self._salt = b"oprf-session"
        self._fps = np.asarray(alice_fps, dtype=np.uint64)
        self._code_batch = ctx.tweak_batch()
        #: Bob's secret column selection, his base-OT choices
        self._s = ctx.rng.integers(0, 2, size=OPRF_WIDTH, dtype=np.uint8)
        self.alice_values = np.zeros((0, 2), dtype=np.uint64)
        self._bob_rows = np.zeros((0, OPRF_WIDTH), dtype=np.uint8)
        charge_oprf_setup(ctx, ot, len(self._fps), self)

    # -- KKRT over a width-448 IKNP matrix --------------------------------

    def _extend(self, seeds: CorrelatedBatch) -> int:
        """Both parties' rows of the OPRF matrix from the base OTs:
        Alice's ``T`` columns from her seed pairs and her correction
        ``u``, Bob's ``Q`` columns from his chosen seeds and ``u``.
        Returns the size of ``u`` on the wire, a bit per column and
        row."""
        ctx, fps = self.ctx, self._fps
        m = len(fps)
        # Alice's seed pairs (k0, k1); Bob's chosen seeds k_s.
        k0, k1, k_s = seeds.seeds()

        # Alice: T columns; correction u_i = t0 ^ t1 ^ code-column-i.
        batch = ctx.tweak_batch()
        t_cols = _prg_bits_all(k0, m, batch)
        codes = _codes(fps, self._code_batch)
        u_cols = t_cols ^ _prg_bits_all(k1, m, batch) ^ codes.T

        # Bob: q columns; Q_j = T_j ^ (C(x_j) & s).
        q_cols = _prg_bits_all(k_s, m, batch) ^ (self._s[:, None] * u_cols)
        self._bob_rows = q_cols.T
        self.alice_values = _out_hashes(np.arange(m), t_cols.T, self._salt)
        return np.packbits(u_cols, axis=1).nbytes

    def bob_eval(self, rows: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """``F_{rows[i]}(fps[i])`` for every ``i``, a slice at a time, so
        the ``OPRF_WIDTH``-byte temporaries stay a few MB however many
        entries Bob has."""
        out = np.empty((len(rows), 2), dtype=np.uint64)
        for lo in range(0, len(rows), _EVAL_SLICE):
            part = slice(lo, lo + _EVAL_SLICE)
            codes = _codes(fps[part], self._code_batch) & self._s
            masked = self._bob_rows[rows[part]] ^ codes
            out[part] = _out_hashes(rows[part], masked, self._salt)
        return out


def charge_oprf_setup(
    ctx: Meter, ot: OT, n_rows: int, oprf: Optional[BatchedOprf] = None
) -> None:
    """The set-up of ``n_rows`` OPRF instances, the one send path of
    both modes: the base OTs, then Alice's ``u``.  REAL passes the
    :class:`BatchedOprf` being set up, which chooses the base OTs and
    computes ``u``, whose size is checked; SIMULATED passes nothing and
    only charges."""
    seeds = _column_seeds(ctx, ot, None if oprf is None else oprf._s)
    if n_rows:
        u = None if oprf is None else [oprf._extend(seeds)]
        Checked(ctx, u).send(ALICE, kkrt_setup_bytes(n_rows), "oprf/u")
