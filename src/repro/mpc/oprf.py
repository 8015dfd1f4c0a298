"""Batched oblivious PRF (KKRT-style) and polynomial OPPRF.

The circuit-based PSI of Pinkas et al. [27] rests on an *oblivious
programmable PRF*: per cuckoo bin, Alice learns one pseudorandom value
``F_b(x_b)`` for her single item while Bob can program the function so
that every one of his items hashed to the bin maps to a chosen target.

* :class:`BatchedOprf` — the OT-extension-based batched OPRF of
  Kolesnikov et al. (KKRT16): an IKNP matrix widened to ``w = 448``
  columns whose row ``j`` is correlated with the pseudorandom code
  ``C(x_j)`` of Alice's input; Bob, holding the secret column-selection
  ``s``, can evaluate ``F_j(y) = H(j, Q_j xor (C(y) & s))`` on any
  ``y``.  Its 448 base OTs are random OTs of the engine's reverse
  extension instance (:func:`_column_seeds`), as in KKRT itself.
* :func:`interpolate_oprf_targets` / polynomial OPPRF — Bob interpolates,
  per bin, a degree-``L-1`` polynomial over ``GF(2^61 - 1)`` through
  ``(F_b(y), target_y)`` for his items (random filler points pad every
  bin to the public degree), so the hint's size is input-independent and
  Alice's evaluation reveals nothing about membership.

SIMULATED mode never builds a :class:`BatchedOprf`: PSI's one mode
fork (:func:`repro.mpc.psi._opprf`) charges the real message sizes with
:func:`charge_oprf_setup` and has no values to compute.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .context import ALICE, Context, Mode
from .costs import OPRF_WIDTH, kkrt_setup_bytes, seed_ot_widths
from .ot import OT, CorrelatedBatch, _kdf, _prg_bits_all

__all__ = [
    "OPRF_WIDTH",
    "OPPRF_PRIME",
    "BatchedOprf",
    "charge_oprf_setup",
    "poly_interpolate",
    "poly_eval",
]

#: Field for OPPRF interpolation: the Mersenne prime 2^61 - 1.
OPPRF_PRIME = (1 << 61) - 1


def _code(fp: int, salt: bytes, width: int = OPRF_WIDTH) -> np.ndarray:
    """Pseudorandom code ``C(fp)``: ``width`` bits of SHA-256 blocks
    over the item fingerprint and session salt — not one 16-byte block,
    so not the fixed-key hash."""
    seed = fp.to_bytes(8, "little") + salt
    raw = b"".join(
        _kdf(seed, b"kkrt-code", c.to_bytes(8, "little"))
        for c in range((width + 255) // 256)
    )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:width]


def _out_hash(row: int, row_bits: np.ndarray, salt: bytes) -> int:
    data = row.to_bytes(8, "little") + np.packbits(row_bits).tobytes()
    digest = hashlib.blake2b(data, digest_size=8, key=salt[:16]).digest()
    return int.from_bytes(digest, "little")


def _column_seeds(
    ctx: Context, ot: OT, s: Optional[np.ndarray]
) -> CorrelatedBatch:
    """The OPRF's base OTs, roles reversed — Bob (the OPRF sender)
    receives with secret choice ``s``, Alice owns the seed pairs:
    :data:`OPRF_WIDTH` random OTs of the reverse extension instance, a
    batch that is never finished."""
    with ctx.swapped_roles(), ctx.section("oprf/base"):
        return ot.reverse.correlated(s, seed_ot_widths(OPRF_WIDTH))


class BatchedOprf:
    """One OPRF instance per row (= cuckoo bin).

    After construction, ``alice_values[j]`` is Alice's output
    ``F_j(x_j)`` and :meth:`bob_eval` lets Bob evaluate ``F_j`` on
    arbitrary fingerprints.
    """

    def __init__(self, ctx: Context, ot: OT, alice_fps: Sequence[int]) -> None:
        if ctx.mode != Mode.REAL:
            raise ValueError(
                "BatchedOprf runs the KKRT protocol; SIMULATED mode "
                "charges its messages with charge_oprf_setup"
            )
        self.ctx = ctx
        self._salt = b"oprf-session"
        self._setup_real(ot, list(alice_fps))

    # -- KKRT over a width-448 IKNP matrix --------------------------------

    def _setup_real(self, ot: OT, fps: List[int]) -> None:
        ctx = self.ctx
        w = OPRF_WIDTH
        m = len(fps)
        s = ctx.rng.integers(0, 2, size=w, dtype=np.uint8)
        # Alice's seed pairs (k0, k1); Bob's chosen seeds k_s.
        k0, k1, k_s = _column_seeds(ctx, ot, s).seeds()

        if m == 0:
            self.alice_values = []
            self._bob_rows = np.zeros((0, w), dtype=np.uint8)
            self._s = s
            return

        # Alice: T columns; correction u_i = t0 ^ t1 ^ code-column-i.
        batch = ctx.tweak_batch()
        codes = np.stack([_code(fp, self._salt) for fp in fps])  # m x w
        t_cols = _prg_bits_all(k0, m, batch)
        u_cols = t_cols ^ _prg_bits_all(k1, m, batch) ^ codes.T
        ctx.send(ALICE, w * ((m + 7) // 8), "oprf/u")

        # Bob: q columns; Q_j = T_j ^ (C(x_j) & s).
        q_cols = _prg_bits_all(k_s, m, batch) ^ (s[:, None] * u_cols)
        t_rows = t_cols.T  # m x w
        self._bob_rows = q_cols.T
        self._s = s
        self.alice_values = [
            _out_hash(j, t_rows[j], self._salt) for j in range(m)
        ]

    def bob_eval(self, row: int, fp: int) -> int:
        masked = self._bob_rows[row] ^ (_code(fp, self._salt) & self._s)
        return _out_hash(row, masked, self._salt)


def charge_oprf_setup(ctx: Context, ot: OT, n_rows: int) -> None:
    """SIMULATED mode: charge what :meth:`BatchedOprf._setup_real` sends
    for ``n_rows`` OPRF instances — the same base-OT call, charge-only."""
    _column_seeds(ctx, ot, None)
    if n_rows:
        ctx.send(
            ALICE, kkrt_setup_bytes(ctx.params.kappa, n_rows)[1], "oprf/u"
        )


# -- polynomial OPPRF hints over GF(2^61 - 1) ----------------------------


def _mod_inv(x: int, p: int = OPPRF_PRIME) -> int:
    return pow(x, p - 2, p)


def lagrange_basis(
    xs: Sequence[int], p: int = OPPRF_PRIME
) -> List[List[int]]:
    """The Lagrange basis over ``xs``: row ``i`` holds the coefficients
    (low degree first) of the polynomial that is 1 at ``xs[i]`` and 0 at
    every other point.  ``O(n^2)``: the master polynomial
    ``prod (X - x_j)`` is built once and divided synthetically per point."""
    xs = [x % p for x in xs]
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("interpolation points must have distinct x")
    master = [1]
    for x in xs:  # master *= (X - x)
        master = [
            (lo - hi * x) % p for lo, hi in zip([0] + master, master + [0])
        ]
    basis = []
    for x in xs:
        quotient = [0] * n  # master / (X - x), by synthetic division
        acc = 0
        for k in range(n - 1, -1, -1):
            acc = (master[k + 1] + acc * x) % p
            quotient[k] = acc
        scale = _mod_inv(poly_eval(quotient, x, p), p)
        basis.append([c * scale % p for c in quotient])
    return basis


def poly_from_basis(
    basis: Sequence[Sequence[int]], ys: Sequence[int], p: int = OPPRF_PRIME
) -> List[int]:
    """Coefficients of ``sum_i ys[i] * basis[i]``: the polynomial through
    ``(xs[i], ys[i])`` for the basis of :func:`lagrange_basis`."""
    return [sum(y * c for y, c in zip(ys, col)) % p for col in zip(*basis)]


def poly_interpolate(
    points: Sequence[Tuple[int, int]], p: int = OPPRF_PRIME
) -> List[int]:
    """Lagrange interpolation: coefficients (low degree first) of the
    unique degree-``len(points)-1`` polynomial through ``points``."""
    return poly_from_basis(
        lagrange_basis([x for x, _ in points], p), [y for _, y in points], p
    )


def poly_eval(coeffs: Sequence[int], x: int, p: int = OPPRF_PRIME) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc
