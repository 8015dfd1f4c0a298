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
* :func:`interpolate` / :func:`horner` — the polynomial OPPRF over
  ``GF(2^61 - 1)``: Bob interpolates, per bin, degree-``L-1``
  polynomials through ``(F_b(y), target_y)`` for his items (random
  filler points pad every bin to the public degree), so the hint's size
  is input-independent and Alice's evaluation reveals nothing about
  membership.  Every bin is one row of a ``(bins, L)`` point matrix and
  the field arithmetic is uint64 numpy (:func:`mulmod`), so each step
  of the interpolation is one vector operation across all bins.

SIMULATED mode never builds a :class:`BatchedOprf`: PSI's one mode
fork (:func:`repro.mpc.psi._opprf`) charges the real message sizes with
:func:`charge_oprf_setup` and has no values to compute.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

import numpy as np

from .context import ALICE, Context, Meter, Mode
from .costs import OPRF_WIDTH, kkrt_setup_bytes, seed_ot_widths
from .ot import OT, CorrelatedBatch, _kdf, _prg_bits_all

__all__ = [
    "OPRF_WIDTH",
    "OPPRF_PRIME",
    "BatchedOprf",
    "charge_oprf_setup",
    "horner",
    "interpolate",
    "mulmod",
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


def _out_hashes(
    rows: np.ndarray, row_bits: np.ndarray, salt: bytes
) -> np.ndarray:
    """``H(j, bits)`` for every ``(rows[i], row_bits[i])``: keyed
    BLAKE2b over the row number and the packed bits, 64-bit outputs."""
    data = np.hstack(
        [
            np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
            .reshape(-1, 8),
            np.packbits(row_bits, axis=1),
        ]
    )
    blake, key = hashlib.blake2b, salt[:16]
    digests = b"".join(
        blake(row.tobytes(), digest_size=8, key=key).digest() for row in data
    )
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def _column_seeds(
    ctx: Meter, ot: OT, s: Optional[np.ndarray]
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
    ``F_j(x_j)`` and :meth:`bob_eval` lets Bob evaluate the ``F_j`` on
    arbitrary fingerprints.
    """

    def __init__(self, ctx: Context, ot: OT, alice_fps: Iterable[int]) -> None:
        if ctx.mode != Mode.REAL:
            raise ValueError(
                "BatchedOprf runs the KKRT protocol; SIMULATED mode "
                "charges its messages with charge_oprf_setup"
            )
        self.ctx = ctx
        self._salt = b"oprf-session"
        self._setup_real(ot, [int(fp) for fp in alice_fps])

    # -- KKRT over a width-448 IKNP matrix --------------------------------

    def _codes(self, fps: Sequence[int]) -> np.ndarray:
        return np.array(
            [_code(fp, self._salt) for fp in fps], dtype=np.uint8
        ).reshape(len(fps), OPRF_WIDTH)

    def _setup_real(self, ot: OT, fps: Sequence[int]) -> None:
        ctx = self.ctx
        w = OPRF_WIDTH
        m = len(fps)
        s = ctx.rng.integers(0, 2, size=w, dtype=np.uint8)
        # Alice's seed pairs (k0, k1); Bob's chosen seeds k_s.
        k0, k1, k_s = _column_seeds(ctx, ot, s).seeds()
        self._s = s
        if m == 0:
            self.alice_values = np.zeros(0, dtype=np.uint64)
            self._bob_rows = np.zeros((0, w), dtype=np.uint8)
            return

        # Alice: T columns; correction u_i = t0 ^ t1 ^ code-column-i.
        batch = ctx.tweak_batch()
        t_cols = _prg_bits_all(k0, m, batch)
        u_cols = t_cols ^ _prg_bits_all(k1, m, batch) ^ self._codes(fps).T
        ctx.send(ALICE, w * ((m + 7) // 8), "oprf/u")

        # Bob: q columns; Q_j = T_j ^ (C(x_j) & s).
        q_cols = _prg_bits_all(k_s, m, batch) ^ (s[:, None] * u_cols)
        self._bob_rows = q_cols.T
        self.alice_values = _out_hashes(np.arange(m), t_cols.T, self._salt)

    def bob_eval(self, rows: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """``F_{rows[i]}(fps[i])`` for every ``i``: each distinct
        fingerprint's code is computed once and every pair is masked in
        one matrix operation."""
        distinct, which = np.unique(
            np.asarray(fps, dtype=np.uint64), return_inverse=True
        )
        codes = self._codes(distinct.tolist())
        masked = self._bob_rows[rows] ^ (codes[which.ravel()] & self._s)
        return _out_hashes(rows, masked, self._salt)


def charge_oprf_setup(ctx: Meter, ot: OT, n_rows: int) -> None:
    """SIMULATED mode: charge what :meth:`BatchedOprf._setup_real` sends
    for ``n_rows`` OPRF instances — the same base-OT call, charge-only."""
    _column_seeds(ctx, ot, None)
    if n_rows:
        ctx.send(ALICE, kkrt_setup_bytes(n_rows), "oprf/u")


# -- polynomial OPPRF hints over GF(2^61 - 1), batched -------------------
#
# Elements are uint64 words below the prime.  A product of two of them
# is assembled from 32-bit limbs, every partial product fits a word, and
# 2^61 = 1 (mod p) folds the high part back with a shift and an add.

_P = np.uint64(OPPRF_PRIME)
_LOW29 = np.uint64((1 << 29) - 1)
_LOW32 = np.uint64((1 << 32) - 1)
_U3, _U29, _U32, _U61 = (np.uint64(k) for k in (3, 29, 32, 61))


def _reduce(x: np.ndarray) -> np.ndarray:
    """``x mod p`` for any uint64 ``x``: one Mersenne fold leaves it
    below ``2p``, and ``min(x, x - p)`` subtracts ``p`` exactly when
    that does not wrap."""
    x = (x & _P) + (x >> _U61)
    return np.minimum(x, x - _P)


def _times_2_32(x: np.ndarray) -> np.ndarray:
    """A word congruent to ``x * 2^32`` for ``x < 2^62``, below ``2^62``:
    ``x = a * 2^29 + b`` gives ``a * 2^61 + b * 2^32 = a + b * 2^32``."""
    return (x >> _U29) + ((x & _LOW29) << _U32)


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = a + b
    return np.minimum(s, s - _P)


def _sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _add(a, _P - b)


def mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b mod (2^61 - 1)`` elementwise (broadcasting) for field
    elements ``a, b < 2^61``.  With ``a = a1 * 2^32 + a0`` and ``b``
    alike: ``a1 b1 2^64 = 8 a1 b1``, the cross terms shift by 32 through
    :func:`_times_2_32`, and the sum stays below ``2^63``."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    lo = a0 * b0
    s = (lo & _P) + (lo >> _U61)
    s += _times_2_32(a1 * b0 + a0 * b1)
    s += (a1 * b1) << _U3
    return _reduce(s)


def _sum(x: np.ndarray) -> np.ndarray:
    """Field sum over the last axis (fewer than 2^32 terms): low and
    high 32-bit halves summed apart, then recombined."""
    lo = (x & _LOW32).sum(axis=-1, dtype=np.uint64)
    hi = (x >> _U32).sum(axis=-1, dtype=np.uint64)
    return _reduce(_reduce(lo) + _times_2_32(hi))


def _inverse(x: np.ndarray) -> np.ndarray:
    """``x^(p-2) = x^-1`` elementwise by square-and-multiply, for
    ``x != 0``."""
    out = x.copy()
    for bit in bin(OPPRF_PRIME - 2)[3:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, x)
    return out


def interpolate(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coefficients, low degree first, of the degree-``< L``
    polynomials through ``(xs[b, i], ys[b, r, i])``: a ``(B, R, L)``
    array for ``(B, L)`` points with distinct ``x`` per row and ``R``
    value rows per point row, all elements below the prime.

    Lagrange over the master polynomial ``M = prod_i (X - x_i)``: the
    polynomial of row ``r`` is ``sum_i c_ri M / (X - x_i)`` with
    ``c_ri = y_ri / M'(x_i)``.  ``M`` takes ``L`` vector steps,
    ``M'(x_i) = prod_(j != i) (x_i - x_j)`` another ``L``, one batched
    inversion turns them into the ``c``, and the synthetic divisions
    ``M / (X - x_i)`` — coefficient ``k`` is ``M[k+1] + x_i`` times
    coefficient ``k+1`` — run from the top down with the ``c``-weighted
    sum of coefficient ``k`` taken at step ``k``: ``2L`` vector steps
    more, and no quotient is ever stored."""
    n_rows, n_points = xs.shape
    master = np.zeros((n_rows, n_points + 1), dtype=np.uint64)
    master[:, 0] = 1
    deriv = np.ones((n_rows, n_points), dtype=np.uint64)
    for j in range(n_points):
        x_j = xs[:, j : j + 1]
        # M <- M * (X - x_j)
        shifted = np.zeros_like(master)
        shifted[:, 1:] = master[:, :-1]
        master = _sub(shifted, mulmod(master, x_j))
        diff = _sub(xs, x_j)
        diff[:, j] = 1
        deriv = mulmod(deriv, diff)
    weights = mulmod(ys, _inverse(deriv)[:, None, :])

    coeffs = np.empty(ys.shape, dtype=np.uint64)
    quotient = np.zeros((n_rows, n_points), dtype=np.uint64)
    for k in range(n_points - 1, -1, -1):
        quotient = _add(master[:, k + 1, None], mulmod(quotient, xs))
        coeffs[:, :, k] = _sum(mulmod(weights, quotient[:, None, :]))
    return coeffs


def horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every row's polynomials of :func:`interpolate`'s ``(B, R, L)``
    output evaluated at that row's ``x[b]``: a ``(B, R)`` array."""
    x = x.reshape(-1, 1)
    acc = np.zeros(coeffs.shape[:2], dtype=np.uint64)
    for k in range(coeffs.shape[2] - 1, -1, -1):
        acc = _add(mulmod(acc, x), coeffs[:, :, k])
    return acc
