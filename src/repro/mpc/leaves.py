"""Equality by OT leaves: the first half of a PSI bin's comparison.

CrypTFlow2's equality test (Rathee et al., CCS 2020) compares Alice's
token ``t`` with Bob's ``s`` leaf by leaf: both split into leaves of
:data:`~repro.mpc.costs.LEAF_BITS` bits (the last one the remainder,
:func:`~repro.mpc.costs.leaf_widths`), and per leaf ``j`` one
1-of-``2^w`` OT, Bob choosing by his leaf ``s_j``, in which Alice offers
as message ``v`` her random mask ``r_j`` XOR ``[v == t_j]``.  Bob learns
``b_j = r_j ^ [t_j == s_j]``: the two bits XOR-share the leaf's
equality, and the tokens are equal iff every leaf is — the AND that
the bin circuit garbles (:func:`~repro.mpc.gadgets.psi_bin_circuit`).

A leaf's 1-of-``2^w`` OT is ``w`` random OTs with ``2^w``-bit pads, the
``i``-th chosen by bit ``i`` of ``s_j``: message ``v`` is masked by the
XOR over ``i`` of bit ``v`` of the pad ``p_{v_i, i}``.  Bob holds every
``p_{s_ji, i}``, so message ``s_j`` opens; any other ``v`` differs from
``s_j`` in some bit ``i``, and bit ``v`` of the pad ``p_{v_i, i}`` he
lacks masks message ``v`` and no other.  The random OTs are one batch
of the reverse extension instance (Bob receiving) that is never
finished: only his ``u`` crosses, in his flow with the OPPRF hints, and
the pads are the extension's own hash outputs.  Alice's messages cross
once her label batch is open, in the same flow
(:func:`~repro.mpc.yao.garbled_call`'s ``alice_flow``).  DESIGN.md,
"Equality by OT leaves", has the security argument and the prices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .batch import le_bytes_to_words, words_to_bits
from .context import ALICE, Checked, Meter
from .costs import LEAF_BITS, leaf_bytes, leaf_ot_widths, leaf_widths
from .ot import OT

__all__ = ["LeafOts"]

#: The messages of a leaf, ``v = 0 .. 2^w - 1``, as bit positions.
_MESSAGES = np.arange(1 << LEAF_BITS, dtype=np.uint64)

#: Per bit ``i`` of a leaf, the messages ``v`` with ``v_i = 1``: the
#: bits a leaf's ``i``-th OT masks with its 1-pad.
_ONES = np.asarray(
    [
        sum(1 << v for v in range(1 << LEAF_BITS) if v >> i & 1)
        for i in range(LEAF_BITS)
    ],
    dtype=np.uint64,
)


class LeafOts:
    """The leaf OTs of ``n_bins`` token comparisons.

    Constructing it opens the random OTs: Bob's ``u``, chosen by the
    bits of his tokens ``s_words`` (REAL), or charged alone (``None``).
    :meth:`shares` then seals Alice's messages and opens Bob's, and
    :meth:`send` sends them where Alice's flow carries them."""

    def __init__(
        self,
        ctx: Meter,
        ot: OT,
        n_bins: int,
        fp_bits: int,
        s_words: Optional[np.ndarray] = None,
    ) -> None:
        self._ctx = ctx
        self._n_bins, self._fp_bits = n_bins, fp_bits
        self._s = s_words
        choices = (
            None if s_words is None
            else words_to_bits(s_words, fp_bits).reshape(-1)
        )
        #: the instance the leaf OTs draw from (Bob receiving)
        self._ot = ot.reverse
        with ctx.swapped_roles(), ctx.section("leaves"):
            self._cot = self._ot.correlated(
                choices, leaf_ot_widths(n_bins, fp_bits)
            )
        #: Alice's packed messages, once :meth:`shares` sealed them
        self._sealed: Optional[np.ndarray] = None

    def shares(
        self, rng: np.random.Generator, t_words: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """REAL: the ``(n_bins, n_leaves)`` XOR-shared leaf equalities
        of Alice's tokens ``t_words`` and Bob's — Alice's masks ``r``
        (drawn from ``rng``) and Bob's bits ``b``, ``r ^ b = [t_j ==
        s_j]``."""
        if self._s is None:
            raise TypeError("charge-only leaf OTs share nothing")
        widths = np.asarray(leaf_widths(self._fp_bits), dtype=np.uint64)
        starts = np.arange(0, self._fp_bits, LEAF_BITS)
        shift = starts.astype(np.uint64)[None, :]
        n = self._n_bins
        p0, p1, pc = (
            le_bytes_to_words(p[0]).reshape(n, self._fp_bits)
            for p in (self._cot.p0, self._cot.p1, self._cot.pc)
        )
        one = np.uint64(1)
        leaf = (one << widths) - one
        full = (one << (one << widths)) - one  # a leaf's message bits

        # Alice: message v of leaf j is r_j ^ [v == t_j], masked by bit
        # v of every OT's pad p_{v_i}.
        ones = _ONES[np.arange(self._fp_bits) % LEAF_BITS]
        pads = np.bitwise_xor.reduceat((p0 & ~ones) | (p1 & ones), starts, 1)
        t = (np.asarray(t_words, dtype=np.uint64)[:, None] >> shift) & leaf
        r = rng.integers(0, 2, size=pads.shape, dtype=np.uint64)
        sealed = (pads ^ (r * full) ^ (one << t)) & full
        self._sealed = _pack(sealed, widths)

        # Bob: message s_j of what crossed, unmasked by his pads.
        s = (np.asarray(self._s, dtype=np.uint64)[:, None] >> shift) & leaf
        mine = np.bitwise_xor.reduceat(pc, starts, 1)
        got = _unpack(self._sealed, n, widths) ^ mine
        b = (got >> s) & one
        return r.astype(np.uint8), b.astype(np.uint8)

    def send(self) -> None:
        """Alice's leaf messages, sized by the bins and the token width;
        the size of those :meth:`shares` sealed (REAL) is checked.  The
        SPCOT bytes the random OTs' draw owes go first, if nothing has
        carried them since."""
        sealed = None if self._sealed is None else [self._sealed.nbytes]
        with self._ctx.section("leaves"):
            with self._ctx.swapped_roles():
                self._ot.send_pool()  # Bob's pads wait for their SPCOTs
            Checked(self._ctx, sealed).send(
                ALICE, leaf_bytes(self._n_bins, self._fp_bits), "messages"
            )


def _kept(widths: np.ndarray) -> np.ndarray:
    """``(n_leaves, 2^w)``: which message slots a leaf of each width
    has."""
    return _MESSAGES[None, :] < (np.uint64(1) << widths)[:, None]


def _pack(sealed: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The wire form of ``(n, n_leaves)`` sealed messages: each leaf's
    ``2^w`` message bits, low first, packed across the batch."""
    raw = np.ascontiguousarray(sealed, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(
        raw.reshape(*sealed.shape, 8), axis=2, bitorder="little"
    )[:, :, : len(_MESSAGES)]
    return np.packbits(bits[:, _kept(widths)])


def _unpack(wire: np.ndarray, n: int, widths: np.ndarray) -> np.ndarray:
    """:func:`_pack`'s inverse: the ``(n, n_leaves)`` message words."""
    kept = _kept(widths)
    bits = np.zeros((n, kept.shape[0], 64), dtype=np.uint8)
    bits[:, :, : len(_MESSAGES)][:, kept] = np.unpackbits(wire)[
        : n * int(kept.sum())
    ].reshape(n, -1)
    raw = np.packbits(bits, axis=2, bitorder="little")
    return raw.view("<u8")[:, :, 0].astype(np.uint64)
