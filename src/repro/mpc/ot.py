"""Oblivious transfer: Chou–Orlandi base OT and SoftSpokenOT extension.

OT is the asymmetric-crypto bedrock under the garbled-circuit protocol
(the evaluator's input labels), Gilboa multiplication, the oblivious
switching network and the KKRT OPRF.  Two back-ends share one interface:

* :class:`SoftSpokenExtension` — stretches ``kappa`` base OTs (run in
  reversed roles, the extension sender choosing along his secret ``s``)
  into any number of OTs with symmetric crypto only: SoftSpokenOT's
  small-field VOLE (Roy, CRYPTO 2022) with the repetition code, which
  yields IKNP's row correlation for a correction of ``kappa / k`` bits
  per OT instead of ``kappa``.  Its GGM trees, leaf PRG and pads are all
  the fixed-key AES hash :func:`~repro.mpc.batch.tccr_hash` (SHA-256 is
  left to the base phase's key derivation, whose input is a curve
  point).
* :class:`SimulatedOT` — skips the crypto and computes nothing: it
  charges exactly what the real extension would send, on a
  :class:`~repro.mpc.context.Meter` (a SIMULATED context, or the cost
  estimator's count-only meter).

An engine does public-key work once: the base OTs of the forward
instance ``make_ot`` returns, by :func:`_chou_orlandi` ("simplest OT"
over P-256: sender publishes ``A = aG``; per transfer the receiver
sends ``B = bG + cA`` and derives ``H(x(bA))``, the sender
``k0 = H(x(aB))`` and ``k1 = H(x(a(B - A)))``).  Extended OTs are OTs, so
the base OTs of the mirror ``ot.reverse`` (Bob choosing) are random OTs
of the forward instance, and the KKRT OPRF's random OTs of the mirror.

Every protocol consumer runs **correlated** OTs through the one entry
point ``ot.correlated(choices, widths)``: the extension hands the sender
a random pad pair ``(p0, p1)`` per OT and the receiver ``p_c`` for free,
the sender *adopts* ``p0`` as its 0-message (a fresh label, mask or
share is its free choice anyway) and ships only ``m1 ^ p1`` — one
ciphertext per OT instead of two.  ``transfer(pairs, choices)`` keeps
the chosen-message form for callers that must fix both messages.

The garbled-circuit evaluator's input labels take neither form:
``ot.labels(n, choices)`` opens an extension batch and hashes nothing.
The extension leaves the sender ``Q_j`` and the receiver
``T_j = Q_j ^ r_j s``, which are already free-XOR label pairs with
offset ``s``; with the bit of ``s`` that lands on a row's select bit
forced to 1, the sender's ``s`` is the garbler's ``delta`` and the rows
are the labels, so only ``u`` crosses (DESIGN.md, "Input-side wire
format").

Wire sizes come from :mod:`repro.mpc.costs`; all messages are metered
through the shared :class:`Context`.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from . import p256
from .batch import tccr_hash, tweaks
from .context import ALICE, BOB, Context, Meter
from .costs import (
    SOFTSPOKEN_K,
    Widths,
    base_ot_bytes,
    cot_bytes,
    seed_ot_widths,
    tree_correction_bytes,
)

__all__ = [
    "OT",
    "CorrelatedBatch",
    "LabelBatch",
    "SimulatedOT",
    "SoftSpokenExtension",
    "make_ot",
]

Pair = Tuple[bytes, bytes]

#: The bit of ``s`` that ``np.packbits`` (most significant bit first)
#: puts in the low bit of a row's first byte, a label's select bit:
#: forced to 1, so ``s`` is a free-XOR offset.  It costs one bit of the
#: extension's secret, as in emp-toolkit.
SELECT_BIT = 7


class LabelBatch(NamedTuple):
    """One batch of Δ-correlated OTs read as garbled-circuit input
    labels: the sender's ``(n, 16)`` zero-labels ``Q_j``, the receiver's
    active labels ``T_j = Q_j ^ r_j delta``, and ``delta``, the
    instance's ``s`` packed to 16 bytes with select bit 1."""

    zero: np.ndarray
    active: np.ndarray
    delta: np.ndarray


class OT(Protocol):
    """Structural interface of the extension back-ends the protocols
    run on: the batched correlated entry point, plus scalar
    chosen-message :meth:`transfer`."""

    @property
    def reverse(self) -> "OT":
        """The paired instance for the opposite direction, used under
        :meth:`Context.swapped_roles`; ``ot.reverse.reverse is ot``."""

    def correlated(
        self, choices: Optional[np.ndarray], widths: Widths
    ) -> "CorrelatedBatch": ...

    def labels(
        self, n: int, choices: Optional[np.ndarray] = None
    ) -> Optional[LabelBatch]: ...

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]: ...


class CorrelatedBatch:
    """One C-OT extension batch between its two messages: ``u`` has
    crossed, so both parties hold their pads; the sender now derives its
    1-messages from :attr:`p0` and :meth:`finish` ships the corrections.
    A batch that is never finished is one *random* OT per row: the
    sender holds ``(p0, p1)``, the receiver ``pc``.

    A charge-only batch (SIMULATED consumers, which compute their
    functionality directly) carries no pads and finishes without
    messages."""

    def __init__(
        self,
        ctx: Meter,
        widths: Widths,
        choices: Optional[np.ndarray] = None,
        pads: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        self._ctx = ctx
        self._widths = widths
        self._choices = choices
        #: the sender's pad pair (``p0`` doubles as its 0-message) and
        #: the receiver's chosen pad: one ``(count, width)`` matrix per
        #: segment; ``pads`` is the ``(p0, p1, p_choice)`` triple of
        #: full-width ``(n, 32)`` matrices
        self.p0, self.p1, self.pc = (
            ([], [], [])
            if pads is None
            else (_split(p, widths) for p in pads)
        )

    def seeds(self) -> List[List[bytes]]:
        """A never-finished one-segment batch read as random OTs: the
        sender's ``k0`` and ``k1`` and the receiver's ``k_c``, by row."""
        return [
            [row.tobytes() for row in pads[0]]
            for pads in (self.p0, self.p1, self.pc)
        ]

    def finish(
        self, m1: Sequence[np.ndarray] = ()
    ) -> List[np.ndarray]:
        """Send one correction ``m1 ^ p1`` per OT; returns the
        receiver's chosen-message matrix per segment (``p0`` rows where
        she chose 0, ``m1`` rows where she chose 1).  A batch with pads
        needs exactly one matrix per segment; a charge-only batch takes
        none."""
        if len(m1) != len(self.p1):
            raise ValueError("one 1-message matrix per segment is required")
        u_bytes, n_bytes = cot_bytes(self._ctx.params.kappa, self._widths)
        if u_bytes:  # an empty batch sent no ``u`` and sends nothing now
            self._ctx.send(BOB, n_bytes, "ot/ext/ciphertexts")
        out: List[np.ndarray] = []
        off = 0
        for msg, p1, pc in zip(m1, self.p1, self.pc):
            msg = np.asarray(msg, dtype=np.uint8)
            if msg.shape != p1.shape:
                raise ValueError("one 1-message per pad row is required")
            c = self._choices[off : off + len(pc), None].astype(bool)
            off += len(pc)
            out.append(np.where(c, msg ^ p1 ^ pc, pc))
        return out


def _split(pads: np.ndarray, widths: Widths) -> List[np.ndarray]:
    """Cut an ``(n, 32)`` pad matrix into per-segment ``(count, width)``
    matrices."""
    out, off = [], 0
    for count, width in widths:
        out.append(pads[off : off + count, :width])
        off += count
    return out


#: The pad matrix of a zero-length batch.
_NO_PADS = np.zeros((0, 32), dtype=np.uint8)


def _kdf(*parts: bytes) -> bytes:
    return hashlib.sha256(b"\x00".join(parts)).digest()


def _stream_xor(key: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt with a SHA-256 keystream: block ``c`` is
    ``_kdf(key, c_le64)``."""
    stream = b"".join(
        _kdf(key, c.to_bytes(8, "little")) for c in range(-(-len(data) // 32))
    )
    return bytes(
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(stream[: len(data)], dtype=np.uint8)
    )


def _chou_orlandi(
    ctx: Context,
    pairs: Sequence[Pair],
    choices: Sequence[int],
) -> Tuple[List[bytes], Tuple[int, int, int]]:
    """The "simplest OT" arithmetic, both roles: the receiver's chosen
    messages and the bytes of the three messages the caller meters
    (``A``, one ``B`` per transfer, the ciphertexts).  Four scalar
    multiplications per transfer (receiver ``bG`` and ``bA``, sender
    ``aB`` and ``a(B - A)``), every secret scalar full width; ``A`` and
    ``B`` cross as compressed points and are decoded — validated — by
    their receiver.  Each secret scalar is one OpenSSL key: the
    sender's ``a`` multiplies all ``2 * len(pairs)`` points in one
    call."""
    if len(pairs) != len(choices):
        raise ValueError("one choice bit per message pair is required")
    # Sender: A = aG.
    a = p256.secret(p256.random_scalar(ctx.random_bytes))
    own_a = p256.base_mul(a)
    minus_a = p256.neg(own_a)
    wire_a = p256.encode(own_a)
    big_a = p256.decode(wire_a)  # the receiver's copy

    # Receiver: per transfer B = bG + cA and her key H(x(bA)).
    wire_bs: List[bytes] = []
    keys: List[bytes] = []
    for (m0, m1), c in zip(pairs, choices):
        if len(m0) != len(m1):
            raise ValueError("OT messages in a pair must be equal-length")
        b = p256.secret(p256.random_scalar(ctx.random_bytes))
        big_b = p256.base_mul(b)
        if c:
            big_b = p256.add(big_b, big_a)
        wire_bs.append(p256.encode(big_b))
        (shared_b,) = p256.mul(b, [big_a])
        keys.append(_kdf(shared_b))

    # Sender: one key per message, H(x(aB)) and H(x(a(B - A))).
    big_bs = [p256.decode(wire_b) for wire_b in wire_bs]
    shared = p256.mul(
        a, [q for big_b in big_bs for q in (big_b, p256.add(big_b, minus_a))]
    )
    out: List[bytes] = []
    ct_bytes = 0
    for (m0, m1), c, key, x0, x1 in zip(
        pairs, choices, keys, shared[0::2], shared[1::2]
    ):
        c0 = _stream_xor(_kdf(x0), m0)
        c1 = _stream_xor(_kdf(x1), m1)
        ct_bytes += len(c0) + len(c1)
        # Receiver: decrypt her chosen message.
        out.append(_stream_xor(key, c1 if c else c0))
    return out, (len(wire_a), sum(map(len, wire_bs)), ct_bytes)


def _prg_bits_all(
    seeds: Sequence[bytes], n_bits: int, batch: int
) -> np.ndarray:
    """Expand every 16-byte seed into ``n_bits`` pseudorandom bits at
    once: row ``i`` is the bits of the blocks ``H(seeds[i], (batch, i,
    c))``, ``c = 0, 1, ...`` — one :func:`tccr_hash` call over all
    ``len(seeds) * n_blocks`` blocks.  Seeds expanded under one batch
    number must be indexed alike by both parties: a receiver's ``k0``
    and ``k1`` of column ``i`` and the sender's chosen ``k_{s_i}``."""
    n_blocks = (n_bits + 127) // 128
    x = np.frombuffer(b"".join(seeds), dtype=np.uint8).reshape(-1, 1, 16)
    t = tweaks(batch, np.arange(len(x))[:, None], np.arange(n_blocks))
    raw = tccr_hash(x, t).reshape(len(x), -1)
    return np.unpackbits(raw, axis=1)[:, :n_bits]


def _pads(
    rows: np.ndarray, index: np.ndarray, batch: int, width: int
) -> np.ndarray:
    """``(k, m, width)`` one-time pads of ``k`` stacked ``(m, 16)``
    extension row matrices: row ``j``'s pad is ``H(rows[j], (batch,
    index[j], c))`` over blocks ``c``, truncated to ``width``."""
    n_blocks = (width + 15) // 16
    t = tweaks(batch, np.asarray(index)[:, None], np.arange(n_blocks))
    pads = tccr_hash(rows[:, :, None, :], t).reshape(*rows.shape[:2], -1)
    return pads[:, :, :width]


#: SoftSpokenOT's block width and leaves per GGM tree.
K = SOFTSPOKEN_K
_LEAVES = 1 << K

#: OTs per slice of a column phase (a multiple of 128): a slice's leaf
#: streams are 256 AES blocks each, so its temporaries stay a few MB
#: however large the batch.
_SLICE = 1 << 15


def _tree_choices(s: np.ndarray) -> np.ndarray:
    """The punctured party's base-OT choice bits, ``k`` per block in
    level order: at each level it takes the sum of the nodes off its
    path, the complement of the bit of ``Delta_i`` that the level
    decides (most significant first)."""
    return (1 - s.reshape(-1, K)[:, ::-1]).ravel()


def _heap_rows(n_trees: int, level: int) -> np.ndarray:
    """The tweak rows of every tree's nodes at ``level``: tree ``i``'s
    node ``p`` is row ``2^k i + 2^level + p``, its heap index."""
    return (
        (np.arange(n_trees, dtype=np.int64)[:, None] << K)
        + (1 << level)
        + np.arange(1 << level)
    )


def _ggm_children(
    nodes: np.ndarray, rows: np.ndarray, batch: int
) -> np.ndarray:
    """Both children of every ``(..., 16)`` node: ``H(node, (batch,
    row, side))``, shaped ``(..., 2, 16)``."""
    return tccr_hash(
        nodes[..., None, :], tweaks(batch, rows[..., None], np.arange(2))
    )


def _ggm_tree(
    level1: np.ndarray, batch: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The owner's trees grown from their ``(n, 2, 16)`` first levels:
    the ``(n, 2^k, 16)`` leaves and the ``(n, k, 2, 16)`` level sums,
    the XOR of each level's even nodes and of its odd ones."""
    n, nodes, sums = len(level1), level1, [level1]
    for level in range(1, K):
        nodes = _ggm_children(nodes, _heap_rows(n, level), batch)
        nodes = nodes.reshape(n, 2 << level, 16)
        sums.append(
            np.bitwise_xor.reduce(nodes.reshape(n, -1, 2, 16), axis=1)
        )
    return nodes, np.stack(sums, axis=1)


def _punctured_tree(
    received: np.ndarray, punctured: np.ndarray, batch: int
) -> np.ndarray:
    """The punctured party's ``(n, 2^k, 16)`` leaves from the level sums
    off its path, ``(n, k, 16)``: level by level, it grows the nodes it
    knows and recovers the one sibling of its path the sum still lacks.
    The path's nodes, and so the leaf at ``punctured``, stay zero and
    are never hashed."""
    n = len(received)
    trees = np.arange(n)
    nodes = np.zeros((n, 2, 16), dtype=np.uint8)
    path = np.zeros(n, dtype=np.int64)
    for level in range(1, K + 1):
        if level > 1:
            known = np.arange(1 << (level - 1)) != path[:, None]
            children = np.zeros((n, 1 << (level - 1), 2, 16), np.uint8)
            children[known] = _ggm_children(
                nodes[known], _heap_rows(n, level - 1)[known], batch
            )
            nodes = children.reshape(n, 1 << level, 16)
        bit = (punctured >> (K - level)) & 1
        side = 1 - bit
        have = np.bitwise_xor.reduce(nodes.reshape(n, -1, 2, 16), axis=1)
        nodes[trees, 2 * path + side] = (
            received[:, level - 1] ^ have[trees, side]
        )
        path = 2 * path + bit
    return nodes


def _leaf_streams(
    leaves: np.ndarray,
    held: Optional[np.ndarray],
    lo: int,
    hi: int,
    batch: int,
) -> np.ndarray:
    """Bits ``lo`` to ``hi`` of every leaf's stream, packed into
    ``(n, 2^k, words)`` uint64: leaf ``x`` of tree ``i``, flat slot
    ``2^k i + x``, expands to the blocks ``H(leaf, (batch, 2^k i + x,
    c))``.  A punctured party passes the flat slots it ``held``; the
    other streams are zero, their leaves never hashed."""
    flat = leaves.reshape(-1, 16)
    slots = np.arange(len(flat)) if held is None else held
    blocks = np.arange(lo // 128, (hi + 127) // 128)
    out = tccr_hash(
        flat[slots, None], tweaks(batch, slots[:, None], blocks)
    ).reshape(len(slots), -1)
    if held is not None:
        out, sparse = np.zeros((len(flat), out.shape[1]), np.uint8), out
        out[held] = sparse
    return out.view("<u8").reshape(len(leaves), _LEAVES, -1)


def _bit_sums(streams: np.ndarray) -> np.ndarray:
    """``(n, k, words)``: for every tree and bit ``b``, the XOR of the
    streams whose leaf index has bit ``b`` set."""
    n, leaves, words = streams.shape
    return np.stack(
        [
            np.bitwise_xor.reduce(
                streams.reshape(n, leaves >> (b + 1), 2, 1 << b, words)[
                    :, :, 1
                ],
                axis=(1, 2),
            )
            for b in range(K)
        ],
        axis=1,
    )


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """The ``(m, kappa / 8)`` rows of ``kappa`` packed columns: bit
    ``j`` of column ``c`` is bit ``c`` of row ``j``, most significant
    first as :func:`np.packbits` packs."""
    flat = np.ascontiguousarray(cols).reshape(-1, cols.shape[-1])
    bits = np.unpackbits(flat.view(np.uint8), axis=1)[:, :m]
    return np.packbits(np.ascontiguousarray(bits.T), axis=1)


class _Paired:
    """An extension instance and its mirror are built together.  The
    forward one — what the constructor call returns — owns the mirror
    and runs the pair's one public-key base phase; the mirror takes its
    base OTs from the forward one, to which it refers back only weakly,
    so a finished run's engine (context, circuits, transcript) is freed
    with its last reference, not by a later cycle collection."""

    def __init__(
        self, ctx: Meter, forward: Optional["_Paired"] = None
    ) -> None:
        self.ctx = ctx
        self.kappa = ctx.params.kappa
        self._base_done = False
        self._mirror = None if forward else type(self)(ctx, self)
        self._forward = forward and weakref.ref(forward)

    @property
    def reverse(self) -> Any:
        """The paired instance for the opposite direction."""
        return self._mirror or self._forward()

    # A weak reference neither pickles nor survives a deep copy (it
    # would keep pointing at the original): a copied mirror drops it
    # and the copied forward instance re-links the pair.
    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_forward": None}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self._mirror is not None:
            self._mirror._forward = weakref.ref(self)


class SoftSpokenExtension(_Paired):
    """SoftSpokenOT extension (Roy, CRYPTO 2022), semi-honest, with the
    repetition code: ``kappa`` base OTs, then any number of OTs with
    symmetric crypto only and a correction of ``kappa / k`` bits per OT
    (``k`` is :data:`~repro.mpc.costs.SOFTSPOKEN_K`).

    The extension matrix's ``kappa`` columns come in blocks of ``k``.
    Block ``i`` is a small-field VOLE from a GGM tree of ``2^k`` leaves:
    the extension receiver Alice holds every leaf, the sender Bob every
    leaf but the one at his secret index ``Delta_i``, whose bits are the
    block's bits of ``s`` (bit :data:`SELECT_BIT` is 1).  Puncturing a
    tree takes one base OT per level, in which Bob (roles reversed)
    receives the sum of the level's nodes off his path.  The forward
    instance's base OTs are its Chou–Orlandi transfers of those sums; a
    mirror's are ``kappa`` random OTs of its forward instance, whose
    pads are the trees' first level and mask the deeper levels' sums
    (:func:`~repro.mpc.costs.tree_correction_bytes`), which cross in the
    mirror's first ``u`` message.
    """

    ctx: Context
    #: a mirror's masked level sums until its first ``u`` carries them
    _pending: Optional[np.ndarray] = None

    def _base_phase(self) -> None:
        ctx = self.ctx
        self._s = ctx.rng.integers(0, 2, size=self.kappa, dtype=np.uint8)
        self._s[SELECT_BIT] = 1
        if self._mirror is None:
            self._trees_from_forward()
        else:
            self._trees_by_chou_orlandi()
        self._base_done = True

    def _grow(self, level1: np.ndarray) -> np.ndarray:
        """The owner's trees from their ``(kappa / k, 2, 16)`` first
        levels, the base pairs; returns their level sums."""
        self._level1 = level1
        self._tree_batch = self.ctx.tweak_batch()
        self._leaves_alice, sums = _ggm_tree(level1, self._tree_batch)
        return sums

    def _trees_by_chou_orlandi(self) -> None:
        """The forward instance: Alice grows random trees and, roles
        reversed, is the base-OT *sender* of every level's two sums; Bob
        receives the one off his path."""
        ctx = self.ctx
        level1 = ctx.random_bytes(32 * self.kappa // K)
        sums = self._grow(
            np.frombuffer(level1, dtype=np.uint8).reshape(-1, 2, 16)
        )
        received, (a, b, ct) = _chou_orlandi(
            ctx,
            [(e.tobytes(), o.tobytes()) for e, o in sums.reshape(-1, 2, 16)],
            _tree_choices(self._s).tolist(),
        )
        ctx.send(ALICE, a, "ot/ext/base/A")
        ctx.send(BOB, b, "ot/ext/base/B")
        ctx.send(ALICE, ct, "ot/ext/base/ciphertexts")
        self._puncture(np.frombuffer(b"".join(received), dtype=np.uint8))

    def _trees_from_forward(self) -> None:
        """A mirror: Bob chooses off his path in a forward batch that is
        never finished.  Alice's pads are the trees' first level and
        mask the deeper levels' sums, which wait for the first ``u``."""
        ctx = self.ctx
        with ctx.swapped_roles(), ctx.section("ot/ext/base"):
            cot = self.reverse.correlated(
                _tree_choices(self._s), seed_ot_widths(self.kappa)
            )
        p0, p1, pc = (
            p[0].reshape(-1, K, 16) for p in (cot.p0, cot.p1, cot.pc)
        )
        sums = self._grow(np.stack([p0[:, 0], p1[:, 0]], axis=1))
        self._pending = sums[:, 1:] ^ np.stack([p0, p1], axis=2)[:, 1:]
        self._pads_bob = pc

    def _puncture(self, received: np.ndarray) -> None:
        """Bob's leaves from the level sums off his path."""
        #: the level sums off ``Delta``'s path: the punctured party's
        #: base-OT outputs
        self._received = received.reshape(-1, K, 16)
        punctured = self.punctured
        self._leaves_bob = _punctured_tree(
            self._received, punctured, self._tree_batch
        )
        #: the flat leaf slots Bob holds, all but ``2^k i + Delta_i``
        self._held = np.flatnonzero(
            np.arange(_LEAVES) != punctured[:, None]
        )

    def _unmask(self, pending: np.ndarray) -> None:
        """A mirror's first ``u`` has brought the masked level sums: Bob
        unmasks the ones off his path with his pads."""
        side = _tree_choices(self._s).reshape(-1, K)[:, 1:, None, None]
        chosen = np.take_along_axis(pending, side, axis=2)[:, :, 0]
        pads = self._pads_bob
        self._puncture(
            np.concatenate([pads[:, :1], chosen ^ pads[:, 1:]], axis=1)
        )
        del self._pads_bob

    @property
    def punctured(self) -> np.ndarray:
        """Every tree's ``Delta_i``, the leaf the sender lacks: bit
        ``b`` of it is column ``k * i + b`` of ``s``."""
        return self._s.reshape(-1, K).astype(np.int64) @ (1 << np.arange(K))

    @property
    def delta(self) -> np.ndarray:
        """The sender's ``s`` packed to ``kappa / 8`` bytes: every row
        pair's XOR offset, and the garbling offset of the labels it
        carries."""
        if not self._base_done:
            self._base_phase()
        return np.packbits(self._s)

    def _column_phase(
        self, m: int, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One extension batch: Bob's ``Q`` rows, Alice's ``T`` rows,
        ``T_j = Q_j ^ r_j s``, and the correction Alice sends."""
        if not self._base_done:
            self._base_phase()
        batch = self.ctx.tweak_batch()
        t_rows, c = self._receiver_rows(m, r, batch)
        pending, self._pending = self._pending, None
        extra = 0 if pending is None else pending.nbytes
        self.ctx.send(ALICE, c.nbytes + extra, "ot/ext/u")
        if pending is not None:
            self._unmask(pending)
        return self._sender_rows(c, m, batch), t_rows, c

    def _receiver_rows(
        self, m: int, r: np.ndarray, batch: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Alice's ``T`` rows and her ``(kappa / k, ceil(m / 8))``
        correction.  Column ``b`` of block ``i`` is the XOR of the leaf
        streams whose index has bit ``b`` set; ``c_i = u_i ^ r``, where
        ``u_i`` is the XOR of all ``2^k`` streams."""
        t_rows = np.empty((m, self.kappa // 8), dtype=np.uint8)
        c = np.empty((self.kappa // K, (m + 7) // 8), dtype=np.uint8)
        packed = np.packbits(r)
        for lo in range(0, m, _SLICE):
            hi, part = min(m, lo + _SLICE), slice(lo // 8, (lo + _SLICE) // 8)
            streams = _leaf_streams(self._leaves_alice, None, lo, hi, batch)
            u = np.bitwise_xor.reduce(streams, axis=1).view(np.uint8)
            c[:, part] = u[:, : len(packed[part])] ^ packed[part]
            t_rows[lo:hi] = _rows(_bit_sums(streams), hi - lo)
        if m % 8:  # the wire carries m bits, the last byte zero-padded
            c[:, -1] &= 0xFF ^ (0xFF >> (m % 8))
        return t_rows, c

    def _sender_rows(self, c: np.ndarray, m: int, batch: int) -> np.ndarray:
        """Bob's ``Q`` rows from his ``2^k - 1`` leaves per tree and
        Alice's correction.  Column ``b`` of block ``i`` is the XOR of
        the streams whose index differs from ``Delta_i`` in bit ``b``,
        and ``Delta_ib * c_i``: the bit-``b`` sum of his streams, and
        where ``Delta_ib = 1`` also all of them and ``c_i``."""
        q_rows = np.empty((m, self.kappa // 8), dtype=np.uint8)
        bits = self._s.reshape(-1, K, 1).astype("<u8")
        for lo in range(0, m, _SLICE):
            hi, part = min(m, lo + _SLICE), slice(lo // 8, (lo + _SLICE) // 8)
            streams = _leaf_streams(
                self._leaves_bob, self._held, lo, hi, batch
            )
            flip = np.bitwise_xor.reduce(streams, axis=1)
            flip.view(np.uint8)[:, : c[:, part].shape[1]] ^= c[:, part]
            q = _bit_sums(streams) ^ (bits * flip[:, None])
            q_rows[lo:hi] = _rows(q, hi - lo)
        return q_rows

    def correlated(
        self, choices: Optional[np.ndarray], widths: Widths
    ) -> CorrelatedBatch:
        """Open one C-OT batch over consecutive ``(count, width)``
        segments: sends ``u``; OT ``j``'s pads are ``H(Q_j, t_j)`` and
        ``H(Q_j ^ s, t_j)`` for the sender and ``H(T_j, t_j)`` — the one
        matching her choice — for the receiver (:func:`_pads`), truncated
        to the segment's width (at most two blocks, ``width <= 32``)."""
        if choices is None:
            raise ValueError("a real OT needs the receiver's choice bits")
        r = np.asarray(choices, dtype=np.uint8) & 1
        m = sum(count for count, _ in widths)
        if len(r) != m:
            raise ValueError("one choice bit per OT is required")
        if any(width > 32 for _, width in widths):
            raise ValueError("C-OT pads are at most 32 bytes wide")
        if m == 0:
            return CorrelatedBatch(self.ctx, widths, r, [_NO_PADS] * 3)
        q_rows, t_rows, _ = self._column_phase(m, r)
        s_packed, batch = self.delta, self.ctx.tweak_batch()
        j = np.arange(m)
        width = max(width for _, width in widths)
        p0, p1 = _pads(np.stack([q_rows, q_rows ^ s_packed]), j, batch, width)
        (pc,) = _pads(t_rows[None], j, batch, width)
        return CorrelatedBatch(self.ctx, widths, r, [p0, p1, pc])

    def labels(
        self, n: int, choices: Optional[np.ndarray] = None
    ) -> LabelBatch:
        """Open a batch of ``n`` Δ-correlated OTs and never finish it:
        only ``u`` crosses, and the raw rows are the labels — the
        sender's ``Q_j`` its zero-labels, the receiver's ``T_j`` her
        active labels, ``delta`` the offset (:class:`LabelBatch`)."""
        if choices is None:
            raise ValueError("a real OT needs the receiver's choice bits")
        r = np.asarray(choices, dtype=np.uint8) & 1
        if len(r) != n:
            raise ValueError("one choice bit per OT is required")
        if n == 0:
            return LabelBatch(_NO_PADS[:, :16], _NO_PADS[:, :16], self.delta)
        q_rows, t_rows, _ = self._column_phase(n, r)
        return LabelBatch(q_rows, t_rows, self.delta)

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]:
        if len(pairs) != len(choices):
            raise ValueError("one choice bit per message pair is required")
        if not pairs:
            return []
        m = len(pairs)
        by_width = {}
        for j, (m0, m1) in enumerate(pairs):
            if len(m0) != len(m1):
                raise ValueError("OT messages in a pair must be equal-length")
            by_width.setdefault(len(m0), []).append(j)
        r = np.asarray(choices, dtype=np.uint8) & 1
        q_rows, t_rows, _ = self._column_phase(m, r)
        s_packed, batch = self.delta, self.ctx.tweak_batch()
        out: List[bytes] = [b""] * m
        total = 0
        for w, positions in by_width.items():
            idx = np.asarray(positions, dtype=np.int64)
            m0, m1 = (
                np.frombuffer(
                    b"".join(pairs[j][c] for j in positions), dtype=np.uint8
                ).reshape(len(positions), w)
                for c in (0, 1)
            )
            qj = q_rows[idx]
            p0, p1 = _pads(np.stack([qj, qj ^ s_packed]), idx, batch, w)
            y0, y1 = m0 ^ p0, m1 ^ p1
            total += y0.size + y1.size
            chosen = np.where(r[idx].astype(bool)[:, None], y1, y0)
            # T_j packs the k_{r_j} column, so its pad opens y_{r_j}.
            (pc,) = _pads(t_rows[idx][None], idx, batch, w)
            rows = (chosen ^ pc).tobytes()
            for k, j in enumerate(positions):
                out[j] = rows[k * w : (k + 1) * w]
        self.ctx.send(BOB, total, "ot/ext/ciphertexts")
        return out


class SimulatedOT(_Paired):
    """Charge-only OT: sends, message for message, what
    :class:`SoftSpokenExtension` sends — its mirror issues the same
    seed-OT call and its first ``u`` carries the tree corrections — and
    deals nothing.  Its consumers compute their functionality directly
    (SIMULATED mode), or nothing at all (the cost estimator's meter)."""

    #: a mirror's tree corrections, until its first ``u`` carries them
    _pending = 0

    def _open(self, n_ots: int) -> None:
        """Charge the base phase (first batch only) and ``u`` (none for
        an empty batch)."""
        ctx, kappa = self.ctx, self.kappa
        if not self._base_done:
            if self._mirror is None:
                with ctx.swapped_roles(), ctx.section("ot/ext/base"):
                    self.reverse.correlated(None, seed_ot_widths(kappa))
                self._pending = tree_correction_bytes(kappa)
            else:
                a, b, ct = base_ot_bytes(kappa)
                ctx.send(ALICE, a, "ot/ext/base/A")
                ctx.send(BOB, b, "ot/ext/base/B")
                ctx.send(ALICE, ct, "ot/ext/base/ciphertexts")
            self._base_done = True
        if n_ots:
            u = cot_bytes(kappa, [(n_ots, 0)])[0]
            ctx.send(ALICE, u + self._pending, "ot/ext/u")
            self._pending = 0

    def correlated(
        self, choices: Optional[np.ndarray], widths: Widths
    ) -> CorrelatedBatch:
        """Charge the opening of a C-OT batch; the batch is charge-only
        (the choices are not read)."""
        m = sum(count for count, _ in widths)
        if m:
            self._open(m)
        return CorrelatedBatch(self.ctx, widths)

    def labels(self, n: int, choices: Optional[np.ndarray] = None) -> None:
        """Charge the opening of a label batch (the choices are not
        read); there are no labels to return."""
        self._open(n)

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]:
        if len(pairs) != len(choices):
            raise ValueError("one choice bit per message pair is required")
        if not pairs:
            return []
        self._open(len(pairs))
        self.ctx.send(
            BOB,
            sum(len(m0) + len(m1) for m0, m1 in pairs),
            "ot/ext/ciphertexts",
        )
        return [p[1] if c else p[0] for p, c in zip(pairs, choices)]


def make_ot(ctx: Context) -> OT:
    """The OT back-end (forward instance) for the context's mode."""
    from .context import Mode

    if ctx.mode == Mode.REAL:
        return SoftSpokenExtension(ctx)
    return SimulatedOT(ctx)
