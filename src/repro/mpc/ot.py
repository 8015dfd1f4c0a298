"""Oblivious transfer: Chou–Orlandi base OT, SoftSpokenOT extension and
the silent-OT pools past it.

OT is the asymmetric-crypto bedrock under the garbled-circuit protocol
(the evaluator's input labels), Gilboa multiplication, the oblivious
switching network and the KKRT OPRF.  Two back-ends share one interface
and one send path — the base phase, ``u`` and the ciphertexts are each
sent from one method of their common base class, sized from public
shapes:

* :class:`SoftSpokenExtension` — stretches ``kappa`` base OTs (run in
  reversed roles, the extension sender choosing along his secret ``s``)
  into any number of OTs with symmetric crypto only: SoftSpokenOT's
  small-field VOLE (Roy, CRYPTO 2022) with the repetition code, which
  yields IKNP's row correlation for a correction of ``kappa / k`` bits
  per OT instead of ``kappa``.  Its GGM trees, leaf PRG and pads are all
  the fixed-key AES hash :func:`~repro.mpc.batch.tccr_hash` (SHA-256 is
  left to the base phase's key derivation, whose input is a curve
  point).  It hands the send path its payloads' sizes, which are
  checked (:class:`~repro.mpc.context.Checked`).
* :class:`SimulatedOT` — skips the crypto and computes nothing: it
  sends through the same path with no payloads, on a
  :class:`~repro.mpc.context.Meter` (a SIMULATED context, or the cost
  estimator's count-only meter).

Past a size, batches stop paying SoftSpokenOT's ``kappa / k`` bits
per OT: within a plan node, each instance opens a pool of random COTs
at its first batch of :data:`~repro.mpc.costs.POOL_MIN` OTs or more,
extended by Ferret's single-point COTs and regular-noise LPN
(:class:`_Iteration`) from a SoftSpokenOT bootstrap batch, and every
later batch of the node sends one derandomisation bit per OT in its
``u``.  The pool's counts live on the instance (:class:`_Paired`,
:func:`~repro.mpc.costs.pool_draw`), so both back-ends and the cost
estimator follow them (DESIGN.md, "Silent-OT pool").

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

from . import costs, p256
from .batch import aes_ctr, tccr_hash, tweaks
from .context import ALICE, BOB, Checked, Context, Meter
from .params import KAPPA
from .costs import (
    LPN_D,
    SOFTSPOKEN_K,
    LpnSet,
    PoolDraw,
    Widths,
    base_ot_bytes,
    cot_bytes,
    pool_draw,
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

    def send_pool(self) -> None: ...

    def close_pools(self) -> None: ...

    def transfer(
        self, pairs: Sequence[Pair], choices: Sequence[int]
    ) -> List[bytes]: ...


class CorrelatedBatch:
    """One C-OT extension batch between its two messages: ``u`` has
    crossed, so both parties hold their pads; the sender now derives its
    1-messages from :attr:`p0` and :meth:`finish` ships the corrections.
    A batch that is never finished is one *random* OT per row: the
    sender holds ``(p0, p1)``, the receiver ``pc``.

    A segment of ``bits`` bits is an OT of ``bits``-bit strings: its
    pads and messages are ``(count, ceil(bits / 8))`` little-endian
    byte matrices whose bits past ``bits`` are zero (a 1-message's are
    dropped), and its corrections cross at ``bits`` bits each, packed
    across the batch (:func:`_pack`).

    A charge-only batch (SIMULATED consumers, which compute their
    functionality directly) carries no pads and finishes without
    messages."""

    def __init__(
        self,
        owner: "_Paired",
        widths: Widths,
        choices: Optional[np.ndarray] = None,
        pads: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        #: the instance the batch is drawn from, whose corrections also
        #: carry the SPCOT bytes its pool owes
        self._owner = owner
        self._widths = widths
        self._choices = choices
        self._charge_only = pads is None
        #: the sender's pad pair (``p0`` doubles as its 0-message) and
        #: the receiver's chosen pad: one ``(count, ceil(bits / 8))``
        #: matrix per segment; ``pads`` is the ``(p0, p1, p_choice)``
        #: triple of full-width ``(n, 32)`` matrices
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
        wires: List[np.ndarray] = []
        for msg, p1, (_, bits) in zip(m1, self.p1, self._widths):
            msg = np.asarray(msg, dtype=np.uint8)
            if msg.shape != p1.shape:
                raise ValueError("one 1-message per pad row is required")
            wires.append(_truncate(msg ^ p1, bits))
        stream = None if self._charge_only else _pack(wires, self._widths)
        owner = self._owner
        u_bytes, n_bytes = cot_bytes(owner.kappa, self._widths)
        if u_bytes:  # an empty batch sent no ``u`` and sends nothing now
            owner._send_ciphertexts(
                n_bytes, None if stream is None else stream.nbytes
            )
        out: List[np.ndarray] = []
        if stream is None:
            return out
        off = 0
        for wire, pc in zip(_unpack(stream, wires, self._widths), self.pc):
            c = self._choices[off : off + len(pc), None].astype(bool)
            off += len(pc)
            out.append(np.where(c, wire ^ pc, pc))
        return out


def _pair_bytes(pairs: Sequence[Pair]) -> int:
    """A chosen-message transfer's ciphertexts: both messages of every
    pair, each as wide as its plaintext."""
    return sum(len(m0) + len(m1) for m0, m1 in pairs)


def _split(pads: np.ndarray, widths: Widths) -> List[np.ndarray]:
    """Cut an ``(n, 32)`` pad matrix into per-segment ``(count,
    ceil(bits / 8))`` matrices, each truncated to its ``bits``."""
    out, off = [], 0
    for count, bits in widths:
        out.append(_truncate(pads[off : off + count, : -(-bits // 8)], bits))
        off += count
    return out


def _truncate(rows: np.ndarray, bits: int) -> np.ndarray:
    """``rows`` with every bit past the first ``bits`` of a row zero."""
    if bits % 8:
        rows = rows.copy()
        rows[:, -1] &= (1 << bits % 8) - 1
    return rows


def _pack(wires: Sequence[np.ndarray], widths: Widths) -> np.ndarray:
    """A batch's corrections on the wire: each row's ``bits`` low bits,
    low first, in OT order, packed to ``ceil(sum(count * bits) / 8)``
    bytes.  Byte-aligned segments are their rows back to back."""
    if all(bits % 8 == 0 for _, bits in widths):
        rows = [w.reshape(-1) for w in wires]
        return np.concatenate(rows) if rows else _NO_PADS[:, 0]
    return np.packbits(
        np.concatenate(
            [
                np.unpackbits(w, axis=1, count=bits, bitorder="little")
                .reshape(-1)
                for w, (_, bits) in zip(wires, widths)
            ]
        ),
        bitorder="little",
    )


def _unpack(
    stream: np.ndarray, wires: Sequence[np.ndarray], widths: Widths
) -> List[np.ndarray]:
    """The receiver's per-segment rows out of :func:`_pack`'s
    ``stream`` (a byte-aligned batch's are the sender's ``wires``)."""
    if all(bits % 8 == 0 for _, bits in widths):
        return list(wires)
    flat = np.unpackbits(stream, bitorder="little")
    out: List[np.ndarray] = []
    off = 0
    for count, bits in widths:
        seg = flat[off : off + count * bits].reshape(count, bits)
        out.append(np.packbits(seg, axis=1, bitorder="little"))
        off += count * bits
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
    key_a = p256.decode(wire_a)  # the receiver's copy, built once
    big_a = p256.affine(key_a)

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
        (shared_b,) = p256.mul(b, [key_a])
        keys.append(_kdf(shared_b))

    # Sender: one key per message, H(x(aB)) and H(x(a(B - A))).
    keys_b = [p256.decode(wire_b) for wire_b in wire_bs]
    shared = p256.mul(a, [
        q
        for key_b in keys_b
        for q in (key_b, p256.add(p256.affine(key_b), minus_a))
    ])
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


def _ggm_children(
    nodes: np.ndarray, batch: int, level: int, depth: int, first: int
) -> np.ndarray:
    """Both children of every node at ``level`` of the ``(n, 2^level,
    16)`` trees numbered from ``first``, shaped ``(n, 2^level, 2, 16)``:
    ``H(node, (batch, row, side))``, where tree ``i``'s node ``p`` is
    row ``2^depth i + 2^level + p``, its heap index.  The tweaks' high
    words are one base per tree plus one offset per child, the offsets
    shared by every tree."""
    n = len(nodes)
    one, row = np.uint64(1), np.uint64(32)
    base = np.arange(first, first + n, dtype=np.uint64) << np.uint64(depth)
    base = (base + np.uint64(1 << level)) << row
    child = np.arange(2 << level, dtype=np.uint64)
    offset = ((child >> one) << row) | (child & one)
    t = np.empty((n, 2 << level, 2), dtype="<u8")
    t[..., 0] = batch
    np.add(base[:, None], offset, out=t[..., 1])
    return tccr_hash(
        nodes[:, :, None, :], t.view(np.uint8).reshape(n, -1, 2, 16)
    )


def _fold(words: np.ndarray) -> np.ndarray:
    """``(n, w)``: the XOR over axis 1 of ``(n, 2^l, w)`` words, halving
    it in contiguous passes."""
    while words.shape[1] > 1:
        half = words.shape[1] // 2
        words = words[:, :half] ^ words[:, half:]
    return words[:, 0]


def _xor_leaves(leaves: np.ndarray) -> np.ndarray:
    """``(n, 16)``: the XOR of each tree's ``(n, 2^l, 16)`` leaves."""
    words = np.ascontiguousarray(leaves).view("<u8")
    return _fold(words.reshape(len(leaves), -1, 2)).view(np.uint8)


def _level_sums(nodes: np.ndarray) -> np.ndarray:
    """``(n, 2, 16)``: the XOR of each tree's even ``(n, 2^l, 16)``
    nodes and of its odd ones."""
    words = np.ascontiguousarray(nodes).view("<u8")
    sums = _fold(words.reshape(len(nodes), -1, 4))
    return sums.view(np.uint8).reshape(-1, 2, 16)


def _ggm_leaves(
    level1: np.ndarray,
    batch: int,
    depth: int,
    first: int,
    sums: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """The ``(n, 2^depth, 16)`` leaves of the owner's trees grown from
    their ``(n, 2, 16)`` first levels, numbered from ``first`` in the
    tweaks, so a slice of a forest grows as it would in the whole; each
    deeper level's :func:`_level_sums` are appended to ``sums``."""
    n, nodes = len(level1), level1
    for level in range(1, depth):
        nodes = _ggm_children(nodes, batch, level, depth, first)
        nodes = nodes.reshape(n, 2 << level, 16)
        if sums is not None:
            sums.append(_level_sums(nodes))
    return nodes


def _ggm_tree(
    level1: np.ndarray, batch: int, depth: int = K, first: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """The owner's trees grown from their ``(n, 2, 16)`` first levels:
    the ``(n, 2^depth, 16)`` leaves and the ``(n, depth, 2, 16)`` level
    sums, the XOR of each level's even nodes and of its odd ones."""
    sums = [level1]
    leaves = _ggm_leaves(level1, batch, depth, first, sums)
    return leaves, np.stack(sums, axis=1)


def _punctured_tree(
    received: np.ndarray,
    punctured: np.ndarray,
    batch: int,
    depth: int = K,
    first: int = 0,
) -> np.ndarray:
    """The punctured party's ``(n, 2^depth, 16)`` leaves from the level
    sums off its path, ``(n, depth, 16)``: level by level, it grows the
    nodes it knows and recovers the one sibling of its path the sum
    still lacks.  The path's nodes, and so the leaf at ``punctured``,
    stay zero: the children of the zero node it holds on the path are
    dropped as they are hashed."""
    n = len(received)
    trees = np.arange(n)
    nodes = np.zeros((n, 2, 16), dtype=np.uint8)
    path = np.zeros(n, dtype=np.int64)
    for level in range(1, depth + 1):
        if level > 1:
            children = _ggm_children(nodes, batch, level - 1, depth, first)
            children[trees, path] = 0
            nodes = children.reshape(n, 1 << level, 16)
        bit = (punctured >> (depth - level)) & 1
        side = 1 - bit
        have = _level_sums(nodes)
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


#: The three mask-and-shift steps that transpose an 8x8 bit matrix held
#: in one ``uint64``, row ``r`` its byte ``r`` (Hacker's Delight §7-3):
#: 2x2, then 4x4, then 8x8 blocks swap across the diagonal.
_TRANSPOSE_8X8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    )
)


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """The ``(m, kappa / 8)`` rows of ``kappa`` packed columns: bit
    ``j`` of column ``c`` is bit ``c`` of row ``j``, most significant
    first as :func:`np.packbits` packs.  Byte ``b`` of 8 consecutive
    columns is an 8x8 bit block, read as one big-endian word so that
    its rows run most significant first; transposed in place, the word
    holds byte ``c / 8`` of rows ``8b`` to ``8b + 7``."""
    flat = np.ascontiguousarray(cols).reshape(-1, cols.shape[-1]).view("u1")
    kappa, n_bytes = flat.shape
    blocks = flat.reshape(kappa // 8, 8, n_bytes).transpose(0, 2, 1)
    x = np.ascontiguousarray(blocks[..., ::-1]).view(np.uint64)[..., 0]
    for shift, mask in _TRANSPOSE_8X8:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    out = x.T.copy().view(np.uint8).reshape(n_bytes, kappa // 8, 8)
    rows = np.ascontiguousarray(out[..., ::-1].transpose(0, 2, 1))
    return rows.reshape(8 * n_bytes, kappa // 8)[:m]


#: Rows a pool materialises at a time, whole bins of its iteration: a
#: slice's trees, code columns and gathers stay a few MB however large
#: the iteration or the batch that draws it.
_POOL_SLICE = 1 << 15


def _lpn_columns(key: bytes, lo: int, hi: int, k: int) -> np.ndarray:
    """``(LPN_D, hi - lo)``: the reserve columns of the public code's
    rows ``lo`` to ``hi - 1``, row ``i`` from the three AES-CTR blocks
    ``3i`` to ``3i + 2`` under the iteration's public ``key``, each of
    its first ``LPN_D`` 32-bit words mod ``k`` (32-bit indices: the
    gathers read half the index bytes)."""
    words = aes_ctr(key, 3 * lo, 3 * (hi - lo)).view("<u4")
    return words.reshape(hi - lo, 12)[:, :LPN_D].T % np.uint32(k)


def _xor_gather(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``(m, width)``: per code row, the XOR of the ``(k, width)``
    reserve rows its ``(LPN_D, m)`` columns select."""
    width = rows.shape[1]
    blocks = rows.view(f"V{width}").reshape(-1)
    acc = np.take(blocks, columns[0]).view("<u8")
    for col in columns[1:]:
        acc ^= np.take(blocks, col).view("<u8")
    return acc.view(np.uint8).reshape(-1, width)


class _Iteration:
    """REAL: one Ferret iteration of an instance's pool (Yang, Weng, Lan,
    Zhang and Wang, CCS 2020), semi-honest.  It turns a reserve of COTs
    — the sender's rows ``q``, the receiver's bits ``b`` and rows ``t =
    q ^ b Delta`` — into ``lpn.n`` more: the first ``lpn.k`` are the
    regular-noise LPN secret, the other ``t * depth`` the path bits of
    ``lpn.t`` single-point COTs, one punctured GGM tree per bin of
    ``2^depth`` outputs.  The receiver's path bits are the reserve's
    random choice bits, so nothing crosses from her.  Per tree the
    sender sends each level's two sums, the side off a path bit ``a``
    readable under ``H(q ^ a Delta)`` alone, and ``Delta`` XOR all his
    leaves, which completes her leaf at the punctured point.

    Output row ``i`` is the XOR of the :data:`~repro.mpc.costs.LPN_D`
    secret rows a public local-linear code selects, and leaf ``i`` of
    the trees: the sender's ``v_i``, the receiver's ``v_i ^ e_i Delta``
    with ``e_i = 1`` at her punctured points.  :meth:`rows`
    materialises any range of outputs by slices of whole bins, both
    parties growing the trees of its bins; a tree's SPCOT runs the
    first time its bin is grown, and its bytes are the call's."""

    def __init__(
        self,
        ctx: Context,
        lpn: LpnSet,
        delta: np.ndarray,
        reserve: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        q, b, t = reserve
        k, h = lpn.k, lpn.depth
        self.lpn, self._delta = lpn, delta
        #: the LPN secret: both parties' rows side by side, the sender's
        #: ``q`` then the receiver's ``t``, so one gather serves both,
        #: and the receiver's bits
        self._qt = np.concatenate([q[:k], t[:k]], axis=1)
        self._b = b[:k].copy()
        path = slice(k, lpn.reserve)
        self._path_q, self._path_t = q[path].copy(), t[path].copy()
        #: the receiver's punctured points, her path bits most
        #: significant first
        self._bits = b[path].reshape(lpn.t, h).astype(np.int64)
        self._alpha = self._bits @ (1 << np.arange(h - 1, -1, -1))
        self._batch, self._pad_batch = ctx.tweak_batch(), ctx.tweak_batch()
        self._key = tweaks(self._batch, 0, 0).tobytes()
        #: the sender's trees, by their first levels
        self._level1 = np.frombuffer(
            ctx.random_bytes(32 * lpn.t), dtype=np.uint8
        ).reshape(lpn.t, 2, 16)
        #: what the receiver took from each SPCOT once it ran: the level
        #: sums off her path and the correction
        self._received = np.zeros((lpn.t, h, 16), dtype=np.uint8)
        self._corrections = np.zeros((lpn.t, 16), dtype=np.uint8)
        self._sent = np.zeros(lpn.t, dtype=bool)

    def rows(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Outputs ``lo`` to ``hi - 1``: the sender's ``(m, 16)`` rows,
        the receiver's ``(m,)`` bits and ``(m, 16)`` rows, and the bytes
        of the SPCOTs this call ran."""
        h = self.lpn.depth
        m = hi - lo
        q = np.empty((m, 16), dtype=np.uint8)
        t = np.empty((m, 16), dtype=np.uint8)
        b = np.empty(m, dtype=np.uint8)
        wire, start = 0, lo
        while start < hi:
            end = min(hi, (start // _POOL_SLICE + 1) * _POOL_SLICE)
            b0, b1 = start >> h, ((end - 1) >> h) + 1
            cut = slice(start - (b0 << h), end - (b0 << h))
            out = slice(start - lo, end - lo)
            columns = _lpn_columns(self._key, start, end, self.lpn.k)
            secret = _xor_gather(self._qt, columns)
            own, sums = _ggm_tree(self._level1[b0:b1], self._batch, h, b0)
            fresh = np.flatnonzero(~self._sent[b0:b1])
            if len(fresh):
                wire += self._spcot(b0 + fresh, sums[fresh], own[fresh])
            leaves = own.reshape(-1, 16)[cut]
            np.bitwise_xor(secret[:, :16], leaves, out=q[out])
            del own, sums, leaves
            theirs = self._receiver_leaves(b0, b1).reshape(-1, 16)[cut]
            np.bitwise_xor(secret[:, 16:], theirs, out=t[out])
            bits = b[out]
            np.take(self._b, columns[0], out=bits)
            for col in columns[1:]:
                bits ^= np.take(self._b, col)
            # e_i: one 1 per bin, at its punctured point
            noise = (np.arange(b0, b1) << h) + self._alpha[b0:b1] - start
            bits[noise[(noise >= 0) & (noise < end - start)]] ^= 1
            start = end
        return q, b, t, wire

    def _spcot(
        self, trees: np.ndarray, sums: np.ndarray, leaves: np.ndarray
    ) -> int:
        """The single-point COTs of ``trees`` from the sender's level
        sums and leaves: he masks each level's two sums under the
        reserve COT of its path bit and adds ``Delta`` XOR his leaves;
        the receiver opens the sum off her path.  Returns the bytes he
        sent."""
        h = self.lpn.depth
        j = (trees[:, None] * h + np.arange(h)).ravel()
        q = self._path_q[j]
        hide = _pads(np.stack([q ^ self._delta, q]), j, self._pad_batch, 16)
        hide = hide.reshape(2, len(trees), h, 16).transpose(1, 2, 0, 3)
        cipher = sums ^ hide
        corrections = _xor_leaves(leaves) ^ self._delta
        (mine,) = _pads(self._path_t[j][None], j, self._pad_batch, 16)
        side = (1 - self._bits[trees])[..., None, None]
        off = np.take_along_axis(cipher, side, axis=2)[:, :, 0]
        self._received[trees] = off ^ mine.reshape(len(trees), h, 16)
        self._corrections[trees] = corrections
        self._sent[trees] = True
        return cipher.nbytes + corrections.nbytes

    def _receiver_leaves(self, b0: int, b1: int) -> np.ndarray:
        """The receiver's leaves of trees ``b0`` to ``b1 - 1``: the
        owner's off her punctured points, and at each ``Delta`` XOR the
        owner's leaf, from the tree's correction."""
        alpha = self._alpha[b0:b1]
        leaves = _punctured_tree(
            self._received[b0:b1], alpha, self._batch, self.lpn.depth, b0
        )
        trees = np.arange(b1 - b0)
        leaves[trees, alpha] = self._corrections[b0:b1] ^ _xor_leaves(leaves)
        return leaves


class _Paired:
    """An extension instance and its mirror are built together.  The
    forward one — what the constructor call returns — owns the mirror
    and runs the pair's one public-key base phase; the mirror takes its
    base OTs from the forward one, to which it refers back only weakly,
    so a finished run's engine (context, circuits, transcript) is freed
    with its last reference, not by a later cycle collection.

    Each instance keeps one pool of random COTs (DESIGN.md, "Silent-OT
    pool"): it opens at a batch of at least
    :data:`~repro.mpc.costs.POOL_MIN` OTs and serves every later batch,
    for one derandomisation bit per OT, until :meth:`close_pools` ends
    it with the plan node.  The counts live here, so both back-ends and
    the estimator's meter follow the same rule
    (:func:`~repro.mpc.costs.pool_draw`).

    Both back-ends send through the methods below, which size every
    message from ``kappa`` and the batch size alone; the extension
    passes its payloads' sizes, which are checked against them."""

    #: whether the back-end computes payloads whose sizes are checked
    _checks = False
    kappa = KAPPA
    #: REAL: the pool's current iteration, once it opened
    _iteration: Optional["_Iteration"] = None

    def __init__(
        self, ctx: Meter, forward: Optional["_Paired"] = None
    ) -> None:
        self.ctx = ctx
        self._base_done = False
        #: whether a mirror's tree corrections wait for its first ``u``
        self._corrections_due = False
        #: usable rows left in the pool; ``None`` while it is closed
        self._pool_left: Optional[int] = None
        #: the SPCOT bytes a batch's draw left the sender owing, as
        #: scheduled and (REAL) as computed
        self._pool_due = self._pool_wire = 0
        self._mirror = None if forward else type(self)(ctx, self)
        self._forward = forward and weakref.ref(forward)

    @property
    def reverse(self) -> Any:
        """The paired instance for the opposite direction."""
        return self._mirror or self._forward()

    def send_pool(self) -> None:
        """The SPCOT bytes a batch's draw left owing, as their own
        ``ot/ext/pool`` message, if nothing carried them yet: a batch's
        corrections carry them, and so does the mirror's next ``u``,
        which the same party sends.  A batch that is never finished —
        random OTs, labels — calls this right before the sender's next
        message of its protocol (the leaf messages, KKRT's ``u``, the
        garbled tables), in a round the sender opens anyway."""
        due, wire = self._take_due()
        if due:
            Checked(self.ctx, [wire] if self._checks else None).send(
                BOB, due, "ot/ext/pool"
            )

    def close_pools(self) -> None:
        """Close this instance's pool and its mirror's.  The scheduler
        calls it before every plan node, and so before the node's
        checkpoint: a retried node opens fresh pools under its re-keyed
        randomness rather than drawing rows whose derandomisation bits
        a failed attempt may have sent, and its bytes equal the
        unfaulted attempt's.  SPCOT bytes still owed keep their ride."""
        for ot in (self, self.reverse):
            ot._pool_left = ot._iteration = None

    def _send_ciphertexts(
        self, n_bytes: int, sent: Optional[int] = None
    ) -> None:
        """The one ``ot/ext/ciphertexts`` send, after a batch's ``u``: a
        C-OT batch's corrections, one per OT, or a chosen-message
        transfer's two ciphertexts per OT, and after them the SPCOT
        bytes the pool owes the receiver."""
        due, wire = self._take_due()
        Checked(self.ctx, None if sent is None else [sent + wire]).send(
            BOB, n_bytes + due, "ot/ext/ciphertexts"
        )

    def _take_due(self) -> Tuple[int, int]:
        due, wire = self._pool_due, self._pool_wire
        self._pool_due = self._pool_wire = 0
        return due, wire

    def _send_base(self, payloads: Optional[Sequence[int]] = None) -> None:
        """The forward instance's base phase: ``kappa`` Chou–Orlandi
        transfers in reversed roles, as ``A``, one ``B`` per transfer and
        the ciphertexts."""
        wire = Checked(self.ctx, payloads)
        a, b, ct = base_ot_bytes(self.kappa)
        wire.send(ALICE, a, "ot/ext/base/A")
        wire.send(BOB, b, "ot/ext/base/B")
        wire.send(ALICE, ct, "ot/ext/base/ciphertexts")

    def _seed_ots(self, choices: Optional[np.ndarray]) -> CorrelatedBatch:
        """A mirror's base phase: ``kappa`` random OTs of the forward
        instance, Bob choosing by ``choices``, in a batch that is never
        finished.  The tree corrections it leaves ride on the mirror's
        first ``u``, and so do any SPCOT bytes the batch's draw left the
        forward instance owing."""
        ctx = self.ctx
        with ctx.swapped_roles(), ctx.section("ot/ext/base"):
            cot: CorrelatedBatch = self.reverse.correlated(
                choices, seed_ot_widths(self.kappa)
            )
        self._corrections_due = True
        return cot

    def _send_u(self, draw: PoolDraw, payload: Optional[int] = None) -> None:
        """A batch's ``u`` for its ``draw``: ``kappa / k`` bits per OT
        while the pool is closed, else one bit per OT after an opening's
        SoftSpokenOT correction; on a mirror's first batch also its tree
        corrections.  The SPCOT bytes the draw leaves owing wait for the
        sender's next message; those the mirror owes, whose sender is
        this batch's receiver, ride here (REAL's ``payload`` counts
        them)."""
        self._pool_left = draw.left
        self._pool_due += draw.sender
        owed, owed_wire = self.reverse._take_due()
        n_bytes = draw.u + owed
        if self._corrections_due:
            n_bytes += tree_correction_bytes(self.kappa)
            self._corrections_due = False
        if payload is not None:
            payload += owed_wire
        wire = Checked(self.ctx, None if payload is None else [payload])
        wire.send(ALICE, n_bytes, "ot/ext/u")

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
    _checks = True
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
        received, sizes = _chou_orlandi(
            ctx,
            [(e.tobytes(), o.tobytes()) for e, o in sums.reshape(-1, 2, 16)],
            _tree_choices(self._s).tolist(),
        )
        self._send_base(sizes)
        self._puncture(np.frombuffer(b"".join(received), dtype=np.uint8))

    def _trees_from_forward(self) -> None:
        """A mirror: Bob chooses off his path in a forward batch that is
        never finished.  Alice's pads are the trees' first level and
        mask the deeper levels' sums, which wait for the first ``u``."""
        cot = self._seed_ots(_tree_choices(self._s))
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
        ``T_j = Q_j ^ r_j s``, and the correction Alice sends —
        SoftSpokenOT's while the pool stays closed, else her
        derandomisation bits against the pool (:meth:`_draw`)."""
        if not self._base_done:
            self._base_phase()
        pending, self._pending = self._pending, None
        sent = 0
        if pending is not None:
            sent = pending.nbytes
            self._unmask(pending)
        draw = pool_draw(self.kappa, self._pool_left, m)
        if draw.left is None:
            q_rows, t_rows, c = self._softspoken(m, r)
        else:
            q_rows, t_rows, c, opening = self._draw(draw, r)
            sent += opening
        self._send_u(draw, sent + c.nbytes)
        return q_rows, t_rows, c

    def _softspoken(
        self, m: int, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A SoftSpokenOT batch: ``Q`` rows, ``T`` rows and the
        correction."""
        batch = self.ctx.tweak_batch()
        t_rows, c = self._receiver_rows(m, r, batch)
        return self._sender_rows(c, m, batch), t_rows, c

    def _draw(
        self, draw: PoolDraw, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The pool's rows of ``draw``, derandomised to Alice's choices:
        she sends ``d_j = r_j ^ b_j`` against a row's random bit ``b_j``
        and Bob takes ``Q_j = w_j ^ d_j s``, so her row is already
        ``Q_j ^ r_j s``.  An opening draw first fills the bootstrap
        reserve by a SoftSpokenOT batch of random choices; a fresh range
        starts a main iteration.  Returns the rows, the packed ``d`` and
        the opening's SoftSpokenOT correction bytes; the iterations'
        SPCOT bytes are owed."""
        ctx, delta = self.ctx, self.delta
        opening = 0
        if draw.opens:
            boot = costs.FERRET_BOOT
            bits = ctx.rng.integers(0, 2, size=boot.reserve, dtype=np.uint8)
            q, t, c = self._softspoken(boot.reserve, bits)
            opening = c.nbytes
            self._iteration = _Iteration(ctx, boot, delta, (q, bits, t))
            del q, t
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo, hi, fresh in draw.rows:
            if fresh:
                self._refill()
            parts.append(self._pool_rows(lo, hi))
        q, b, t = (
            np.concatenate(x) if len(x) > 1 else x[0] for x in zip(*parts)
        )
        d = r ^ b
        q ^= d[:, None] * delta
        return q, t, np.packbits(d), opening

    def _pool_rows(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``lo`` to ``hi - 1`` of the current iteration; the SPCOT
        bytes they ran are owed."""
        assert self._iteration is not None
        q, b, t, wire = self._iteration.rows(lo, hi)
        self._pool_wire += wire
        return q, b, t

    def _refill(self) -> None:
        """Start a main iteration from the reserve the current one keeps
        in its first rows."""
        main = costs.FERRET_MAIN
        reserve = self._pool_rows(0, main.reserve)
        self._iteration = _Iteration(self.ctx, main, self.delta, reserve)

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
        """Open one C-OT batch over consecutive ``(count, bits)``
        segments: sends ``u``; OT ``j``'s pads are ``H(Q_j, t_j)`` and
        ``H(Q_j ^ s, t_j)`` for the sender and ``H(T_j, t_j)`` — the one
        matching her choice — for the receiver (:func:`_pads`), truncated
        to the segment's width (at most two blocks, ``bits <= 256``)."""
        if choices is None:
            raise ValueError("a real OT needs the receiver's choice bits")
        r = np.asarray(choices, dtype=np.uint8) & 1
        m = sum(count for count, _ in widths)
        if len(r) != m:
            raise ValueError("one choice bit per OT is required")
        if any(not 0 < bits <= 256 for _, bits in widths):
            raise ValueError("C-OT pads are 1 to 256 bits wide")
        if m == 0:
            return CorrelatedBatch(self, widths, r, [_NO_PADS] * 3)
        q_rows, t_rows, _ = self._column_phase(m, r)
        s_packed, batch = self.delta, self.ctx.tweak_batch()
        j = np.arange(m)
        width = -(-max(bits for _, bits in widths) // 8)
        p0, p1 = _pads(np.stack([q_rows, q_rows ^ s_packed]), j, batch, width)
        (pc,) = _pads(t_rows[None], j, batch, width)
        return CorrelatedBatch(self, widths, r, [p0, p1, pc])

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
        self._send_ciphertexts(_pair_bytes(pairs), total)
        return out


class SimulatedOT(_Paired):
    """Charge-only OT: sends through the same methods as
    :class:`SoftSpokenExtension`, with no payloads, and deals nothing.
    Its consumers compute their functionality directly (SIMULATED
    mode), or nothing at all (the cost estimator's meter)."""

    def _open(self, n_ots: int) -> None:
        """Charge the base phase (first batch only) and ``u`` (none for
        an empty batch)."""
        if not self._base_done:
            if self._mirror is None:
                self._seed_ots(None)
            else:
                self._send_base()
            self._base_done = True
        if n_ots:
            self._send_u(pool_draw(self.kappa, self._pool_left, n_ots))

    def correlated(
        self, choices: Optional[np.ndarray], widths: Widths
    ) -> CorrelatedBatch:
        """Charge the opening of a C-OT batch; the batch is charge-only
        (the choices are not read)."""
        m = sum(count for count, _ in widths)
        if m:
            self._open(m)
        return CorrelatedBatch(self, widths)

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
        self._send_ciphertexts(_pair_bytes(pairs))
        return [p[1] if c else p[0] for p, c in zip(pairs, choices)]


def make_ot(ctx: Context) -> OT:
    """The OT back-end (forward instance) for the context's mode."""
    from .context import Mode

    if ctx.mode == Mode.REAL:
        return SoftSpokenExtension(ctx)
    return SimulatedOT(ctx)
