"""Garbled circuits: free-XOR + three-halves under a fixed-key AES hash.

This is the REAL-mode back-end for Section 5.2.  Bob is the garbler and
Alice the evaluator throughout (the roles never need to swap in the
secure Yannakakis protocol, because outputs are re-shared).

Construction:

* A global 128-bit offset ``delta`` with LSB 1 (free-XOR): the secret
  ``s`` of the OT extension instance that carries the evaluator's input
  labels (:meth:`repro.mpc.ot.SoftSpokenExtension.labels`), one per
  instance and so one per garbler and direction, across all its batches.  Each
  wire has labels ``W0`` and ``W1 = W0 ^ delta``; the LSB of a label is
  its public "select bit" or colour (point-and-permute).
* XOR gates are free: ``Wc0 = Wa0 ^ Wb0``.
* INV gates are free: ``Wc0 = Wa0 ^ delta`` (relabelling).
* AND gates use the three-halves ("slicing and dicing") technique of
  Rosulek & Roy (CRYPTO 2021): a label is two 64-bit halves, and an
  AND's table is three 8-byte half-ciphertexts ``G0, G1, G2`` plus
  :data:`CONTROL_BITS` control bits — 1.5κ + 4 bits against
  half-gates' 2κ.  The evaluator holding ``A``, ``B`` of colours
  ``i``, ``j`` computes the output label half by half::

      C_L = H(A) ^ H(A^B) ^ i*G0 ^ j*G2 ^ R_ij[L] . (A_L, A_R, B_L, B_R)
      C_R = H(B) ^ H(A^B) ^ j*G1 ^ i*G2 ^ R_ij[R] . (A_L, A_R, B_L, B_R)

  with ``H`` truncated to 64 bits and ``R_ij`` a 2x4 bit matrix
  ``P_ij ^ k1*E1 ^ k2*E2`` (below).  The control bits
  ``k1, k2`` "dice" ``R_ij``: they depend on the garbler's secret
  colours of the zero-labels, and Alice learns only her own colour
  pair's — two further hash bits of ``H(A) ^ H(B)`` pad them, and the
  table's control bits correct the pads' ``i`` and ``j`` coefficients.
  DESIGN.md ("Three-halves garbling") derives the matrices and argues
  security.
* Every hash is the fixed-key AES hash
  :func:`~repro.mpc.batch.tccr_hash` (Guo, Katz, Wang & Yu), under the
  tweak ``(batch, instance, 3k + j)``: ``batch`` is a public number
  fresh per garbled batch, and ``j`` = 0, 1, 2 hashes ``A``, ``B`` and
  ``A ^ B`` of the ``k``-th AND in construction order.  The garbler
  hashes both labels of each (six blocks per AND), the evaluator the
  ones she holds (three).

The evaluator learns exactly one label per wire; select bits are
independent of semantic values.  Revealed output wires are decoded with
garbler-supplied permute bits; shared outputs are *translated* through
their labels (:func:`translate`, :func:`translated_shares`): one ring
element per output bit, no adder in the circuit.  A template's
disclosed payload (:class:`~repro.mpc.circuits.circuit.Disclosure`)
leaves encrypted under its key wire's 1-label (:func:`disclose`,
:func:`disclosed_payloads`).

The garbler draws nothing.  ``delta`` and the evaluator-input
zero-labels are supplied by the caller: they are the extension
sender's ``s`` and rows ``Q_j``, and the evaluator's active labels the
receiver's rows ``T_j = Q_j ^ r_j s``.  The *active* label of every
garbler-side input and constant wire is expanded from a 16-byte seed
(:func:`expand_labels`) that the garbler sends instead of the labels:
the garbler knows those bits, so it sets ``zero = active ^ bit*delta``.
DESIGN.md ("Input-side wire format") has the soundness argument.  The
dicing bits need no draw either: they are the constant terms of the
hash-derived pads, which the evaluator sees only through her own
colour pair.

``yao.garbled_call`` garbles the SAME template for every instance of a
batch, and the template's :attr:`~repro.mpc.circuits.circuit.Circuit.
levels` group its gates by depth, so both halves run SIMD-style over
levels, not gates: wire labels are ``(n_instances, 16)`` byte matrices,
and per level one gather–XOR–scatter covers its XOR gates, one its INV
gates, and one hash call all of its AND gates across all instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..batch import tccr_hash, tweaks
from .circuit import Circuit

__all__ = [
    "GarblePlan",
    "BatchGarbling",
    "make_garble_plan",
    "expand_labels",
    "garble_batch",
    "evaluate_batch",
    "unpack_control",
    "translate",
    "translated_shares",
    "disclose",
    "disclosed_payloads",
]

LABEL_BYTES = 16
#: An AND table's half-ciphertexts, each half a label.
TABLE_HALVES = 3
HALF_BYTES = LABEL_BYTES // 2
#: An AND table's control bits: the ``i`` and ``j`` coefficients of
#: the pads of ``k1`` and ``k2``.
CONTROL_BITS = 4
#: The seed a batch's garbler-side active labels expand from.
SEED_BYTES = 16

#: Added to ``3k``: the hashes of ``A``, ``B`` and ``A ^ B`` of AND ``k``.
_HASHES = np.arange(3, dtype=np.uint64)[:, None, None]
_ROW = np.uint64(32)


@dataclass
class GarblePlan:
    """Precompiled, instance-independent view of one circuit template:
    its input-wire ordering; the template's :attr:`Circuit.levels` are
    the gate schedule."""

    circuit: Circuit
    n_wires: int
    alice_wires: np.ndarray
    #: wires whose bits the garbler knows and garbles: Bob's inputs
    #: (the disclosed ones excepted), then constants
    garbler_wires: np.ndarray
    #: the columns of Bob's input bits on :attr:`garbler_wires`, and on
    #: the disclosed payload
    bob_cols: np.ndarray
    payload_cols: np.ndarray
    const_bits: np.ndarray
    output_wires: np.ndarray
    #: the wires of the circuit's sent (non-constant) rows
    row_wires: np.ndarray
    n_ands: int
    #: per level, the ``(3, n_and, 1)`` tweak indices ``3k + j`` of its
    #: AND gates (``None`` for a level without ANDs)
    and_tweaks: Tuple[Optional[np.ndarray], ...]
    #: per level, the ``(2, n_and)`` wires of its AND gates' operands
    and_operands: Tuple[Optional[np.ndarray], ...]
    #: the most ANDs of any level
    max_level_ands: int

    @property
    def row_tweak_base(self) -> int:
        """Sent row ``j`` hashes under index ``row_tweak_base + j``: past
        the AND gates' hashes and the garbler-side label slots."""
        return 3 * self.n_ands + len(self.garbler_wires)

    @property
    def disclosure_tweak_base(self) -> int:
        """Block ``c`` of a disclosed payload's pad hashes under index
        ``disclosure_tweak_base + c``: past the translated rows."""
        return self.row_tweak_base + len(self.row_wires)


def make_garble_plan(circuit: Circuit) -> GarblePlan:
    alice = np.asarray(circuit.alice_inputs, dtype=np.int64)
    bob = np.asarray(circuit.bob_inputs, dtype=np.int64)
    payload = circuit.disclosure.payload if circuit.disclosure else ()
    disclosed = np.isin(bob, np.asarray(payload, dtype=np.int64))
    column = {w: i for i, w in enumerate(circuit.bob_inputs)}
    const_w = np.asarray(
        [w for w, _ in circuit.const_wires], dtype=np.int64
    )
    const_b = np.asarray(
        [b & 1 for _, b in circuit.const_wires], dtype=np.uint8
    )
    and_tweaks = tuple(
        3 * lv.and_index.astype(np.uint64)[None, :, None] + _HASHES
        if len(lv.and_out)
        else None
        for lv in circuit.levels
    )
    return GarblePlan(
        circuit=circuit,
        n_wires=circuit.n_wires,
        alice_wires=alice,
        garbler_wires=np.concatenate([bob[~disclosed], const_w]),
        bob_cols=np.flatnonzero(~disclosed),
        payload_cols=np.asarray([column[w] for w in payload], dtype=np.int64),
        const_bits=const_b,
        output_wires=np.asarray(circuit.outputs, dtype=np.int64),
        row_wires=np.asarray(
            [circuit.rows[j].wire for j in circuit.sent_rows], dtype=np.int64
        ),
        n_ands=circuit.and_count,
        and_tweaks=and_tweaks,
        and_operands=tuple(
            np.stack([lv.and_a, lv.and_b]) if len(lv.and_out) else None
            for lv in circuit.levels
        ),
        max_level_ands=max(
            (len(lv.and_out) for lv in circuit.levels), default=0
        ),
    )


# -- the three-halves AND gate ----------------------------------------
#
# DESIGN.md ("Three-halves garbling") derives the gate: the evaluator
# adds ``R_ij . (A_L, A_R, B_L, B_R)`` with ``R_ij = P_ij ^ k1 E1 ^ k2
# E2``, ``P_ij = [0 0 0 j; 1^i 0 0 0]``, ``E1 = [1 1 1 0; 1 0 0 1]``,
# ``E2 = [1 0 0 1; 0 1 1 1]``.  The level loops use closed forms in
# ``S = A_L ^ A_R ^ B_L`` and ``U = A_R ^ B_L ^ B_R`` (``A_L ^ B_R = S ^
# U``), with the few per-gate bits turned into masks by the two lookup
# tables below; tests/reference.py applies the matrices themselves.


def _dice(alpha: int, beta: int) -> Tuple[int, int, int, int]:
    """The ``i`` coefficients of ``(k1, k2)``, then their ``j``
    coefficients, under the zero-labels' colours: ``k = rho ^ i ci ^ j
    cj``."""
    return beta, alpha ^ beta, alpha ^ beta, 1 ^ alpha


def _evaluator_masks() -> np.ndarray:
    """``(10, 256)`` masks indexed by ``i | j << 1 | nibble << 2 | pad
    << 6``, in pairs ``(for C_L, for C_R)``: ``[i, j]`` on ``[G0, G1]``,
    ``[j, i]`` on ``G2``, then on ``S``, ``U`` and ``A_L`` those of
    ``R_ij`` (``j B_R`` in ``C_L`` is ``j (S ^ U ^ A_L)``).  The control
    nibble holds the ``i`` coefficients of ``(k1, k2)`` in bits 0-1 and
    the ``j`` coefficients in bits 2-3, and ``k = pad ^ i ci ^ j cj``."""
    cols = []
    for code in range(256):
        i, j, nibble, pad = code & 1, code >> 1 & 1, code >> 2 & 15, code >> 6
        k = pad ^ (i * (nibble & 3)) ^ (j * (nibble >> 2))
        k1, k2 = k & 1, k >> 1
        cols.append(
            (i, j, j, i, k1 ^ k2 ^ j, k1, k2 ^ j, k1 ^ k2, j, 1 ^ i)
        )
    return np.negative(np.asarray(cols, dtype=np.uint64).T.copy())


_EVALUATOR = _evaluator_masks()


def _garbler_coefficients() -> np.ndarray:
    """``(4, 5, 16)`` bits indexed by ``alpha | beta << 1 | rho << 2``:
    per output ``(C0_L, C0_R, G0, G1, G2)`` its coefficients on
    ``delta_L``, ``delta_R``, ``S`` and ``U``.  ``C0`` is the
    colour-(0, 0) output, carrying ``(alpha AND beta) delta`` and
    ``R_00``'s dicing; each ``G`` is the difference of two colour
    pairs' outputs."""
    coef = np.empty((4, 5, 16), dtype=np.uint64)
    for idx in range(16):
        a, b, r0, r1 = idx & 1, idx >> 1 & 1, idx >> 2 & 1, idx >> 3
        coef[:, :, idx] = np.transpose((
            (a & b, 0, r0 ^ r1, r1),
            (0, a & b, r0, r0 ^ r1),
            (a ^ b ^ r0 ^ r1, b ^ r0, a, a ^ b),
            (1 ^ a ^ r1, 1 ^ a ^ b ^ r0 ^ r1, a ^ b, 1 ^ b),
            (b ^ r0, a ^ r1, b, a),
        ))
    return np.negative(coef)


_GARBLER = _garbler_coefficients()
#: The control nibble's secret part per ``alpha | beta << 1 | rho << 2``
#: (``rho`` plays no part): the pads' coefficients are XORed onto it.
_NIBBLE = np.asarray(
    [
        ci1 | ci2 << 1 | cj1 << 2 | cj2 << 3
        for ci1, ci2, cj1, cj2 in (
            _dice(c & 1, c >> 1 & 1) for c in range(16)
        )
    ],
    dtype=np.uint64,
)


def _garbler_table(delta: np.ndarray) -> np.ndarray:
    """``(16, 16)`` indexed by ``alpha | beta << 1 | rho << 2``: the
    delta parts of the outputs ``(C0_L, C0_R, G0, G1, G2)``, their masks
    on ``S``, their masks on ``U``, then the control nibble's secret
    part."""
    dl, dr = delta.view("<u8")
    on_l, on_r, on_s, on_u = _GARBLER
    return np.concatenate(
        [(on_l & dl) ^ (on_r & dr), on_s, on_u, _NIBBLE[None]]
    )


class _LevelScratch:
    """One batch's hash inputs and tweaks, allocated once at the widest
    level's size and reused by every level: a level of ``m`` ANDs takes
    the leading ``m`` of each (contiguous, as the AES call wants)."""

    def __init__(self, plan: GarblePlan, n: int, batch: int, blocks: int):
        self.n, self.blocks = n, blocks
        width = plan.max_level_ands * n
        self.x = np.empty(blocks * width * 2, dtype="<u8")
        self.t = np.empty(3 * width * 2, dtype="<u8")
        self.t[0::2] = batch
        self.rows = np.arange(n, dtype=np.uint64) << _ROW

    def inputs(self, m: int) -> np.ndarray:
        """``(blocks, m, n, 2)`` uint64 hash inputs."""
        size = self.blocks * m * self.n * 2
        return self.x[:size].reshape(self.blocks, m, self.n, 2)

    def tweaks(self, index: np.ndarray) -> np.ndarray:
        """``(3, m, n, 16)`` tweaks of a level's cached indices: the
        batch words are already in place, the instance words are one
        broadcast OR."""
        m = index.shape[1]
        t = self.t[: 3 * m * self.n * 2].reshape(3, m, self.n, 2)
        np.bitwise_or(index, self.rows, out=t[..., 1])
        return t.view(np.uint8)


@dataclass
class BatchGarbling:
    """The garbler's view over a whole batch: per-wire ``(n, 16)``
    zero-label matrices (little-endian label bytes), the free-XOR
    offset, and the AND tables in construction order — the
    half-ciphertexts and the packed control bits."""

    plan: GarblePlan
    delta: np.ndarray  # (16,)
    zero: np.ndarray  # (n_wires, n, 16)
    tables: np.ndarray  # (n_ands, 3, n) uint64 half-ciphertexts
    control: np.ndarray  # pack_control of the (n_ands, n) nibbles

    def output_permute_bits(self) -> np.ndarray:
        """``(n, n_outputs)`` select bits of the output zero-labels."""
        return (self.zero[self.plan.output_wires][:, :, 0] & 1).T


def pack_control(nibbles: np.ndarray) -> np.ndarray:
    """``(n_ands, n)`` control nibbles, two to a byte in row-major
    order: ``ceil(CONTROL_BITS * n_ands * n / 8)`` bytes."""
    flat = nibbles.reshape(-1)
    if len(flat) % 2:
        flat = np.append(flat, np.uint8(0))
    return flat[0::2] | (flat[1::2] << 4)


def unpack_control(packed: np.ndarray, n_ands: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_control`."""
    flat = np.empty(2 * len(packed), dtype=np.uint8)
    flat[0::2] = packed & 15
    flat[1::2] = packed >> 4
    return flat[: n_ands * n].reshape(n_ands, n)


def expand_labels(
    seed: bytes, plan: GarblePlan, n: int, batch: int
) -> np.ndarray:
    """The ``(n_garbler_wires, n, 16)`` active labels of the plan's
    garbler-side wires over ``n`` instances: label ``(instance, slot)``
    is ``H(seed, (batch, instance, 3 * n_ands + slot))`` — the tweaks
    after the batch's AND hashes.  Both parties run this — the garbler
    to fix its zero-labels, the evaluator in place of receiving the
    labels."""
    n_slots = len(plan.garbler_wires)
    block = np.frombuffer(seed, dtype=np.uint8)
    t = tweaks(
        batch,
        np.arange(n)[:, None],
        3 * plan.n_ands + np.arange(n_slots)[None, :],
    )
    return tccr_hash(block, t).transpose(1, 0, 2)


def expand_labels(
    seed: bytes, plan: GarblePlan, n: int, batch: int
) -> np.ndarray:
    """The ``(n_garbler_wires, n, 16)`` active labels of the plan's
    garbler-side wires over ``n`` instances: label ``(instance, slot)``
    is ``H(seed, (batch, instance, 3 * n_ands + slot))`` — the tweaks
    after the batch's AND hashes.  Both parties run this — the garbler
    to fix its zero-labels, the evaluator in place of receiving the
    labels."""
    n_slots = len(plan.garbler_wires)
    block = np.frombuffer(seed, dtype=np.uint8)
    t = tweaks(
        batch,
        np.arange(n)[:, None],
        3 * plan.n_ands + np.arange(n_slots)[None, :],
    )
    return tccr_hash(block, t).transpose(1, 0, 2)


def garble_batch(
    plan: GarblePlan,
    delta: np.ndarray,
    alice_zero: np.ndarray,
    seed: bytes,
    garbler_bits: np.ndarray,
    batch: int,
) -> BatchGarbling:
    """Garble one instance per row of ``garbler_bits`` (``(n, n_garbler_
    wires)``, the bits on :attr:`GarblePlan.garbler_wires`) at once,
    under the free-XOR offset ``delta`` (16 bytes, LSB 1).
    ``alice_zero`` is the ``(n_alice, n, 16)`` matrix of evaluator-input
    zero-labels; the garbler-side active labels expand from ``seed``.
    ``batch`` is the public tweak batch number the evaluator hashes
    under too.

    Per AND, with ``alpha``, ``beta`` the colours of the input
    zero-labels and ``Ab``, ``Bb`` the colour-0 labels, the garbler
    hashes ``Ab``, ``Ab ^ delta``, ``Bb``, ``Bb ^ delta``, ``Ab ^ Bb``
    and ``Ab ^ Bb ^ delta`` and solves the evaluator's equations at
    colours (0, 0), (1, 0) and (0, 1) for ``C0`` and ``G`` — the
    (1, 1) equations then hold too (DESIGN.md)."""
    delta = np.asarray(delta, dtype=np.uint8).reshape(LABEL_BYTES)
    if not delta[0] & 1:
        raise ValueError("the free-XOR offset needs select bit 1")
    n = garbler_bits.shape[0]
    zero = np.zeros((plan.n_wires, n, LABEL_BYTES), dtype=np.uint8)
    zero[plan.alice_wires] = alice_zero
    zero[plan.garbler_wires] = expand_labels(seed, plan, n, batch) ^ (
        delta * garbler_bits.T[:, :, None]
    )
    tables = np.empty((plan.n_ands, TABLE_HALVES, n), dtype="<u8")
    nibbles = np.empty((plan.n_ands, n), dtype=np.uint8)
    # Label arithmetic on (L, R) uint64 halves.
    z, d = zero.view("<u8"), delta.view("<u8")
    dl, dr = d
    table = _garbler_table(delta)
    scratch = _LevelScratch(plan, n, batch, 6)
    one, two, three = np.uint64(1), np.uint64(2), np.uint64(3)

    steps = zip(plan.circuit.levels, plan.and_tweaks, plan.and_operands)
    for lv, index, operands in steps:
        if len(lv.xor_out):
            z[lv.xor_out] = z[lv.xor_a] ^ z[lv.xor_b]
        if len(lv.inv_out):
            z[lv.inv_out] = z[lv.inv_a] ^ d
        if index is None:
            continue
        zero_ab = z[operands]
        colour_ab = zero_ab[..., 0] & one  # (alpha, beta)
        # x[input, colour]: the colour-0 labels Ab, Bb, Ab ^ Bb, then
        # each XOR delta; the hash of colour c sits at [input, c].
        # Delta enters half by half, as a scalar.
        x = scratch.inputs(len(lv.and_out)).reshape(3, 2, -1, n, 2)
        np.multiply(colour_ab, dl, out=x[:2, 0, ..., 0])
        np.multiply(colour_ab, dr, out=x[:2, 0, ..., 1])
        x[:2, 0] ^= zero_ab
        np.bitwise_xor(x[0, 0], x[1, 0], out=x[2, 0])
        np.bitwise_xor(x[:, 0, ..., 0], dl, out=x[:, 1, ..., 0])
        np.bitwise_xor(x[:, 0, ..., 1], dr, out=x[:, 1, ..., 1])
        h = tccr_hash(
            x.view(np.uint8), scratch.tweaks(index)[:, None]
        ).view("<u8")
        # Pads of (k1, k2) at colours (i, j): bits 0-1 of the high words
        # of H(A_i) ^ H(B_j).  Their constant term is the dicing
        # randomness rho; their i and j coefficients cross, corrected.
        pad_ab = h[:2, :, ..., 1] & three  # [input, colour]
        rho = pad_ab[0, 0] ^ pad_ab[1, 0]
        pads = pad_ab[:, 0] ^ pad_ab[:, 1]
        colours = colour_ab[0] | colour_ab[1] << one
        coef = np.take(table, colours | rho << two, axis=1)
        nibbles[lv.and_index] = (pads[0] | pads[1] << two) ^ coef[15]
        # (C0_L, C0_R, G0, G1, G2): delta, S and U terms, A_L, hashes.
        a_l, b_r = x[0, 0, ..., 0], x[1, 0, ..., 1]
        w = x[0, 0, ..., 1] ^ x[1, 0, ..., 0]
        out = coef[:5] ^ (coef[5:10] & (w ^ a_l))
        out ^= coef[10:15] & (w ^ b_r)
        out[1::3] ^= a_l
        # [input, colour]: H(A) ^ H(A^B) and H(B) ^ H(A^B) per colour
        base = h[:2, :, ..., 0] ^ h[2, :, ..., 0]
        out[:2] ^= base[:, 0]
        out[2:4] ^= base[:, 0] ^ base[:, 1]
        out[4] ^= h[2, 0, ..., 0] ^ h[2, 1, ..., 0]
        z[lv.and_out] = out[:2].transpose(1, 2, 0)
        tables[lv.and_index] = out[2:].transpose(1, 0, 2)
    return BatchGarbling(plan, delta, zero, tables, pack_control(nibbles))


def evaluate_batch(
    plan: GarblePlan,
    tables: np.ndarray,
    control: np.ndarray,
    active_inputs: np.ndarray,
    batch: int,
) -> np.ndarray:
    """Evaluate all instances at once from the ``(n_wires, n, 16)``
    matrix with every input/constant wire's active label filled in,
    the ``(n_ands, 3, n)`` half-ciphertexts and the packed control
    bits; returns the ``(n, n_outputs)`` decoded select bits."""
    active = active_inputs
    n = active.shape[1]
    w = active.view("<u8")
    nibbles = unpack_control(control, plan.n_ands, n).astype(np.uint64) << 2
    scratch = _LevelScratch(plan, n, batch, 3)
    one, three, six = np.uint64(1), np.uint64(3), np.uint64(6)
    steps = zip(plan.circuit.levels, plan.and_tweaks, plan.and_operands)
    for lv, index, operands in steps:
        if len(lv.xor_out):
            w[lv.xor_out] = w[lv.xor_a] ^ w[lv.xor_b]
        if len(lv.inv_out):
            w[lv.inv_out] = w[lv.inv_a]  # relabelled: flipped meaning
        if index is None:
            continue
        x = scratch.inputs(len(lv.and_out))
        a, b = x[0], x[1]
        np.take(w, operands, axis=0, out=x[:2])
        np.bitwise_xor(a, b, out=x[2])
        h = tccr_hash(x.view(np.uint8), scratch.tweaks(index)).view("<u8")
        colour_ab = x[:2, ..., 0] & one  # (i, j)
        code = (
            colour_ab[0]
            | colour_ab[1] << one
            | nibbles[lv.and_index]
            | ((h[0, ..., 1] ^ h[1, ..., 1]) & three) << six
        )
        mask = np.take(_EVALUATOR, code, axis=1)
        g = tables[lv.and_index].transpose(1, 0, 2)
        a_l = a[..., 0]
        v = a[..., 1] ^ b[..., 0]
        # (C_L, C_R): hashes, then the pairs of _evaluator_masks.
        out = h[:2, ..., 0] ^ h[2, ..., 0]
        out ^= mask[0:2] & g[:2]
        out ^= mask[2:4] & g[2]
        out ^= mask[4:6] & (v ^ a_l)
        out ^= mask[6:8] & (v ^ b[..., 1])
        out ^= mask[8:10] & a_l
        w[lv.and_out] = out.transpose(1, 2, 0)
    return (active[plan.output_wires][:, :, 0] & 1).T


def _row_hash(labels: np.ndarray, plan: GarblePlan, batch: int) -> np.ndarray:
    """``(..., n_rows, n)`` uint64: the low 8 bytes of each ``(..., n_rows,
    n, 16)`` row label hashed under its row's tweak."""
    n_rows, n = labels.shape[-3:-1]
    t = tweaks(
        batch,
        np.arange(n)[None, :],
        plan.row_tweak_base + np.arange(n_rows)[:, None],
    )
    return tccr_hash(labels, t)[..., :8].copy().view("<u8")[..., 0]


def translate(
    g: BatchGarbling, weights: np.ndarray, batch: int, mask: int | np.uint64
) -> Tuple[np.ndarray, np.ndarray]:
    """The garbler's half of output translation over the sent rows:
    with ``X`` the ``(n_rows, n)`` row weights, returns ``(rows,
    shares)`` mod ``mask + 1`` — the ring elements sent to the evaluator
    and the garbler's own share of each row.

    Let ``W_c`` be a row wire's label of select bit (colour) ``c`` and
    ``v_c`` the bit it stands for.  The row is ``T = (v_1 - v_0) X +
    H(W_0) + H(W_1)`` and the garbler keeps ``v_0 X - H(W_0)``; an
    evaluator holding ``W_c`` takes ``H(W_c)`` or ``T - H(W_c)``
    (:func:`translated_shares`), and the two shares sum to ``v_c X``."""
    plan = g.plan
    z = g.zero[plan.row_wires]  # (n_rows, n, 16)
    p = (z[:, :, 0] & 1).astype(np.uint64)  # the value of colour 0
    colour0 = z ^ (g.delta * p[:, :, None].astype(np.uint8))
    h0, h1 = _row_hash(np.stack([colour0, colour0 ^ g.delta]), plan, batch)
    m = np.uint64(mask)
    v1_minus_v0 = np.uint64(1) - np.uint64(2) * p  # 1 - 2p, wrapping
    rows = (v1_minus_v0 * weights + h0 + h1) & m
    return rows, (p * weights - h0) & m


def translated_shares(
    plan: GarblePlan,
    active: np.ndarray,
    rows: np.ndarray,
    batch: int,
    mask: int | np.uint64,
) -> np.ndarray:
    """The evaluator's ``(n_rows, n)`` shares of the sent rows from her
    active labels and the garbler's ``rows``: ``H(W)`` under colour 0,
    ``T - H(W)`` under colour 1 — one arithmetic expression, no branch
    on the select bit."""
    w = active[plan.row_wires]
    c = (w[:, :, 0] & 1).astype(np.uint64)
    h = _row_hash(w, plan, batch)
    return (h + c * (rows - np.uint64(2) * h)) & np.uint64(mask)


def _disclosure_pads(
    labels: np.ndarray, plan: GarblePlan, batch: int, n_bytes: int
) -> np.ndarray:
    """``(n, n_bytes)``: each instance's key-wire label hashed block by
    block under the disclosure tweaks, truncated."""
    n_blocks = -(-n_bytes // LABEL_BYTES)
    t = tweaks(
        batch,
        np.arange(len(labels))[:, None],
        plan.disclosure_tweak_base + np.arange(n_blocks)[None, :],
    )
    return tccr_hash(labels[:, None, :], t).reshape(len(labels), -1)[
        :, :n_bytes
    ]


def disclose(
    g: BatchGarbling, payload_bits: np.ndarray, batch: int
) -> np.ndarray:
    """The garbler's half of label-keyed disclosure: the ``(n,
    payload_bits)`` bits packed little-endian into bytes, XORed with the
    pads of the key wire's 1-label ``W0 ^ delta`` — one ``ceil(bits /
    8)``-byte row per instance (no columns when the circuit discloses
    nothing)."""
    plan = g.plan
    packed = np.packbits(payload_bits, axis=1, bitorder="little")
    if plan.circuit.disclosure is None:
        return packed
    one = g.zero[plan.circuit.disclosure.key] ^ g.delta
    return packed ^ _disclosure_pads(one, plan, batch, packed.shape[1])


def disclosed_payloads(
    plan: GarblePlan,
    active: np.ndarray,
    rows: np.ndarray,
    decoded: np.ndarray,
    batch: int,
) -> np.ndarray:
    """The evaluator's half: given the ``(n, n_outputs)`` decoded
    outputs, the ``(n, payload_bits)`` payload decrypted with her label
    of the key wire where the key bit is 1, zeros where it is 0 (her
    label there is ``W0``, whose pad is unrelated to the 1-label's)."""
    circuit = plan.circuit
    if circuit.disclosure is None:
        return np.zeros((len(decoded), 0), dtype=np.uint8)
    key, payload = circuit.disclosure
    pads = _disclosure_pads(active[key], plan, batch, rows.shape[1])
    bits = np.unpackbits(rows ^ pads, axis=1, bitorder="little")
    key_bits = decoded[:, circuit.outputs.index(key)]
    return bits[:, : len(payload)] * key_bits[:, None]
