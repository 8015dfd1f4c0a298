"""Garbled circuits: free-XOR + half-gates under a fixed-key AES hash.

This is the REAL-mode back-end for Section 5.2.  Bob is the garbler and
Alice the evaluator throughout (the roles never need to swap in the
secure Yannakakis protocol, because outputs are re-shared).

Construction:

* A global 128-bit offset ``delta`` with LSB 1 (free-XOR): the secret
  ``s`` of the OT extension instance that carries the evaluator's input
  labels (:meth:`repro.mpc.ot.SoftSpokenExtension.labels`), one per
  instance and so one per garbler and direction, across all its batches.  Each
  wire has labels ``W0`` and ``W1 = W0 ^ delta``; the LSB of a label is
  its public "select bit" (point-and-permute).
* XOR gates are free: ``Wc0 = Wa0 ^ Wb0``.
* INV gates are free: ``Wc0 = Wa0 ^ delta`` (relabelling).
* AND gates use the half-gates technique of Zahur, Rosulek & Evans:
  two ciphertexts per gate — the modern standard, and what the ABY
  framework underlying the paper's implementation ships.
* Every hash is the fixed-key AES hash
  :func:`~repro.mpc.batch.tccr_hash` (Guo, Katz, Wang & Yu), under the
  tweak ``(batch, instance, half-gate index)``: ``batch`` is a public
  number fresh per garbled batch, and half-gate ``2k`` / ``2k + 1``
  belongs to the ``k``-th AND in construction order.

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
DESIGN.md ("Input-side wire format") has the soundness argument.

``yao.garbled_call`` garbles the SAME template for every instance of a
batch, and the template's :attr:`~repro.mpc.circuits.circuit.Circuit.
levels` group its gates by depth, so both halves run SIMD-style over
levels, not gates: wire labels are ``(n_instances, 16)`` byte matrices,
and per level one gather–XOR–scatter covers its XOR gates, one its INV
gates, and one hash call all of its AND gates across all instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..batch import tccr_hash, tweaks
from .circuit import Circuit, Level

__all__ = [
    "GarblePlan",
    "BatchGarbling",
    "make_garble_plan",
    "expand_labels",
    "garble_batch",
    "evaluate_batch",
    "translate",
    "translated_shares",
    "disclose",
    "disclosed_payloads",
]

LABEL_BYTES = 16
#: Ciphertexts per AND gate (half-gates).
ROWS_PER_AND = 2
#: The seed a batch's garbler-side active labels expand from.
SEED_BYTES = 16

#: Added to ``2k``: the generator and evaluator half-gate of AND ``k``.
_HALVES = np.arange(2, dtype=np.uint64)[:, None, None]


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

    @property
    def row_tweak_base(self) -> int:
        """Sent row ``j`` hashes under index ``row_tweak_base + j``: past
        the half-gates and the garbler-side label slots."""
        return 2 * self.n_ands + len(self.garbler_wires)

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
    )


def _half_gate_tweaks(batch: int, n: int, lv: Level) -> np.ndarray:
    """``(2, n_and, n, 16)`` tweaks of a level's generator and evaluator
    half-gates over ``n`` instances."""
    k = lv.and_index.astype(np.uint64)[None, :, None]
    return tweaks(batch, np.arange(n), 2 * k + _HALVES)


@dataclass
class BatchGarbling:
    """The garbler's view over a whole batch: per-wire ``(n, 16)``
    zero-label matrices (little-endian label bytes), the free-XOR
    offset, and the AND-gate tables in construction order."""

    plan: GarblePlan
    delta: np.ndarray  # (16,)
    zero: np.ndarray  # (n_wires, n, 16)
    tables: np.ndarray  # (n_ands, 2, n, 16)

    def output_permute_bits(self) -> np.ndarray:
        """``(n, n_outputs)`` select bits of the output zero-labels."""
        return (self.zero[self.plan.output_wires][:, :, 0] & 1).T


def expand_labels(
    seed: bytes, plan: GarblePlan, n: int, batch: int
) -> np.ndarray:
    """The ``(n_garbler_wires, n, 16)`` active labels of the plan's
    garbler-side wires over ``n`` instances: label ``(instance, slot)``
    is ``H(seed, (batch, instance, 2 * n_ands + slot))`` — the tweaks
    after the batch's half-gates.  Both parties run this — the garbler
    to fix its zero-labels, the evaluator in place of receiving the
    labels."""
    n_slots = len(plan.garbler_wires)
    block = np.frombuffer(seed, dtype=np.uint8)
    t = tweaks(
        batch,
        np.arange(n)[:, None],
        2 * plan.n_ands + np.arange(n_slots)[None, :],
    )
    return tccr_hash(block, t).transpose(1, 0, 2)


def _select(labels: np.ndarray) -> np.ndarray:
    """All-ones where a ``(..., 2)`` uint64 label's select bit is 1."""
    return np.negative(labels[..., :1] & np.uint64(1))


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
    under too."""
    delta = np.asarray(delta, dtype=np.uint8).reshape(LABEL_BYTES)
    if not delta[0] & 1:
        raise ValueError("the free-XOR offset needs select bit 1")
    n = garbler_bits.shape[0]
    zero = np.zeros((plan.n_wires, n, LABEL_BYTES), dtype=np.uint8)
    zero[plan.alice_wires] = alice_zero
    zero[plan.garbler_wires] = expand_labels(seed, plan, n, batch) ^ (
        delta * garbler_bits.T[:, :, None]
    )
    tables = np.empty((plan.n_ands, 2, n, LABEL_BYTES), dtype=np.uint8)
    # Label arithmetic on (lo, hi) uint64 pairs: one XOR per 8 bytes.
    z, d, tab = (m.view("<u8") for m in (zero, delta, tables))

    for lv in plan.circuit.levels:
        if len(lv.xor_out):
            z[lv.xor_out] = z[lv.xor_a] ^ z[lv.xor_b]
        if len(lv.inv_out):
            z[lv.inv_out] = z[lv.inv_a] ^ d
        if not len(lv.and_out):
            continue
        wa0, wb0 = z[lv.and_a], z[lv.and_b]
        # [[a0, b0], [a1, b1]]: each half-gate hashes both labels of
        # its wire under one tweak.
        x = np.empty((2, 2) + wa0.shape, dtype="<u8")
        x[0, 0], x[0, 1] = wa0, wb0
        np.bitwise_xor(wa0, d, out=x[1, 0])
        np.bitwise_xor(wb0, d, out=x[1, 1])
        h = tccr_hash(
            x.view(np.uint8), _half_gate_tweaks(batch, n, lv)
        ).view("<u8")
        (h_a0, h_b0), (h_a1, h_b1) = h
        p_a, p_b = _select(wa0), _select(wb0)
        # Generator half-gate: computes a AND p_b.
        t_g = h_a0 ^ h_a1 ^ (d & p_b)
        # Evaluator half-gate: computes a AND (b XOR p_b).
        t_e = h_b0 ^ h_b1 ^ wa0
        z[lv.and_out] = h_a0 ^ (t_g & p_a) ^ h_b0 ^ ((t_e ^ wa0) & p_b)
        tab[lv.and_index, 0] = t_g
        tab[lv.and_index, 1] = t_e
    return BatchGarbling(plan, delta, zero, tables)


def evaluate_batch(
    plan: GarblePlan,
    tables: np.ndarray,
    active_inputs: np.ndarray,
    batch: int,
) -> np.ndarray:
    """Evaluate all instances at once from the ``(n_wires, n, 16)``
    matrix with every input/constant wire's active label filled in;
    returns the ``(n, n_outputs)`` decoded select bits."""
    active = active_inputs
    n = active.shape[1]
    w, tab = active.view("<u8"), tables.view("<u8")
    for lv in plan.circuit.levels:
        if len(lv.xor_out):
            w[lv.xor_out] = w[lv.xor_a] ^ w[lv.xor_b]
        if len(lv.inv_out):
            w[lv.inv_out] = w[lv.inv_a]  # relabelled: flipped meaning
        if not len(lv.and_out):
            continue
        wa, wb = w[lv.and_a], w[lv.and_b]
        h_a, h_b = tccr_hash(
            np.stack([wa, wb]).view(np.uint8),
            _half_gate_tweaks(batch, n, lv),
        ).view("<u8")
        t_g, t_e = tab[lv.and_index, 0], tab[lv.and_index, 1]
        w[lv.and_out] = (
            h_a ^ (t_g & _select(wa)) ^ h_b ^ ((t_e ^ wa) & _select(wb))
        )
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
