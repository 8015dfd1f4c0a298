"""Garbled circuits: free-XOR + half-gates, SHA-256 based.

This is the REAL-mode back-end for Section 5.2.  Bob is the garbler and
Alice the evaluator throughout (the roles never need to swap in the
secure Yannakakis protocol, because outputs are re-shared).

Construction:

* A global 128-bit offset ``delta`` with LSB 1 (free-XOR).  Each wire
  has labels ``W0`` and ``W1 = W0 ^ delta``; the LSB of a label is its
  public "select bit" (point-and-permute).
* XOR gates are free: ``Wc0 = Wa0 ^ Wb0``.
* INV gates are free: ``Wc0 = Wa0 ^ delta`` (relabelling).
* AND gates use the half-gates technique of Zahur, Rosulek & Evans:
  two ciphertexts per gate — the modern standard, and what the ABY
  framework underlying the paper's implementation ships.

The evaluator learns exactly one label per wire; select bits are
independent of semantic values.  Output wires are decoded with
garbler-supplied permute bits.

The batched garbler draws nothing but ``delta``.  Evaluator-input
zero-labels are supplied by the caller (they are the correlated-OT
pads, :mod:`repro.mpc.ot`), and the *active* label of every
garbler-side input and constant wire is expanded from a 16-byte seed
(:func:`expand_labels`) that the garbler sends instead of the labels:
the garbler knows those bits, so it sets ``zero = active ^ bit*delta``.
DESIGN.md ("Input-side wire format") has the soundness argument.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..batch import sha256_rows, words_to_le_bytes
from .circuit import AND, INV, XOR, Circuit

__all__ = [
    "GarblingResult",
    "GarbledTables",
    "garble",
    "evaluate_garbled",
    "GarblePlan",
    "BatchGarbling",
    "make_garble_plan",
    "expand_labels",
    "garble_batch",
    "evaluate_batch",
]

LABEL_BYTES = 16
#: Ciphertexts per AND gate (half-gates).
ROWS_PER_AND = 2
#: The seed a batch's garbler-side active labels expand from.
SEED_BYTES = 16


def _hash_label(label: int, index: int) -> int:
    data = label.to_bytes(LABEL_BYTES, "little") + index.to_bytes(
        8, "little"
    )
    return int.from_bytes(
        hashlib.sha256(data).digest()[:LABEL_BYTES], "little"
    )


@dataclass
class GarbledTables:
    """What the garbler sends: two ciphertexts per AND gate."""

    tables: List[Tuple[int, int]]

    @property
    def n_bytes(self) -> int:
        return len(self.tables) * ROWS_PER_AND * LABEL_BYTES


@dataclass
class GarblingResult:
    """The garbler's full view after garbling."""

    delta: int
    #: label-for-0 per wire
    zero_labels: Dict[int, int]
    tables: GarbledTables
    circuit: Circuit

    def label(self, wire: int, bit: int) -> int:
        return self.zero_labels[wire] ^ (self.delta if bit else 0)

    def output_permute_bits(self) -> List[int]:
        """Select bit of each output wire's 0-label; XORing with the
        evaluator's observed select bit yields the cleartext bit."""
        return [self.zero_labels[w] & 1 for w in self.circuit.outputs]


def garble(
    circuit: Circuit, rand_bytes: Callable[[int], bytes]
) -> GarblingResult:
    """Garble ``circuit``.  ``rand_bytes(n)`` supplies randomness (kept
    as a parameter so tests can be deterministic)."""

    def rand_label() -> int:
        return int.from_bytes(rand_bytes(LABEL_BYTES), "little")

    delta = rand_label() | 1  # LSB 1 so select bits of W0/W1 differ
    zero: Dict[int, int] = {}
    for w in circuit.alice_inputs:
        zero[w] = rand_label()
    for w in circuit.bob_inputs:
        zero[w] = rand_label()
    for w, _bit in circuit.const_wires:
        # Constants are garbler-known inputs: a fresh wire whose active
        # label (sent to the evaluator) encodes the constant.
        zero[w] = rand_label()

    tables: List[Tuple[int, int]] = []
    for gate_id, g in enumerate(circuit.gates):
        if g.op == XOR:
            zero[g.out] = zero[g.a] ^ zero[g.b]
        elif g.op == INV:
            zero[g.out] = zero[g.a] ^ delta
        elif g.op == AND:
            wa0, wb0 = zero[g.a], zero[g.b]
            wa1, wb1 = wa0 ^ delta, wb0 ^ delta
            p_a, p_b = wa0 & 1, wb0 & 1
            j, j2 = 2 * gate_id, 2 * gate_id + 1
            # Generator half-gate: computes a AND p_b.
            t_g = _hash_label(wa0, j) ^ _hash_label(wa1, j) ^ (
                delta if p_b else 0
            )
            w_g0 = _hash_label(wa0, j) ^ (t_g if p_a else 0)
            # Evaluator half-gate: computes a AND (b XOR p_b).
            t_e = _hash_label(wb0, j2) ^ _hash_label(wb1, j2) ^ wa0
            w_e0 = _hash_label(wb0, j2) ^ (
                (t_e ^ wa0) if p_b else 0
            )
            zero[g.out] = w_g0 ^ w_e0
            tables.append((t_g, t_e))
        else:  # pragma: no cover
            raise ValueError(f"unknown gate {g.op}")
    return GarblingResult(delta, zero, GarbledTables(tables), circuit)


# ----------------------------------------------------------------------
# Batched (instance-parallel) garbling
# ----------------------------------------------------------------------
#
# ``yao.garbled_call`` garbles the SAME template for every instance of a
# batch, so the per-gate control flow is identical across instances and
# the whole batch can be garbled SIMD-style: wire labels become
# ``(n_instances, 16)`` byte matrices, XOR gates are one vectorised XOR,
# and each AND gate's 4 (garble) / 2 (evaluate) hashes run as one
# row-batched SHA-256 pass over all instances.  A :class:`GarblePlan`
# precompiles the per-template constants (gate operand arrays, the
# half-gate index bytes, the input-wire ordering) once per run — cached
# in the :class:`~repro.mpc.runcache.RunCache` — so repeated templates
# reuse their wire orderings.


@dataclass
class GarblePlan:
    """Precompiled, instance-independent view of one circuit template."""

    circuit: Circuit
    n_wires: int
    alice_wires: np.ndarray
    #: wires whose bits the garbler knows: Bob's inputs, then constants
    garbler_wires: np.ndarray
    const_bits: np.ndarray
    output_wires: np.ndarray
    #: per gate: (op, a, b, out, and_index, jb_row, jb2_row) with
    #: ``jb = (2*gate_id)_le64`` / ``jb2 = (2*gate_id+1)_le64``
    steps: List[Tuple] = field(repr=False, default_factory=list)
    n_ands: int = 0


def make_garble_plan(circuit: Circuit) -> GarblePlan:
    alice = np.asarray(circuit.alice_inputs, dtype=np.int64)
    bob = np.asarray(circuit.bob_inputs, dtype=np.int64)
    const_w = np.asarray(
        [w for w, _ in circuit.const_wires], dtype=np.int64
    )
    const_b = np.asarray(
        [b & 1 for _, b in circuit.const_wires], dtype=np.uint8
    )
    steps: List[Tuple] = []
    n_ands = 0
    for gate_id, g in enumerate(circuit.gates):
        if g.op == AND:
            jb = np.frombuffer(
                (2 * gate_id).to_bytes(8, "little"), dtype=np.uint8
            )
            jb2 = np.frombuffer(
                (2 * gate_id + 1).to_bytes(8, "little"), dtype=np.uint8
            )
            steps.append((AND, g.a, g.b, g.out, n_ands, jb, jb2))
            n_ands += 1
        elif g.op in (XOR, INV):
            steps.append((g.op, g.a, g.b, g.out, None, None, None))
        else:  # pragma: no cover
            raise ValueError(f"unknown gate {g.op}")
    return GarblePlan(
        circuit=circuit,
        n_wires=circuit.n_wires,
        alice_wires=alice,
        garbler_wires=np.concatenate([bob, const_w]),
        const_bits=const_b,
        output_wires=np.asarray(circuit.outputs, dtype=np.int64),
        steps=steps,
        n_ands=n_ands,
    )


@dataclass
class BatchGarbling:
    """The garbler's view over a whole batch: per-wire ``(n, 16)``
    zero-label matrices (little-endian label bytes), the per-instance
    free-XOR offsets, and the AND-gate tables."""

    plan: GarblePlan
    delta: np.ndarray  # (n, 16)
    zero: np.ndarray  # (n_wires, n, 16)
    tables: np.ndarray  # (n_ands, 2, n, 16)

    def output_permute_bits(self) -> np.ndarray:
        """``(n, n_outputs)`` select bits of the output zero-labels."""
        return (self.zero[self.plan.output_wires][:, :, 0] & 1).T


def expand_labels(seed: bytes, plan: GarblePlan, n: int) -> np.ndarray:
    """The ``(n_garbler_wires, n, 16)`` active labels of the plan's
    garbler-side wires over ``n`` instances: label ``(instance, wire)``
    is the matching 16-byte half of ``SHA-256(seed || counter)``, two
    labels per block.  Both parties run this — the garbler to fix its
    zero-labels, the evaluator in place of receiving the labels."""
    n_wires = len(plan.garbler_wires)
    n_blocks = (n * n_wires + 1) // 2
    rows = np.empty((n_blocks, SEED_BYTES + 8), dtype=np.uint8)
    rows[:, :SEED_BYTES] = np.frombuffer(seed, dtype=np.uint8)
    rows[:, SEED_BYTES:] = words_to_le_bytes(
        np.arange(n_blocks, dtype=np.uint64), 8
    )
    labels = sha256_rows(rows).reshape(-1, LABEL_BYTES)[: n * n_wires]
    return labels.reshape(n, n_wires, LABEL_BYTES).transpose(1, 0, 2)


def garble_batch(
    plan: GarblePlan,
    rand_bytes: Callable[[int], bytes],
    alice_zero: np.ndarray,
    seed: bytes,
    garbler_bits: np.ndarray,
) -> BatchGarbling:
    """Garble one instance per row of ``garbler_bits`` (``(n, n_garbler_
    wires)``, the bits on :attr:`GarblePlan.garbler_wires`) at once.
    ``alice_zero`` is the ``(n_alice, n, 16)`` matrix of evaluator-input
    zero-labels; the garbler-side active labels expand from ``seed``;
    only the per-instance ``delta`` is drawn here.  Each instance is an
    independent sample of :func:`garble` up to the label source."""
    n = garbler_bits.shape[0]
    delta = np.frombuffer(
        rand_bytes(LABEL_BYTES * n), dtype=np.uint8
    ).reshape(n, LABEL_BYTES).copy()
    delta[:, 0] |= 1  # LSB 1 so select bits of W0/W1 differ
    zero = np.zeros((plan.n_wires, n, LABEL_BYTES), dtype=np.uint8)
    zero[plan.alice_wires] = alice_zero
    zero[plan.garbler_wires] = expand_labels(seed, plan, n) ^ (
        delta[None, :, :] * garbler_bits.T[:, :, None]
    )
    tables = np.empty((plan.n_ands, 2, n, LABEL_BYTES), dtype=np.uint8)

    for op, a, b, out, ai, jb, jb2 in plan.steps:
        if op == XOR:
            np.bitwise_xor(zero[a], zero[b], out=zero[out])
        elif op == INV:
            np.bitwise_xor(zero[a], delta, out=zero[out])
        else:
            wa0, wb0 = zero[a], zero[b]
            p_a = wa0[:, :1] & 1
            p_b = wb0[:, :1] & 1
            hashes = np.empty((4 * n, LABEL_BYTES + 8), dtype=np.uint8)
            hashes[:n, :LABEL_BYTES] = wa0
            hashes[n : 2 * n, :LABEL_BYTES] = wa0 ^ delta
            hashes[2 * n : 3 * n, :LABEL_BYTES] = wb0
            hashes[3 * n :, :LABEL_BYTES] = wb0 ^ delta
            hashes[: 2 * n, LABEL_BYTES:] = jb
            hashes[2 * n :, LABEL_BYTES:] = jb2
            h = sha256_rows(hashes)[:, :LABEL_BYTES]
            h_a0, h_a1 = h[:n], h[n : 2 * n]
            h_b0, h_b1 = h[2 * n : 3 * n], h[3 * n :]
            # Generator half-gate: computes a AND p_b.
            t_g = h_a0 ^ h_a1 ^ (delta * p_b)
            w_g0 = h_a0 ^ (t_g * p_a)
            # Evaluator half-gate: computes a AND (b XOR p_b).
            t_e = h_b0 ^ h_b1 ^ wa0
            w_e0 = h_b0 ^ ((t_e ^ wa0) * p_b)
            zero[out] = w_g0 ^ w_e0
            tables[ai, 0] = t_g
            tables[ai, 1] = t_e
    return BatchGarbling(plan, delta, zero, tables)


def evaluate_batch(
    plan: GarblePlan,
    tables: np.ndarray,
    active_inputs: np.ndarray,
) -> np.ndarray:
    """Evaluate all instances at once from the ``(n_wires, n, 16)``
    matrix with every input/constant wire's active label filled in;
    returns the ``(n, n_outputs)`` decoded select bits."""
    active = active_inputs
    n = active.shape[1]
    for op, a, b, out, ai, jb, jb2 in plan.steps:
        if op == XOR:
            np.bitwise_xor(active[a], active[b], out=active[out])
        elif op == INV:
            active[out] = active[a]  # relabelled: flipped meaning
        else:
            wa, wb = active[a], active[b]
            s_a = wa[:, :1] & 1
            s_b = wb[:, :1] & 1
            inp = np.empty((2 * n, LABEL_BYTES + 8), dtype=np.uint8)
            inp[:n, :LABEL_BYTES] = wa
            inp[n:, :LABEL_BYTES] = wb
            inp[:n, LABEL_BYTES:] = jb
            inp[n:, LABEL_BYTES:] = jb2
            h = sha256_rows(inp)[:, :LABEL_BYTES]
            t_g, t_e = tables[ai, 0], tables[ai, 1]
            w_g = h[:n] ^ (t_g * s_a)
            w_e = h[n:] ^ ((t_e ^ wa) * s_b)
            active[out] = w_g ^ w_e
    return (active[plan.output_wires][:, :, 0] & 1).T


def evaluate_garbled(
    circuit: Circuit,
    tables: GarbledTables,
    input_labels: Dict[int, int],
) -> Dict[int, int]:
    """Evaluate with one active label per input/constant wire; returns
    the active label of every output wire."""
    label: Dict[int, int] = dict(input_labels)
    table_iter = iter(tables.tables)
    for gate_id, g in enumerate(circuit.gates):
        if g.op == XOR:
            label[g.out] = label[g.a] ^ label[g.b]
        elif g.op == INV:
            label[g.out] = label[g.a]  # relabelled: flipped meaning
        elif g.op == AND:
            t_g, t_e = next(table_iter)
            wa, wb = label[g.a], label[g.b]
            sa, sb = wa & 1, wb & 1
            j, j2 = 2 * gate_id, 2 * gate_id + 1
            w_g = _hash_label(wa, j) ^ (t_g if sa else 0)
            w_e = _hash_label(wb, j2) ^ ((t_e ^ wa) if sb else 0)
            label[g.out] = w_g ^ w_e
        else:  # pragma: no cover
            raise ValueError(f"unknown gate {g.op}")
    return {w: label[w] for w in circuit.outputs}
