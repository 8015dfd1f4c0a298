"""The garbled-circuit 2PC protocol wrapper (Section 5.2).

Bob garbles, Alice evaluates; the circuit's outputs are decoded to Alice.
Shared outputs are realised by the standard mask trick: the circuit
computes ``f(...) + r`` with Bob's fresh random ``r`` as an extra input,
Alice's output *is* her arithmetic share and Bob's share is ``-r`` — this
is the Yao-to-arithmetic conversion of [ABY, 12] that the paper invokes
in Section 5.2.

Communication per batch of instances of one circuit, in wire order
(sizes from :func:`repro.mpc.costs.garbled_bytes`):

* the ``u`` columns opening the correlated OT for Alice's input labels
  — her zero-labels *are* the OT's pads, so the OT runs first
* garbled tables: two ``16``-byte ciphertexts per AND gate (half-gates)
* one 16-byte seed from which Alice expands the active labels of Bob's
  input and constant wires herself
* one label correction ``p0 ^ p1 ^ delta`` per bit of Alice's input
* output decode bits: one bit per output wire

``charge_garbled_batch`` charges exactly these bytes in SIMULATED mode so
that transcripts agree between modes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .circuits.circuit import Circuit
from .circuits.garbling import (
    LABEL_BYTES,
    SEED_BYTES,
    evaluate_batch,
    expand_labels,
    garble_batch,
)
from .context import BOB, Context
from .costs import circuit_counts, garbled_bytes
from .ot import OT

__all__ = [
    "run_garbled_batch",
    "charge_garbled_batch",
    "charge_garbled",
]


def run_garbled_batch(
    ctx: Context,
    ot: OT,
    circuit: Circuit,
    alice_bits_list: Sequence[Sequence[int]],
    bob_bits_list: Sequence[Sequence[int]],
) -> List[List[int]]:
    """REAL mode: garble and evaluate ``circuit`` once per instance,
    batching all of Alice's input-label OTs into a single correlated
    extension call.  Returns each instance's output bits (known to
    Alice).

    The whole batch runs instance-parallel: the template's
    :class:`~repro.mpc.circuits.garbling.GarblePlan` comes from the run
    cache and inputs/outputs are marshalled as bit matrices."""
    if len(alice_bits_list) != len(bob_bits_list):
        raise ValueError("need matching numbers of Alice/Bob input vectors")
    n = len(alice_bits_list)
    if n == 0:
        return []
    plan = ctx.cache.garble_plan(circuit)
    n_alice = len(circuit.alice_inputs)
    a_bits = _bit_matrix(alice_bits_list, n_alice)
    garbler_bits = np.concatenate(
        [
            _bit_matrix(bob_bits_list, len(circuit.bob_inputs)),
            np.broadcast_to(plan.const_bits, (n, len(plan.const_bits))),
        ],
        axis=1,
    )

    def by_wire(rows: np.ndarray) -> np.ndarray:
        """``(n * n_alice, 16)`` OT rows -> ``(n_alice, n, 16)``."""
        return rows.reshape(n, n_alice, LABEL_BYTES).transpose(1, 0, 2)

    with ctx.section("gc/alice_labels"):
        cot = ot.correlated(
            a_bits.reshape(-1), [(n * n_alice, LABEL_BYTES)]
        )
    # Bob: Alice-wire zero-labels are the OT's 0-pads, his own wires'
    # active labels expand from the seed; only delta is drawn.
    seed = ctx.random_bytes(SEED_BYTES)
    g = garble_batch(
        plan, ctx.random_bytes, by_wire(cot.p0[0]), seed, garbler_bits
    )
    ctx.send(BOB, g.tables.size, "gc/tables")
    ctx.send(BOB, len(seed), "gc/bob_labels")
    with ctx.section("gc/alice_labels"):
        alice_labels = cot.finish(
            [cot.p0[0] ^ np.repeat(g.delta, n_alice, axis=0)]
        )

    # Alice: her labels from the OT, Bob's from the seed.
    active = np.zeros((plan.n_wires, n, LABEL_BYTES), dtype=np.uint8)
    active[plan.alice_wires] = by_wire(alice_labels[0])
    active[plan.garbler_wires] = expand_labels(seed, plan, n)
    select = evaluate_batch(plan, g.tables, active)
    permute = g.output_permute_bits()
    ctx.send(BOB, np.packbits(permute, axis=1).size, "gc/decode")
    return (select ^ permute).astype(int).tolist()


def _bit_matrix(
    bits_list: Sequence[Sequence[int]], n_wires: int
) -> np.ndarray:
    """Stack per-instance bit lists into an ``(n, n_wires)`` matrix,
    ignoring trailing extra bits like the scalar path's ``zip`` did."""
    mat = np.asarray(bits_list, dtype=np.uint8) & 1
    if mat.ndim == 1:  # zero-width inputs
        mat = mat.reshape(len(bits_list), 0)
    return mat[:, :n_wires]


def charge_garbled(
    ctx: Context, ot: OT, counts: Tuple[int, int, int], n_instances: int
) -> None:
    """SIMULATED mode: charge ``n_instances`` garblings of a template
    with these :func:`~repro.mpc.costs.circuit_counts`, message for
    message as :func:`run_garbled_batch` sends them."""
    if n_instances == 0:
        return
    sizes = garbled_bytes(*counts, n_instances)
    with ctx.section("gc/alice_labels"):
        cot = ot.correlated(None, [sizes.label_ots])
    ctx.send(BOB, sizes.tables, "gc/tables")
    ctx.send(BOB, sizes.seed, "gc/bob_labels")
    with ctx.section("gc/alice_labels"):
        cot.finish()
    ctx.send(BOB, sizes.decode, "gc/decode")


def charge_garbled_batch(
    ctx: Context, ot: OT, circuit: Circuit, n_instances: int
) -> None:
    """SIMULATED mode: charge exactly what :func:`run_garbled_batch`
    would send for ``n_instances`` of ``circuit``."""
    charge_garbled(ctx, ot, circuit_counts(circuit), n_instances)
