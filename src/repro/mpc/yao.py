"""The garbled-circuit 2PC protocol (Section 5.2): one entry point.

Bob garbles, Alice evaluates; the circuit's outputs are decoded to Alice.
Shared outputs are realised by the standard mask trick: the circuit
computes ``f(...) + r`` with Bob's fresh random ``r`` as an extra input,
Alice's output *is* her arithmetic share and Bob's share is ``-r`` — this
is the Yao-to-arithmetic conversion of [ABY, 12] that the paper invokes
in Section 5.2.

Every circuit consumer (the engine's gadgets, PSI's bin circuits, the
garbled baseline) calls :func:`garbled_call`; it is the only place the
execution mode is consulted for a circuit, so a change to the garbling
scheme, the label transfer or the share conversion is made here once.

Communication per batch of instances of one circuit, in wire order
(sizes from :func:`repro.mpc.costs.garbled_bytes`):

* the ``u`` columns opening the correlated OT for Alice's input labels
  — her zero-labels *are* the OT's pads, so the OT runs first
* garbled tables: two ``16``-byte ciphertexts per AND gate (half-gates)
* one 16-byte seed from which Alice expands the active labels of Bob's
  input and constant wires herself
* one label correction ``p0 ^ p1 ^ delta`` per bit of Alice's input
* output decode bits: one bit per output wire
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .batch import bits_to_words, words_to_bits
from .circuits.circuit import Circuit
from .circuits.garbling import (
    LABEL_BYTES,
    SEED_BYTES,
    evaluate_batch,
    expand_labels,
    garble_batch,
)
from .context import BOB, Context, Mode
from .costs import garbled_bytes
from .ot import OT
from .sharing import SharedVector

__all__ = ["garbled_call"]


def garbled_call(
    ctx: Context,
    ot: OT,
    counts: Tuple[int, int, int],
    n_instances: int,
    *,
    n_masked: int,
    real: Callable[[], Tuple[Circuit, np.ndarray, np.ndarray]],
    ideal: Callable[[], Tuple[Optional[np.ndarray], Optional[np.ndarray]]],
) -> Tuple[SharedVector, np.ndarray]:
    """``n_instances`` evaluations of one circuit template with these
    :func:`~repro.mpc.costs.circuit_counts`, whose first ``n_masked``
    output words (``ell`` bits each) stay shared and whose remaining
    output bits are revealed to Alice.

    Bob's last ``n_masked`` input words are the masks — the packing of
    every :mod:`~repro.mpc.gadgets` template — and are drawn here, so
    callers supply only the data bits.  ``real()`` returns ``(circuit,
    alice_bits, bob_bits)`` as ``(n_instances, width)`` uint8 matrices
    of exactly the circuit's input widths (Bob's without the masks);
    REAL mode garbles and evaluates it.  ``ideal()`` returns the same
    function's plain outputs as ``(masked words, revealed bits)``,
    ``None`` for a kind the circuit does not output; SIMULATED mode
    shares them afresh and charges what REAL sends.  Only the thunk of
    the running mode is evaluated.

    Returns ``(shares, bits)``: the masked words as one vector in
    word-major order (word ``j`` of instance ``i`` at
    ``j * n_instances + i``) and the ``(n_instances, revealed)`` bit
    matrix."""
    ell = ctx.params.ell
    cut = n_masked * ell
    no_shares = SharedVector.zeros(0, ctx.modulus)
    if n_instances == 0:
        return no_shares, np.zeros((0, counts[2] - cut), dtype=np.uint8)
    if ctx.mode == Mode.SIMULATED:
        _charge_garbled(ctx, ot, counts, n_instances)
        plain, bits = ideal()
        if bits is None:
            bits = np.zeros((n_instances, 0), dtype=np.uint8)
        return SharedVector.fresh(ctx, plain) if n_masked else no_shares, bits
    circuit, alice_bits, bob_bits = real()
    for who, bits, wires in (
        ("Alice", alice_bits, len(circuit.alice_inputs)),
        ("Bob", bob_bits, len(circuit.bob_inputs) - cut),
    ):
        if bits.shape != (n_instances, wires):
            raise ValueError(
                f"{who}'s input bits have shape {bits.shape}, the "
                f"circuit takes {(n_instances, wires)}"
            )
    r = ctx.random_ring_vector(n_masked * n_instances)
    # word-major masks -> per-instance rows of n_masked words
    r_bits = words_to_bits(
        r.reshape(n_masked, n_instances).T.reshape(-1), ell
    ).reshape(n_instances, cut)
    out = _run_garbled(
        ctx, ot, circuit, alice_bits,
        np.concatenate([bob_bits, r_bits], axis=1),
    )
    words = bits_to_words(out[:, :cut].reshape(-1, ell))
    return (
        SharedVector(
            words.reshape(n_instances, n_masked).T.reshape(-1),
            (-r) & ctx.mask,
            ctx.modulus,
        ),
        out[:, cut:],
    )


def _run_garbled(
    ctx: Context,
    ot: OT,
    circuit: Circuit,
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
) -> np.ndarray:
    """REAL mode: garble and evaluate ``circuit`` once per row of the
    input bit matrices, batching all of Alice's input-label OTs into a
    single correlated extension call.  Returns the ``(n, outputs)`` bit
    matrix Alice decodes.

    The whole batch runs instance-parallel: the template's
    :class:`~repro.mpc.circuits.garbling.GarblePlan` comes from the run
    cache."""
    n, n_alice = alice_bits.shape
    plan = ctx.cache.garble_plan(circuit)
    garbler_bits = np.concatenate(
        [bob_bits, np.broadcast_to(plan.const_bits, (n, len(plan.const_bits)))],
        axis=1,
    )

    def by_wire(rows: np.ndarray) -> np.ndarray:
        """``(n * n_alice, 16)`` OT rows -> ``(n_alice, n, 16)``."""
        return rows.reshape(n, n_alice, LABEL_BYTES).transpose(1, 0, 2)

    with ctx.section("gc/alice_labels"):
        cot = ot.correlated(
            alice_bits.reshape(-1), [(n * n_alice, LABEL_BYTES)]
        )
    # Bob: Alice-wire zero-labels are the OT's 0-pads, his own wires'
    # active labels expand from the seed; only delta is drawn.  Both
    # hash under the batch's public tweak number.
    batch = ctx.tweak_batch()
    seed = ctx.random_bytes(SEED_BYTES)
    g = garble_batch(
        plan, ctx.random_bytes, by_wire(cot.p0[0]), seed, garbler_bits,
        batch,
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
    active[plan.garbler_wires] = expand_labels(seed, plan, n, batch)
    select = evaluate_batch(plan, g.tables, active, batch)
    permute = g.output_permute_bits()
    ctx.send(BOB, np.packbits(permute, axis=1).size, "gc/decode")
    return select ^ permute


def _charge_garbled(
    ctx: Context, ot: OT, counts: Tuple[int, int, int], n_instances: int
) -> None:
    """SIMULATED mode: charge ``n_instances`` garblings of a template
    with these counts, message for message as :func:`_run_garbled`
    sends them."""
    sizes = garbled_bytes(*counts, n_instances)
    with ctx.section("gc/alice_labels"):
        cot = ot.correlated(None, [sizes.label_ots])
    ctx.send(BOB, sizes.tables, "gc/tables")
    ctx.send(BOB, sizes.seed, "gc/bob_labels")
    with ctx.section("gc/alice_labels"):
        cot.finish()
    ctx.send(BOB, sizes.decode, "gc/decode")
