"""The garbled-circuit 2PC protocol (Section 5.2): one entry point.

Bob garbles, Alice evaluates, under the free-XOR offset ``delta`` that
is the secret ``s`` of the OT extension instance carrying Alice's input
labels: the extension's rows are already label pairs with that offset,
so her labels cost the extension's ``u`` correction and nothing else
(:meth:`repro.mpc.ot.SoftSpokenExtension.labels`; DESIGN.md, "Input-side
wire format").  A template's outputs are revealed bits, decoded by Alice,
Bob's input bits disclosed under a revealed bit (below), or shared ring
words, which leave the circuit by
*output translation*: Bob holds both labels of every output wire, so
per output bit he sends one ring element ``T`` from which the label
Alice holds yields her arithmetic share of ``v * X`` (``v`` the bit,
``X`` a weight Bob knows), and keeps the complementary share himself
(:func:`~repro.mpc.circuits.garbling.translate`).  This is the
Yao-to-arithmetic conversion Section 5.2 invokes (ABY [12] adds Bob's
mask ``r`` inside the circuit instead, one ``ell``-AND adder per shared
word); DESIGN.md ("Output translation") has the construction and its
security argument.  A row whose weight ``X`` Alice holds (an
*evaluator row*) is not translated: the bit is ``c ^ pi`` for Alice's
colour ``c`` and Bob's permute bit ``pi``, so ``v X = c X + pi (1 - 2c)
X`` — Alice's term plus one correlated OT in which Bob chooses by
``pi`` (:meth:`_Garbling.weighted`; DESIGN.md, "Plaintext operands
outside the circuit").  A disclosed payload
(:class:`~repro.mpc.circuits.circuit.Disclosure`) never enters the
circuit: Bob sends it encrypted under the hash of its key wire's
1-label, which Alice holds exactly when the revealed key bit is 1
(:func:`~repro.mpc.circuits.garbling.disclose`; DESIGN.md, "Label-keyed
disclosure").

Every circuit consumer (the engine's gadgets, PSI's bin circuits, the
garbled baseline) calls :func:`garbled_call`; it is the only place the
execution mode is consulted for a circuit, so a change to the garbling
scheme, the label transfer or the share conversion is made here once.

Communication per batch of instances of one circuit, in wire order
(sizes from :func:`repro.mpc.costs.garbled_bytes`), which both modes
send through :func:`_garbled_wire`:

* the ``u`` columns of the OT batch that *is* Alice's input labels —
  Bob's zero-labels are its rows, so the OT runs first — and whatever
  else the caller has Alice send in the same flow (``alice_flow``)
* ``ot/ext/pool``, only when that label batch's draw from the
  instance's silent-OT pool owes SPCOT bytes: the trees Alice's labels
  wait for
* garbled tables: three ``8``-byte half-ciphertexts per AND gate and
  four control bits, packed across the batch (three-halves)
* one 16-byte seed from which Alice expands the active labels of Bob's
  input and constant wires herself
* ``gc/decode``: one decode bit per revealed output wire, one ring
  element per translated row, then the disclosed payload packed to
  bytes
* ``gc/alice_weights``, for evaluator rows only: one C-OT per row and
  instance, Bob choosing — his ``u``, then Alice's corrections, one
  ring element each
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .batch import le_bytes_to_words, words_to_le_bytes
from .circuits.circuit import Circuit
from .circuits.garbling import (
    LABEL_BYTES,
    SEED_BYTES,
    disclose,
    disclosed_payloads,
    evaluate_batch,
    expand_labels,
    garble_batch,
    translate,
    translated_shares,
)
from .context import BOB, Checked, Context, Meter, Mode, ScheduleMismatch
from .costs import CircuitCounts, garbled_bytes, ring_bytes
from .ot import OT, LabelBatch
from .sharing import SharedVector

__all__ = ["RealInputs", "garbled_call"]


class RealInputs(NamedTuple):
    """What a REAL garbled call runs on: the template, both parties'
    ``(n_instances, width)`` input bit matrices, Bob's translation
    inputs — ``(n_instances, k)`` per-instance weight columns (what a
    :class:`~repro.mpc.circuits.circuit.Row`'s ``weight`` indexes) and
    ``(n_instances, n_words)`` offsets added to his word shares — and
    Alice's weight columns, which the evaluator rows index."""

    circuit: Circuit
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    weights: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    alice_weights: Optional[np.ndarray] = None


def garbled_call(
    ctx: Meter,
    ot: OT,
    counts: CircuitCounts,
    n_instances: int,
    *,
    real: Callable[[], Tuple[Any, ...]],
    ideal: Callable[[], Tuple[Optional[np.ndarray], Optional[np.ndarray]]],
    alice_flow: Optional[Callable[[], None]] = None,
) -> Tuple[SharedVector, np.ndarray]:
    """``n_instances`` evaluations of one circuit template with these
    :func:`~repro.mpc.costs.circuit_counts`: its shared words come back
    shared, its revealed output bits to Alice.

    ``real()`` returns the :class:`RealInputs` fields (a plain tuple of
    the first three will do); REAL mode garbles and evaluates the
    circuit.  ``ideal()`` returns the same function's plain outputs as
    ``(shared words, revealed bits)`` — the words word-major, ``None``
    for a kind the circuit does not output; SIMULATED mode shares them
    afresh.  Only the thunk of the running mode is evaluated; both
    modes send through :func:`_garbled_wire`.  ``alice_flow``, if
    given, sends the messages that share Alice's label flow: it runs
    once her label batch is open and before Bob garbles (the PSI's leaf
    messages, from which Bob's input bits come).  ``ctx`` may be a
    count-only :class:`~repro.mpc.context.Meter` when ``ideal()``
    returns no values: the call then only charges.

    Returns ``(shares, bits)``: the shared words as one vector in
    word-major order (word ``j`` of instance ``i`` at
    ``j * n_instances + i``) and the ``(n_instances, revealed +
    disclosed)`` bit matrix (as :meth:`Circuit.evaluate` orders it)."""
    no_shares = SharedVector.zeros(0, ctx.params.modulus)
    if n_instances == 0:
        width = counts.revealed + counts.disclosed
        return no_shares, np.zeros((0, width), dtype=np.uint8)
    if ctx.mode == Mode.SIMULATED:
        _garbled_wire(ctx, ot, counts, n_instances, alice_flow)
        plain, bits = ideal()
        if bits is None:
            bits = np.zeros((n_instances, 0), dtype=np.uint8)
        if plain is None:
            return no_shares, bits
        return SharedVector.fresh(_live(ctx), plain), bits
    inputs = RealInputs(*real())
    circuit = inputs.circuit
    for who, bits, wires in (
        ("Alice", inputs.alice_bits, len(circuit.alice_inputs)),
        ("Bob", inputs.bob_bits, len(circuit.bob_inputs)),
    ):
        if bits.shape != (n_instances, wires):
            raise ValueError(
                f"{who}'s input bits have shape {bits.shape}, the "
                f"circuit takes {(n_instances, wires)}"
            )
    run = _Garbling(_live(ctx), inputs)
    _garbled_wire(ctx, ot, counts, n_instances, alice_flow, run)
    return run.result()


def _live(ctx: Meter) -> Context:
    """``ctx`` as the context a call that computes values needs."""
    if not isinstance(ctx, Context):
        raise TypeError("a count-only meter computes no values")
    return ctx


def _garbled_wire(
    ctx: Meter,
    ot: OT,
    counts: CircuitCounts,
    n: int,
    alice_flow: Optional[Callable[[], None]],
    run: Optional["_Garbling"] = None,
) -> None:
    """The messages of ``n`` garblings of a template with these counts,
    in wire order (the module docstring's list), sized by
    :func:`~repro.mpc.costs.garbled_bytes`: the one send path of both
    modes.  REAL passes the ``run`` that computes each payload where
    the sequence reaches it, and each payload's size is checked."""
    sizes = garbled_bytes(counts, n, ctx.params.ell)
    with ctx.section("gc/alice_labels"):
        labels = ot.labels(
            sizes.label_ots, None if run is None else run.alice_choices
        )
    if alice_flow is not None:
        alice_flow()
    ot.send_pool()  # the SPCOTs the label batch's draw owes, if any
    wire = Checked(ctx, None if run is None else run.garble(labels))
    wire.send(BOB, sizes.tables, "gc/tables")
    wire.send(BOB, sizes.seed, "gc/bob_labels")
    wire.send(BOB, sizes.decode, "gc/decode")
    if counts.evaluator_rows:
        with ctx.section("gc/alice_weights"), ctx.swapped_roles():
            cot = ot.reverse.correlated(
                None if run is None else run.permute, sizes.weight_ots
            )
            got = cot.finish(() if run is None else run.weighted(cot.p0[0]))
        if run is not None:
            run.received(got[0])


class _Garbling:
    """REAL mode's side of :func:`_garbled_wire`: the garbled batch,
    every instance garbled and evaluated in parallel over the template's
    :attr:`~repro.mpc.circuits.circuit.Circuit.levels`, all of Alice's
    input labels one Δ-correlated extension batch."""

    def __init__(self, ctx: Context, inputs: RealInputs) -> None:
        self.ctx = ctx
        self.inputs = inputs
        #: Alice's choice bits of her label batch, instance-major
        self.alice_choices = inputs.alice_bits.reshape(-1)
        circuit = inputs.circuit
        #: the evaluator rows, and the garbler's choice bits of their
        #: C-OT (the rows' permute bits), once :meth:`garble` ran
        self._ev = list(circuit.evaluator_rows)
        self.permute: Optional[np.ndarray] = None
        self._ev_done = not self._ev

    def garble(self, labels: Optional[LabelBatch]) -> List[int]:
        """Bob garbles on Alice's open label batch, translates the
        shared rows and seals the disclosed payload; Alice evaluates on
        what his three messages carry.  Returns their sizes: tables,
        seed, decode."""
        if labels is None:  # pragma: no cover - a REAL OT always deals
            raise TypeError("a charge-only OT cannot feed REAL garbling")
        ctx, inputs = self.ctx, self.inputs
        circuit, alice_bits, bob_bits = inputs[:3]
        n, n_alice = alice_bits.shape
        const_bits = circuit.const_bits
        garbler_bits = np.concatenate(
            [
                bob_bits[:, circuit.bob_cols],
                np.broadcast_to(const_bits, (n, len(const_bits))),
            ],
            axis=1,
        )

        def by_wire(rows: np.ndarray) -> np.ndarray:
            """``(n * n_alice, 16)`` OT rows -> ``(n_alice, n, 16)``."""
            return rows.reshape(n, n_alice, LABEL_BYTES).transpose(1, 0, 2)

        # Bob: Alice-wire zero-labels are the OT's rows and delta its
        # secret, his own wires' active labels expand from the seed.  Both
        # parties hash under the batch's public tweak number.
        batch = ctx.tweak_batch()
        seed = ctx.random_bytes(SEED_BYTES)
        g = garble_batch(
            circuit, labels.delta, by_wire(labels.zero), seed, garbler_bits,
            batch,
        )
        # Bob translates the shared outputs and encrypts the disclosed
        # payload: both travel after the revealed outputs' decode bits.
        x = _row_weights(ctx, inputs)
        sent = list(circuit.sent_rows)
        rows, bob_rows = translate(g, x[sent], batch, ctx.mask)
        permute = g.output_permute_bits()
        wire_rows = words_to_le_bytes(
            rows.T.reshape(-1), ring_bytes(ctx.params.ell)
        )
        sealed = disclose(g, bob_bits[:, circuit.payload_cols], batch)

        # Alice: her labels from the OT, Bob's from the seed.
        active = np.zeros((circuit.n_wires, n, LABEL_BYTES), dtype=np.uint8)
        active[circuit.alice_wires] = by_wire(labels.active)
        active[circuit.garbler_wires] = expand_labels(seed, circuit, n, batch)
        bits = evaluate_batch(circuit, g.tables, g.control, active, batch)
        bits ^= permute
        payload = disclosed_payloads(circuit, active, sealed, bits, batch)
        self._bits = np.concatenate([bits, payload], axis=1)
        # Each party's share of every row: Bob knows the value of a row
        # on a constant wire (and did not send it).
        const = dict(circuit.const_wires)
        known = np.asarray(
            [const.get(r.wire, 0) for r in circuit.rows], np.uint64
        )
        self._alice, self._bob = np.zeros_like(x), x * known[:, None]
        self._alice[sent] = translated_shares(
            circuit, active, rows, batch, ctx.mask
        )
        self._bob[sent] = bob_rows
        self._x = x
        wires = [circuit.rows[j].wire for j in self._ev]
        self.permute = (g.zero[wires][..., 0] & 1).reshape(-1)
        self._colour = (active[wires][..., 0] & 1).astype(np.uint64)
        return [
            g.tables.nbytes + g.control.size,
            len(seed),
            np.packbits(permute, axis=1).size + wire_rows.size + sealed.size,
        ]

    def weighted(self, p0: np.ndarray) -> List[np.ndarray]:
        """Alice's 1-messages of the evaluator rows' C-OT.  A row's wire
        carries ``c ^ pi = c + pi (1 - 2c)``, ``c`` the colour of
        Alice's label and ``pi`` the permute bit, so ``v X = c X + pi (1
        - 2c) X``: Bob chooses by ``pi`` and gets ``r + pi (1 - 2c) X``,
        ``r`` Alice's pad, and Alice keeps ``c X - r``."""
        mask = np.uint64(self.ctx.mask)
        x = self._x[self._ev]
        r = le_bytes_to_words(p0).reshape(x.shape)
        q = (np.uint64(1) - np.uint64(2) * self._colour) * x  # (1 - 2c) X
        self._alice[self._ev] = (self._colour * x - r) & mask
        rb = ring_bytes(self.ctx.params.ell)
        return [words_to_le_bytes((r + q).reshape(-1) & mask, rb)]

    def received(self, got: np.ndarray) -> None:
        """Bob's shares of the evaluator rows: what his C-OT chose."""
        self._bob[self._ev] = le_bytes_to_words(got).reshape(
            len(self._ev), -1
        )
        self._ev_done = True

    def result(self) -> Tuple[SharedVector, np.ndarray]:
        """The shared words and the ``(n, revealed + disclosed)`` bit
        matrix Alice decoded."""
        if not self._ev_done:
            raise ScheduleMismatch(
                "'gc/alice_weights': the circuit has evaluator rows, "
                "the counts none"
            )
        return (
            _word_shares(self.ctx, self.inputs, self._alice, self._bob),
            self._bits,
        )


def _row_weights(ctx: Context, inputs: RealInputs) -> np.ndarray:
    """``(n_rows, n)`` weights ``X`` of every row of the circuit:
    ``2**shift``, times the weight column the row names, Bob's or (on
    an evaluator row) Alice's."""
    rows = inputs.circuit.rows
    n = len(inputs.alice_bits)
    shifts = np.asarray([r.shift for r in rows], dtype=np.uint64)
    x = np.ones((len(rows), n), dtype=np.uint64) << shifts[:, None]
    for evaluator, columns in (
        (False, inputs.weights), (True, inputs.alice_weights),
    ):
        named = [
            j for j, r in enumerate(rows)
            if r.weight >= 0 and r.evaluator == evaluator
        ]
        if named:
            cols = [rows[j].weight for j in named]
            x[named] *= np.asarray(columns, dtype=np.uint64).T[cols]
    return x & np.uint64(ctx.mask)


def _word_shares(
    ctx: Context, inputs: RealInputs, alice: np.ndarray, bob: np.ndarray
) -> SharedVector:
    """The shared words, word-major: each party sums its ``(n_rows,
    n)`` row shares by word, and Bob adds his offsets."""
    circuit = inputs.circuit
    words = [r.word for r in circuit.rows]
    shares = np.zeros((2, circuit.n_words, alice.shape[1]), dtype=np.uint64)
    np.add.at(shares[0], words, alice)
    np.add.at(shares[1], words, bob)
    if inputs.offsets is not None:
        shares[1] += np.asarray(inputs.offsets, dtype=np.uint64).T
    alice_words, bob_words = shares.reshape(2, -1) & ctx.mask
    return SharedVector(alice_words, bob_words, ctx.modulus)
