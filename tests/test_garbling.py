"""Garbled circuits: garbled evaluation must match plaintext evaluation,
and the scheme's structural security properties must hold."""

import secrets

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import Context, Mode, gadgets, yao
from repro.mpc.circuits import CircuitBuilder, evaluate_garbled, garble
from repro.mpc.circuits.garbling import (
    SEED_BYTES,
    expand_labels,
    garble_batch,
    make_garble_plan,
)
from repro.mpc.gadgets import bits_of, int_of
from repro.mpc.ot import SimulatedOT

from .conftest import run_circuit


def random_circuit(rng, n_alice=6, n_bob=6, n_gates=40):
    b = CircuitBuilder()
    wires = b.alice_input_bits(n_alice) + b.bob_input_bits(n_bob)
    wires.append(b.constant(0))
    wires.append(b.constant(1))
    for _ in range(n_gates):
        op = rng.integers(0, 3)
        a = wires[rng.integers(0, len(wires))]
        c = wires[rng.integers(0, len(wires))]
        if op == 0:
            wires.append(b.xor(a, c))
        elif op == 1:
            wires.append(b.and_(a, c))
        else:
            wires.append(b.not_(a))
    outputs = [wires[i] for i in rng.integers(0, len(wires), size=8)]
    return b.build(outputs)


def garbled_eval(circuit, alice_bits, bob_bits):
    g = garble(circuit, secrets.token_bytes)
    labels = {}
    for w, bit in zip(circuit.alice_inputs, alice_bits):
        labels[w] = g.label(w, bit)
    for w, bit in zip(circuit.bob_inputs, bob_bits):
        labels[w] = g.label(w, bit)
    for w, bit in circuit.const_wires:
        labels[w] = g.label(w, bit)
    active = evaluate_garbled(circuit, g.tables, labels)
    permute = g.output_permute_bits()
    return [
        (active[w] & 1) ^ p for w, p in zip(circuit.outputs, permute)
    ]


class TestCorrectness:
    def test_random_circuits(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            c = random_circuit(rng)
            alice = list(rng.integers(0, 2, len(c.alice_inputs)))
            bob = list(rng.integers(0, 2, len(c.bob_inputs)))
            assert garbled_eval(c, alice, bob) == c.evaluate(alice, bob)

    def test_arithmetic_circuit(self):
        ell = 8
        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(ell), b.bob_input_bits(ell)
        c = b.build(b.mul(xs, ys))
        out = garbled_eval(c, bits_of(13, ell), bits_of(19, ell))
        assert int_of(out) == (13 * 19) % 256

    def test_all_gate_types(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        outs = [b.xor(x, y), b.and_(x, y), b.not_(x), b.or_(x, y)]
        c = b.build(outs)
        for xv in (0, 1):
            for yv in (0, 1):
                assert garbled_eval(c, [xv], [yv]) == c.evaluate([xv], [yv])


class TestSchemeStructure:
    def test_free_xor_produces_no_tables(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        b.xor(x, y)
        c = b.build([])
        g = garble(c, secrets.token_bytes)
        assert g.tables.n_bytes == 0

    def test_table_bytes_two_rows_per_and(self):
        # Half-gates: exactly two 16-byte ciphertexts per AND gate.
        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(8), b.bob_input_bits(8)
        b.add(xs, ys)
        c = b.build([])
        g = garble(c, secrets.token_bytes)
        assert g.tables.n_bytes == c.and_count * 2 * 16

    def test_labels_differ_by_global_delta(self):
        b = CircuitBuilder()
        xs = b.alice_input_bits(4)
        c = b.build(xs)
        g = garble(c, secrets.token_bytes)
        for w in c.alice_inputs:
            assert g.label(w, 0) ^ g.label(w, 1) == g.delta

    def test_delta_has_lsb_one(self):
        b = CircuitBuilder()
        b.alice_input_bits(1)
        g = garble(b.build([]), secrets.token_bytes)
        assert g.delta & 1 == 1

    def test_select_bits_of_pair_differ(self):
        # Point-and-permute needs the two labels of a wire to carry
        # opposite select bits.
        b = CircuitBuilder()
        xs = b.alice_input_bits(4)
        c = b.build(xs)
        g = garble(c, secrets.token_bytes)
        for w in c.alice_inputs:
            assert (g.label(w, 0) & 1) != (g.label(w, 1) & 1)

    def test_fresh_garblings_use_fresh_labels(self):
        b = CircuitBuilder()
        xs = b.alice_input_bits(2)
        c = b.build(xs)
        g1 = garble(c, secrets.token_bytes)
        g2 = garble(c, secrets.token_bytes)
        assert g1.zero_labels != g2.zero_labels


# ----------------------------------------------------------------------
# The batched protocol: seed-expanded garbler labels, C-OT evaluator
# labels (the REAL half of repro.mpc.yao.garbled_call)
# ----------------------------------------------------------------------

#: Every template of ``mpc/gadgets.py``, as ``ell -> Circuit``.
TEMPLATES = {
    "mul_shared": gadgets.mul_shared_circuit,
    "nonzero": gadgets.nonzero_circuit,
    "merge_sum": lambda ell: gadgets.merge_sum_circuit(ell, 3),
    "merge_or": lambda ell: gadgets.merge_or_circuit(ell, 3),
    "psi_bin": lambda ell: gadgets.psi_bin_circuit(ell, 12, False),
    "psi_bin_reveal": lambda ell: gadgets.psi_bin_circuit(ell, 12, True),
    "div_reveal": gadgets.div_reveal_circuit,
    "reveal_tuple": lambda ell: gadgets.reveal_tuple_circuit(ell, 5),
}
ELLS = (8, 20, 32, 48)


def run_real_batch(circuit, alice, bob, seed=0):
    """REAL garbling and evaluation over an ideal OT (the extension's
    own tests cover IKNP; skipping its base phase keeps this fast)."""
    ctx = Context(Mode.REAL, seed=seed)
    outs = run_circuit(ctx, SimulatedOT(ctx), circuit, alice, bob)
    return outs.tolist(), ctx


def random_inputs(circuit, rng, n):
    na, nb = len(circuit.alice_inputs), len(circuit.bob_inputs)
    return (
        rng.integers(0, 2, (n, na), dtype=np.uint8),
        rng.integers(0, 2, (n, nb), dtype=np.uint8),
    )


@pytest.mark.real
class TestSeedExpandedBatch:
    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_every_template_matches_plain_evaluation(self, name, ell):
        circuit = TEMPLATES[name](ell)
        alice, bob = random_inputs(circuit, np.random.default_rng(ell), 3)
        outs, _ = run_real_batch(circuit, alice, bob)
        for a, b, o in zip(alice, bob, outs):
            assert o == circuit.evaluate(a, b)

    @given(
        st.sampled_from(sorted(TEMPLATES)),
        st.sampled_from(ELLS),
        st.integers(0, 2**32 - 1),
    )
    def test_random_inputs_match_plain_evaluation(self, name, ell, seed):
        circuit = TEMPLATES[name](ell)
        alice, bob = random_inputs(circuit, np.random.default_rng(seed), 2)
        outs, _ = run_real_batch(circuit, alice, bob, seed=seed)
        for a, b, o in zip(alice, bob, outs):
            assert o == circuit.evaluate(a, b)

    def test_garbler_labels_are_one_seed_independent_of_bob_bits(
        self, monkeypatch
    ):
        """Two runs from the same context seed with different Bob bits:
        the ``gc/bob_labels`` message is the same 16-byte seed, and the
        evaluator holds the same active labels on Bob's wires — her
        view of a garbler input does not depend on its bit."""
        circuit = gadgets.psi_bin_circuit(32, 12, True)
        rng = np.random.default_rng(9)
        alice, bob = random_inputs(circuit, rng, 4)
        other_bob = 1 - bob
        seen = []
        real_evaluate = yao.evaluate_batch

        def spy(plan, tables, active):
            seen.append(active[plan.garbler_wires].copy())
            return real_evaluate(plan, tables, active)

        monkeypatch.setattr(yao, "evaluate_batch", spy)
        outs1, ctx1 = run_real_batch(circuit, alice, bob, seed=5)
        outs2, ctx2 = run_real_batch(circuit, alice, other_bob, seed=5)
        assert (seen[0] == seen[1]).all()
        assert ctx1.transcript.fingerprint() == ctx2.transcript.fingerprint()
        assert [
            m.n_bytes
            for m in ctx1.transcript.messages
            if m.label == "gc/bob_labels"
        ] == [SEED_BYTES]
        for a, b, o in zip(alice, other_bob, outs2):
            assert o == circuit.evaluate(a, b)
        assert outs1 != outs2

    def test_expand_labels_is_a_prg_of_instance_and_wire(self):
        plan = make_garble_plan(gadgets.nonzero_circuit(8))
        seed = bytes(range(16))
        small = expand_labels(seed, plan, 2)
        big = expand_labels(seed, plan, 5)
        assert small.shape == (len(plan.garbler_wires), 2, 16)
        assert (big[:, :2] == small).all()  # a prefix of one stream
        flat = big.transpose(1, 0, 2).reshape(-1, 16)
        assert len({bytes(r) for r in flat}) == len(flat)
        assert (expand_labels(bytes(16), plan, 2) != small).any()

    def test_select_bits_independent_of_semantics(self):
        """lsb(zero) = lsb(active) ^ bit on garbler wires: the active
        label's select bit (what Alice sees) is the PRG's, whatever the
        bit."""
        circuit = gadgets.nonzero_circuit(8)
        plan = make_garble_plan(circuit)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (6, len(plan.garbler_wires))).astype(
            np.uint8
        )
        seed = rng.bytes(SEED_BYTES)
        alice_zero = np.frombuffer(
            rng.bytes(16 * 6 * len(plan.alice_wires)), dtype=np.uint8
        ).reshape(len(plan.alice_wires), 6, 16)
        g = garble_batch(plan, rng.bytes, alice_zero, seed, bits)
        active = expand_labels(seed, plan, 6)
        zero = g.zero[plan.garbler_wires]
        assert ((zero[:, :, 0] ^ active[:, :, 0]) & 1 == bits.T).all()
        assert (g.delta[:, 0] & 1 == 1).all()
