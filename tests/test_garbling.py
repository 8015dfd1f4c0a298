"""Garbled circuits: garbled evaluation must match plaintext evaluation,
the scheme's structural security properties must hold, and the level
schedule must be a sound reordering of the gate list."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import Context, Mode, gadgets, yao
from repro.mpc.batch import tccr_hash, tweaks
from repro.mpc.circuits import AND, INV, CircuitBuilder
from repro.mpc.circuits import garbling
from repro.mpc.circuits.garbling import (
    SEED_BYTES,
    evaluate_batch,
    expand_labels,
    garble_batch,
    translate,
    translated_shares,
    unpack_control,
)
from repro.mpc.costs import circuit_counts, garbled_bytes
from repro.mpc.gadgets import bits_of, int_of
from repro.mpc.ot import make_ot

from . import reference
from .conftest import IdealOT, run_circuit

#: Instances per garbled batch in the direct (OT-free) tests.
BATCH_SIZES = (1, 5)


GATES = ("xor", "and", "inv", "and_self")


def random_circuit(rng, n_alice=6, n_bob=6, n_gates=40, kinds=GATES):
    """Random gates of the given kinds (``and_self`` is ``a AND a``)
    over the inputs and both constants, then a random INV chain."""
    b = CircuitBuilder()
    wires = b.alice_input_bits(n_alice) + b.bob_input_bits(n_bob)
    wires.append(b.constant(0))
    wires.append(b.constant(1))
    for _ in range(n_gates):
        kind = kinds[rng.integers(0, len(kinds))]
        a = wires[rng.integers(0, len(wires))]
        c = wires[rng.integers(0, len(wires))]
        if kind == "xor":
            wires.append(b.xor(a, c))
        elif kind == "and":
            wires.append(b.and_(a, c))
        elif kind == "inv":
            wires.append(b.not_(a))
        else:
            wires.append(b.and_(a, a))
    chain = wires[rng.integers(0, len(wires))]
    for _ in range(rng.integers(1, 6)):
        chain = b.not_(chain)
        wires.append(chain)
    outputs = [wires[i] for i in rng.integers(0, len(wires), size=8)]
    return b.build(outputs + [chain])


def random_delta(rng):
    """A free-XOR offset: 16 random bytes, select bit 1."""
    delta = np.frombuffer(rng.bytes(16), dtype=np.uint8).copy()
    delta[0] |= 1
    return delta


def garble_direct(circuit, alice_bits, bob_bits, seed=0, batch=3):
    """Garble one instance per row and evaluate it with the evaluator's
    labels handed over directly (the OT is tested elsewhere): returns
    the garbling, the evaluator's active labels of every wire, and the
    decoded output bits."""
    alice_bits = np.asarray(alice_bits, dtype=np.uint8).reshape(
        -1, len(circuit.alice_inputs)
    )
    n = len(alice_bits)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8).reshape(n, -1)
    rng = np.random.default_rng(seed)
    alice_zero = np.frombuffer(
        rng.bytes(16 * n * len(circuit.alice_wires)), dtype=np.uint8
    ).reshape(len(circuit.alice_wires), n, 16)
    label_seed = rng.bytes(SEED_BYTES)
    consts = np.broadcast_to(circuit.const_bits, (n, len(circuit.const_bits)))
    garbler_bits = np.concatenate(
        [bob_bits[:, circuit.bob_cols], consts], axis=1
    )
    g = garble_batch(
        circuit, random_delta(rng), alice_zero, label_seed, garbler_bits, batch
    )
    active = np.zeros((circuit.n_wires, n, 16), dtype=np.uint8)
    active[circuit.alice_wires] = alice_zero ^ (
        g.delta * alice_bits.T[:, :, None]
    )
    active[circuit.garbler_wires] = expand_labels(
        label_seed, circuit, n, batch
    )
    select = evaluate_batch(circuit, g.tables, g.control, active, batch)
    return g, active, select ^ g.output_permute_bits()


def wire_values(circuit, alice_bits, bob_bits):
    """Plaintext value of every wire of one instance."""
    value = np.zeros(circuit.n_wires, dtype=np.uint8)
    value[list(circuit.alice_inputs)] = alice_bits
    value[list(circuit.bob_inputs)] = bob_bits
    for w, bit in circuit.const_wires:
        value[w] = bit
    for g in circuit.gates:
        if g.op == INV:
            value[g.out] = value[g.a] ^ 1
        elif g.op == AND:
            value[g.out] = value[g.a] & value[g.b]
        else:
            value[g.out] = value[g.a] ^ value[g.b]
    return value


def random_bits(circuit, rng, n):
    na, nb = len(circuit.alice_inputs), len(circuit.bob_inputs)
    return (
        rng.integers(0, 2, (n, na), dtype=np.uint8),
        rng.integers(0, 2, (n, nb), dtype=np.uint8),
    )


def assert_matches_plain(circuit, rng):
    for n in BATCH_SIZES:
        alice, bob = random_bits(circuit, rng, n)
        _, _, outs = garble_direct(circuit, alice, bob, seed=n)
        for a, b, o in zip(alice, bob, outs):
            assert o.tolist() == circuit.evaluate(a, b)


class TestCorrectness:
    def test_random_circuits(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            assert_matches_plain(random_circuit(rng), rng)

    def test_random_circuits_without_and_gates(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = random_circuit(rng, kinds=("xor", "inv"))
            assert c.and_count == 0
            assert_matches_plain(c, rng)

    def test_arithmetic_circuit(self):
        ell = 8
        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(ell), b.bob_input_bits(ell)
        c = b.build(b.mul(xs, ys))
        for n in BATCH_SIZES:
            _, _, outs = garble_direct(
                c, [bits_of(13, ell)] * n, [bits_of(19, ell)] * n
            )
            assert [int_of(list(o)) for o in outs] == [(13 * 19) % 256] * n

    def test_all_gate_types(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        outs = [
            b.xor(x, y), b.and_(x, y), b.not_(x), b.or_(x, y),
            b.and_(x, x), b.and_(x, b.constant(1)), b.xor(y, b.constant(1)),
        ]
        c = b.build(outs)
        inputs = [(xv, yv) for xv in (0, 1) for yv in (0, 1)]
        alice = [[xv] for xv, _ in inputs]
        bob = [[yv] for _, yv in inputs]
        for n in BATCH_SIZES:
            _, _, got = garble_direct(c, (alice * 2)[:n], (bob * 2)[:n])
            for a, bb, o in zip(alice * 2, bob * 2, got):
                assert o.tolist() == c.evaluate(a, bb)


class TestSchemeStructure:
    def test_free_xor_produces_no_tables(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        b.not_(b.xor(x, y))
        c = b.build([])
        for n in BATCH_SIZES:
            g, _, _ = garble_direct(c, [[0]] * n, [[1]] * n)
            assert g.tables.size == 0

    def test_table_bytes_three_halves_per_and(self):
        # Three-halves: three 8-byte half-ciphertexts per AND gate and
        # four control bits, packed across the batch.
        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(8), b.bob_input_bits(8)
        c = b.build(b.add(xs, ys))
        for n in (1, 3, 5):
            g, _, _ = garble_direct(c, [[0] * 8] * n, [[1] * 8] * n)
            ands = c.and_count * n
            assert g.tables.nbytes == 24 * ands
            assert g.control.size == (4 * ands + 7) // 8
            tables = garbled_bytes(circuit_counts(c), n, 32).tables
            assert tables == 24 * ands + (ands + 1) // 2

    def test_labels_differ_by_global_delta(self):
        """On every wire the evaluator's active label is the garbler's
        zero-label XOR the wire's plaintext bit times the batch's one
        delta."""
        rng = np.random.default_rng(3)
        c = random_circuit(rng)
        for n in BATCH_SIZES:
            alice, bob = random_bits(c, rng, n)
            g, active, _ = garble_direct(c, alice, bob, seed=n)
            for i in range(n):
                bits = wire_values(c, alice[i], bob[i])
                expect = g.zero[:, i] ^ (bits[:, None] * g.delta)
                assert (active[:, i] == expect).all()

    def test_delta_has_lsb_one(self):
        """The caller's delta must carry select bit 1: garbling refuses
        an offset whose two labels would share a select bit."""
        b = CircuitBuilder()
        b.alice_input_bits(1)
        c = b.build([])
        for n in BATCH_SIZES:
            g, _, _ = garble_direct(c, [[0]] * n, [[]] * n)
            assert g.delta.shape == (16,) and g.delta[0] & 1 == 1
        even = random_delta(np.random.default_rng(1)) ^ np.uint8(1)
        with pytest.raises(ValueError, match="select bit"):
            garble_batch(
                c, even, np.zeros((1, 1, 16), np.uint8), bytes(16),
                np.zeros((1, 0), np.uint8), 0,
            )

    def test_select_bits_of_pair_differ(self):
        # Point-and-permute needs the two labels of a wire to carry
        # opposite select bits.
        rng = np.random.default_rng(4)
        c = random_circuit(rng)
        for n in BATCH_SIZES:
            alice, bob = random_bits(c, rng, n)
            g, _, _ = garble_direct(c, alice, bob)
            one = g.zero ^ g.delta[None]
            assert ((g.zero[:, :, 0] ^ one[:, :, 0]) & 1 == 1).all()

    def test_fresh_garblings_use_fresh_labels(self):
        b = CircuitBuilder()
        xs = b.alice_input_bits(2)
        c = b.build([b.and_(*xs)])
        for n in BATCH_SIZES:
            g1, _, _ = garble_direct(c, [[1, 1]] * n, [[]] * n, seed=1)
            g2, _, _ = garble_direct(c, [[1, 1]] * n, [[]] * n, seed=2)
            assert (g1.delta != g2.delta).any()
            assert (g1.tables != g2.tables).any()


# ----------------------------------------------------------------------
# Three-halves AND gates against the scalar reference
# ----------------------------------------------------------------------


def one_and():
    """``x AND y`` over one Alice and one Bob input bit."""
    b = CircuitBuilder()
    (x,) = b.alice_input_bits(1)
    (y,) = b.bob_input_bits(1)
    return b.build([b.and_(x, y)])


class TestThreeHalves:
    BATCH = 4

    def garble_one(self, seed):
        """One instance of :func:`one_and` under a fresh delta and fresh
        labels: the garbling and the evaluator's active inputs for each
        of the four input combinations."""
        circuit = one_and()
        rng = np.random.default_rng(seed)
        alice_zero = np.frombuffer(rng.bytes(16), np.uint8).reshape(1, 1, 16)
        label_seed = rng.bytes(SEED_BYTES)
        g = garble_batch(
            circuit, random_delta(rng), alice_zero, label_seed,
            np.zeros((1, 1), np.uint8), self.BATCH,
        )
        bob_active = expand_labels(label_seed, circuit, 1, self.BATCH)
        combos = {}
        for x in (0, 1):
            for y in (0, 1):
                active = np.zeros((circuit.n_wires, 1, 16), np.uint8)
                active[circuit.alice_wires] = alice_zero ^ (g.delta * x)
                # Bob's zero-label is the expanded one (his bit was 0)
                active[circuit.garbler_wires] = bob_active ^ (g.delta * y)
                combos[x, y] = active
        return circuit, g, combos

    def evaluate(self, circuit, tables, control, active):
        """The evaluator's output label (``evaluate_batch`` fills
        ``active`` in place)."""
        active = active.copy()
        evaluate_batch(circuit, tables, control, active, self.BATCH)
        return active[circuit.output_wires[0], 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_all_four_inputs_match_the_reference(self, seed):
        circuit, g, combos = self.garble_one(seed)
        (gate,) = circuit.gates
        w0 = g.zero[gate.out, 0]
        halves = g.tables[0, :, 0].tolist()
        nibble = int(unpack_control(g.control, 1, 1)[0, 0])
        for (x, y), active in combos.items():
            out = self.evaluate(circuit, g.tables, g.control, active)
            expect = w0 ^ (g.delta * (x & y))
            assert (out == expect).all(), (x, y)
            ref = reference.three_halves_evaluate(
                active[gate.a, 0].tobytes(), active[gate.b, 0].tobytes(),
                halves, nibble, self.BATCH, 0, 0,
            )
            assert ref == expect.tobytes(), (x, y)

    def tampered_fails(self, circuit, g, combos, tables, control):
        """Some input combination's output label is neither of the
        wire's two labels."""
        (gate,) = circuit.gates
        w0 = g.zero[gate.out, 0]
        labels = {w0.tobytes(), (w0 ^ g.delta).tobytes()}
        return any(
            self.evaluate(circuit, tables, control, a).tobytes() not in labels
            for a in combos.values()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_every_control_bit_matters(self, seed):
        circuit, g, combos = self.garble_one(seed)
        assert not self.tampered_fails(circuit, g, combos, g.tables, g.control)
        for bit in range(4):
            control = g.control ^ np.uint8(1 << bit)
            assert self.tampered_fails(circuit, g, combos, g.tables, control)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_table_byte_matters(self, seed):
        circuit, g, combos = self.garble_one(seed)
        raw = g.tables.view(np.uint8)
        for pos in range(raw.size):
            tampered = raw.copy()
            tampered.reshape(-1)[pos] ^= np.uint8(1 << (pos % 8))
            tables = tampered.view("<u8")
            assert self.tampered_fails(circuit, g, combos, tables, g.control)

    def test_dicing_hides_the_colours(self):
        """Exhaustively over the eight hash-derived pad bits: what the
        evaluator at colours ``(i, j)`` sees of the control bits — her
        own pads and the control nibble — is distributed the same for
        every pair ``(alpha, beta)`` of the garbler's secret colours, so
        the ``R_ij`` it selects reveals nothing about the inputs."""
        from collections import Counter
        from itertools import product

        def view(alpha, beta, i, j, pads):
            pa, pb = pads[:2], pads[2:]  # (pad of colour 0, of colour 1)
            ci1, ci2, cj1, cj2 = garbling._dice(alpha, beta)
            secret = ci1 | ci2 << 1 | cj1 << 2 | cj2 << 3
            nibble = ((pa[0] ^ pa[1]) | (pb[0] ^ pb[1]) << 2) ^ secret
            return pa[i], pb[j], nibble

        for i, j in product((0, 1), repeat=2):
            seen = {
                (alpha, beta): Counter(
                    view(alpha, beta, i, j, pads)
                    for pads in product(range(4), repeat=4)
                )
                for alpha, beta in product((0, 1), repeat=2)
            }
            assert all(c == seen[0, 0] for c in seen.values()), (i, j)


# ----------------------------------------------------------------------
# The level schedule
# ----------------------------------------------------------------------

#: Every template of ``mpc/gadgets.py``, as ``ell -> Circuit``.
TEMPLATES = {
    "mul_shared": gadgets.mul_shared_circuit,
    "nonzero": gadgets.nonzero_circuit,
    "merge_or": lambda ell: gadgets.merge_or_circuit(3),
    "psi_bin": lambda ell: gadgets.psi_bin_circuit(ell, 12, False),
    "psi_bin_reveal": lambda ell: gadgets.psi_bin_circuit(ell, 12, True),
    "div_reveal": gadgets.div_reveal_circuit,
    "reveal_tuple": lambda ell: gadgets.reveal_tuple_circuit(ell, 5),
}
ELLS = (8, 20, 32, 48)


class TestLevelSchedule:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_every_gate_once_after_its_operands(self, name):
        """Each gate sits in exactly one level, strictly after the
        levels that produce its operands, and ``and_index`` numbers the
        ANDs in construction order."""
        rng = np.random.default_rng(5)
        for circuit in (TEMPLATES[name](32), random_circuit(rng)):
            level_of = {}  # output wire -> level
            and_at = {}  # output wire -> table row
            for depth, lv in enumerate(circuit.levels):
                outs = [lv.xor_out, lv.inv_out, lv.and_out]
                for w in np.concatenate(outs).tolist():
                    assert w not in level_of
                    level_of[w] = depth
                and_at.update(zip(lv.and_out.tolist(), lv.and_index.tolist()))
                for a in np.concatenate(
                    [lv.xor_a, lv.xor_b, lv.inv_a, *lv.and_operands]
                ).tolist():
                    assert level_of.get(a, -1) < depth
            assert sorted(level_of) == sorted(g.out for g in circuit.gates)
            ands = [g.out for g in circuit.gates if g.op == AND]
            assert [and_at[w] for w in ands] == list(range(len(ands)))
            assert circuit.and_count == len(ands)

    def test_tables_are_in_construction_order(self):
        """Row ``k`` of the tables is the ``k``-th AND gate's, hashed
        under tweaks ``3k``, ``3k + 1`` and ``3k + 2``: the scalar
        reference recomputes its half-ciphertexts, control bits and
        output zero-label from the input zero-labels, instance by
        instance, under several deltas."""
        circuit = gadgets.nonzero_circuit(8)
        ands = [gate for gate in circuit.gates if gate.op == AND]
        for seed in range(3):
            alice, bob = random_bits(circuit, np.random.default_rng(6), 3)
            g, _, _ = garble_direct(circuit, alice, bob, seed=seed, batch=11)
            control = unpack_control(g.control, len(ands), 3)
            delta = g.delta.tobytes()
            for k, gate in enumerate(ands):
                for i in range(3):
                    c0, halves, nibble = reference.three_halves_garble(
                        g.zero[gate.a, i].tobytes(),
                        g.zero[gate.b, i].tobytes(),
                        delta, 11, i, k,
                    )
                    assert g.zero[gate.out, i].tobytes() == c0
                    assert g.tables[k, :, i].tolist() == list(halves)
                    assert control[k, i] == nibble

    def test_merge_chain_level_count(self, monkeypatch):
        """The 256-row OR chain is 2,041 gates in 1,021 levels, and
        garbling and evaluating it hash once per level with ANDs (plus
        the label expansion): a return to gate-by-gate stepping fails
        here."""
        circuit = gadgets.merge_or_circuit(256)
        assert (len(circuit.gates), len(circuit.levels)) == (2_041, 1_021)
        with_ands = sum(1 for lv in circuit.levels if len(lv.and_out))
        calls = []

        def spy(x, t):
            calls.append(t.shape)
            return tccr_hash(x, t)

        monkeypatch.setattr(garbling, "tccr_hash", spy)
        alice, bob = random_bits(circuit, np.random.default_rng(7), 1)
        _, _, outs = garble_direct(circuit, alice, bob)
        assert outs[0].tolist() == circuit.evaluate(alice[0], bob[0])
        # garbler: expansion + one per level; evaluator: the same
        assert len(calls) == 2 * (1 + with_ands)


# ----------------------------------------------------------------------
# The batched protocol: seed-expanded garbler labels, C-OT evaluator
# labels (the REAL half of repro.mpc.yao.garbled_call)
# ----------------------------------------------------------------------


def translation_inputs(circuit, rng, n, ell=32):
    """Random per-instance row weights and word offsets for Bob, then
    row weights for Alice, as many columns as ``circuit`` reads."""

    def columns(evaluator):
        named = [r.weight for r in circuit.rows if r.evaluator == evaluator]
        return 1 + max(named, default=-1)

    return tuple(
        rng.integers(0, 2**ell, (n, cols), dtype=np.uint64)
        for cols in (columns(False), circuit.n_words, columns(True))
    )


def run_real_batch(circuit, alice, bob, seed=0):
    """REAL garbling and evaluation over an ideal OT (the extension's
    own tests cover IKNP; skipping its base phase keeps this fast):
    every instance's revealed bits and shared words against plaintext
    evaluation."""
    ctx = Context(Mode.REAL, seed=seed)
    weights = translation_inputs(
        circuit, np.random.default_rng(seed), len(alice)
    )
    words, bits = run_circuit(
        ctx, IdealOT(ctx), circuit, alice, bob, *weights
    )
    for i, (a, b) in enumerate(zip(alice, bob)):
        assert words[i].tolist() == circuit.evaluate_words(
            a, b, 32, *(column[i] for column in weights)
        )
    return bits.tolist(), ctx


@pytest.mark.real
class TestSeedExpandedBatch:
    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_every_template_matches_plain_evaluation(self, name, ell):
        circuit = TEMPLATES[name](ell)
        alice, bob = random_bits(circuit, np.random.default_rng(ell), 3)
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
        alice, bob = random_bits(circuit, np.random.default_rng(seed), 2)
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
        alice, bob = random_bits(circuit, rng, 4)
        other_bob = 1 - bob
        seen = []
        real_evaluate = yao.evaluate_batch

        def spy(circuit, tables, control, active, batch):
            seen.append(active[circuit.garbler_wires].copy())
            return real_evaluate(circuit, tables, control, active, batch)

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
        circuit = gadgets.nonzero_circuit(8)
        seed = bytes(range(16))
        small = expand_labels(seed, circuit, 2, 0)
        big = expand_labels(seed, circuit, 5, 0)
        assert small.shape == (len(circuit.garbler_wires), 2, 16)
        assert (big[:, :2] == small).all()  # a prefix of one stream
        flat = big.transpose(1, 0, 2).reshape(-1, 16)
        assert len({bytes(r) for r in flat}) == len(flat)
        assert (expand_labels(bytes(16), circuit, 2, 0) != small).any()
        # another batch number: another label on every wire
        assert (expand_labels(seed, circuit, 2, 1) != small).any(axis=2).all()

    def test_select_bits_independent_of_semantics(self):
        """lsb(zero) = lsb(active) ^ bit on garbler wires: the active
        label's select bit (what Alice sees) is the PRG's, whatever the
        bit."""
        circuit = gadgets.nonzero_circuit(8)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (6, len(circuit.garbler_wires))).astype(
            np.uint8
        )
        seed = rng.bytes(SEED_BYTES)
        alice_zero = np.frombuffer(
            rng.bytes(16 * 6 * len(circuit.alice_wires)), dtype=np.uint8
        ).reshape(len(circuit.alice_wires), 6, 16)
        g = garble_batch(circuit, random_delta(rng), alice_zero, seed, bits, 0)
        active = expand_labels(seed, circuit, 6, 0)
        zero = g.zero[circuit.garbler_wires]
        assert ((zero[:, :, 0] ^ active[:, :, 0]) & 1 == bits.T).all()


# ----------------------------------------------------------------------
# Output translation: shared words leave through their labels
# ----------------------------------------------------------------------


class TestOutputTranslation:
    MASK = 2**32 - 1

    def garble_one_row(self, zero_colours, batch=5):
        """One Alice wire translated as one row, one instance per entry
        of ``zero_colours`` (the select bit of that instance's
        zero-label)."""
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        b.share_word([x])
        circuit = b.build()
        n = len(zero_colours)
        rng = np.random.default_rng(8)
        alice_zero = rng.integers(0, 256, (1, n, 16), dtype=np.uint8)
        alice_zero[0, :, 0] = (alice_zero[0, :, 0] & 0xFE) | zero_colours
        g = garble_batch(
            circuit, random_delta(rng), alice_zero, rng.bytes(SEED_BYTES),
            np.zeros((n, 0), np.uint8), batch,
        )
        return circuit, g

    def test_each_colour_gives_v_times_x(self):
        """Both colours of both values: ``W0`` with select bit 0 and 1,
        Alice holding ``W0`` (v = 0) or ``W0 ^ delta`` (v = 1); her share
        plus Bob's is ``v * X`` every time."""
        zero_colours = np.asarray([0, 1, 0, 1], dtype=np.uint8)
        values = np.asarray([0, 0, 1, 1], dtype=np.uint8)
        circuit, g = self.garble_one_row(zero_colours)
        x = np.asarray([[7, 2**31 + 5, 2**32 - 1, 12345]], dtype=np.uint64)
        rows, bob = translate(g, x, 5, self.MASK)
        active = g.zero ^ (g.delta[None] * values[None, :, None])
        held = active[circuit.row_wires][0, :, 0] & 1
        assert held.tolist() == [0, 1, 1, 0]  # every colour, every value
        alice = translated_shares(circuit, active, rows, 5, self.MASK)
        assert ((alice + bob) & np.uint64(self.MASK)).tolist() == (
            (values * x) & np.uint64(self.MASK)
        ).tolist()

    def test_rows_hash_under_fresh_tweaks(self):
        """Row ``j`` of instance ``i`` hashes under ``(batch, i, 3 *
        n_ands + n_garbler_slots + j)``, after the AND gates' hashes and
        the garbler-label slots: recompute the colour-0 share of Bob."""
        circuit = gadgets.psi_bin_circuit(32, 12, False)
        alice, bob = random_bits(circuit, np.random.default_rng(2), 2)
        g, _, _ = garble_direct(circuit, alice, bob, batch=9)
        x = np.ones((len(circuit.row_wires), 2), dtype=np.uint64)
        _, bob_rows = translate(g, x, 9, self.MASK)
        base = 3 * circuit.and_count + len(circuit.garbler_wires)
        assert circuit.row_tweak_base == base
        for j, wire in enumerate(circuit.row_wires.tolist()):
            for i in range(2):
                w0 = g.zero[wire, i]
                p = w0[0] & 1
                colour0 = w0 ^ (g.delta * p)
                h = tccr_hash(colour0, tweaks(9, np.uint64(i), np.uint64(base + j)))
                h0 = int.from_bytes(bytes(h[:8]), "little") & self.MASK
                assert int(bob_rows[j, i]) == (int(p) - h0) % 2**32

    @pytest.mark.real
    def test_constant_wire_gets_no_row(self):
        """A row on a constant wire is Bob's to fold in: not sent, not
        priced, and the word still comes out right."""
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        b.share_word([x, b.constant(1), b.constant(0)])
        c = b.build()
        assert len(c.rows) == 3 and c.sent_rows == (0,)
        assert circuit_counts(c).rows == 1
        ctx = Context(Mode.REAL, seed=3)
        words, _ = run_circuit(ctx, IdealOT(ctx), c, [[0], [1]], [[], []])
        assert words.tolist() == [[2], [3]]
        (decode,) = [m for m in ctx.transcript.messages if m.label == "gc/decode"]
        assert decode.n_bytes == 2 * 4  # one 4-byte row per instance

    @pytest.mark.real
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_real_equals_simulated_per_template(self, name):
        """Same words and bits, same messages (sizes included) in both
        modes, template by template."""
        circuit = TEMPLATES[name](32)
        rng = np.random.default_rng(4)
        alice, bob = random_bits(circuit, rng, 3)
        weights = translation_inputs(circuit, rng, 3)
        seen = []
        for mode in (Mode.REAL, Mode.SIMULATED):
            ctx = Context(mode, seed=1)
            words, bits = run_circuit(
                ctx, make_ot(ctx), circuit, alice, bob, *weights
            )
            seen.append((words.tolist(), bits.tolist(),
                         ctx.transcript.fingerprint()))
        assert seen[0] == seen[1]


# ----------------------------------------------------------------------
# Label-keyed disclosure: Bob's payload leaves under the key's 1-label
# ----------------------------------------------------------------------


class TestDisclosure:
    N_BITS = 40

    def disclosing_circuit(self):
        """Alice's bit ``x`` is revealed, translated as a row, and keys
        Bob's 40-bit payload, which sits between two of his garbled
        inputs: a pad under the row's tweak would be the row's hash."""
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        payload = b.bob_input_bits(self.N_BITS)
        (z,) = b.bob_input_bits(1)
        b.disclose(x, payload)
        b.share_word([x])
        return b.build([x, b.and_(y, z)])

    def test_only_the_one_label_opens_the_payload(self):
        """The key bit forced to 1 and to 0 across instances: where it
        is 1 Alice reads the payload; where it is 0 her label is
        ``W0``, and the pad it yields recovers nothing equal to the
        payload — decrypting regardless returns unrelated bits."""
        from repro.mpc.circuits.garbling import disclose, disclosed_payloads

        c = self.disclosing_circuit()
        rng = np.random.default_rng(5)
        key = np.asarray([1, 0, 1, 0, 0, 1], dtype=np.uint8)
        bob = rng.integers(0, 2, (len(key), self.N_BITS + 2), dtype=np.uint8)
        g, active, outs = garble_direct(c, key[:, None], bob, batch=4)
        payload = bob[:, c.payload_cols]
        assert (outs[:, 0] == key).all()
        rows = disclose(g, payload, 4)
        assert rows.shape == (len(key), self.N_BITS // 8)
        got = disclosed_payloads(c, active, rows, outs, 4)
        assert (got == payload * key[:, None]).all()
        forced = disclosed_payloads(
            c, active, rows, np.ones_like(outs), 4
        )
        for i in np.flatnonzero(key == 0):
            assert (forced[i] != payload[i]).any()
        # the plaintext reference agrees, and the payload wires are not
        # garbled: only y, z carry garbler labels
        for a, b_, o in zip(key, bob, outs):
            assert c.evaluate([a], b_)[: len(c.outputs)] == o.tolist()
        assert len(c.garbler_wires) == 2 + len(c.const_bits)

    def test_pads_hash_past_the_rows(self):
        """The pad of block ``c`` is ``H(W1, (batch, instance,
        disclosure_tweak_base + c))``: recompute one instance's row."""
        from repro.mpc.circuits.garbling import disclose

        c = self.disclosing_circuit()
        rng = np.random.default_rng(6)
        bob = rng.integers(0, 2, (2, self.N_BITS + 2), dtype=np.uint8)
        g, _, _ = garble_direct(c, [[1], [0]], bob, batch=7)
        assert c.disclosure_tweak_base == c.row_tweak_base + len(
            c.row_wires
        )
        rows = disclose(g, bob[:, c.payload_cols], 7)
        one = g.zero[c.disclosure.key, 1] ^ g.delta
        pad = tccr_hash(
            one, tweaks(7, np.uint64(1), np.uint64(c.disclosure_tweak_base))
        )
        packed = np.packbits(bob[1, c.payload_cols], bitorder="little")
        assert (rows[1] == packed ^ pad[: len(packed)]).all()

    @pytest.mark.real
    def test_pads_meet_no_other_hashs_tweak(self, monkeypatch):
        """One REAL garbled call (AND tables, garbler labels, a row and
        a disclosure on the key wire): the disclosure's tweaks are used
        by no other hash of the call, and the payload comes out."""
        seen = {"disclosure": [], "other": []}
        purpose = ["other"]
        real_hash, real_pads = garbling.tccr_hash, garbling._disclosure_pads

        def hash_spy(x, t):
            seen[purpose[0]].append(np.asarray(t).reshape(-1, 16))
            return real_hash(x, t)

        def pads_spy(*args):
            purpose[0] = "disclosure"
            try:
                return real_pads(*args)
            finally:
                purpose[0] = "other"

        monkeypatch.setattr(garbling, "tccr_hash", hash_spy)
        monkeypatch.setattr(garbling, "_disclosure_pads", pads_spy)
        c = self.disclosing_circuit()
        rng = np.random.default_rng(8)
        alice = np.asarray([[1], [0], [1]], dtype=np.uint8)
        bob = rng.integers(0, 2, (3, self.N_BITS + 2), dtype=np.uint8)
        ctx = Context(Mode.REAL, seed=8)
        words, bits = run_circuit(ctx, IdealOT(ctx), c, alice, bob)
        for a, b_, w, o in zip(alice, bob, words, bits):
            assert o.tolist() == c.evaluate(a, b_)
            assert w.tolist() == c.evaluate_words(a, b_, 32)
        tweak_sets = {
            k: {bytes(t) for arr in v for t in arr} for k, v in seen.items()
        }
        assert tweak_sets["disclosure"]
        assert not tweak_sets["disclosure"] & tweak_sets["other"]

    def test_builder_rules(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        ys = b.bob_input_bits(3)
        with pytest.raises(ValueError, match="Bob's input"):
            b.disclose(ys[0], [x])
        b.disclose(x, ys)
        with pytest.raises(ValueError, match="at most one"):
            b.disclose(x, ys)
        with pytest.raises(ValueError, match="revealed"):
            b.build([])
        assert b.build([x]).disclosure == (x, tuple(ys))
