"""The circuit templates: semantics and shape of every gadget.

Shared outputs are checked as the words their translated rows add up
to (``Circuit.evaluate_words``), revealed outputs bit by bit."""

import numpy as np
import pytest

from repro.mpc import SecurityParams
from repro.mpc.context import Context, Mode
from repro.mpc.costs import (
    CircuitCounts,
    circuit_counts,
    garbled_bytes,
    merge_chain_counts,
)
from repro.mpc.gadgets import (
    bits_of,
    div_reveal_circuit,
    int_of,
    merge_or_circuit,
    mul_shared_circuit,
    nonzero_circuit,
    psi_bin_circuit,
    reveal_tuple_circuit,
)
from repro.mpc.engine import Engine
from repro.mpc.sharing import SharedVector

ELL = 8
MOD = 1 << ELL


def w(v):
    return bits_of(v, ELL)


class TestMulTemplates:
    def test_mul_shared(self):
        c = mul_shared_circuit(ELL)
        out = c.evaluate_words(w(3) + w(5), w(4) + w(6), ELL)
        assert out == [((3 + 4) * (5 + 6)) % MOD]
        assert c.outputs == () and len(c.rows) == ELL

    def test_caching(self):
        assert mul_shared_circuit(ELL) is mul_shared_circuit(ELL)
        assert mul_shared_circuit(8) is not mul_shared_circuit(16)


class TestNonzero:
    @pytest.mark.parametrize("x1,x2", [(0, 0), (3, 253), (5, 0), (0, 9)])
    def test_indicator(self, x1, x2):
        # Bob feeds his negated share
        c = nonzero_circuit(ELL)
        out = c.evaluate_words(w(x1), w(-x2 % MOD), ELL)
        assert out == [1 if (x1 + x2) % MOD != 0 else 0]
        assert len(c.rows) == 1


class TestMergeChains:
    """The OR chain is a template; the sum chain has none (one C-OT per
    row on Alice's boundary bit), so its cases run through the REAL
    engine over Bob's values, with Alice's shares zero."""

    @staticmethod
    def sum_chain(same, v2):
        """The chain's output words and the number of messages sent."""
        eng = Engine(Context(Mode.REAL, SecurityParams(ell=ELL), seed=1))
        v = SharedVector(
            np.zeros(len(v2), np.uint64), np.asarray(v2, np.uint64), MOD
        )
        out = eng.merge_aggregate_sum(same, v).reconstruct().tolist()
        return out, len(eng.ctx.transcript.messages)

    @pytest.mark.real
    def test_sum_chain_groups(self):
        same = [1, 0, 0, 1]  # groups {0,1},{2},{3,4}
        out, _ = self.sum_chain(same, [3, 4, 250, 1, 2])
        assert out == [0, 7, 250, 0, 3]

    @pytest.mark.real
    def test_sum_chain_single_tuple(self):
        # no boundary, no OT: one tuple sends nothing
        assert self.sum_chain([], [6]) == ([6], 0)

    def test_or_chain(self):
        n = 4
        c = merge_or_circuit(n)
        indicator = [0, 1, 0, 1]
        same = [1, 1, 0]  # groups {0,1,2}, {3}
        v1 = [1, 0, 1, 1]
        v2 = [(b - a) % 2 for b, a in zip(indicator, v1)]
        abits = list(same) + v1
        assert c.evaluate_words(abits, v2, ELL) == [0, 0, 1, 1]
        assert len(c.rows) == n

    def test_chain_size_linear(self):
        a2 = merge_or_circuit(2).and_count
        a3 = merge_or_circuit(3).and_count
        a5 = merge_or_circuit(5).and_count
        assert a5 - a3 == 2 * (a3 - a2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_or_circuit(0)


class TestPsiBin:
    """The bin circuit ANDs the leaf equalities that the leaf OTs left
    XOR-shared: Alice feeds her masks ``r``, Bob his bits ``b = r ^
    [t_j == s_j]`` (``tests/test_leaves.py`` checks the OTs)."""

    R = [1, 0, 1]  # Alice's masks of a 12-bit token's three leaves

    def bob(self, equal):
        return [r ^ e for r, e in zip(self.R, equal)]

    def test_match_and_miss(self):
        c = psi_bin_circuit(ELL, 12, reveal_payload=False)

        def run(equal, p, wv, fb):
            # Alice's payload p, Bob's weight w - fallback and offset
            # fallback stay out of the circuit: they weight its rows.
            return tuple(
                c.evaluate_words(
                    self.R, self.bob(equal), ELL,
                    weights=[(wv - fb) % MOD], offsets=[0, fb],
                    alice_weights=[p],
                )
            )

        assert run([1, 1, 1], 10, 20, 99) == (1, 30)
        for miss in ([0, 1, 1], [1, 1, 0], [0, 0, 0]):
            assert run(miss, 10, 20, 99) == (0, 99)
        assert c.outputs == ()
        assert len(c.alice_inputs) == len(c.bob_inputs) == 3
        assert c.and_count == 2

    def test_reveal_variant_skips_mask(self):
        c = psi_bin_circuit(ELL, 12, reveal_payload=True)
        alice = self.R + w(10)
        bob = self.bob([1, 1, 1]) + w(20) + w(99)
        assert c.evaluate_words(alice, bob, ELL) == [1]
        assert int_of(c.evaluate(alice, bob)) == 30  # p + w, revealed
        bob = self.bob([1, 0, 1]) + w(20) + w(99)
        assert int_of(c.evaluate(alice, bob)) == 99  # the fallback


class TestProdAndDiv:
    def test_div(self):
        c = div_reveal_circuit(ELL)
        out = c.evaluate(w(100) + w(3), w(33) + w(7))
        assert int_of(out) == 133 // 10


class TestRevealTuple:
    def test_payload_gated_by_nonzero(self):
        c = reveal_tuple_circuit(ELL, 6)
        payload = [1, 0, 1, 1, 0, 1]
        # Bob feeds -v2: v2 = -5 makes v = 0, v2 = 1 makes it 6
        out = c.evaluate(w(5), w(5) + payload)
        assert out[0] == 0 and int_of(out[1:]) == 0
        out = c.evaluate(w(5), w(-1 % MOD) + payload)
        assert out[0] == 1 and out[1:] == payload


def templates(ell):
    """Every template at ring width ``ell``, as ``name -> Circuit``."""
    return {
        "mul_shared": mul_shared_circuit(ell),
        "nonzero": nonzero_circuit(ell),
        "merge_or": merge_or_circuit(4),
        "psi_bin": psi_bin_circuit(ell, 55, False),
        "psi_bin_reveal": psi_bin_circuit(ell, 55, True),
        "div_reveal": div_reveal_circuit(ell),
        "reveal_tuple": reveal_tuple_circuit(ell, 64),
    }


class TestCounts:
    """What each template garbles and sends, at the paper's ``ell = 32``
    and 55-bit PSI tokens: ``(ANDs, Alice's input bits, translated rows,
    revealed bits, disclosed bits, evaluator rows)``.  Shared words leave
    through rows and Bob's tuples by disclosure, so no template carries a
    mask adder or a payload mux, and no gate is dead; what one party
    holds in the clear enters no gate."""

    def test_per_element_templates(self):
        # the zero test compares x1 with -x2: no adder
        assert circuit_counts(nonzero_circuit(32)) == (31, 32, 1, 0, 0, 0)
        assert circuit_counts(mul_shared_circuit(32)) == (
            1_055, 64, 32, 0, 0, 0,
        )
        assert circuit_counts(div_reveal_circuit(48)) == (
            11_472, 96, 0, 48, 0, 0,
        )

    def test_reveal_tuple(self):
        # the zero test alone: a 96-bit tuple (Q3's three 32-bit
        # attributes) no longer adds 96 mux ANDs
        assert circuit_counts(reveal_tuple_circuit(32, 96)) == (
            31, 32, 0, 1, 96, 0,
        )
        assert circuit_counts(reveal_tuple_circuit(32, 0)) == (
            31, 32, 0, 1, 0, 0,
        )

    def test_psi_bin(self):
        # shared payload: the 10-AND tree over a 55-bit token's 11
        # shared 5-bit leaves alone; Alice's payload weights one
        # evaluator row
        assert circuit_counts(psi_bin_circuit(32, 55, False)) == (
            10, 11, 1 + 1, 0, 0, 1,
        )
        # revealed payload keeps its mux and adder; m alone is shared
        assert circuit_counts(psi_bin_circuit(32, 55, True)) == (
            10 + 32 + 31, 11 + 32, 1, 32, 0, 0,
        )

    def test_merge_chains_per_row(self):
        # the OR chain: three ANDs per row; Alice feeds a boundary bit
        # and her share's LSB per row
        for n in (1, 2, 3):
            assert circuit_counts(merge_or_circuit(n)) == (
                3 * (n - 1), 2 * n - 1, n, 0, 0, 0,
            )

    @pytest.mark.parametrize("template", [merge_or_circuit])
    @pytest.mark.parametrize("ell", [32, 48])
    def test_merge_chain_counts_are_exact(self, template, ell):
        """The extrapolated counts equal the built chain's, and so price
        to the same bytes at either ring width the engine charges at."""
        for n in range(2, 10):
            got = merge_chain_counts(template, n)
            assert isinstance(got, CircuitCounts)
            built = circuit_counts(template(n))
            assert got == built, n
            assert garbled_bytes(got, 1, ell) == garbled_bytes(built, 1, ell)

    @pytest.mark.parametrize("ell", [32, 48])
    def test_no_template_has_a_dead_gate(self, ell):
        """Every gate of every template reaches a revealed output or a
        translated row."""
        for name, c in templates(ell).items():
            live = set(c.outputs) | {r.wire for r in c.rows}
            for g in reversed(c.gates):
                assert g.out in live, (name, g)
                live.update((g.a, g.b))
