"""Templates that keep a party's plaintext out of the circuit, pinned
through REAL garbling against the one-instance forms of
``tests/reference.py``: the zero test (Alice's share against Bob's
negated one), the merge chain over Bob's shares, and the evaluator row
(a weight Alice holds, paid by one C-OT on the wire's colour)."""

import numpy as np
import pytest

from repro.mpc import SecurityParams, yao
from repro.mpc.batch import words_to_bits
from repro.mpc.circuits.builder import CircuitBuilder
from repro.mpc.context import BOB, Context, Mode
from repro.mpc.engine import Engine
from repro.mpc.gadgets import (
    merge_sum_circuit,
    nonzero_circuit,
    reveal_tuple_circuit,
)
from repro.mpc.ot import CorrelatedBatch
from repro.mpc.psi import psi_with_payloads

from . import reference
from .conftest import IdealOT, run_circuit

pytestmark = pytest.mark.real

#: the unwrapped share computation, which the spies below call
_EVALUATOR_ROWS = yao._evaluator_rows


class TestZeroTest:
    ELL = 4

    def share_pairs(self):
        """Every ``(x1, x2)`` at ``ell = 4``: Alice's bits of ``x1``,
        Bob's of ``-x2``."""
        mod = 1 << self.ELL
        x1, x2 = (a.reshape(-1) for a in np.mgrid[0:mod, 0:mod])
        x1, x2 = x1.astype(np.uint64), x2.astype(np.uint64)
        neg = (-x2) & np.uint64(mod - 1)
        return x1, x2, words_to_bits(x1, self.ELL), words_to_bits(neg, self.ELL)

    def expected(self, x1, x2):
        want = ((x1 + x2) % (1 << self.ELL) != 0).astype(int)
        neg = (-x2) % (1 << self.ELL)
        ref = [reference.zero_test(int(a), int(b), self.ELL)
               for a, b in zip(x1, neg)]
        assert ref == want.tolist()
        return want

    def test_nonzero_is_exhaustively_right(self):
        x1, x2, alice, bob = self.share_pairs()
        ctx = Context(Mode.REAL, seed=11)
        words, _ = run_circuit(
            ctx, IdealOT(ctx), nonzero_circuit(self.ELL), alice, bob
        )
        assert words[:, 0].tolist() == self.expected(x1, x2).tolist()

    def test_reveal_tuple_is_exhaustively_right(self):
        x1, x2, alice, bob = self.share_pairs()
        payload = np.random.default_rng(3).integers(
            0, 2, (len(x1), 5), dtype=np.uint8
        )
        ctx = Context(Mode.REAL, seed=12)
        _, bits = run_circuit(
            ctx, IdealOT(ctx), reveal_tuple_circuit(self.ELL, 5),
            alice, np.hstack([bob, payload]),
        )
        want = self.expected(x1, x2)
        assert bits[:, 0].tolist() == want.tolist()
        assert (bits[:, 1:] == payload * want[:, None]).all()


def boundary_cases(n, rng):
    """``name -> same_as_next`` for one chain length."""
    return {
        "one_group": [True] * (n - 1),
        "singletons": [False] * (n - 1),
        "mixed": rng.integers(0, 2, n - 1).astype(bool).tolist(),
    }


@pytest.mark.parametrize("ell", [32, 48])
class TestMergeSumChain:
    NS = (1, 2, 3, 17)

    def values(self, rng, n, ell, wrap):
        """Random ring values, or values near ``2**ell`` whose group
        sums wrap around."""
        top = 1 << ell
        if wrap:
            return (top - 1 - rng.integers(0, 4, n, dtype=np.uint64)).tolist()
        return [int(v) for v in rng.integers(0, top, n, dtype=np.uint64)]

    def test_circuit_matches_the_reference(self, ell):
        rng = np.random.default_rng(ell)
        ctx = Context(Mode.REAL, SecurityParams(ell=ell), seed=4)
        for n in self.NS:
            bob = rng.integers(0, 1 << ell, n, dtype=np.uint64)
            for name, ind in boundary_cases(n, rng).items():
                words, _ = run_circuit(
                    ctx, IdealOT(ctx), merge_sum_circuit(ell, n),
                    np.asarray([ind], dtype=np.uint8).reshape(1, -1),
                    words_to_bits(bob, ell).reshape(1, -1),
                )
                want = reference.merge_sum_chain(ind, bob.tolist(), ell)
                assert words[0].tolist() == want, (n, name)

    @pytest.mark.parametrize("wrap", [False, True])
    def test_engine_matches_segment_sums(self, ell, wrap):
        """Bob's chain plus Alice's local group sums is the group total
        of :meth:`Engine._segment_last_sums`."""
        rng = np.random.default_rng(ell + wrap)
        eng = Engine(Context(Mode.REAL, SecurityParams(ell=ell), seed=5))
        mask = np.uint64((1 << ell) - 1)
        for n in self.NS:
            plain = self.values(rng, n, ell, wrap)
            for name, ind in boundary_cases(n, rng).items():
                v = eng.share(BOB, plain)
                got = eng.merge_aggregate_sum(ind, v).reconstruct()
                want = Engine._segment_last_sums(
                    np.asarray(ind, dtype=bool), np.asarray(plain, np.uint64)
                ) & mask
                assert got.tolist() == want.tolist(), (n, name)
                bob = reference.merge_sum_chain(ind, v.bob.tolist(), ell)
                alice = Engine._segment_last_sums(
                    np.asarray(ind, dtype=bool), v.alice
                )
                assert ((np.asarray(bob, np.uint64) + alice) & mask).tolist() == (
                    want.tolist()
                ), (n, name)


def weighted_xor():
    """``x ^ y`` weighted by Alice's column 0: one evaluator row."""
    b = CircuitBuilder()
    (x,) = b.alice_input_bits(1)
    (y,) = b.bob_input_bits(1)
    b.share_word([b.xor(x, y)], weight=0, evaluator=True)
    return b.build()


class TestEvaluatorRow:
    MASK = (1 << 32) - 1

    def run(self, monkeypatch, n, seed=0):
        """``n`` instances of :func:`weighted_xor` on random bits and
        weights: the reconstructed words, the inputs, and what
        ``_evaluator_rows`` saw and returned — the row wire's permute
        bits and colours, and both parties' shares."""
        rng = np.random.default_rng(seed)
        alice, bob = (rng.integers(0, 2, (n, 1), dtype=np.uint8)
                      for _ in range(2))
        weights = rng.integers(0, 2**32, (n, 1), dtype=np.uint64)
        seen = {}

        def spy(ctx, ot, zero, active, x):
            shares = _EVALUATOR_ROWS(ctx, ot, zero, active, x)
            seen.update(
                permute=(zero[0, :, 0] & 1).tolist(),
                colour=(active[0, :, 0] & 1).tolist(),
                alice=shares[0][0].tolist(),
                bob=shares[1][0].tolist(),
            )
            return shares

        monkeypatch.setattr(yao, "_evaluator_rows", spy)
        ctx = Context(Mode.REAL, seed=seed)
        words, _ = run_circuit(
            ctx, IdealOT(ctx), weighted_xor(), alice, bob,
            alice_weights=weights,
        )
        return words[:, 0], alice[:, 0] ^ bob[:, 0], weights[:, 0], seen

    def test_all_four_colour_pairs_match_the_reference(self, monkeypatch):
        words, value, weights, seen = self.run(monkeypatch, 64)
        pairs = set(zip(seen["colour"], seen["permute"]))
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert words.tolist() == ((value * weights) & self.MASK).tolist()
        for i, (c, pi) in enumerate(zip(seen["colour"], seen["permute"])):
            assert c ^ pi == value[i]
            x = int(weights[i])
            pad = (c * x - seen["alice"][i]) & self.MASK
            assert reference.evaluator_row(c, pi, x, pad, 32) == (
                seen["alice"][i], seen["bob"][i],
            )

    def test_every_correction_byte_matters_where_bob_chose_one(
        self, monkeypatch
    ):
        """Flip one bit of one correction byte: the word of that byte's
        instance goes wrong iff Bob chose by ``pi = 1`` (with ``pi = 0``
        he keeps Alice's pad and never opens the correction)."""
        n = 8
        words, _, _, seen = self.run(monkeypatch, n)
        permute = seen["permute"]
        assert set(permute) == {0, 1}
        finish = CorrelatedBatch.finish
        for pos in range(n * 4):

            def tampered(batch, m1=(), pos=pos):
                m1 = [m.copy() for m in m1]
                m1[0].reshape(-1)[pos] ^= np.uint8(1 << (pos % 8))
                return finish(batch, m1)

            monkeypatch.setattr(CorrelatedBatch, "finish", tampered)
            got, _, _, _ = self.run(monkeypatch, n)
            monkeypatch.setattr(CorrelatedBatch, "finish", finish)
            wrong = (got != words).tolist()
            instance = pos // 4
            assert wrong == [
                i == instance and permute[i] == 1 for i in range(n)
            ], pos


@pytest.mark.parametrize("ell", [32, 48])
def test_real_equals_simulated_per_changed_template(ell):
    """The zero test, the reveal circuit, the merge chain and the
    shared-payload PSI with Alice's payload as an evaluator row: same
    results and byte-identical transcripts in both modes, the REAL one
    over the SoftSpokenOT extension."""
    rng = np.random.default_rng(ell)
    plain = [int(v) for v in rng.integers(0, 3, 9)]
    payloads = [int(v) for v in rng.integers(0, 1 << ell, 6, dtype=np.uint64)]
    bits = rng.integers(0, 2, (9, 7), dtype=np.uint8)
    runs = []
    for mode in (Mode.REAL, Mode.SIMULATED):
        eng = Engine(Context(mode, SecurityParams(ell=ell), seed=8))
        v = eng.share(BOB, plain)
        flags, disclosed = eng.reveal_nonzero_flags(v, bits)
        psi = psi_with_payloads(
            eng.ctx, eng.ot, [("k", i) for i in range(8)],
            [("k", i) for i in range(4, 10)], payloads,
        )
        out = (
            eng.indicator_nonzero(v).reconstruct().tolist(),
            flags.tolist(),
            disclosed.tolist(),
            eng.merge_aggregate_sum([True, False] * 4, v).reconstruct().tolist(),
            psi.payload.reconstruct()[psi.bin_of_item_index()[4:]].tolist(),
        )
        runs.append((out, eng.ctx.transcript.fingerprint()))
    (out, prints), (sim_out, sim_prints) = runs
    assert out == sim_out and prints == sim_prints
    assert out[0] == [int(p != 0) for p in plain]
    assert out[4] == payloads[:4]
    labels = [label for _, _, label in prints if "gc/alice_weights/" in label]
    assert [label.rsplit("/", 1)[-1] for label in labels] == [
        "u", "ciphertexts",
    ]
