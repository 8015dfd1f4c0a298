"""Round complexity guarantees and failure-path injection.

The paper claims every operator runs in a constant number of rounds
(data-size-independent); this module pins that down per primitive, and
exercises the statistical-failure escape hatches.
"""

import numpy as np
import pytest

from repro.mpc import Context, Engine, Mode
from repro.mpc.oep import oblivious_extended_permutation
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads
from repro.mpc.sharing import share_vector


def rounds_of(fn, *sizes):
    out = []
    for n in sizes:
        ctx = Context(Mode.SIMULATED, seed=1)
        fn(ctx, n)
        out.append(ctx.transcript.rounds)
    return out


class TestConstantRounds:
    def test_psi_rounds_data_independent(self):
        def run(ctx, n):
            ot = make_ot(ctx)
            psi_with_payloads(
                ctx, ot,
                [("a", i) for i in range(n)],
                [("a", i) for i in range(n // 2, n + n // 2)],
                list(range(n)),
            )

        r = rounds_of(run, 8, 64, 256)
        assert len(set(r)) == 1, r

    def test_oep_rounds_data_independent(self):
        def run(ctx, n):
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", list(range(n)))
            oblivious_extended_permutation(
                ctx, ot, list(np.arange(n)[::-1]), sv, n
            )

        r = rounds_of(run, 8, 64, 512)
        assert len(set(r)) == 1, r

    def test_engine_mul_rounds_data_independent(self):
        def run(ctx, n):
            eng = Engine(ctx)
            x = eng.share("alice", list(range(n)))
            y = eng.share("bob", list(range(n)))
            eng.mul_shared(x, y)

        r = rounds_of(run, 4, 128)
        assert len(set(r)) == 1, r

    def test_merge_chain_rounds_data_independent(self):
        def run(ctx, n):
            eng = Engine(ctx)
            v = eng.share("alice", list(range(n)))
            eng.merge_aggregate_sum([False] * (n - 1), v)

        r = rounds_of(run, 4, 256)
        assert len(set(r)) == 1, r


class TestFailureInjection:
    @pytest.mark.real
    def test_okvs_encoding_failure_aborts(self, monkeypatch):
        """An OKVS whose rows are dependent (forced here: every key
        hashes to one row) aborts the PSI: one encoding, no retry with
        fresh seeds, and no hint sent."""
        from repro.mpc.okvs import Okvs

        rows, encode, calls = Okvs.rows, Okvs.encode, []

        def counted(self, keys, *rest):
            calls.append(len(keys))
            return encode(self, keys, *rest)

        monkeypatch.setattr(
            Okvs, "rows", lambda self, keys: rows(self, keys[[0] * len(keys)])
        )
        monkeypatch.setattr(Okvs, "encode", counted)
        ctx = Context(Mode.REAL, seed=2)
        ot = make_ot(ctx)
        with pytest.raises(RuntimeError, match="OKVS encoding failed"):
            psi_with_payloads(ctx, ot, [1, 2, 3], [1, 2], [5, 6])
        assert len(calls) == 1 and calls[0] > 1
        assert not any(
            label.endswith("opprf_hints")
            for _, _, label in ctx.transcript.fingerprint()
        )

    def test_cuckoo_exhaustion_surfaces(self):
        from repro.mpc.cuckoo import CuckooTable

        with pytest.raises(RuntimeError, match="cuckoo"):
            CuckooTable(list(range(20)), n_bins=5, max_rehashes=1)

    def test_engine_rejects_mismatched_lengths(self):
        eng = Engine(Context(Mode.SIMULATED, seed=3))
        x = eng.share("alice", [1, 2])
        y = eng.share("bob", [1, 2, 3])
        with pytest.raises(ValueError):
            eng.mul_shared(x, y)
        with pytest.raises(ValueError):
            eng.divide_reveal(x, y)

    def test_reveal_payload_width_validated(self):
        eng = Engine(Context(Mode.SIMULATED, seed=4))
        v = eng.share("bob", [1, 2])
        with pytest.raises(ValueError):  # not a matrix
            eng.reveal_nonzero_flags(v, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):  # one row short
            eng.reveal_nonzero_flags(v, np.zeros((1, 2), dtype=np.uint8))

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_seam_rejects_mis_sized_input_bits(self, side):
        """One word too many (or a bit too few) on either side used to
        be truncated by the marshalling and garble the wrong function;
        the seam checks both matrices against the circuit's widths."""
        from repro.mpc.costs import circuit_counts
        from repro.mpc.gadgets import nonzero_circuit
        from .conftest import IdealOT
        from repro.mpc.yao import garbled_call

        ctx = Context(Mode.REAL, seed=6)
        ell = ctx.params.ell
        circuit = nonzero_circuit(ell)

        def call(alice_width, bob_width):
            return garbled_call(
                ctx, IdealOT(ctx), circuit_counts(circuit), 3,
                real=lambda: (
                    circuit,
                    np.zeros((3, alice_width), dtype=np.uint8),
                    np.zeros((3, bob_width), dtype=np.uint8),
                ),
                ideal=lambda: (np.zeros(3, dtype=np.uint64), None),
            )

        assert len(call(ell, ell)[0]) == 3
        for wrong in (2 * ell, ell - 1):
            widths = (wrong, ell) if side == "alice" else (ell, wrong)
            with pytest.raises(ValueError, match=side.capitalize()):
                call(*widths)

    def test_product_across_empty(self):
        eng = Engine(Context(Mode.SIMULATED, seed=5))
        with pytest.raises(ValueError):
            eng.product_across([])
