"""The batched KKRT OPRF whose outputs pad PSI's OKVS slots."""

import numpy as np
import pytest

from repro.mpc import Context, Mode
from repro.mpc.costs import SOFTSPOKEN_K
from repro.mpc.batch import tccr_hash, tweaks
from repro.mpc.oprf import BatchedOprf, _codes, charge_oprf_setup
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads

from .conftest import spy_scalar_muls


class TestCodes:
    """KKRT's pseudorandom codes: one fixed-key hash call, 448 bits."""

    FPS = np.concatenate([
        np.arange(100, dtype=np.uint64),
        # top-bit twins: doubling carries their difference into bit 64
        np.arange(100, dtype=np.uint64) | np.uint64(1 << 63),
    ])

    def test_codewords_are_far_apart(self):
        codes = _codes(self.FPS, batch=0)
        assert codes.shape == (200, 448) and codes.dtype == np.uint8
        dist = (codes[:, None, :] != codes[None, :, :]).sum(axis=-1)
        # Binomial(448, 1/2) per pair: mean 224, sd 10.6
        assert dist[~np.eye(len(self.FPS), dtype=bool)].min() > 150

    def test_block_by_block(self):
        fp = np.uint64(0xDEADBEEF12345678)
        block = np.array([fp, 0], dtype="<u8").view(np.uint8)
        want = b"".join(
            bytes(tccr_hash(block, tweaks(9, np.array(c), np.array(0))))
            for c in range(4)
        )
        bits = np.unpackbits(np.frombuffer(want, dtype=np.uint8))[:448]
        assert (_codes(np.array([fp]), batch=9)[0] == bits).all()

    def test_a_function_of_fp_and_batch(self):
        fps = np.array([5, 9, 5], dtype=np.uint64)
        a = _codes(fps, batch=3)
        assert (a[0] == a[2]).all() and (a[0] != a[1]).any()
        assert (a != _codes(fps, batch=4)).any()
        assert _codes(fps[:0], batch=3).shape == (0, 448)


@pytest.mark.real
class TestBatchedOprf:
    def test_real_alice_values_match_bob_evaluation(self):
        ctx = Context(Mode.REAL, seed=1)
        fps = [int(f) for f in np.random.default_rng(1).integers(
            0, 1 << 62, 12
        )]
        oprf = BatchedOprf(ctx, make_ot(ctx), fps)
        # Consistency: Bob evaluating on Alice's input recovers F_j(x_j).
        rows = np.arange(len(fps))
        assert (oprf.bob_eval(rows, np.array(fps)) == oprf.alice_values).all()
        # ... in any order, with repeats.
        rows = np.array([3, 0, 3, 11, 5, 0])
        assert (
            oprf.bob_eval(rows, np.array(fps)[rows]) == oprf.alice_values[rows]
        ).all()

    def test_real_outputs_differ_across_rows(self):
        ctx = Context(Mode.REAL, seed=2)
        oprf = BatchedOprf(ctx, make_ot(ctx), [7, 7, 7])
        # The same input in different rows gets independent PRF values,
        # 16 bytes each.
        assert oprf.alice_values.shape == (3, 2)
        assert len(np.unique(oprf.alice_values, axis=0)) == 3

    def test_real_other_inputs_look_unrelated(self):
        ctx = Context(Mode.REAL, seed=3)
        oprf = BatchedOprf(ctx, make_ot(ctx), [1, 2])
        (value,) = oprf.bob_eval(np.array([0]), np.array([99]))
        assert (value != oprf.alice_values[0]).all()

    def test_simulated_charges_real_shape(self):
        """SIMULATED mode charges, message for message, what the REAL
        set-up sends — on a fresh OT pair (both base phases nested in
        the OPRF's) and on a warm one — and never constructs the
        protocol object."""
        real = Context(Mode.REAL, seed=5)
        sim = Context(Mode.SIMULATED, seed=5)
        real_ot, sim_ot = make_ot(real), make_ot(sim)
        for m in (0, 40):
            BatchedOprf(real, real_ot, list(range(m)))
            charge_oprf_setup(sim, sim_ot, m)
            assert (
                sim.transcript.fingerprint()
                == real.transcript.fingerprint()
            )
        assert [n for _, n, _ in sim.transcript.fingerprint()[-2:]] == [
            128 // SOFTSPOKEN_K * 448 // 8, 448 * 40 // 8
        ]
        with pytest.raises(ValueError, match="charge_oprf_setup"):
            BatchedOprf(sim, sim_ot, [1, 2])

    def test_empty_input(self):
        ctx = Context(Mode.REAL, seed=6)
        oprf = BatchedOprf(ctx, make_ot(ctx), [])
        assert len(oprf.alice_values) == 0


@pytest.mark.real
def test_real_psi_draws_only_full_width_dh_exponents(monkeypatch):
    """Every secret scalar of a scalar multiplication a REAL PSI
    computes — the engine's base OTs are all of them — must be full
    width: a ``k``-bit scalar falls to Pollard's kangaroo in
    ``2^(k/2)``."""
    drawn = spy_scalar_muls(monkeypatch)
    ctx = Context(Mode.REAL, seed=11)
    psi_with_payloads(ctx, make_ot(ctx), [1, 2, 3], [2, 3, 4], [7, 8, 9])
    assert drawn
    assert all(k.bit_length() > 236 for k in drawn)
