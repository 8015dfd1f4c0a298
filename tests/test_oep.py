"""Oblivious (extended) permutation — both modes."""

import numpy as np
import pytest

from repro.mpc import Context, Mode
from repro.mpc.oep import (
    _copy_pass,
    _ep_permutations,
    oblivious_extended_permutation,
    oblivious_permutation,
)
from repro.mpc.ot import make_ot
from repro.mpc.sharing import share_vector
from repro.mpc.waksman import padded_size

from . import reference



def setup(mode, seed=4):
    ctx = Context(mode, seed=seed)
    return ctx, make_ot(ctx)


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestPermutation:
    def test_routes_values(self, mode):
        ctx, ot = setup(mode)
        rng = np.random.default_rng(1)
        n = 11
        vals = rng.integers(0, 10_000, n)
        sv = share_vector(ctx, "alice", vals)
        perm = list(rng.permutation(n))
        out = oblivious_permutation(ctx, ot, perm, sv)
        rec = out.reconstruct()
        for i, p in enumerate(perm):
            assert rec[p] == vals[i]

    def test_identity(self, mode):
        ctx, ot = setup(mode)
        sv = share_vector(ctx, "bob", [5, 6, 7])
        out = oblivious_permutation(ctx, ot, [0, 1, 2], sv)
        assert list(out.reconstruct()) == [5, 6, 7]

    def test_shares_refreshed(self, mode):
        ctx, ot = setup(mode)
        vals = np.arange(40, dtype=np.uint64)
        sv = share_vector(ctx, "alice", vals)
        out = oblivious_permutation(ctx, ot, list(range(40)), sv)
        # identity permutation, but the share vectors must change
        assert not (out.alice == sv.alice).all()

    def test_rejects_non_bijection(self, mode):
        ctx, ot = setup(mode)
        sv = share_vector(ctx, "alice", [1, 2])
        with pytest.raises(ValueError):
            oblivious_permutation(ctx, ot, [0, 0], sv)


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestExtendedPermutation:
    def test_repeats_and_drops(self, mode):
        ctx, ot = setup(mode)
        vals = np.asarray([10, 20, 30, 40], dtype=np.uint64)
        sv = share_vector(ctx, "bob", vals)
        xi = [3, 0, 0, 2, 0]
        out = oblivious_extended_permutation(ctx, ot, xi, sv, 5)
        assert list(out.reconstruct()) == [40, 10, 10, 30, 10]

    def test_expanding(self, mode):
        ctx, ot = setup(mode)
        sv = share_vector(ctx, "alice", [7])
        out = oblivious_extended_permutation(ctx, ot, [0] * 9, sv, 9)
        assert list(out.reconstruct()) == [7] * 9

    def test_shrinking(self, mode):
        ctx, ot = setup(mode)
        sv = share_vector(ctx, "alice", list(range(20)))
        out = oblivious_extended_permutation(ctx, ot, [19, 0], sv, 2)
        assert list(out.reconstruct()) == [19, 0]

    def test_random_agree_with_take(self, mode):
        ctx, ot = setup(mode)
        rng = np.random.default_rng(2)
        for _ in range(3):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            vals = rng.integers(0, 1000, m)
            sv = share_vector(ctx, "bob", vals)
            xi = [int(x) for x in rng.integers(0, m, n)]
            out = oblivious_extended_permutation(ctx, ot, xi, sv, n)
            assert (
                out.reconstruct() == vals[np.asarray(xi)].astype(np.uint64)
            ).all()

    def test_validates_xi(self, mode):
        ctx, ot = setup(mode)
        sv = share_vector(ctx, "alice", [1, 2])
        with pytest.raises(IndexError):
            oblivious_extended_permutation(ctx, ot, [2], sv, 1)
        with pytest.raises(ValueError):
            oblivious_extended_permutation(ctx, ot, [0, 1], sv, 1)


@pytest.mark.real
class TestCostParity:
    def test_modes_charge_identically(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 100, 13)
        xi = [int(x) for x in rng.integers(0, 13, 21)]

        def run(mode):
            ctx = Context(mode, seed=6)
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", vals)
            oblivious_extended_permutation(ctx, ot, xi, sv, 21)
            return ctx.transcript.total_bytes

        assert run(Mode.REAL) == run(Mode.SIMULATED)

    @pytest.mark.parametrize("ell", [20, 32])
    @pytest.mark.parametrize(
        "m,xi",
        [
            (8, [3, 3, 0, 7, 3, 1]),  # repeats and drops
            (1, [0]),  # one wire: no gates, no messages
            (1, [0, 0, 0]),
            (5, [4, 0, 2, 2, 1, 3, 4]),  # non-power-of-two, expanding
            (6, [5, 1]),  # shrinking
        ],
    )
    def test_real_values_and_fingerprints_match_simulated(self, m, xi, ell):
        from repro.mpc import SecurityParams

        vals = np.arange(10, 10 + m)

        def run(mode, permute):
            ctx = Context(mode, SecurityParams(ell=ell), seed=6)
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", vals)
            if permute:
                perm = list(np.random.default_rng(m).permutation(m))
                out = oblivious_permutation(ctx, ot, perm, sv)
            else:
                out = oblivious_extended_permutation(
                    ctx, ot, xi, sv, len(xi)
                )
            return list(out.reconstruct()), ctx.transcript.fingerprint()

        for permute in (False, True):
            real, sim = run(Mode.REAL, permute), run(Mode.SIMULATED, permute)
            assert real == sim
            if not permute:
                assert real[0] == [int(vals[i]) for i in xi]

    def test_transcript_independent_of_xi(self):
        def run(xi):
            ctx = Context(Mode.SIMULATED, seed=6)
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", list(range(10)))
            oblivious_extended_permutation(ctx, ot, xi, sv, 12)
            return ctx.transcript.fingerprint()

        assert run([0] * 12) == run(list(range(10)) + [9, 3])


class TestStaging:
    """The numpy staging of the REAL network against the element-by-
    element construction in ``tests/reference.py``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ep_permutations_equal_list_construction(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            m = int(rng.integers(1, 70))
            n_out = int(rng.integers(1, 70))
            xi = rng.integers(0, m, n_out)
            if seed == 0:
                xi = np.sort(xi)[::-1].copy()  # descending, many repeats
            n_work = padded_size(max(m, n_out))
            got = _ep_permutations(xi, n_work)
            want = reference.ep_permutations(xi.tolist(), n_work)
            assert [g.tolist() for g in got] == [list(w) for w in want]

    @pytest.mark.parametrize("ell", [1, 32, 63])
    def test_copy_pass_equals_loop(self, ell):
        rng = np.random.default_rng(ell)
        mask = (1 << ell) - 1
        for n in (1, 2, 3, 17, 256):
            alice = rng.integers(0, mask + 1, n, dtype=np.uint64)
            vals = rng.integers(0, mask + 1, n - 1, dtype=np.uint64)
            for density in (0.0, 0.5, 0.9, 1.0):
                bits = rng.random(n - 1) < density
                got = _copy_pass(alice, bits, vals, np.uint64(mask))
                want = reference.copy_pass(alice, bits, vals, mask)
                assert got.tolist() == want
