"""Oblivious (extended) permutation — both modes."""

import numpy as np
import pytest

from repro.mpc import Context, Mode, SecurityParams
from repro.mpc.oep import (
    _copy_pass,
    _ep_permutations,
    _replay_alice,
    _stage_bob,
    oblivious_extended_permutation,
    oblivious_permutation,
)
from repro.mpc.ot import make_ot
from repro.mpc.sharing import share_vector

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

    @pytest.mark.parametrize(
        "m,n_out,ell",
        [
            # the benchmark's odd shapes, scaled down: a fold, the full
            # join's many-to-few map, an expanding map at ell = 48, and
            # the one-output edges
            (1500, 1500, 32),
            (1501, 13, 32),
            (31, 1787, 48),
            (1, 1, 32),
            (4501, 1, 32),
        ],
    )
    def test_odd_shapes_match_simulated(self, m, n_out, ell):
        rng = np.random.default_rng(m + n_out)
        vals = rng.integers(0, 1 << ell, m, dtype=np.uint64)
        xi = rng.integers(0, m, n_out)

        def run(mode):
            ctx = Context(mode, SecurityParams(ell=ell), seed=6)
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", vals)
            out = oblivious_extended_permutation(ctx, ot, xi, sv, n_out)
            return out.reconstruct().tolist(), ctx.transcript.fingerprint()

        real, sim = run(Mode.REAL), run(Mode.SIMULATED)
        assert real == sim
        assert real[0] == vals[xi].tolist()

    def test_transcript_independent_of_xi(self):
        def run(mode, m, xi):
            ctx = Context(mode, seed=6)
            ot = make_ot(ctx)
            sv = share_vector(ctx, "alice", list(range(m)))
            oblivious_extended_permutation(ctx, ot, xi, sv, len(xi))
            return ctx.transcript.fingerprint()

        assert run(Mode.SIMULATED, 10, [0] * 12) == run(
            Mode.SIMULATED, 10, list(range(10)) + [9, 3]
        )
        # non-power-of-two networks on both sides, REAL and SIMULATED
        rng = np.random.default_rng(5)
        shapes = [(19, 13), (13, 21)]
        for m, n_out in shapes:
            maps = [[0] * n_out, rng.integers(0, m, n_out).tolist()]
            prints = {run(mode, m, xi) for mode in Mode for xi in maps}
            assert len(prints) == 1, (m, n_out)


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
            n_work = max(m, n_out)
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


class TestOneWordSwitch:
    """Bob's staging and Alice's replay of a switch layer against the
    scalar switch in ``tests/reference.py``: exhaustively at ell = 3
    (every bit, every pair of share pairs, every pad), at random at
    wider rings, whose pads carry bits above ell."""

    @staticmethod
    def run(ell, s, a, b, pad_bytes):
        """One layer of ``len(s)`` switches, switch ``j`` on wires
        ``(2j, 2j + 1)``: returns Bob's 1-messages and both parties'
        new shares."""
        ctx = Context(Mode.SIMULATED, SecurityParams(ell=ell), seed=1)
        n = len(s)
        a_idx, b_idx = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
        alice = np.empty(2 * n, dtype=np.uint64)
        bob = np.empty(2 * n, dtype=np.uint64)
        alice[a_idx], bob[a_idx] = a
        alice[b_idx], bob[b_idx] = b
        stages = [("switch", a_idx, b_idx, s.astype(np.uint8))]
        (m1,) = _stage_bob(ctx, stages, [pad_bytes], bob)
        received = np.where(s[:, None].astype(bool), m1, pad_bytes)
        _replay_alice(ctx, stages, [received], alice)
        return m1, (alice[a_idx], bob[a_idx]), (alice[b_idx], bob[b_idx])

    @staticmethod
    def check(ell, s, a, b, pad_bytes):
        mask = (1 << ell) - 1

        def word(row):
            return int.from_bytes(row.tobytes(), "little")

        m1, new_a, new_b = TestOneWordSwitch.run(ell, s, a, b, pad_bytes)
        for j in range(len(s)):
            want = reference.switch(
                (int(a[0][j]), int(a[1][j])),
                (int(b[0][j]), int(b[1][j])),
                int(s[j]),
                word(pad_bytes[j]) & mask,
                mask,
            )
            got = (
                word(m1[j]),
                (int(new_a[0][j]), int(new_a[1][j])),
                (int(new_b[0][j]), int(new_b[1][j])),
            )
            assert got == want, j
            # the switch's function: swap iff s, on the shared values
            x, y = (a[0][j] + a[1][j]) & mask, (b[0][j] + b[1][j]) & mask
            out = [sum(pair) & mask for pair in want[1:]]
            assert out == ([y, x] if s[j] else [x, y])

    def test_exhaustive_ell_3(self):
        grid = np.array(
            np.meshgrid(*[np.arange(8)] * 5, [0, 1], indexing="ij")
        ).reshape(6, -1)
        a_alice, a_bob, b_alice, b_bob, pad, s = grid
        self.check(
            3,
            s,
            (a_alice.astype(np.uint64), a_bob.astype(np.uint64)),
            (b_alice.astype(np.uint64), b_bob.astype(np.uint64)),
            pad.astype(np.uint8)[:, None],
        )

    @pytest.mark.parametrize("ell", [1, 32, 48, 63])
    def test_random_wide_rings(self, ell):
        rng = np.random.default_rng(ell)
        n, rb = 500, (ell + 7) // 8
        top = 1 << ell
        shares = [rng.integers(0, top, n, dtype=np.uint64) for _ in range(4)]
        pad_bytes = rng.integers(0, 256, (n, rb), dtype=np.uint8)
        s = rng.integers(0, 2, n)
        self.check(
            ell, s, (shares[0], shares[1]), (shares[2], shares[3]), pad_bytes
        )
