"""Circuit-based PSI with payloads — both modes, plus obliviousness."""

import numpy as np
import pytest

from repro.mpc import Context, Mode
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads
from repro.mpc.sharing import SharedVector



def run_psi(mode, alice_items, bob_items, payloads, seed=7, **kwargs):
    ctx = Context(mode, seed=seed)
    ot = make_ot(ctx)
    res = psi_with_payloads(
        ctx, ot, alice_items, bob_items, payloads, **kwargs
    )
    return ctx, res


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestCorrectness:
    def test_intersection_and_payloads(self, mode):
        alice = [("k", i) for i in range(18)]
        bob = [("k", i) for i in range(9, 30)]
        payloads = [1000 + i for i in range(9, 30)]
        ctx, res = run_psi(mode, alice, bob, payloads)
        ind = res.ind.reconstruct()
        pay = res.payload.reconstruct()
        bins = res.bin_of_item_index()
        for j, item in enumerate(alice):
            b = bins[j]
            if item in set(bob):
                assert ind[b] == 1 and pay[b] == 1000 + item[1]
            else:
                assert ind[b] == 0 and pay[b] == 0

    def test_disjoint_sets(self, mode):
        ctx, res = run_psi(
            mode, [("a", i) for i in range(8)],
            [("b", i) for i in range(8)], list(range(8)),
        )
        assert not res.ind.reconstruct().any()

    def test_fallback_payloads(self, mode):
        alice = [("x", i) for i in range(6)]
        bob = [("x", 0)]
        fallbacks = list(range(100, 100 + res_bins(6)))
        ctx, res = run_psi(
            mode, alice, bob, [55],
            bob_fallbacks=fallbacks, reveal_payload=True,
        )
        pay = np.asarray(res.payload)
        bins = res.bin_of_item_index()
        assert pay[bins[0]] == 55
        for b in range(res.n_bins):
            if b != bins[0]:
                assert pay[b] == fallbacks[b]

    def test_mixed_item_types(self, mode):
        alice = [1, "1", (1,), ("a", 2)]
        bob = ["1", (1,)]
        ctx, res = run_psi(mode, alice, bob, [7, 8])
        ind = res.ind.reconstruct()
        bins = res.bin_of_item_index()
        assert ind[bins[0]] == 0  # int 1 != str "1"
        assert ind[bins[1]] == 1
        assert ind[bins[2]] == 1
        assert ind[bins[3]] == 0


def res_bins(m):
    from repro.mpc.cuckoo import num_bins

    return num_bins(m)


class TestValidation:
    def test_payload_count_mismatch(self):
        with pytest.raises(ValueError):
            run_psi(Mode.SIMULATED, [1], [2, 3], [5])

    def test_duplicate_bob_items(self):
        with pytest.raises(ValueError):
            run_psi(Mode.SIMULATED, [1], [2, 2], [5, 6])

    def test_wrong_fallback_length(self):
        with pytest.raises(ValueError):
            run_psi(
                Mode.SIMULATED, [1, 2], [3], [5], bob_fallbacks=[1, 2]
            )


class TestObliviousness:
    def test_transcript_independent_of_values(self):
        """Two runs with identical public shape (set sizes) but totally
        different private contents must produce identical traffic."""

        def fingerprint(alice, bob, payloads):
            ctx = Context(Mode.SIMULATED, seed=3)
            ot = make_ot(ctx)
            psi_with_payloads(ctx, ot, alice, bob, payloads)
            return ctx.transcript.fingerprint()

        f1 = fingerprint(
            [("k", i) for i in range(20)],
            [("k", i) for i in range(10, 40)],
            list(range(30)),
        )
        f2 = fingerprint(
            [("zz", i * 7) for i in range(20)],
            [("qq", i) for i in range(30)],
            [9] * 30,
        )
        assert f1 == f2

    def test_modes_charge_identically(self):
        alice = [("k", i) for i in range(15)]
        bob = [("k", i) for i in range(10, 30)]
        payloads = list(range(20))
        real = Context(Mode.REAL, seed=9)
        psi_with_payloads(
            real, make_ot(real), alice, bob, payloads
        )
        sim = Context(Mode.SIMULATED, seed=9)
        psi_with_payloads(
            sim, make_ot(sim), alice, bob, payloads
        )
        assert (
            real.transcript.total_bytes == sim.transcript.total_bytes
        )

    @pytest.mark.real
    def test_real_transcript_independent_of_bobs_entries(self):
        """The OKVS is sized by Bob's item count, never by his entry
        count: two REAL runs with the same set sizes but different
        intersections and a different number of Bob's items whose bin
        hashes collide send identical transcripts, each equal to
        SIMULATED's."""
        from repro.mpc.cuckoo import item_digests, simple_hash_bins

        alice = [("k", i) for i in range(4)]  # 6 bins: hashes collide
        bobs = [[("k", i) for i in range(2, 14)], [("c", i) for i in range(12)]]
        prints, entries = [], []
        for mode, bob in [(Mode.REAL, b) for b in bobs] + [
            (Mode.SIMULATED, bobs[0])
        ]:
            ctx, res = run_psi(mode, alice, bob, list(range(12)), seed=5)
            prints.append(ctx.transcript.fingerprint())
            members, _ = simple_hash_bins(
                item_digests(bob), res.table.seeds, res.n_bins
            )
            entries.append(len(members))
        assert entries[0] != entries[1]  # collisions differ
        assert prints[0] == prints[1] == prints[2]

    @pytest.mark.real
    @pytest.mark.parametrize("reveal_payload", [False, True])
    def test_real_transcript_independent_of_matches(self, reveal_payload):
        """The leaf OTs and the bin circuits send the same messages
        whichever of Alice's items match: REAL runs where all, half
        and none of them do send identical transcripts, each equal to
        SIMULATED's message for message."""
        alice = [("k", i) for i in range(12)]
        bobs = [
            [("k", i) for i in range(20)],  # every item of Alice's
            [("k", i) for i in range(6, 26)],  # half of them
            [("z", i) for i in range(20)],  # none
        ]
        kwargs = {"reveal_payload": reveal_payload}
        if reveal_payload:
            kwargs["bob_fallbacks"] = list(range(res_bins(12)))
        prints, matches = [], []
        for mode, bob in [(Mode.REAL, b) for b in bobs] + [
            (Mode.SIMULATED, bobs[0])
        ]:
            ctx, res = run_psi(mode, alice, bob, list(range(20)), **kwargs)
            prints.append(ctx.transcript.fingerprint())
            matches.append(int(res.ind.reconstruct().sum()))
        assert matches == [12, 6, 0, 12]
        assert prints[0] == prints[1] == prints[2] == prints[3]
        assert any("leaves/messages" in label for _, _, label in prints[0])

    def test_shares_are_fresh_random(self):
        ctx, res = run_psi(
            Mode.SIMULATED, [("k", 1)], [("k", 1)], [5], seed=1
        )
        ctx2, res2 = run_psi(
            Mode.SIMULATED, [("k", 1)], [("k", 1)], [5], seed=2
        )
        assert not (res.ind.alice == res2.ind.alice).all() or not (
            res.payload.alice == res2.payload.alice
        ).all()


@pytest.mark.real
@pytest.mark.parametrize("ell", [32, 60, 61, 62, 63, 64])
def test_real_payloads_match_plaintext_at_every_ring_width(ell):
    """An ``ell``-bit masked payload crosses the OPPRF in one OKVS slot
    beside the match token, so REAL recovers every payload up to
    ``ell`` 64.  The hint is one slot per 1.3 of Bob's at most three
    entries per item, plus the dense part, each slot at the token's and
    the ring's bits, in both modes alike and at every ``ell``."""
    from repro.mpc import SecurityParams, costs
    from repro.mpc.okvs import dense_width

    rng = np.random.default_rng(ell)
    payloads = [int(v) for v in rng.integers(0, 2**ell, 8, dtype=np.uint64)]
    alice = [("k", i) for i in range(10)]
    bob = [("k", i) for i in range(5, 13)]
    prints = []
    for mode in (Mode.REAL, Mode.SIMULATED):
        ctx = Context(mode, SecurityParams(ell=ell), seed=3)
        res = psi_with_payloads(ctx, make_ot(ctx), alice, bob, payloads)
        ind, pay = res.ind.reconstruct(), res.payload.reconstruct()
        bins = res.bin_of_item_index()
        for j in range(5, 10):
            assert ind[bins[j]] == 1 and int(pay[bins[j]]) == payloads[j - 5]
        prints.append(ctx.transcript.fingerprint())
    assert prints[0] == prints[1]
    (hints,) = [n for _, n, label in prints[0] if label.endswith("hints")]
    fp_bits = costs.psi_token_bits(costs.psi_bins(10), 40)
    assert hints == costs.opprf_hint_bytes(ctx.params, len(bob), fp_bits)
    # 24 entries: 3 thirds of ceil(1.3 * 24 / 3) = 11 slots, then the
    # dense part, one slot past sigma at this size (E = 1.5)
    assert dense_width(24, 40) == 41
    assert hints == -(-(3 * 11 + 41) * (fp_bits + ell) // 8)
