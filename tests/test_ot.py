"""Oblivious transfer: base OT, SoftSpokenOT extension, simulated OT."""

from contextlib import nullcontext

import numpy as np
import pytest

import repro.mpc.ot as ot_module
from repro.mpc import Context, Mode, costs
from repro.mpc.costs import (
    FERRET_BOOT,
    FERRET_MAIN,
    POOL_MIN,
    cot_bytes,
    pool_draw,
    tree_bytes,
    tree_correction_bytes,
)
from repro.mpc.costs import SOFTSPOKEN_K as K
from repro.mpc.ot import (
    SoftSpokenExtension,
    SimulatedOT,
    _chou_orlandi,
    make_ot,
)

from .conftest import SMALL_POOL_MIN, IdealOT, spy_scalar_muls


def assert_received_off_path(ot):
    """The punctured party's base-OT outputs are the owner's level sums
    its choice bits select: at every level, the side off its path."""
    _, sums = ot_module._ggm_tree(ot._level1, ot._tree_batch)
    choices = ot_module._tree_choices(ot._s).reshape(-1, K)
    assert (choices[:, 0] != (ot.punctured >> (K - 1)) & 1).all()
    want = np.take_along_axis(sums, choices[..., None, None], axis=2)
    assert (ot._received == want[:, :, 0]).all()


def pairs_and_choices(rng, n):
    pairs = [(rng.bytes(16), rng.bytes(16)) for _ in range(n)]
    choices = [int(c) for c in rng.integers(0, 2, n)]
    expected = [p[1] if c else p[0] for p, c in zip(pairs, choices)]
    return pairs, choices, expected


@pytest.mark.real
class TestChouOrlandi:
    def test_transfers_chosen_messages(self):
        ctx = Context(Mode.REAL, seed=1)
        rng = np.random.default_rng(1)
        pairs, choices, expected = pairs_and_choices(rng, 6)
        assert _chou_orlandi(ctx, pairs, choices) == (
            expected, (33, 6 * 33, 6 * 32)
        )

    def test_length_mismatch_rejected(self):
        ctx = Context(Mode.REAL, seed=1)
        with pytest.raises(ValueError):
            _chou_orlandi(ctx, [(b"a" * 16, b"b" * 16)], [0, 1])

    def test_unequal_pair_lengths_rejected(self):
        ctx = Context(Mode.REAL, seed=1)
        with pytest.raises(ValueError):
            _chou_orlandi(ctx, [(b"a", b"bb")], [0])

    def test_four_scalar_multiplications_per_transfer(self, monkeypatch):
        # Receiver bG and bA, sender aB and a(B - A): 4 per OT plus the
        # sender's A.
        calls = spy_scalar_muls(monkeypatch)
        ctx = Context(Mode.REAL, seed=2)
        rng = np.random.default_rng(2)
        pairs, choices, expected = pairs_and_choices(rng, 8)
        assert _chou_orlandi(ctx, pairs, choices)[0] == expected
        assert len(calls) == 4 * 8 + 1

    def test_extension_base_phase_is_the_same_protocol(self):
        # The forward instance's base phase is that arithmetic over
        # kappa GGM level-sum pairs, metered as A, one B per level of
        # each tree, ciphertexts: the punctured party receives every
        # level's sum off its path.
        ext = Context(Mode.REAL, seed=3)
        ot = SoftSpokenExtension(ext)
        ot._base_phase()
        assert ext.transcript.fingerprint() == (
            ("alice", 33, "ot/ext/base/A"),
            ("bob", 33 * 128, "ot/ext/base/B"),
            ("alice", 2 * 16 * 128, "ot/ext/base/ciphertexts"),
        )
        assert_received_off_path(ot)


@pytest.mark.real
class TestIknpExtension:
    """Chosen-message transfers over the extension; the class keeps the
    name of the IKNP extension that :class:`SoftSpokenExtension`
    replaced, so its test ids stay stable."""

    def test_large_batch(self):
        ctx = Context(Mode.REAL, seed=2)
        ext = SoftSpokenExtension(ctx)
        rng = np.random.default_rng(2)
        pairs, choices, expected = pairs_and_choices(rng, 300)
        assert ext.transfer(pairs, choices) == expected

    def test_multiple_batches_reuse_base(self):
        ctx = Context(Mode.REAL, seed=3)
        ext = SoftSpokenExtension(ctx)
        rng = np.random.default_rng(3)
        p1, c1, e1 = pairs_and_choices(rng, 10)
        assert ext.transfer(p1, c1) == e1
        base_bytes = ctx.transcript.total_bytes
        p2, c2, e2 = pairs_and_choices(rng, 10)
        assert ext.transfer(p2, c2) == e2
        # Second batch must not re-run the (expensive) base phase.
        second = ctx.transcript.total_bytes - base_bytes
        assert second < base_bytes / 4

    def test_variable_message_lengths(self):
        ctx = Context(Mode.REAL, seed=4)
        ext = SoftSpokenExtension(ctx)
        pairs = [(b"xx", b"yy"), (b"a" * 40, b"b" * 40)]
        assert ext.transfer(pairs, [1, 0]) == [b"yy", b"a" * 40]

    def test_empty_batch(self):
        ctx = Context(Mode.REAL, seed=5)
        assert SoftSpokenExtension(ctx).transfer([], []) == []


class TestSimulatedOT:
    def test_delivers_and_charges(self):
        ctx = Context(Mode.SIMULATED, seed=6)
        ot = SimulatedOT(ctx)
        rng = np.random.default_rng(6)
        pairs, choices, expected = pairs_and_choices(rng, 64)
        assert ot.transfer(pairs, choices) == expected
        assert ctx.transcript.total_bytes > 0

    def test_charge_matches_real_extension_shape(self):
        """For the same batch, the simulated charge equals the real
        extension's bytes."""
        rng = np.random.default_rng(7)
        pairs, choices, _ = pairs_and_choices(rng, 128)

        real = Context(Mode.REAL, seed=8)
        SoftSpokenExtension(real).transfer(pairs, choices)
        sim = Context(Mode.SIMULATED, seed=8)
        SimulatedOT(sim).transfer(pairs, choices)
        assert real.transcript.total_bytes == sim.transcript.total_bytes

    def test_make_ot_dispatch(self):
        assert isinstance(make_ot(Context(Mode.SIMULATED)), SimulatedOT)
        assert isinstance(make_ot(Context(Mode.REAL)), SoftSpokenExtension)


# ----------------------------------------------------------------------
# Correlated OT: the one entry point under GC labels, Gilboa and OEP
# ----------------------------------------------------------------------


def _cot(ot, choices, m1, widths):
    cot = ot.correlated(choices, widths)
    return cot.p0, cot.finish(m1)


def _random_batch(rng, widths):
    """Choice bits and 1-messages of ``widths``, each message's bits
    past its segment's width zero."""
    m = sum(k for k, _ in widths)
    choices = rng.integers(0, 2, m).astype(np.uint8)
    m1 = []
    for k, bits in widths:
        w = -(-bits // 8)
        msg = np.frombuffer(rng.bytes(k * w), dtype=np.uint8).reshape(k, w)
        msg = msg.copy()
        msg[:, -1] &= 0xFF >> (-bits % 8)
        m1.append(msg)
    return choices, m1


@pytest.mark.real
class TestCorrelatedOT:
    #: every byte width a consumer uses (seeds 16, ring words 1-8,
    #: leaf pads 2-4), in bits, in one mixed-width batch
    WIDTHS = [(5, 8 * w) for w in range(1, 17)]

    def test_xor_correlation_every_width(self):
        """Receiver gets p0 on 0 and the sender's m1 on 1 (labels:
        m1 = p0 ^ delta)."""
        rng = np.random.default_rng(11)
        ctx = Context(Mode.REAL, seed=11)
        ot = SoftSpokenExtension(ctx)
        choices = rng.integers(0, 2, 80).astype(np.uint8)
        cot = ot.correlated(choices, self.WIDTHS)
        delta = [
            np.frombuffer(rng.bytes(w // 8), dtype=np.uint8)
            for _, w in self.WIDTHS
        ]
        got = cot.finish([p ^ d for p, d in zip(cot.p0, delta)])
        off = 0
        for p0, d, g in zip(cot.p0, delta, got):
            c = choices[off : off + 5, None]
            off += 5
            assert (g == p0 ^ (c * d)).all()

    @pytest.mark.parametrize("ell", [8, 20, 32, 48, 64])
    def test_additive_correlation_both_directions(self, ell):
        """Ring words: m1 = p0 + x mod 2^ell, so the receiver holds
        p0 + c*x — through ``Engine.ot``: the forward instance, and
        under swapped roles its mirror."""
        from repro.mpc import ALICE, BOB, Engine, SecurityParams
        from repro.mpc.batch import le_bytes_to_words, words_to_le_bytes

        rng = np.random.default_rng(ell)
        ctx = Context(Mode.REAL, SecurityParams(ell=ell), seed=ell)
        eng = Engine(ctx)
        rb, mask, n = (ell + 7) // 8, ctx.mask, 40
        x = rng.integers(0, 2**63, n).astype(np.uint64) & mask
        choices = rng.integers(0, 2, n).astype(np.uint8)

        def run(ot):
            cot = ot.correlated(choices, [(n, 8 * rb)])
            p0 = le_bytes_to_words(cot.p0[0]) & mask
            got = cot.finish([words_to_le_bytes((p0 + x) & mask, rb)])
            assert (
                le_bytes_to_words(got[0]) & mask
                == (p0 + choices.astype(np.uint64) * x) & mask
            ).all()

        run(eng.ot)
        forward = ctx.transcript.fingerprint()
        with ctx.swapped_roles():
            assert eng.ot is eng.ot.reverse.reverse is not eng._ot
            run(eng.ot)
        reverse = ctx.transcript.fingerprint()[len(forward):]
        # The extension messages are the mirror image of forward's; the
        # set-up is not: three Chou-Orlandi messages there, here the one
        # ``u`` of kappa forward OTs with the mirror's sender choosing,
        # and the tree corrections in the mirror's first ``u``.
        assert reverse[0] == (ALICE, 128 // K * 16, "ot/ext/base/ot/ext/u")
        flip = {ALICE: BOB, BOB: ALICE}
        (sender, u, label), *rest = forward[3:]
        assert reverse[1:] == (
            (flip[sender], u + tree_correction_bytes(128), label),
            *((flip[s], b, l) for s, b, l in rest),
        )

    def test_fingerprint_independent_of_choices_and_messages(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            ctx = Context(Mode.REAL, seed=3)
            _cot(
                SoftSpokenExtension(ctx),
                *_random_batch(rng, self.WIDTHS),
                self.WIDTHS,
            )
            return ctx.transcript.fingerprint()

        assert run(1) == run(2)

    def test_one_ciphertext_per_ot_and_simulated_parity(self):
        rng = np.random.default_rng(5)
        choices, m1 = _random_batch(rng, self.WIDTHS)
        real = Context(Mode.REAL, seed=5)
        _cot(SoftSpokenExtension(real), choices, m1, self.WIDTHS)
        ideal = Context(Mode.SIMULATED, seed=5)
        p0, got = _cot(IdealOT(ideal), choices, m1, self.WIDTHS)
        charged = Context(Mode.SIMULATED, seed=5)
        SimulatedOT(charged).correlated(None, self.WIDTHS).finish()
        fp = real.transcript.fingerprint()
        assert fp == ideal.transcript.fingerprint()
        assert fp == charged.transcript.fingerprint()
        assert fp[-2:] == (
            ("alice", 128 // K * 10, "ot/ext/u"),
            ("bob", 5 * sum(range(1, 17)), "ot/ext/ciphertexts"),
        )
        # The ideal OT the REAL garbling tests run on is functional too.
        off = 0
        for p, m, g in zip(p0, m1, got):
            c = choices[off : off + 5, None].astype(bool)
            off += 5
            assert (g == np.where(c, m, p)).all()

    @pytest.mark.parametrize("cls", [SoftSpokenExtension, IdealOT])
    def test_bit_width_segments_round_trip(self, cls):
        """Segments of 1..64 bits: pads and outputs carry no bit past a
        segment's width, the receiver gets ``p0`` or ``m1`` with the
        extra bits of a 1-message dropped, and the corrections cross
        packed, at ``cot_bytes``'s size — odd counts included, so that
        segments start mid-byte."""
        widths = [(3 + bits % 4, bits) for bits in range(1, 65)]
        rng = np.random.default_rng(21)
        ctx = Context(Mode.REAL, seed=21)
        choices, m1 = _random_batch(rng, widths)
        noisy = [m.copy() for m in m1]
        for m, (_, bits) in zip(noisy, widths):
            m[:, -1] |= ~np.uint8(0xFF >> (-bits % 8))  # bits to drop
        cot = cls(ctx).correlated(choices, widths)
        got = cot.finish(noisy)
        off = 0
        for p0, pc, m, g, (k, bits) in zip(
            cot.p0, cot.pc, m1, got, widths
        ):
            top = np.uint8(0xFF >> (-bits % 8))
            for x in (p0, pc, g):
                assert x.shape == (k, -(-bits // 8))
                assert not (x[:, -1] & ~top).any()
            c = choices[off : off + k, None].astype(bool)
            off += k
            assert (g == np.where(c, m, p0)).all()
        assert ctx.transcript.messages[-1].label == "ot/ext/ciphertexts"
        n_bytes = cot_bytes(128, widths)[1]
        assert ctx.transcript.messages[-1].n_bytes == n_bytes
        assert n_bytes == -(-sum(k * bits for k, bits in widths) // 8)

    @pytest.mark.parametrize("cls", [SoftSpokenExtension, IdealOT])
    def test_zero_length_batch_sends_nothing(self, cls):
        ctx = Context(Mode.REAL, seed=1)
        cot = cls(ctx).correlated(
            np.zeros(0, dtype=np.uint8), [(0, 128)]
        )
        assert cot.p0[0].shape == (0, 16)
        got = cot.finish([np.zeros((0, 16), dtype=np.uint8)])
        assert got[0].shape == (0, 16)
        assert ctx.transcript.messages == []

    @pytest.mark.parametrize("cls", [SoftSpokenExtension, IdealOT])
    def test_finish_needs_one_matrix_per_segment(self, cls):
        """A batch with pads refuses a finish that would drop a
        segment, before anything is sent; a charge-only batch still
        finishes with no 1-messages."""
        ctx = Context(Mode.REAL, seed=2)
        ot = cls(ctx)
        widths = [(1, 32), (2, 32)]
        cot = ot.correlated(np.asarray([0, 1, 1], dtype=np.uint8), widths)
        sent = len(ctx.transcript.messages)
        for m1 in ([np.zeros((1, 4), dtype=np.uint8)], []):
            with pytest.raises(ValueError):
                cot.finish(m1)
        assert len(ctx.transcript.messages) == sent
        got = cot.finish([np.zeros((k, 4), dtype=np.uint8) for k, _ in widths])
        assert [g.shape for g in got] == [(1, 4), (2, 4)]
        SimulatedOT(ctx).correlated(None, widths).finish()

    def test_rejects_bad_shapes(self):
        ctx = Context(Mode.REAL, seed=1)
        ot = SoftSpokenExtension(ctx)
        with pytest.raises(ValueError):
            ot.correlated(np.zeros(3, dtype=np.uint8), [(4, 128)])
        with pytest.raises(ValueError):
            ot.correlated(np.zeros(1, dtype=np.uint8), [(1, 257)])
        with pytest.raises(ValueError):
            ot.correlated(np.zeros(1, dtype=np.uint8), [(1, 0)])
        cot = ot.correlated(np.zeros(2, dtype=np.uint8), [(2, 32)])
        with pytest.raises(ValueError):
            cot.finish([np.zeros((2, 5), dtype=np.uint8)])


@pytest.mark.real
class TestLabelOTs:
    """The evaluator's input labels are IKNP's raw rows: Δ-correlated
    under the sender's ``s``, select bit 1, one ``delta`` per instance,
    and only ``u`` on the wire."""

    def test_rows_are_delta_correlated(self):
        from repro.mpc import ALICE

        ctx = Context(Mode.REAL, seed=4)
        ot = SoftSpokenExtension(ctx)
        rng = np.random.default_rng(4)
        deltas = set()
        for n in (1, 37, 200):
            r = rng.integers(0, 2, n).astype(np.uint8)
            mark = len(ctx.transcript.messages)
            batch = ot.labels(n, r)
            assert batch.zero.shape == batch.active.shape == (n, 16)
            assert ((batch.zero ^ batch.active) == r[:, None] * batch.delta).all()
            assert batch.delta[0] & 1 == 1
            deltas.add(batch.delta.tobytes())
            sent = ctx.transcript.fingerprint()[mark:]
            assert sent[-1] == (
                ALICE, 128 // K * ((n + 7) // 8), "ot/ext/u"
            )
            assert all("ciphertexts" not in label for *_, label in sent[-1:])
        assert deltas == {np.packbits(ot._s).tobytes()}
        # the mirror's sender holds its own s
        with ctx.swapped_roles():
            mirror = ot.reverse.labels(3, np.asarray([1, 0, 1]))
        assert mirror.delta.tobytes() not in deltas
        assert mirror.delta[0] & 1 == 1

    def test_simulated_back_end_only_charges(self):
        """``SimulatedOT`` deals nothing and draws no randomness, with
        choice bits or without: its batches charge and carry no pads."""
        ctx = Context(Mode.SIMULATED, seed=6)
        state = ctx.rng.bit_generator.state
        ot = SimulatedOT(ctx)
        r = np.asarray([0, 1, 1, 0], dtype=np.uint8)
        assert ot.labels(4, r) is None
        cot = ot.reverse.correlated(r, [(4, 64)])
        assert (cot.p0, cot.p1, cot.pc) == ([], [], [])
        assert cot.finish() == []
        assert ctx.rng.bit_generator.state == state
        assert [m.label for m in ctx.transcript.messages] == [
            "ot/ext/base/A", "ot/ext/base/B", "ot/ext/base/ciphertexts",
            "ot/ext/u",  # the label batch
            "ot/ext/base/ot/ext/u",  # the mirror's seed OTs
            "ot/ext/u", "ot/ext/ciphertexts",  # the mirror's batch
        ]

    @pytest.mark.parametrize("flip", [False, True])
    def test_garbling_runs_under_each_instances_s(self, monkeypatch, flip):
        """REAL Q3 (0.03 MB): every garbled batch's ``delta`` is the
        ``s`` of a physical instance of the run, and no label correction
        is sent in either mode."""
        from repro.mpc import Engine, yao
        from repro.tpch import PREPARED, generate

        seen = []
        real_garble = yao.garble_batch

        def spy(plan, delta, *args):
            seen.append(delta.tobytes())
            return real_garble(plan, delta, *args)

        monkeypatch.setattr(yao, "garble_batch", spy)
        query = PREPARED["Q3"](generate(0.03), flip_owners=flip)
        prints = []
        for mode in (Mode.REAL, Mode.SIMULATED):
            engine = Engine(query.make_context(mode, seed=3))
            engine.backend = "yannakakis"
            result, _ = query.run_secure(engine)
            assert result.semantically_equal(query.run_plain()[0])
            transcript = engine.ctx.transcript
            prints.append(transcript.fingerprint())
            assert not [
                m for m in transcript.messages
                if "gc/alice_labels/ot/ext/ciphertexts" in m.label
            ]
            if mode == Mode.REAL:
                forward = engine.ot
                instances = {
                    np.packbits(i._s).tobytes()
                    for i in (forward, forward.reverse)
                }
        assert prints[0] == prints[1]
        assert seen and set(seen) <= instances


@pytest.mark.real
class TestSoftSpokenVole:
    """The small-field VOLE under every extension row: per tree, the
    punctured party's leaves, and the row correlation they yield on the
    forward instance and on its mirror."""

    @staticmethod
    def instance(ctx, which):
        """The instance, and the forward one that keeps a mirror alive."""
        forward = SoftSpokenExtension(ctx)
        return (forward if which == "forward" else forward.reverse), forward

    @pytest.mark.parametrize("which", ["forward", "mirror"])
    def test_rows_differ_by_r_times_delta(self, which):
        ctx = Context(Mode.REAL, seed=12)
        ot, _forward = self.instance(ctx, which)
        rng = np.random.default_rng(12)
        deltas = set()
        with ctx.swapped_roles() if which == "mirror" else nullcontext():
            for n in (1, 7, 8, 9, 300):
                r = rng.integers(0, 2, n).astype(np.uint8)
                q, t, c = ot._column_phase(n, r)
                assert q.shape == t.shape == (n, 16)
                assert c.shape == (128 // K, (n + 7) // 8)
                assert ((q ^ t) == r[:, None] * ot.delta).all()
                deltas.add(ot.delta.tobytes())
        (delta,) = deltas
        assert delta[0] & 1 == 1
        # s is the trees' punctured indices, k bits each, low bit first
        bits = np.unpackbits(np.frombuffer(delta, np.uint8)).reshape(-1, K)
        assert (bits @ (1 << np.arange(K)) == ot.punctured).all()

    @pytest.mark.parametrize("which", ["forward", "mirror"])
    def test_punctured_party_holds_all_leaves_but_delta(self, which):
        ctx = Context(Mode.REAL, seed=13)
        ot, _forward = self.instance(ctx, which)
        ot._base_phase()
        if which == "mirror":
            # Bob's trees wait for the corrections in the first ``u``.
            assert not hasattr(ot, "_leaves_bob")
            with ctx.swapped_roles():
                ot.labels(1, np.ones(1, dtype=np.uint8))
        assert_received_off_path(ot)
        owner, punctured = ot._leaves_alice, ot._leaves_bob
        assert owner.shape == punctured.shape == (128 // K, 1 << K, 16)
        held = punctured.any(axis=2)
        assert (held.sum(axis=1) == (1 << K) - 1).all()
        trees = np.arange(len(owner))
        assert not held[trees, ot.punctured].any()
        assert owner[trees, ot.punctured].any(axis=1).all()
        lacking = np.arange(1 << K) == ot.punctured[:, None]
        assert (owner[~lacking] == punctured[~lacking]).all()
        # every leaf of a tree is distinct
        assert len({leaf.tobytes() for leaf in owner.reshape(-1, 16)}) == (
            128 // K << K
        )


def unpacked_rows(cols, m):
    """The rows of ``kappa`` packed columns by unpacking every bit to a
    byte, transposing and packing again: the form the blocked bit
    transpose replaced, kept as its reference."""
    flat = np.ascontiguousarray(cols).reshape(-1, cols.shape[-1])
    bits = np.unpackbits(flat.view(np.uint8), axis=1)[:, :m]
    return np.packbits(np.ascontiguousarray(bits.T), axis=1)


class TestRowTranspose:
    @pytest.mark.parametrize("m", [1, 7, 8, 63, 64, 65, 2**14 + 3])
    def test_blocked_transpose_is_byte_identical(self, m):
        rng = np.random.default_rng(m)
        # the column phase's (kappa / k, k, words) bit sums, in whole
        # 128-bit blocks, and the bare minimum of words
        for words in (2 * -(-m // 128), -(-m // 64)):
            cols = rng.integers(
                0, 2**64, size=(128 // K, K, words), dtype=np.uint64
            )
            rows = ot_module._rows(cols, m)
            assert rows.shape == (m, 16)
            assert rows.tobytes() == unpacked_rows(cols, m).tobytes()


# ----------------------------------------------------------------------
# The silent-OT pool: Ferret iterations under every batch past POOL_MIN
# ----------------------------------------------------------------------

#: On :func:`~tests.conftest.small_pool` (400 usable rows an iteration,
#: opening at 64): a SoftSpokenOT batch, the opening, a draw that
#: drains the pool exactly, one that refills and drains it again, one
#: that refills for 5 rows, and one that spans two refills; with the
#: rows left after each.
POOL_SIZES = (10, 70, 330, 400, 5, 900)
POOL_LEFT = (None, 330, 0, 0, 395, 295)


def pool_batches(ctx, ot, sizes, seed, mirror=False):
    """Label and C-OT batches of ``sizes`` on ``ot``, alternating, each
    pool message sent where a protocol sends it: per batch the choices,
    the sender's and receiver's rows, and the rows left in the pool."""
    rng = np.random.default_rng(seed)
    out = []
    with ctx.swapped_roles() if mirror else nullcontext():
        for i, n in enumerate(sizes):
            r = rng.integers(0, 2, n).astype(np.uint8)
            if i % 2:
                batch = ot.labels(n, r)
                ot.send_pool()
                rows = None if batch is None else (batch.zero, batch.active)
            else:
                m1 = rng.integers(0, 256, (n, 8), dtype=np.uint8)
                cot = ot.correlated(r, [(n, 64)])
                got = cot.finish([m1] if cot.p1 else [])  # charge-only: none
                rows = None if not got else (cot.p0[0], m1, got[0])
            out.append((r, rows, ot._pool_left))
    return out


@pytest.mark.real
class TestSilentPool:
    @pytest.mark.parametrize(
        "mirror", [False, True], ids=["forward", "mirror"]
    )
    def test_rows_open_drain_and_refill_correlated(self, small_pool, mirror):
        ctx = Context(Mode.REAL, seed=31)
        forward = make_ot(ctx)
        ot = forward.reverse if mirror else forward
        batches = pool_batches(ctx, ot, POOL_SIZES, 31, mirror)
        assert tuple(left for *_, left in batches) == POOL_LEFT
        delta = ot.delta
        for i, (r, rows, _) in enumerate(batches):
            c = r.astype(bool)[:, None]
            if i % 2:  # Q_j ^ T_j = r_j delta, rows distinct
                zero, active = rows
                assert ((zero ^ active) == r[:, None] * delta).all()
                assert len({row.tobytes() for row in zero}) == len(r)
            else:  # the receiver opens m1 where she chose 1, else p0
                p0, m1, got = rows
                assert (got == np.where(c, m1, p0)).all()
        labels = [m.label for m in ctx.transcript.messages]
        assert labels.count("ot/ext/pool") == 3  # the three label draws

    def test_derandomisation_bits_hide_the_choices(self, small_pool):
        """The sender's view of a pool batch is ``d = u ^ b``: with every
        choice 0 it is the pool's own bits ``A b ^ e``, which must look
        uniform, and with every choice 1 their complement."""
        ctx = Context(Mode.REAL, seed=40)
        ot = make_ot(ctx)
        n = 4000  # opens the pool and spans ten refills
        for u in (0, 1):
            _, _, d = ot._column_phase(n, np.full(n, u, dtype=np.uint8))
            ones = np.unpackbits(d)[:n].mean()
            assert 0.45 < ones < 0.55, (u, ones)

    def test_below_pool_min_is_softspoken(self, small_pool):
        """A batch below POOL_MIN on a closed pool sends SoftSpokenOT's
        ``u``, ``kappa / k`` bits per OT, and leaves the pool closed."""
        ctx = Context(Mode.REAL, seed=32)
        ot = make_ot(ctx)
        n = SMALL_POOL_MIN - 1
        ot.labels(n, np.ones(n, dtype=np.uint8))
        assert ot._pool_left is None and ot._iteration is None
        assert ctx.transcript.fingerprint()[-1] == (
            "alice", 128 // K * -(-n // 8), "ot/ext/u"
        )

    def test_twin_instances_send_alike(self, small_pool):
        """Different secrets and choices, same batch sizes: the same
        transcript, pool messages included, both directions."""
        prints = []
        for seed in (35, 36):
            ctx = Context(Mode.REAL, seed=seed)
            ot = make_ot(ctx)
            pool_batches(ctx, ot, POOL_SIZES, seed)
            pool_batches(ctx, ot.reverse, POOL_SIZES, seed + 1, mirror=True)
            prints.append(ctx.transcript.fingerprint())
        assert prints[0] == prints[1]
        pool = [m for m in prints[0] if m[2] == "ot/ext/pool"]
        assert {sender for sender, _, _ in pool} == {"alice", "bob"}

    def test_simulated_charges_what_real_sends(self, small_pool):
        prints = []
        for mode in (Mode.REAL, Mode.SIMULATED):
            ctx = Context(mode, seed=37)
            ot = make_ot(ctx)
            pool_batches(ctx, ot, POOL_SIZES, 37)
            pool_batches(ctx, ot.reverse, POOL_SIZES[::-1], 38, mirror=True)
            # a chosen-message transfer drawn across a refill
            pairs, choices, expected = pairs_and_choices(
                np.random.default_rng(39), 500
            )
            assert ot.transfer(pairs, choices) == expected
            prints.append(ctx.transcript.fingerprint())
        assert prints[0] == prints[1]

    def test_a_retried_node_draws_fresh_rows(self, small_pool, monkeypatch):
        """A node retried after its pool ``u`` crossed opens fresh pools
        under its re-keyed randomness: no pool row is materialised
        twice live (the replayed prefix recomputes the failed
        attempt's rows, messages and all, exactly), so the sender never
        holds two derandomisations of one row's bit, and the retried
        run's accounting and fingerprint equal the unfaulted run's."""
        from repro.runtime import (
            FaultPlan, FaultSpec, Session, make_tpch_runner,
        )

        rows, draws, sessions = [], [], []
        iteration_rows = ot_module._Iteration.rows
        draw = SoftSpokenExtension._draw
        bind = Session.bind

        def spy_bind(self, ctx):
            sessions.append(self)
            bind(self, ctx)

        def spy_rows(self, lo, hi):
            if not sessions[-1].replaying:
                rows.extend((self._batch, i) for i in range(lo, hi))
            return iteration_rows(self, lo, hi)

        def spy_draw(self, pool, r):
            draws.append(len(self.ctx.transcript.messages))
            return draw(self, pool, r)

        monkeypatch.setattr(ot_module._Iteration, "rows", spy_rows)
        monkeypatch.setattr(SoftSpokenExtension, "_draw", spy_draw)
        monkeypatch.setattr(Session, "bind", spy_bind)
        run = make_tpch_runner("Q3", scale_mb=0.03, real=True)
        baseline = run(FaultPlan())
        # corrupt the message right after the last pool draw's ``u``:
        # the node's earlier draws have crossed by then
        rows.clear()
        retried = run(
            FaultPlan([FaultSpec("corrupt", message_index=draws[-1] + 1)])
        )
        assert retried.n_retries == 1
        assert retried.diff(baseline) == ""
        assert len(rows) == len(set(rows))


class TestPoolPrice:
    """:func:`~repro.mpc.costs.pool_draw` on the shipped parameters."""

    def test_ferret_b13(self):
        assert (FERRET_BOOT.reserve, FERRET_MAIN.reserve) == (41_030, 468_640)
        assert FERRET_BOOT.n >= FERRET_MAIN.reserve
        for lpn in (FERRET_BOOT, FERRET_MAIN):
            assert lpn.n == lpn.t << lpn.depth
        assert (tree_bytes(FERRET_BOOT), tree_bytes(FERRET_MAIN)) == (304, 432)

    def test_opening_price(self):
        m = POOL_MIN
        draw = pool_draw(128, None, m)
        boot_trees = -(-FERRET_MAIN.reserve // (1 << FERRET_BOOT.depth))
        first_trees = -(-(FERRET_MAIN.reserve + m) >> FERRET_MAIN.depth) - (
            FERRET_MAIN.reserve >> FERRET_MAIN.depth
        )
        assert draw == (
            FERRET_MAIN.n - FERRET_MAIN.reserve - m,
            m // 8 + cot_bytes(128, [(FERRET_BOOT.reserve, 0)])[0],
            boot_trees * 304 + first_trees * 432,
            True,
            ((FERRET_MAIN.reserve, FERRET_MAIN.reserve + m, True),),
        )

    def test_pool_min_sits_past_the_break_even(self, monkeypatch):
        """Opening at POOL_MIN costs less than SoftSpokenOT; opening at
        half of it would cost more."""
        assert pool_draw(128, None, POOL_MIN - 1).left is None
        monkeypatch.setattr(costs, "POOL_MIN", 1)
        for m, cheaper in ((POOL_MIN, True), (POOL_MIN // 2, False)):
            draw = pool_draw(128, None, m)
            softspoken = cot_bytes(128, [(m, 0)])[0]
            assert (draw.u + draw.sender < softspoken) == cheaper

    def test_bytes_never_rise(self):
        """Once a batch opens the pool, no sequence of batches costs
        more than SoftSpokenOT would."""
        rng = np.random.default_rng(39)
        sizes = rng.integers(1, 3 * POOL_MIN, 400).tolist()
        left, pooled, softspoken = None, 0, 0
        for m in sizes:
            draw = pool_draw(128, left, m)
            left, pooled = draw.left, pooled + draw.u + draw.sender
            softspoken += cot_bytes(128, [(m, 0)])[0]
            assert pooled <= softspoken
        assert left is not None
        # a drained main iteration refills, its reserve's trees first
        usable = FERRET_MAIN.n - FERRET_MAIN.reserve
        full = pool_draw(128, 0, usable)
        assert full.left == 0
        assert full.sender == FERRET_MAIN.t * tree_bytes(FERRET_MAIN)
        assert full.rows == ((FERRET_MAIN.reserve, FERRET_MAIN.n, True),)
        assert not full.opens
