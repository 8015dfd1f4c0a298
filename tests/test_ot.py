"""Oblivious transfer: base OT, SoftSpokenOT extension, simulated OT."""

from contextlib import nullcontext

import numpy as np
import pytest

import repro.mpc.ot as ot_module
from repro.mpc import Context, Mode
from repro.mpc.costs import SOFTSPOKEN_K as K
from repro.mpc.costs import tree_correction_bytes
from repro.mpc.ot import (
    SoftSpokenExtension,
    SimulatedOT,
    _chou_orlandi,
    make_ot,
)

from .conftest import IdealOT, spy_scalar_muls


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
    m = sum(k for k, _ in widths)
    choices = rng.integers(0, 2, m).astype(np.uint8)
    m1 = [
        np.frombuffer(rng.bytes(k * w), dtype=np.uint8).reshape(k, w)
        for k, w in widths
    ]
    return choices, m1


@pytest.mark.real
class TestCorrelatedOT:
    #: every width a consumer uses (labels 16, ring words 1-8, switch
    #: tuples 2-16) in one mixed-width batch
    WIDTHS = [(5, w) for w in range(1, 17)]

    def test_xor_correlation_every_width(self):
        """Receiver gets p0 on 0 and the sender's m1 on 1 (labels:
        m1 = p0 ^ delta)."""
        rng = np.random.default_rng(11)
        ctx = Context(Mode.REAL, seed=11)
        ot = SoftSpokenExtension(ctx)
        choices = rng.integers(0, 2, 80).astype(np.uint8)
        cot = ot.correlated(choices, self.WIDTHS)
        delta = [
            np.frombuffer(rng.bytes(w), dtype=np.uint8) for _, w in self.WIDTHS
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
            cot = ot.correlated(choices, [(n, rb)])
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
    def test_zero_length_batch_sends_nothing(self, cls):
        ctx = Context(Mode.REAL, seed=1)
        cot = cls(ctx).correlated(
            np.zeros(0, dtype=np.uint8), [(0, 16)]
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
        widths = [(1, 4), (2, 4)]
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
            ot.correlated(np.zeros(3, dtype=np.uint8), [(4, 16)])
        with pytest.raises(ValueError):
            ot.correlated(np.zeros(1, dtype=np.uint8), [(1, 33)])
        cot = ot.correlated(np.zeros(2, dtype=np.uint8), [(2, 4)])
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
        cot = ot.reverse.correlated(r, [(4, 8)])
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
