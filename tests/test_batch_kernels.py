"""Differential tests: vectorised batch kernels vs the scalar reference
implementations (`tests/reference.py`).

The marshalling kernels, the fixed-key AES hash, the SoftSpokenOT
extension's rows and correction, and its chosen-message transfer are
pinned against one-block-at-a-time loops: identical
outputs and byte-identical transcript fingerprints.  The protocol-level
consumers (garbled batches, Gilboa) have no scalar twin; they are
pinned on semantics and on REAL == SIMULATED fingerprints.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc import batch
from repro.mpc.costs import SOFTSPOKEN_K
from repro.mpc.gadgets import bits_of, int_of, nonzero_circuit
from repro.mpc.ot import (
    SoftSpokenExtension,
    SimulatedOT,
    _prg_bits_all,
    _stream_xor,
    make_ot,
)

from . import reference as ref
from .conftest import run_circuit


# ----------------------------------------------------------------------
# Marshalling kernels vs int.to_bytes / bits_of loops
# ----------------------------------------------------------------------


@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    st.integers(1, 8),
)
def test_words_to_le_bytes_matches_int_to_bytes(vals, width):
    words = np.asarray(vals, dtype=np.uint64)
    mat = batch.words_to_le_bytes(words, width)
    for v, row in zip(vals, mat):
        assert bytes(row) == (v & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little"
        )
    back = batch.le_bytes_to_words(mat)
    assert (back == (words & np.uint64((1 << (8 * width)) - 1 & (2**64 - 1)))).all() or (
        width == 8 and (back == words).all()
    )


@given(
    st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40),
    st.integers(1, 63),
)
def test_words_to_bits_matches_bits_of(vals, ell):
    words = np.asarray(vals, dtype=np.uint64)
    bits = batch.words_to_bits(words, ell)
    for v, row in zip(vals, bits):
        assert list(row) == bits_of(v, ell)
    assert [int_of(list(row)) for row in bits] == list(
        batch.bits_to_words(bits)
    )


def test_bits_to_words_empty_batch():
    """A zero-instance garbled batch yields a plain empty list — seen in
    REAL-mode divide_reveal when a composed query has no output groups."""
    out = batch.bits_to_words(np.asarray([], dtype=np.uint8))
    assert out.shape == (0,) and out.dtype == np.uint64
    out2 = batch.bits_to_words(np.zeros((0, 32), dtype=np.uint8))
    assert out2.shape == (0,)


@given(
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=0, max_size=200),
)
def test_stream_xor_matches_reference(key, data):
    assert _stream_xor(key, data) == ref.stream_xor(key, data)


@given(
    st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=4),
    st.integers(1, 300),
    st.integers(0, 2**64 - 1),
)
def test_prg_bits_matches_reference(seeds, n_bits, batch_no):
    got = _prg_bits_all(seeds, n_bits, batch_no)
    for i, seed in enumerate(seeds):
        assert (got[i] == ref.prg_bits(seed, n_bits, batch_no, i)).all()


@given(
    st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=6),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_tccr_hash_matches_row_by_row_aes(blocks, batch_no, row, index):
    """Known answers: each block of the batched kernel equals the hash
    recomputed alone — AES-ECB of the doubled block XOR the tweak,
    XOR the doubled block — and tweaks pack as documented."""
    x = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)
    rows = row ^ np.arange(len(blocks), dtype=np.uint64) % (2**32)
    t = batch.tweaks(batch_no, rows, index)
    got = batch.tccr_hash(x, t)
    for b, r, h, tw in zip(blocks, rows, got, t):
        assert bytes(tw) == ref.tweak(batch_no, int(r), index)
        assert bytes(h) == ref.tccr(b, bytes(tw))


#: ``(x, tweak)`` block shapes (without the 16-byte axis) that broadcast
#: the way the callers do: equal, a seed under many tweaks, a tweak
#: over many blocks, stacked pads, scalars and empty batches
BROADCAST_SHAPES = [
    ((5,), (5,)),
    ((3, 1), (3, 4)),
    ((2, 3, 1), (3, 2)),
    ((4,), ()),
    ((), (6,)),
    ((2, 1, 3), (1, 4, 1)),
    ((0, 1), (0, 2)),
    ((1,), (1,)),
]


@pytest.mark.parametrize("x_shape, t_shape", BROADCAST_SHAPES)
def test_tccr_hash_and_tweaks_match_scalar_twins(x_shape, t_shape):
    """Differential: over broadcast shapes, every block of
    :func:`batch.tccr_hash` is the scalar :func:`ref.tccr` of its own
    block and tweak, and every tweak of :func:`batch.tweaks` is
    :func:`ref.tweak` of its row and index."""
    rng = np.random.default_rng(len(x_shape) * 7 + len(t_shape))
    x = rng.integers(0, 256, x_shape + (16,), dtype=np.uint8)
    rows = rng.integers(0, 2**32, t_shape, dtype=np.uint64)
    index = rng.integers(0, 2**32, t_shape[-1:], dtype=np.uint64)
    batch_no = int(rng.integers(0, 2**63))
    t = batch.tweaks(batch_no, rows, index)
    assert t.shape == t_shape + (16,)
    for at in np.ndindex(*t_shape):
        i = int(index[at[-1]]) if t_shape else int(index)
        assert bytes(t[at]) == ref.tweak(batch_no, int(rows[at]), i)
    got = batch.tccr_hash(x, t)
    shape = np.broadcast_shapes(x_shape, t_shape)
    assert got.shape == shape + (16,)
    xb, tb = np.broadcast_to(x, got.shape), np.broadcast_to(t, got.shape)
    for at in np.ndindex(*shape):
        assert bytes(got[at]) == ref.tccr(bytes(xb[at]), bytes(tb[at]))


def test_tccr_hash_fixed_vector():
    """One pinned value, so a change of key, byte order or doubling is
    caught even if the reference changed with it."""
    x = np.arange(16, dtype=np.uint8)
    t = batch.tweaks(1, np.uint64(2), np.uint64(3))
    h = bytes(batch.tccr_hash(x, t))
    assert h == ref.tccr(bytes(range(16)), ref.tweak(1, 2, 3))
    assert h.hex() == "396b2377735546a5379bf687f76087c1"


# ----------------------------------------------------------------------
# sorted_lookup vs a dict probe
# ----------------------------------------------------------------------


@given(
    keys=st.lists(st.integers(0, 40), unique=True, max_size=30),
    queries=st.lists(st.integers(0, 40), max_size=30),
)
def test_sorted_lookup_matches_a_dict_probe(keys, queries):
    """``order`` sorts the distinct keys and ``order[slot[i]]`` is the
    key ``queries[i]`` equals, or ``slot[i]`` is -1 — empty keys, empty
    queries and absent queries included."""
    k = np.asarray(keys, dtype=np.uint64)
    order, slot = batch.sorted_lookup(k, np.asarray(queries, np.uint64))
    assert k[order].tolist() == sorted(keys)
    index = {key: i for i, key in enumerate(keys)}
    assert [int(order[s]) if s >= 0 else None for s in slot] == [
        index.get(q) for q in queries
    ]


def _probe_in_query_order(keys, queries):
    """``sorted_lookup`` as it was before it sorted its probes: one
    ``searchsorted`` over the queries in the order given."""
    order = np.argsort(keys)
    if not len(keys):
        return order, np.full(len(queries), -1, dtype=np.int64)
    srt = keys[order]
    pos = np.minimum(np.searchsorted(srt, queries), len(keys) - 1)
    return order, np.where(srt[pos] == queries, pos, -1)


@given(
    keys=st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=60),
    queries=st.lists(st.integers(0, 2**64 - 1), max_size=60),
    hits=st.lists(st.integers(0, 59), max_size=60),
    as_bytes=st.booleans(),
)
def test_sorted_probes_give_the_query_order_slots(
    keys, queries, hits, as_bytes
):
    """Probing in sorted order and scattering back gives the same
    ``order`` and ``slot`` arrays, dtype included, as probing in query
    order — over ``uint64`` keys and the DH-OPRF's 16-byte tokens, with
    repeated, present and absent queries."""
    queries = queries + [keys[h % len(keys)] for h in hits if keys]
    k = np.asarray(keys, dtype=np.uint64)
    q = np.asarray(queries, dtype=np.uint64)
    if as_bytes:
        k, q = (
            np.repeat(a.astype(">u8"), 2).view("S16") for a in (k, q)
        )
    got = batch.sorted_lookup(k, q)
    want = _probe_in_query_order(k, q)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


@given(keys=st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_sorted_lookup_rejects_a_duplicate_key(keys):
    keys = np.asarray(keys + keys[:1], dtype=np.uint64)
    with pytest.raises(ValueError, match="distinct keys"):
        batch.sorted_lookup(keys, np.zeros(0, dtype=np.uint64))


@pytest.mark.real
@pytest.mark.parametrize("backend", ["yannakakis", "linear"])
def test_no_tweak_repeats_over_real_q3(monkeypatch, backend):
    """Every fixed-key hash of a REAL query (Q3 at 0.03 MB) through a
    spy: no tweak hashes more than two distinct inputs.  Two is one
    pair — a garbler's ``W`` and ``W ^ delta`` (under an AND gate's or a
    translated output row's tweak, or Bob's key label ``W_1`` and
    Alice's ``W_0`` under a disclosure's), an extension sender's ``Q_j``
    and ``Q_j ^ s`` — and any other hash under that tweak is the peer
    recomputing its member, so no ``(tweak, role)`` pair repeats.  The
    extension's GGM nodes and leaf streams hash one input per tweak:
    the punctured party recomputes the nodes and leaves it holds, under
    the owner's tweaks, and beside them the zero it holds on its path,
    whose children it drops — a second, public input.  The evaluator's
    input labels are the
    extension's raw rows under the instance's one ``s``, so they meet
    the hash only as garbled wires.  A tweak without the batch number,
    the instance or the AND gate's hash index fails here, and so does an
    output row or a disclosure hashed under an earlier index, or a leaf
    or node hashed under its tree's or another leaf's row."""
    from repro.mpc.circuits import garbling
    from repro.mpc import ot as ot_module
    from repro.tpch import PREPARED, generate

    seen = []
    real_hash = batch.tccr_hash
    disclosed = []
    real_pads = garbling._disclosure_pads

    def pad_spy(labels, *args):
        disclosed.append(len(labels))
        return real_pads(labels, *args)

    def spy(x, t):
        x, t = np.broadcast_arrays(
            np.asarray(x, dtype=np.uint8), np.asarray(t, dtype=np.uint8)
        )
        seen.append(np.concatenate([t, x], axis=-1).reshape(-1, 32))
        return real_hash(x, t)

    expanded = {"_ggm_children": 0, "_leaf_streams": 0}

    def count(name):
        real = getattr(ot_module, name)

        def counted(*args):
            expanded[name] += 1
            return real(*args)

        return counted

    for module in (garbling, ot_module):
        monkeypatch.setattr(module, "tccr_hash", spy)
    monkeypatch.setattr(garbling, "_disclosure_pads", pad_spy)
    for name in expanded:
        monkeypatch.setattr(ot_module, name, count(name))
    query = PREPARED["Q3"](generate(0.03))
    engine = Engine(query.make_context(Mode.REAL, seed=7))
    engine.backend = backend
    result, _ = query.run_secure(engine)
    assert result.semantically_equal(query.run_plain()[0])

    pairs = np.unique(np.concatenate(seen).view("V32"))
    tweak_of = pairs.view(np.uint8).reshape(-1, 32)[:, :16]
    _, inputs_per_tweak = np.unique(
        np.ascontiguousarray(tweak_of).view("V16"), return_counts=True
    )
    assert len(inputs_per_tweak) > 40_000  # the spy saw the whole query
    assert sum(disclosed) > 0  # Bob's tuples left by disclosure
    assert min(expanded.values()) > 0  # both instances' trees and leaves
    assert inputs_per_tweak.max() == 2


# ----------------------------------------------------------------------
# SoftSpokenOT extension vs the scalar per-tree, per-OT reference
# ----------------------------------------------------------------------


@pytest.mark.real
class TestOtDifferential:
    def _pairs(self, widths, seed=3):
        rng = np.random.default_rng(seed)
        pairs = [(rng.bytes(w), rng.bytes(w)) for w in widths]
        choices = [int(c) for c in rng.integers(0, 2, len(widths))]
        return pairs, choices

    def _run(self, cls, pairs, choices, seed=17):
        ctx = Context(Mode.REAL, seed=seed)
        ot = cls(ctx)
        out = ot.transfer(pairs, choices)
        out += ot.transfer(pairs[:3], choices[:3])  # second batch, new tweaks
        return out, ctx.transcript.fingerprint()

    def test_uniform_width_batch(self):
        pairs, choices = self._pairs([16] * 120)
        new = self._run(SoftSpokenExtension, pairs, choices)
        old = self._run(ref.ReferenceSoftSpokenExtension, pairs, choices)
        assert new == old
        assert new[0][:120] == [p[c] for p, c in zip(pairs, choices)]

    def test_mixed_width_batch(self):
        pairs, choices = self._pairs([2, 40, 4, 4, 40, 2, 33, 1])
        new = self._run(SoftSpokenExtension, pairs, choices)
        old = self._run(ref.ReferenceSoftSpokenExtension, pairs, choices)
        assert new == old

    @pytest.mark.parametrize("which", ["forward", "mirror"])
    def test_rows_and_correction_match_reference(self, which):
        """The batched column phase against per-block GGM trees grown
        from the base pairs, a per-leaf PRG and a per-OT combine: the
        same ``Q`` and ``T`` rows, the same correction bytes and the
        same transcript, batch after batch of one instance."""
        sizes = [0, 1, 7, 8, 9, 300]

        def run(cls):
            ctx = Context(Mode.REAL, seed=23)
            forward = cls(ctx)
            ot = forward if which == "forward" else forward.reverse
            wires = []
            phase = ot._column_phase

            def spy(m, r):
                out = phase(m, r)
                wires.append(out[2].tobytes())
                return out

            ot._column_phase = spy
            rng = np.random.default_rng(len(which))
            rows = []
            with ctx.swapped_roles() if which == "mirror" else nullcontext():
                for n in sizes:
                    batch = ot.labels(n, rng.integers(0, 2, n))
                    rows.append((batch.zero.tobytes(), batch.active.tobytes()))
            return rows, wires, ctx.transcript.fingerprint()

        new = run(SoftSpokenExtension)
        assert new == run(ref.ReferenceSoftSpokenExtension)
        assert [len(w) for w in new[1]] == [
            128 // SOFTSPOKEN_K * ((n + 7) // 8) for n in sizes if n
        ]

    def test_real_and_simulated_fingerprints_agree(self):
        pairs, choices = self._pairs([8] * 50)
        ctx_r = Context(Mode.REAL, seed=1)
        SoftSpokenExtension(ctx_r).transfer(pairs, choices)
        ctx_s = Context(Mode.SIMULATED, seed=1)
        SimulatedOT(ctx_s).transfer(pairs, choices)
        assert (
            ctx_r.transcript.fingerprint() == ctx_s.transcript.fingerprint()
        )

    def test_correlated_equals_transfer_semantics(self):
        """The C-OT entry point delivers what a chosen-message transfer
        of ``(p0, m1)`` would, for one ciphertext per OT instead of
        two."""
        rng = np.random.default_rng(2)
        m1 = np.frombuffer(rng.bytes(60 * 5), dtype=np.uint8).reshape(60, 5)
        choices = rng.integers(0, 2, 60)

        ctx_a = Context(Mode.REAL, seed=8)
        cot = SoftSpokenExtension(ctx_a).correlated(
            choices, [(60, 40)]
        )
        m0 = cot.p0[0]
        got_a = cot.finish([m1])[0]
        ctx_b = Context(Mode.REAL, seed=8)
        got_b = SoftSpokenExtension(ctx_b).transfer(
            [(a.tobytes(), b.tobytes()) for a, b in zip(m0, m1)],
            [int(c) for c in choices],
        )
        assert [r.tobytes() for r in got_a] == got_b
        fp_a = ctx_a.transcript.fingerprint()
        fp_b = ctx_b.transcript.fingerprint()
        assert fp_a[:-1] == fp_b[:-1]
        assert fp_a[-1] == (BOB, 60 * 5, "ot/ext/ciphertexts")
        assert fp_b[-1] == (BOB, 2 * 60 * 5, "ot/ext/ciphertexts")


# ----------------------------------------------------------------------
# Gilboa cross-multiplication and the garbled batch: semantics, and
# REAL == SIMULATED transcripts
# ----------------------------------------------------------------------


@pytest.mark.real
class TestGilboaDifferential:
    def test_products_and_fingerprints_match_simulated(self):
        rng = np.random.default_rng(4)
        u = rng.integers(0, 2**31, 17).astype(np.uint64)
        v = rng.integers(0, 2**31, 17).astype(np.uint64)

        def run(mode, bits_owner):
            ctx = Context(mode, seed=23)
            eng = Engine(ctx)
            sv = eng._gilboa_cross(bits_owner, u, v, "cross")
            return sv.reconstruct(), ctx.transcript.fingerprint()

        for bits_owner in (ALICE, BOB):
            real, fp_real = run(Mode.REAL, bits_owner)
            sim, fp_sim = run(Mode.SIMULATED, bits_owner)
            assert (real == (u * v) & np.uint64(2**32 - 1)).all()
            assert (sim == real).all()
            assert fp_real == fp_sim


@pytest.mark.real
class TestGarbledBatchDifferential:
    def _inputs(self, circuit, n, seed=6):
        rng = np.random.default_rng(seed)
        na, nb = len(circuit.alice_inputs), len(circuit.bob_inputs)
        return (
            rng.integers(0, 2, (n, na), dtype=np.uint8),
            rng.integers(0, 2, (n, nb), dtype=np.uint8),
        )

    def test_outputs_and_fingerprints_match_simulated(self):
        circuit = nonzero_circuit(20)
        alice, bob = self._inputs(circuit, 21)

        def run(mode):
            ctx = Context(mode, seed=31)
            ot = make_ot(ctx)
            words = np.concatenate(
                [
                    run_circuit(ctx, ot, circuit, alice, bob)[0],
                    run_circuit(ctx, ot, circuit, alice[:2], bob[:2])[0],
                ]
            )
            return words, ctx.transcript.fingerprint()

        words, fp_real = run(Mode.REAL)
        for a, b, o in zip(
            np.concatenate([alice, alice[:2]]),
            np.concatenate([bob, bob[:2]]),
            words,
        ):
            assert o.tolist() == circuit.evaluate_words(a, b, 32)
        words_sim, fp_sim = run(Mode.SIMULATED)
        assert (words == words_sim).all()
        assert fp_real == fp_sim

# ----------------------------------------------------------------------
# Whole-engine parity at a non-byte-aligned ring width (the rb bugfix)
# ----------------------------------------------------------------------


@pytest.mark.real
class TestNonByteAlignedRing:
    def test_real_vs_simulated_transcripts_at_ell_20(self):
        from repro.mpc.params import SecurityParams

        params = SecurityParams(ell=20)

        def run(mode):
            ctx = Context(mode, params=params, seed=13)
            eng = Engine(ctx)
            x = eng.share(ALICE, [5, 0, 901, 2**19])
            y = eng.share(BOB, [3, 77, 0, 2**19 - 1])
            z = eng.mul_shared(x, y)
            return (
                list(z.reconstruct()),
                ctx.transcript.fingerprint(),
            )

        vals_r, fp_r = run(Mode.REAL)
        vals_s, fp_s = run(Mode.SIMULATED)
        mask = (1 << 20) - 1
        expect = [(5 * 3) & mask, 0, 0, (2**19 * (2**19 - 1)) & mask]
        assert vals_r == vals_s == expect
        assert fp_r == fp_s


# ----------------------------------------------------------------------
# Exponent sampling (the narrow-exponent bugfix)
# ----------------------------------------------------------------------


class TestExponentWidth:
    def test_random_exponent_is_full_width(self):
        """Scalars must be uniform in [1, n), not 62-124-bit: over 200
        draws, all lie in range, the top bit region is populated, and no
        draw is suspiciously short."""
        import secrets

        from repro.mpc import p256

        nbits = p256.N.bit_length()
        draws = [p256.random_scalar(secrets.token_bytes) for _ in range(200)]
        assert all(1 <= x < p256.N for x in draws)
        lengths = [x.bit_length() for x in draws]
        # P[bit_length <= nbits - 20] ~ 2^-20 per draw.
        assert min(lengths) > nbits - 20
        # Roughly half the draws should have the top bit set.
        top = sum(1 for L in lengths if L == nbits)
        assert 40 < top < 160

    def test_random_exponent_deterministic_under_seeded_source(self):
        from repro.mpc import p256

        ctx1 = Context(Mode.REAL, seed=7)
        ctx2 = Context(Mode.REAL, seed=7)
        assert p256.random_scalar(ctx1.random_bytes) == p256.random_scalar(
            ctx2.random_bytes
        )
