"""The columnar item-digest kernel under PSI and the DH-OPRF join.

``encode_item`` stays the definition of an item's canonical bytes; the
vectorised row encoder must agree with it byte for byte, and every
protocol entry point must behave identically on a list of hashables and
on its precomputed digest matrix under the context's salt.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import repro.core.relation as relation_mod
import repro.mpc.batch as batch_mod
import repro.mpc.cuckoo as cuckoo_mod
import repro.mpc.dhoprf as dhoprf_mod
from repro.core.relation import row_digests
from repro.mpc import Context, Mode
from repro.mpc.batch import aes_digests, aes_prp, sorted_lookup
from repro.mpc.cuckoo import (
    LOCAL_SALT,
    encode_item,
    has_duplicates,
    item_digests,
    simple_hash_bins,
)
from repro.mpc.dhoprf import dh_oprf_match
from repro.mpc.ot import make_ot
from repro.mpc.psi import psi_with_payloads
from repro.relalg.columns import Column, TupleStore, fresh_nonces


def encode_rows(store):
    """``encode_item(row)`` for every row of ``store`` without building
    the rows: a bytes view over the blocks ``row_digests`` hashes."""
    out = [b""] * store.n
    for rows, block in relation_mod._row_blocks(store):
        raw, w = block.rows.tobytes(), block.length
        for i, r in enumerate(rows.tolist()):
            out[r] = raw[i * w : (i + 1) * w]
    return out


INT64 = st.integers(-(2**63), 2**63 - 1)
#: What an obj column may hold: strings, ints on both sides of the
#: int64 boundary, bytes, nested tuples.  (No bools: ``True == 1`` makes
#: a dictionary-encoded column conflate them before any encoder runs.)
OBJECTS = st.one_of(
    st.text(max_size=6),
    st.integers(-(2**80), 2**80),
    INT64,
    st.binary(max_size=4),
    st.tuples(st.integers(-5, 5), st.text(max_size=2)),
)


@st.composite
def stores(draw):
    """A store of arity 0-3 over int / obj / mixed columns with dummy
    rows scattered between the real ones, sometimes followed by two
    string columns of different lengths, so rows fall into several
    cell-width signatures."""
    arity = draw(st.integers(0, 3))
    n = draw(st.integers(0, 8))
    cols = []
    for _ in range(arity):
        if draw(st.booleans()):
            cols.append(Column.from_ints(
                draw(st.lists(INT64, min_size=n, max_size=n))))
        else:
            cols.append(Column.from_objects(
                draw(st.lists(OBJECTS, min_size=n, max_size=n))))
    if draw(st.booleans()):
        for size in ((0, 2), (3, 9)):
            text = st.text(min_size=size[0], max_size=size[1])
            cols.append(Column.from_objects(
                draw(st.lists(text, min_size=n, max_size=n))))
        arity += 2
    nonce = np.zeros(n, dtype=np.int64)
    dummy = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    nonce[dummy] = fresh_nonces(int(dummy.sum()))
    attrs = tuple(f"a{j}" for j in range(arity))
    return TupleStore(attrs, tuple(cols), nonce)


class TestEncodeRows:
    @given(store=stores())
    def test_byte_equal_to_the_scalar_definition(self, store):
        assert encode_rows(store) == [
            encode_item(t) for t in store.materialize()
        ]
        assert (
            row_digests(store) == item_digests(store.materialize())
        ).all()

    @given(store=stores(), k=st.integers(1, 4))
    def test_appended_dummies(self, store, k):
        # (An *empty* dictionary column cannot take the placeholder
        # code dummy rows park in it; no operator builds one.)
        assume(store.n > 0)
        padded = store.with_dummies(fresh_nonces(k))
        assert encode_rows(padded) == [
            encode_item(t) for t in padded.materialize()
        ]
        if store.arity:
            assert not has_duplicates(row_digests(padded)[store.n:])

    @given(values=st.lists(INT64, max_size=8))
    def test_representation_independence(self, values):
        """The same ints held raw or dictionary-encoded digest equally."""
        nonce = np.zeros(len(values), dtype=np.int64)
        raw = TupleStore(("a",), (Column.from_ints(values),), nonce)
        obj = TupleStore(("a",), (Column.from_objects(values),), nonce)
        assert raw.columns[0].is_int and not obj.columns[0].is_int
        assert (row_digests(raw) == row_digests(obj)).all()

    def test_zero_arity_rows_are_all_the_empty_tuple(self):
        store = TupleStore((), (), np.zeros(3, dtype=np.int64))
        assert encode_rows(store) == [encode_item(())] * 3

    def test_many_width_signatures(self):
        """Rows whose obj cells vary in width in two columns at once."""
        a = [("x" * (i % 5),) for i in range(40)]
        b = ["é" * (i % 3) for i in range(40)]
        store = TupleStore.from_columns(
            ("a", "b", "c"), [np.arange(40), Column.from_objects(a), b]
        ).with_dummies(fresh_nonces(3))
        assert encode_rows(store) == [
            encode_item(t) for t in store.materialize()
        ]
        assert (
            row_digests(store) == item_digests(store.materialize())
        ).all()


def cbc_digest(salt, row):
    """The scalar twin of ``aes_digests`` for one row: each half is the
    last block of AES-CBC (zero IV) over the length-prefixed, zero-padded
    row followed by the block ``1`` or ``2``."""
    msg = len(row).to_bytes(8, "little") + row
    msg += bytes(-len(msg) % 16)
    halves = []
    for j in (1, 2):
        enc = Cipher(algorithms.AES(salt), modes.CBC(bytes(16))).encryptor()
        halves.append(enc.update(msg + j.to_bytes(16, "little"))[-16:])
    return b"".join(halves)


def digests_of(salt, rows):
    """``aes_digests`` of byte strings of one length, as bytes."""
    block = np.frombuffer(b"".join(rows), dtype=np.uint8)
    out = aes_digests(salt, block.reshape(len(rows), -1))
    return [bytes(d) for d in out]


SALTS = st.binary(min_size=16, max_size=16)
#: Row lengths either side of the 16-byte chunk boundaries, counting the
#: 8-byte length prefix (8 / 24 B) and not counting it (16 / 32 B).
STRADDLING = [0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33]


class TestDigestKernel:
    """``aes_digests``: a salted CBC-MAC, one AES call per chunk."""

    @given(salt=SALTS, data=st.binary(min_size=33, max_size=33))
    def test_matches_the_scalar_cbc_mac(self, salt, data):
        for w in STRADDLING:
            rows = [data[:w], data[33 - w:]]
            assert digests_of(salt, rows) == [
                cbc_digest(salt, r) for r in rows
            ]

    @given(salt=SALTS, data=st.binary(min_size=33, max_size=33))
    def test_lengths_straddling_a_chunk_are_distinct(self, salt, data):
        got = [digests_of(salt, [data[:w]])[0] for w in STRADDLING]
        assert len(set(got)) == len(got)

    @given(salt=SALTS, row=st.binary(max_size=20))
    def test_trailing_zero_bytes_are_distinct(self, salt, row):
        got = [
            digests_of(salt, [row + bytes(k)])[0] for k in range(0, 18)
        ]
        assert len(set(got)) == len(got)

    @given(store=stores(), salt=SALTS)
    def test_equal_salts_equal_digests(self, store, salt):
        digests = row_digests(store, salt)
        assert (digests == row_digests(store, bytes(salt))).all()
        assert (digests == item_digests(store.materialize(), salt)).all()

    @given(store=stores(), a=SALTS, b=SALTS)
    def test_another_salt_other_digests(self, store, a, b):
        assume(a != b and store.n > 0)
        assert (row_digests(store, a) != row_digests(store, b)).all()

    def test_known_answer(self):
        item, salt = ("Secure", "Yannakakis", 2021), bytes(range(16))
        got = bytes(item_digests([item], salt).view(np.uint8))
        assert got.hex() == KNOWN_DIGEST
        assert got == cbc_digest(salt, encode_item(item))

    def test_slices_agree_with_one_pass(self, monkeypatch):
        rows = np.arange(70 * 13, dtype=np.uint64).astype(np.uint8)
        rows = rows.reshape(70, 13)
        whole = aes_digests(bytes(16), rows)
        monkeypatch.setattr(batch_mod, "_DIGEST_SLICE", 16)
        assert (aes_digests(bytes(16), rows) == whole).all()


#: ``item_digests([("Secure", "Yannakakis", 2021)], bytes(range(16)))``
KNOWN_DIGEST = (
    "bf186ea70f11c5001614d3a9d22461ae"
    "26430253545efe52369f9efe56e1f485"
)


@pytest.fixture
def encode_calls(monkeypatch):
    """Count calls of the scalar encoder from either module."""
    calls = []

    def counting(item):
        calls.append(item)
        return encode_item(item)

    monkeypatch.setattr(cuckoo_mod, "encode_item", counting)
    monkeypatch.setattr(relation_mod, "encode_item", counting)
    return calls


class TestEncodeOnce:
    def test_int_store_never_calls_the_scalar_encoder(self, encode_calls):
        store = TupleStore.from_columns(
            ("a", "b"), [np.arange(500), -np.arange(500)]
        ).with_dummies(fresh_nonces(100))
        assert len(row_digests(store)) == 600
        assert encode_calls == []

    def test_obj_column_encodes_once_per_distinct_value(self, encode_calls):
        names = [f"name{i % 7}" for i in range(300)]
        store = TupleStore.from_columns(("a", "b"), [np.arange(300), names])
        row_digests(store)
        assert sorted(encode_calls) == sorted(set(names))

    @pytest.mark.parametrize("backend", ["psi", "dhoprf"])
    def test_list_items_encode_once_each(self, encode_calls, backend):
        alice = [f"k{i}" for i in range(60)]
        bob = [f"k{i}" for i in range(30, 100)]
        ctx = Context(Mode.SIMULATED, seed=3)
        if backend == "psi":
            psi_with_payloads(ctx, make_ot(ctx), alice, bob, list(range(70)))
        else:
            dh_oprf_match(ctx, alice, bob)
        assert sorted(encode_calls) == sorted(alice + bob)


ALICE_ITEMS = [("k", i) for i in range(18)]
BOB_ITEMS = [("k", i) for i in range(9, 30)]


def matrices(ctx, alice, bob):
    """Both item lists' digest matrices under ``ctx``'s salt."""
    salt = ctx.digest_salt
    return item_digests(alice, salt), item_digests(bob, salt)


@pytest.mark.parametrize(
    "mode", [Mode.SIMULATED, pytest.param(Mode.REAL, marks=pytest.mark.real)]
)
class TestDigestMatrixInputs:
    """Same seed, items vs their digest matrix under the context's salt:
    identical outputs."""

    def test_psi(self, mode):
        payloads = [1000 + i for i in range(9, 30)]
        outs = []
        for as_matrix in (False, True):
            ctx = Context(mode, seed=7)
            a, b, z = ALICE_ITEMS, BOB_ITEMS, payloads
            if as_matrix:
                a, b, z = matrices(ctx, a, b) + (np.asarray(payloads),)
            res = psi_with_payloads(
                ctx, make_ot(ctx), a, b, z
            )
            outs.append((
                res.bin_of_item_index().tolist(),
                res.ind.reconstruct().tolist(),
                res.payload.reconstruct().tolist(),
                ctx.transcript.fingerprint(),
            ))
        assert outs[0] == outs[1]
        bins, ind, pay, _ = outs[0]
        for j, item in enumerate(ALICE_ITEMS):
            hit = item in BOB_ITEMS
            assert ind[bins[j]] == int(hit)
            assert pay[bins[j]] == (1000 + item[1] if hit else 0)

    def test_dh_oprf(self, mode):
        outs = []
        for as_matrix in (False, True):
            ctx = Context(mode, seed=7)
            a, b = ALICE_ITEMS, BOB_ITEMS
            if as_matrix:
                a, b = matrices(ctx, a, b)
            m = dh_oprf_match(ctx, a, b)
            outs.append((m.slot.tolist(), m.order.tolist()))
        assert outs[0] == outs[1]
        slot, order = outs[0]
        assert sorted(order) == list(range(len(BOB_ITEMS)))
        for i, item in enumerate(ALICE_ITEMS):
            if item in BOB_ITEMS:
                assert BOB_ITEMS[order[slot[i]]] == item
            else:
                assert slot[i] == -1


class TestFailurePathsOnMatrices:
    """The checks keep their exception types when fed digests."""

    def test_psi_duplicate_bob_items(self):
        ctx = Context(Mode.SIMULATED, seed=1)
        with pytest.raises(ValueError, match="distinct items on Bob"):
            psi_with_payloads(
                ctx, make_ot(ctx), item_digests([1]),
                item_digests([2, 2]), [5, 6],
            )

    def test_psi_duplicate_alice_items(self):
        ctx = Context(Mode.SIMULATED, seed=1)
        with pytest.raises(ValueError, match="cuckoo hashing requires"):
            psi_with_payloads(
                ctx, make_ot(ctx), item_digests([1, 1]),
                item_digests([2]), [5],
            )

    @pytest.mark.parametrize("side", ["Alice", "Bob"])
    def test_dh_oprf_duplicates(self, side):
        ctx = Context(Mode.SIMULATED, seed=1)
        a, b = ([1, 1], [2]) if side == "Alice" else ([1], [2, 2])
        with pytest.raises(ValueError, match=f"distinct {side} items"):
            dh_oprf_match(ctx, item_digests(a), item_digests(b))

    def test_dh_oprf_token_collision(self, monkeypatch):
        monkeypatch.setattr(
            dhoprf_mod, "aes_prp",
            lambda key, blocks: np.zeros((len(blocks), 16), dtype=np.uint8),
        )
        ctx = Context(Mode.SIMULATED, seed=1)
        with pytest.raises(RuntimeError, match="token collision"):
            dh_oprf_match(ctx, [1], [2, 3])

    def test_colliding_hash_functions_share_one_slot(self):
        # Two bins, three hash functions: every item's candidates
        # collide, and it still occupies each bin at most once.
        members, counts = simple_hash_bins(
            list(range(50)), [bytes([h]) * 16 for h in range(3)], 2
        )
        for b, part in enumerate(np.split(members, np.cumsum(counts)[:-1])):
            assert len(set(part.tolist())) == len(part)
        assert 50 <= counts.sum() <= 100


def tokens(pairs):
    """16-byte tokens, each 8 bytes ``hi`` then 8 bytes ``lo``."""
    raw = b"".join(bytes([hi]) * 8 + bytes([lo]) * 8 for hi, lo in pairs)
    return np.frombuffer(raw, dtype="S16")


#: Tokens over a four-letter alphabet, so 8-byte prefixes often tie.
PAIRS = st.tuples(st.integers(0, 3), st.integers(0, 3))


class TestTokenMatch:
    """DH-OPRF matches its tokens on their first 8 bytes and confirms
    every hit on all 16; a tie among Bob's prefixes matches on all 16."""

    @given(
        bob=st.lists(PAIRS, unique=True, max_size=12),
        alice=st.lists(PAIRS, max_size=12),
    )
    def test_equals_the_full_width_lookup(self, bob, alice):
        got = dhoprf_mod._match(tokens(bob), tokens(alice))
        want = sorted_lookup(tokens(bob), tokens(alice))
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_a_shared_prefix_alone_is_no_hit(self):
        order, slot = dhoprf_mod._match(
            tokens([(2, 2), (1, 1)]), tokens([(1, 2), (2, 2)])
        )
        assert order.tolist() == [1, 0] and slot.tolist() == [-1, 1]


def simulated_tokens(alice, bob, seed=5):
    ctx = Context(Mode.SIMULATED, seed=seed)
    return dhoprf_mod._tokens_simulated(
        ctx, item_digests(alice), item_digests(bob)
    )


class TestSimulatedTokens:
    """``AES-128_salt(digest[:16])``: the SIMULATED DH-OPRF token."""

    @given(
        key=st.binary(min_size=16, max_size=16),
        blocks=st.lists(st.binary(min_size=16, max_size=16), max_size=6),
    )
    def test_aes_prp_matches_block_by_block(self, key, blocks):
        x = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)
        got = aes_prp(key, x)
        assert got.shape == (len(blocks), 16)
        for b, t in zip(blocks, got):
            enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
            assert bytes(t) == enc.update(b)

    def test_equal_digests_equal_tokens_on_both_sides(self):
        alice_toks, bob_toks = simulated_tokens(ALICE_ITEMS, BOB_ITEMS)
        for i, item in enumerate(ALICE_ITEMS):
            if item in BOB_ITEMS:
                assert alice_toks[i] == bob_toks[BOB_ITEMS.index(item)]

    def test_distinct_prefixes_distinct_tokens(self):
        alice_toks, bob_toks = simulated_tokens(range(500), range(500, 900))
        assert len(set(alice_toks.tolist() + bob_toks.tolist())) == 900

    def test_fresh_salt_per_call(self):
        first, _ = simulated_tokens(ALICE_ITEMS, BOB_ITEMS, seed=5)
        again, _ = simulated_tokens(ALICE_ITEMS, BOB_ITEMS, seed=5)
        other, _ = simulated_tokens(ALICE_ITEMS, BOB_ITEMS, seed=6)
        assert first.tolist() == again.tolist() != other.tolist()

    def test_empty_inputs(self):
        assert aes_prp(bytes(16), np.zeros((0, 16), np.uint8)).shape == (
            0, 16,
        )
        alice_toks, bob_toks = simulated_tokens([], BOB_ITEMS)
        assert len(alice_toks) == 0 and len(bob_toks) == len(BOB_ITEMS)
        ctx = Context(Mode.SIMULATED, seed=1)
        m = dh_oprf_match(ctx, [], [])
        assert m.slot.tolist() == [] and m.order.tolist() == []

    @pytest.mark.real
    def test_match_semantics_equal_real(self):
        """Token values and slot order differ between the modes; which
        Bob item each Alice item matched, and the transcript, do not."""
        outs = []
        for mode in (Mode.SIMULATED, Mode.REAL):
            ctx = Context(mode, seed=7)
            m = dh_oprf_match(ctx, ALICE_ITEMS, BOB_ITEMS)
            assert sorted(m.order.tolist()) == list(range(len(BOB_ITEMS)))
            partner = np.where(m.slot >= 0, m.order[m.slot], -1)
            outs.append((partner.tolist(), ctx.transcript.fingerprint()))
        assert outs[0] == outs[1]


class TestNoPerRowHashing:
    """SIMULATED Q3 makes as many ``hashlib`` calls at 1 MB as at
    0.3 MB, and every item digest it computes is under the context's
    one salt."""

    @staticmethod
    def run_q3(scale, backend, monkeypatch):
        import hashlib

        from repro.mpc import Engine
        from repro.tpch import PREPARED, generate

        calls, salts = [], []

        def counted(name):
            real = getattr(hashlib, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        def spy(salt, rows):
            salts.append(salt)
            return aes_digests(salt, rows)

        query = PREPARED["Q3"](generate(scale))
        engine = Engine(query.make_context(Mode.SIMULATED, seed=7))
        engine.backend = backend
        with monkeypatch.context() as patch:
            for name in ("sha256", "blake2b"):
                patch.setattr(hashlib, name, counted(name))
            for module in (relation_mod, cuckoo_mod):
                patch.setattr(module, "aes_digests", spy)
            result, _ = query.run_secure(engine)
        assert result.semantically_equal(query.run_plain()[0])
        assert salts and set(salts) == {engine.ctx.digest_salt}
        assert LOCAL_SALT not in salts
        return len(calls)

    @pytest.mark.parametrize("backend", ["yannakakis", "linear"])
    def test_hash_calls_do_not_grow_with_the_data(self, monkeypatch, backend):
        small = self.run_q3(0.3, backend, monkeypatch)
        large = self.run_q3(1, backend, monkeypatch)
        assert small == large
