"""The fixed-width tuple codec used by the oblivious join's reveal —
the per-relation (store) API that ``core/join.py`` runs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.codec import (
    AttrSpec,
    decode_bits_store,
    encode_store_bits,
    infer_specs_store,
    tuple_bits,
)
from repro.core.relation import dummy_tuple
from repro.relalg.columns import TupleStore


def store_of(*rows):
    return TupleStore.from_tuples(
        [f"a{i}" for i in range(len(rows[0]))], rows
    )


def roundtrip(store, specs):
    bits = encode_store_bits(store, specs)
    assert bits.dtype == np.uint8
    assert bits.shape == (store.n, tuple_bits(specs))
    return decode_bits_store(bits, specs, store.attributes).materialize()


class TestInferSpecs:
    def test_small_ints_use_four_bytes(self):
        specs = infer_specs_store(store_of((1, 2), (3, 4)))
        assert specs == [AttrSpec("int", 4), AttrSpec("int", 4)]

    def test_large_ints_widen(self):
        assert infer_specs_store(store_of((2**40,)))[0].n_bytes == 8
        assert infer_specs_store(store_of((-(2**31) - 1,)))[0].n_bytes == 8
        assert infer_specs_store(store_of((2**31 - 1,)))[0].n_bytes == 4

    def test_strings_round_up(self):
        assert infer_specs_store(store_of(("abcde",)))[0] == AttrSpec("str", 8)
        assert infer_specs_store(store_of(("abcd",)))[0] == AttrSpec("str", 4)

    def test_dummies_skipped(self):
        # a dummy row's placeholder cells do not shape the layout
        specs = infer_specs_store(store_of(dummy_tuple(1), (7,)))
        assert specs == [AttrSpec("int", 4)]
        specs = infer_specs_store(store_of(dummy_tuple(1), ("abcde",)))
        assert specs == [AttrSpec("str", 8)]
        # nor does a store of dummies only
        assert infer_specs_store(store_of(dummy_tuple(2))) == [
            AttrSpec("int", 4)
        ] * 2

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            infer_specs_store(store_of((1.5,)))


class TestRoundtrip:
    @given(
        a=st.integers(-(2**31), 2**31 - 1),
        b=st.text(
            alphabet=st.characters(
                codec="utf-8", exclude_characters="\x00"
            ),
            max_size=12,
        ),
    )
    def test_int_str_roundtrip(self, a, b):
        store = store_of((a, b))
        assert roundtrip(store, infer_specs_store(store)) == [(a, b)]

    def test_negative_and_large(self):
        rows = [(-7, 2**40, "x"), (2**31 - 1, -(2**40), "yz")]
        store = store_of(*rows)
        specs = infer_specs_store(store)
        assert [s.n_bytes for s in specs] == [4, 8, 4]
        assert roundtrip(store, specs) == rows

    def test_dummy_encodes_to_zeros(self):
        specs = [AttrSpec("int", 4)]
        bits = encode_store_bits(store_of(dummy_tuple(1), (7,)), specs)
        assert bits.shape == (2, 32)
        assert not bits[0].any()
        assert bits[1].tolist() == [1, 1, 1] + [0] * 29
        # a dummy *value* inside a mixed row zeroes the whole row too
        mixed = store_of((5, dummy_tuple(1)[0]), (5, "ab"))
        bits = encode_store_bits(
            mixed, [AttrSpec("int", 4), AttrSpec("str", 4)]
        )
        assert not bits[0].any() and bits[1].any()

    def test_fixed_width_is_value_independent(self):
        rows = [(1, "abc"), (999999, "x")]
        store = store_of(*rows)
        specs = infer_specs_store(store)
        joint = encode_store_bits(store, specs)
        assert joint.shape == (2, tuple_bits(specs)) == (2, 64)
        # each row's slot bits do not depend on its neighbours
        for i, row in enumerate(rows):
            alone = encode_store_bits(store_of(row), specs)
            assert (alone[0] == joint[i]).all()

    def test_empty_store(self):
        store = TupleStore.empty(["a", "b"])
        specs = infer_specs_store(store)
        assert encode_store_bits(store, specs).shape == (0, 64)
        assert roundtrip(store, specs) == []

    def test_oversized_string_rejected(self):
        with pytest.raises(ValueError):
            encode_store_bits(
                store_of(("toolongstring",)), [AttrSpec("str", 4)]
            )

    def test_oversized_int_rejected(self):
        with pytest.raises(OverflowError):
            encode_store_bits(store_of((2**40,)), [AttrSpec("int", 4)])

    def test_nul_in_string_rejected(self):
        with pytest.raises(ValueError):
            encode_store_bits(store_of(("a\x00b",)), [AttrSpec("str", 8)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_store_bits(store_of((1, 2)), [AttrSpec("int", 4)])
        with pytest.raises(ValueError):  # and on the way back
            decode_bits_store(
                np.zeros((1, 64), np.uint8), [AttrSpec("int", 4)], ["a"]
            )
