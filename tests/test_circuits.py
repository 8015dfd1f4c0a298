"""The Boolean circuit builder: every gadget against integer semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc.circuits import Circuit, CircuitBuilder
from repro.mpc.gadgets import bits_of, int_of


ELL = 12
WORD = st.integers(0, 2**ELL - 1)


def run2(gadget, x, y, ell=ELL):
    """Build a 2-word circuit, evaluate on (x, y) with x from Alice."""
    b = CircuitBuilder()
    xs = b.alice_input_bits(ell)
    ys = b.bob_input_bits(ell)
    out = gadget(b, xs, ys)
    circuit = b.build(out if isinstance(out, list) else [out])
    bits = circuit.evaluate(bits_of(x, ell), bits_of(y, ell))
    return int_of(bits)


class TestWordGadgets:
    @given(x=WORD, y=WORD)
    def test_add(self, x, y):
        assert run2(lambda b, xs, ys: b.add(xs, ys), x, y) == (x + y) % 2**ELL

    @given(x=WORD, y=WORD)
    def test_sub(self, x, y):
        assert run2(lambda b, xs, ys: b.sub(xs, ys), x, y) == (x - y) % 2**ELL

    @given(x=WORD, y=WORD)
    def test_mul(self, x, y):
        assert run2(lambda b, xs, ys: b.mul(xs, ys), x, y) == (x * y) % 2**ELL

    @given(x=WORD)
    def test_neg(self, x):
        assert run2(lambda b, xs, ys: b.neg(xs), x, 0) == (-x) % 2**ELL

    @given(x=WORD, y=WORD)
    def test_eq_and_comparisons(self, x, y):
        assert run2(lambda b, xs, ys: [b.eq(xs, ys)], x, y) == int(x == y)
        assert run2(lambda b, xs, ys: [b.lt_unsigned(xs, ys)], x, y) == int(x < y)
        assert run2(lambda b, xs, ys: [b.gt_unsigned(xs, ys)], x, y) == int(x > y)

    @given(x=WORD)
    def test_is_zero_nonzero(self, x):
        assert run2(lambda b, xs, ys: [b.is_zero(xs)], x, 0) == int(x == 0)
        assert run2(lambda b, xs, ys: [b.nonzero(xs)], x, 0) == int(x != 0)

    @given(x=WORD, y=WORD, sel=st.integers(0, 1))
    def test_mux(self, x, y, sel):
        def gadget(b, xs, ys):
            s = b.constant(sel)
            return b.mux(s, xs, ys)

        assert run2(gadget, x, y) == (x if sel else y)

    @given(x=WORD, y=WORD)
    def test_div(self, x, y):
        def quot(b, xs, ys):
            q, _ = b.div_unsigned(xs, ys)
            return q

        def rem(b, xs, ys):
            _, r = b.div_unsigned(xs, ys)
            return r

        if y == 0:
            assert run2(quot, x, y) == 2**ELL - 1
            assert run2(rem, x, y) == x
        else:
            assert run2(quot, x, y) == x // y
            assert run2(rem, x, y) == x % y


class TestStructure:
    def test_and_counts(self):
        ell = 16
        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(ell), b.bob_input_bits(ell)
        c = b.build(b.add(xs, ys))
        # one AND per carry into bits 1..ell-1 of a ripple adder: the
        # carry out of the top bit is dead and not built
        assert c.and_count == ell - 1

        b = CircuitBuilder()
        xs, ys = b.alice_input_bits(ell), b.bob_input_bits(ell)
        # schoolbook multiplier: the partial-product masks, then an
        # adder of ell - i - 1 live ANDs per row i >= 1
        masks = ell * (ell + 1) // 2
        adders = (ell - 1) * (ell - 2) // 2
        assert b.build(b.mul(xs, ys)).and_count == masks + adders

    def test_constants_cached(self):
        b = CircuitBuilder()
        w1, w2 = b.constant(1), b.constant(1)
        assert w1 == w2

    def test_or_via_one_and(self):
        b = CircuitBuilder()
        x = b.alice_input_bits(1)
        y = b.bob_input_bits(1)
        c = b.build([b.or_(x[0], y[0])])
        assert c.and_count == 1

    def test_build_drops_gates_no_output_reaches(self):
        b = CircuitBuilder()
        (x,) = b.alice_input_bits(1)
        (y,) = b.bob_input_bits(1)
        dead = b.and_(x, y)
        b.not_(b.xor(dead, x))
        live = b.and_(x, b.not_(y))
        word = b.share_word([b.and_(live, y)])
        c = b.build([live])
        assert [g.out for g in c.gates] == [live - 1, live, live + 1]
        assert c.and_count == 2 and c.n_words == word + 1 == 1
        # the survivors keep their construction order in the tables
        ands = [lv.and_index.tolist() for lv in c.levels if len(lv.and_out)]
        assert sum(ands, []) == [0, 1]
        assert c.evaluate([1], [0]) == [1]
        assert c.evaluate_words([1], [1], 8) == [0]

    def test_word_length_mismatch(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            b.add(b.alice_input_bits(4), b.bob_input_bits(5))

    def test_evaluate_validates_input_counts(self):
        b = CircuitBuilder()
        xs = b.alice_input_bits(2)
        c = b.build(xs)
        with pytest.raises(ValueError):
            c.evaluate([1], [])
        with pytest.raises(ValueError):
            c.evaluate([1, 0], [1])

    def test_and_tree_of_empty_is_one(self):
        b = CircuitBuilder()
        w = b._and_tree([])
        c = b.build([w])
        assert c.evaluate([], []) == [1]

    def test_bits_roundtrip(self):
        for v in (0, 1, 5, 2**ELL - 1):
            assert int_of(bits_of(v, ELL)) == v
