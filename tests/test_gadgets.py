"""The circuit templates: semantics and shape of every gadget."""

import numpy as np
import pytest

from repro.mpc.gadgets import (
    bits_of,
    div_reveal_circuit,
    int_of,
    merge_or_circuit,
    merge_sum_circuit,
    mul_shared_circuit,
    nonzero_circuit,
    psi_bin_circuit,
    reveal_tuple_circuit,
)

ELL = 8
MOD = 1 << ELL


def w(v):
    return bits_of(v, ELL)


class TestMulTemplates:
    def test_mul_shared(self):
        c = mul_shared_circuit(ELL)
        out = c.evaluate(w(3) + w(5), w(4) + w(6) + w(9))
        assert int_of(out) == ((3 + 4) * (5 + 6) + 9) % MOD

    def test_caching(self):
        assert mul_shared_circuit(ELL) is mul_shared_circuit(ELL)
        assert mul_shared_circuit(8) is not mul_shared_circuit(16)


class TestNonzero:
    @pytest.mark.parametrize("x1,x2", [(0, 0), (3, 253), (5, 0), (0, 9)])
    def test_indicator(self, x1, x2):
        c = nonzero_circuit(ELL)
        out = c.evaluate(w(x1), w(x2) + w(7))
        expect = (1 if (x1 + x2) % MOD != 0 else 0) + 7
        assert int_of(out) == expect % MOD


class TestMergeChains:
    def test_sum_chain_groups(self):
        n = 5
        c = merge_sum_circuit(ELL, n)
        vals = [3, 4, 10, 1, 2]
        same = [1, 0, 0, 1]  # groups {0,1},{2},{3,4}
        v1 = [7, 1, 9, 2, 8]
        v2 = [(v - a) % MOD for v, a in zip(vals, v1)]
        r = [11, 12, 13, 14, 15]
        abits = list(same)
        for x in v1:
            abits += w(x)
        bbits = []
        for x in v2 + r:
            bbits += w(x)
        out = c.evaluate(abits, bbits)
        words = [
            (int_of(out[i * ELL : (i + 1) * ELL]) - r[i]) % MOD
            for i in range(n)
        ]
        assert words == [0, 7, 10, 0, 3]

    def test_sum_chain_single_tuple(self):
        c = merge_sum_circuit(ELL, 1)
        out = c.evaluate(w(5), w(6) + w(1))
        assert int_of(out) == 12

    def test_or_chain(self):
        n = 4
        c = merge_or_circuit(ELL, n)
        indicator = [0, 1, 0, 1]
        same = [1, 1, 0]  # groups {0,1,2}, {3}
        v1 = [1, 0, 1, 1]
        v2 = [(b - a) % 2 for b, a in zip(indicator, v1)]
        r = [5, 6, 7, 8]
        abits = list(same) + v1
        bbits = list(v2)
        for x in r:
            bbits += w(x)
        out = c.evaluate(abits, bbits)
        words = [
            (int_of(out[i * ELL : (i + 1) * ELL]) - r[i]) % MOD
            for i in range(n)
        ]
        assert words == [0, 0, 1, 1]

    def test_chain_size_linear(self):
        a2 = merge_sum_circuit(ELL, 2).and_count
        a3 = merge_sum_circuit(ELL, 3).and_count
        a5 = merge_sum_circuit(ELL, 5).and_count
        assert a5 - a3 == 2 * (a3 - a2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_sum_circuit(ELL, 0)


class TestPsiBin:
    def test_match_and_miss(self):
        fp = 12
        c = psi_bin_circuit(ELL, fp, reveal_payload=False)

        def run(t, s, p, wv, fb, ri, rp):
            out = c.evaluate(
                bits_of(t, fp) + w(p),
                bits_of(s, fp) + w(wv) + w(fb) + w(ri) + w(rp),
            )
            return (
                (int_of(out[:ELL]) - ri) % MOD,
                (int_of(out[ELL:]) - rp) % MOD,
            )

        assert run(500, 500, 10, 20, 99, 1, 2) == (1, 30)
        assert run(500, 501, 10, 20, 99, 1, 2) == (0, 99)

    def test_reveal_variant_skips_mask(self):
        fp = 12
        c = psi_bin_circuit(ELL, fp, reveal_payload=True)
        # no r_pay input either: Bob's last word is the one mask in use
        out = c.evaluate(
            bits_of(7, fp) + w(10),
            bits_of(7, fp) + w(20) + w(99) + w(3),
        )
        assert (int_of(out[:ELL]) - 3) % MOD == 1
        assert int_of(out[ELL:]) == 30  # p + w, unmasked


class TestProdAndDiv:
    def test_div(self):
        c = div_reveal_circuit(ELL)
        out = c.evaluate(w(100) + w(3), w(33) + w(7))
        assert int_of(out) == 133 // 10


class TestRevealTuple:
    def test_payload_gated_by_nonzero(self):
        c = reveal_tuple_circuit(ELL, 6)
        payload = [1, 0, 1, 1, 0, 1]
        out = c.evaluate(w(5), w((0 - 5) % MOD) + payload)
        assert out[0] == 0 and int_of(out[1:]) == 0
        out = c.evaluate(w(5), w(1) + payload)
        assert out[0] == 1 and out[1:] == payload
