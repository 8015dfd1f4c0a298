"""The PSI bins' leaf OTs: token leaves and the shares they leave.

Each leaf of ``w`` token bits is one 1-of-``2^w`` OT from ``w`` random
OTs, Bob choosing by his leaf; Alice's mask ``r`` and Bob's bit ``b``
XOR to the leaf's equality (``repro.mpc.leaves``)."""

import numpy as np
import pytest

from repro.mpc import Context, Mode
from repro.mpc.costs import (
    LEAF_BITS,
    leaf_bytes,
    leaf_widths,
    psi_token_bits,
)
import repro.mpc.leaves as leaves_module
from repro.mpc.leaves import LeafOts
from repro.mpc.ot import make_ot


class FixedMasks:
    """An ``rng`` stand-in whose every draw is ``value``: Alice's masks
    all 0 or all 1."""

    def __init__(self, value):
        self.value = value

    def integers(self, low, high, size, dtype):
        return np.full(size, self.value, dtype=dtype)


def leaf_values(words, fp_bits):
    """``(n, n_leaves)``: every token's leaves, low bits first."""
    words = np.asarray(words, dtype=np.uint64)
    out, lo = [], 0
    for w in leaf_widths(fp_bits):
        out.append((words >> np.uint64(lo)) & np.uint64((1 << w) - 1))
        lo += w
    return np.stack(out, axis=1)


#: the shipped leaf width, and the width of a short last leaf
W = LEAF_BITS
SHORT = W - 1


def expected_widths(fp_bits):
    """Full leaves of ``W`` bits, then the remainder if any."""
    full, rest = divmod(fp_bits, W)
    return [W] * full + ([rest] if rest else [])


def open_leaves(t, s, fp_bits, seed=1):
    ctx = Context(Mode.REAL, seed=seed)
    t, s = (np.asarray(x, dtype=np.uint64) for x in (t, s))
    return ctx, LeafOts(ctx, make_ot(ctx), len(t), fp_bits, s), t


class TestLeafWidths:
    def test_widths_cover_the_token(self):
        for fp_bits in range(1, 62):
            widths = leaf_widths(fp_bits)
            assert sum(widths) == fp_bits
            assert len(widths) == -(-fp_bits // LEAF_BITS)
            assert set(widths[:-1]) <= {LEAF_BITS}
            assert 1 <= widths[-1] <= LEAF_BITS

    def test_q3_tokens_split_into_full_leaves(self):
        # 55-bit tokens (2^15 bins): 11 leaves of 5 bits, none short
        fp_bits = psi_token_bits(1 << 15, 40)
        assert fp_bits == 55
        assert LEAF_BITS == 5
        assert leaf_widths(fp_bits) == expected_widths(fp_bits) == [5] * 11
        # 11 x 32 message bits, 44 B a bin
        assert leaf_bytes(8, fp_bits) == 8 * 44

    @pytest.mark.parametrize("n_bins", [1 << 21, (1 << 21) + 1, 1 << 40])
    def test_at_and_above_the_cap(self, n_bins):
        # 40 + 21 bits reach the 61-bit cap; more bins stay at it
        fp_bits = psi_token_bits(n_bins, 40)
        assert fp_bits == 61
        assert leaf_widths(fp_bits) == expected_widths(fp_bits)
        assert sum(leaf_widths(fp_bits)) == fp_bits
        full, rest = divmod(fp_bits, W)
        assert leaf_bytes(1, fp_bits) == (full * 2**W + 2**rest + 7) // 8


@pytest.mark.real
class TestLeafShares:
    #: a full leaf and a short last one
    FP_BITS = W + SHORT
    #: bins: every pair of full leaves once
    N = 1 << 2 * W

    def every_pair(self):
        """``N`` bins: leaf 0 runs over all ``2^W x 2^W`` pairs ``(t_0,
        s_0)``, the short leaf over all ``2^SHORT x 2^SHORT`` pairs
        ``(t_1, s_1)``, four times each."""
        i = np.arange(self.N, dtype=np.uint64)
        w, short = np.uint64(W), np.uint64(SHORT)
        low, low_short = np.uint64(2**W - 1), np.uint64(2**SHORT - 1)
        t = (i >> w) | ((i >> short) & low_short) << w
        s = (i & low) | (i & low_short) << w
        return t, s

    def test_shares_xor_to_leaf_equality_for_every_pair(self):
        t, s = self.every_pair()
        ctx, leaves, t = open_leaves(t, s, self.FP_BITS)
        r, b = leaves.shares(ctx.rng, t)
        equal = leaf_values(t, self.FP_BITS) == leaf_values(s, self.FP_BITS)
        assert leaf_widths(self.FP_BITS) == [W, SHORT]
        assert r.shape == b.shape == (self.N, 2)
        np.testing.assert_array_equal(r ^ b, equal.astype(np.uint8))
        # both leaves' pairs are all there: 2^W matches of leaf 0, and
        # 2^SHORT of the short leaf, four times each
        assert equal.sum(axis=0).tolist() == [2**W, 4 * 2**SHORT]

    def test_bobs_bit_is_uniform_over_alices_masks(self):
        """For every pair, Alice's mask 0 and mask 1 give Bob the two
        different bits: his bit alone says nothing of the equality."""
        t, s = self.every_pair()
        bits = []
        for mask in (0, 1):
            ctx, leaves, tw = open_leaves(t, s, self.FP_BITS)
            r, b = leaves.shares(FixedMasks(mask), tw)
            assert (r == mask).all()
            bits.append(b)
        assert (bits[0] ^ bits[1] == 1).all()

    def test_bob_cannot_open_the_other_messages(self):
        """Bob strips his own pads off every message: only message
        ``s_j`` opens to ``r_j ^ [v == t_j]``; the others stay masked
        by the pads he did not choose, right about half the time."""
        t, s = self.every_pair()
        ctx, leaves, t = open_leaves(t, s, self.FP_BITS)
        r, _ = leaves.shares(ctx.rng, t)
        pc = leaves_module.le_bytes_to_words(leaves._cot.pc[0])
        mine = np.bitwise_xor.reduceat(pc.reshape(self.N, -1), [0, W], 1)
        widths = np.asarray(leaf_widths(self.FP_BITS), dtype=np.uint64)
        sealed = leaves_module._unpack(leaves._sealed, self.N, widths)
        v = np.arange(2**W, dtype=np.uint64)
        opened = ((sealed ^ mine)[:, :, None] >> v) & np.uint64(1)
        want = r[:, :, None] ^ (leaf_values(t, self.FP_BITS)[:, :, None] == v)
        exists = v[None, :] < (np.uint64(1) << widths)[:, None]
        chosen = leaf_values(s, self.FP_BITS)[:, :, None] == v
        right = opened == want
        assert right[chosen].all()
        others = right[~chosen & exists[None]]
        assert 0.4 < others.mean() < 0.6, others.mean()

    def test_sealed_messages_are_what_is_sent(self):
        t, s = self.every_pair()
        ctx, leaves, t = open_leaves(t, s, self.FP_BITS)
        leaves.shares(ctx.rng, t)
        leaves.send()
        sent = ctx.transcript.messages[-1]
        assert sent.label == "leaves/messages"
        per_bin = (2**W + 2**SHORT) // 8
        assert sent.n_bytes == leaf_bytes(self.N, self.FP_BITS)
        assert sent.n_bytes == self.N * per_bin

    def test_61_bit_tokens_with_a_one_bit_last_leaf(self):
        rng = np.random.default_rng(5)
        t = rng.integers(0, 1 << 61, 64, dtype=np.uint64)
        s = t.copy()
        s[::2] ^= np.uint64(1) << rng.integers(0, 61, 32).astype(np.uint64)
        ctx, leaves, t = open_leaves(t, s, 61)
        r, b = leaves.shares(ctx.rng, t)
        equal = leaf_values(t, 61) == leaf_values(s, 61)
        np.testing.assert_array_equal(r ^ b, equal.astype(np.uint8))
        np.testing.assert_array_equal((r ^ b).all(axis=1), t == s)
