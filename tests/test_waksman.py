"""Benes switching networks of any size: routing correctness and size
formulas.

The level-wise router is pinned switch for switch against the recursive
looping walk in ``tests/reference.py``, generalised to odd sizes by the
Chang-Melhem split.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from repro.mpc.waksman import (
    apply_network,
    benes_network,
    benes_routing,
    benes_topology,
    prefix_masks,
    prefix_switch_count,
    switch_count,
)

from . import reference

#: Sizes the benchmark's OEPs run at, scaled down where they are large:
#: odd and even halves at every level, and one past a power of two.
ODD_SIZES = [9, 133, 4097, 19050]


def settings(perm):
    """:func:`benes_routing` in the oracle's format."""
    return [tuple(bool(s) for s in layer) for layer in benes_routing(perm)]


def routes(perm):
    """Whether :func:`benes_network` sends input ``i`` to ``perm[i]``."""
    routed = apply_network(benes_network(perm), list(range(len(perm))))
    return all(routed[p] == i for i, p in enumerate(perm))


class TestRouting:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_small(self, n):
        for perm in permutations(range(n)):
            assert routes(list(perm)), perm

    def test_random_large(self):
        rng = np.random.default_rng(1)
        sizes = [int(n) for n in rng.integers(1, 260, 20)] + ODD_SIZES
        for n in sizes:
            assert routes(rng.permutation(n)), n

    def test_identity_needs_no_swaps(self):
        layers = benes_network(list(range(8)))
        routed = apply_network(layers, list("abcdefgh"))
        assert routed == list("abcdefgh")

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            benes_network([0, 0, 1, 1])
        with pytest.raises(ValueError):
            benes_network([0, 2, 3])


class TestLevelWiseRouter:
    """Every switch of the level-wise router equals the recursive
    walk's: colour 0 goes to the orbit of ``i -> inv[perm[i]^1]^1``
    holding the smaller input, which is the orbit the walk starts in,
    and an odd sub-network's last wire goes to the bottom half, as the
    walk colours it first."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exhaustive_small(self, n):
        for perm in permutations(range(n)):
            assert settings(perm) == reference.route_swaps(list(perm))

    @pytest.mark.parametrize("k", range(13))
    def test_random_identity_and_reversal(self, k):
        n = 2**k
        rng = np.random.default_rng(k)
        count = 200 if n == 8 else 3 if n < 1024 else 1
        perms = [rng.permutation(n) for _ in range(count)]
        for perm in perms + [np.arange(n), np.arange(n)[::-1]]:
            assert settings(perm) == reference.route_swaps(perm.tolist())

    def test_any_size_equals_walk(self):
        rng = np.random.default_rng(7)
        sizes = [int(v) for v in rng.integers(1, 4097, 12)] + ODD_SIZES
        for n in sizes:
            perm = rng.permutation(n)
            assert settings(perm) == reference.route_swaps(perm.tolist()), n

    def test_settings_align_with_topology(self):
        for n in (64, 67):
            perm = np.random.default_rng(3).permutation(n)
            topology, routing = benes_topology(n), benes_routing(perm)
            assert len(topology) == len(routing)
            for (a, b), swaps in zip(topology, routing):
                assert len(a) == len(b) == len(swaps)


class TestStructure:
    def test_layers_have_disjoint_wires(self):
        rng = np.random.default_rng(2)
        for n in (16, 19, 133):
            for a, b, _ in benes_network(list(rng.permutation(n))):
                touched = np.concatenate([a, b]).tolist()
                assert len(touched) == len(set(touched))
                assert min(touched) >= 0 and max(touched) < n

    def test_depth_is_2logn_minus_1(self):
        for n in range(2, 300):
            layers = benes_network(list(range(n)))
            assert len(layers) == 2 * math.ceil(math.log2(n)) - 1, n

    def test_switch_count_formula(self):
        # B(n) = 2 floor(n/2) + B(floor(n/2)) + B(ceil(n/2)), B(2) = 1
        counts = [0, 0, 1, 3, 6, 8, 12, 15, 20]
        assert [switch_count(n) for n in range(9)] == counts
        assert switch_count(16) == 56
        # the sizes Q3 at 10 MB permutes, against their old padded sizes
        assert switch_count(19_050) == 255_778
        assert switch_count(32_768) == 475_136

    def test_switch_count_below_padded_size(self):
        # no padding: a size between powers of two needs fewer switches
        # than the next power of two, and a single wire needs none
        assert switch_count(1) == 0
        for n in range(3, 300):
            padded = 1 << (n - 1).bit_length()
            if n < padded:
                assert switch_count(n) < switch_count(padded), n

    def test_switch_count_matches_network(self):
        for n in range(1, 301):
            layers = benes_network(list(range(n)))
            assert sum(len(a) for a, _, _ in layers) == switch_count(n), n


def all_prefix_outputs(perm):
    """For every ``k`` in ``1 .. n - 1`` at once: which switches of
    ``perm``'s network feed one of its first ``k`` outputs (a backward
    pass over a ``(wires, k)`` liveness matrix), and the wire each input
    reaches in the network of only those switches — ``(masks,
    outputs)``, one column per ``k``."""
    n = len(perm)
    layers = benes_network(perm)
    ks = np.arange(1, n)
    live = np.arange(n)[:, None] < ks[None, :]
    masks = []
    for a, b, _ in reversed(layers):
        keep = live[a] | live[b]
        live[a] |= keep
        live[b] |= keep
        masks.append(keep)
    masks = masks[::-1]
    vals = np.repeat(np.arange(n)[:, None], len(ks), axis=1)
    for (a, b, swaps), keep in zip(layers, masks):
        sw = swaps[:, None] & keep
        va, vb = vals[a], vals[b]
        vals[a], vals[b] = np.where(sw, vb, va), np.where(sw, va, vb)
    return masks, vals


class TestTruncatedNetwork:
    """The extended permutation's first network keeps only the switches
    that feed one of its first ``n_out`` outputs."""

    def test_first_outputs_match_full_network_up_to_300(self):
        rng = np.random.default_rng(8)
        for n in range(2, 301):
            perm = rng.permutation(n)
            full = np.empty(n, dtype=np.int64)
            full[perm] = np.arange(n)  # the input each output receives
            masks, vals = all_prefix_outputs(perm)
            kept = sum(m.sum(axis=0) for m in masks)
            for k in range(1, n):
                assert (vals[:k, k - 1] == full[:k]).all(), (n, k)
                assert kept[k - 1] == prefix_switch_count(n, k), (n, k)
            # the library's masks are the oracle's, on a sample of k
            for k in {k for k in (1, 2, n // 2, n - 1) if 0 < k < n}:
                got = prefix_masks(n, k)
                assert all(
                    (g == m[:, k - 1]).all() for g, m in zip(got, masks)
                ), (n, k)

    def test_benes_network_truncates_every_prefix_small(self):
        rng = np.random.default_rng(9)
        for n in range(2, 41):
            perm = list(rng.permutation(n))
            full = apply_network(benes_network(perm), list(range(n)))
            for k in range(1, n + 1):
                layers = benes_network(perm, k)
                routed = apply_network(layers, list(range(n)))
                assert routed[:k] == full[:k], (n, k)
                count = sum(len(a) for a, _, _ in layers)
                assert count == prefix_switch_count(n, k)

    @pytest.mark.parametrize(
        "n, k, full, kept",
        [
            # Q3's full-join OEP at 10 MB, and each fold's
            (15_001, 133, 197_709, 110_902),
            (19_050, 15_000, 255_778, 234_719),
        ],
    )
    def test_benchmark_shapes(self, n, k, full, kept):
        assert switch_count(n) == prefix_switch_count(n, n) == full
        assert prefix_switch_count(n, k) == kept
        perm = np.random.default_rng(n).permutation(n)
        layers = benes_network(perm, k)
        assert sum(len(a) for a, _, _ in layers) == kept
        values = np.arange(n)
        for a, b, swaps in layers:
            a, b = a[swaps], b[swaps]
            values[a], values[b] = values[b], values[a].copy()
        want = np.empty(n, dtype=np.int64)
        want[perm] = np.arange(n)
        assert (values[:k] == want[:k]).all()

    def test_counts_edge_cases(self):
        assert prefix_switch_count(5, 0) == 0
        assert prefix_switch_count(2, 1) == 1
        assert prefix_switch_count(7, 9) == switch_count(7)
        # a sub-network with any live output keeps all its input switches
        for n in range(3, 200):
            assert prefix_switch_count(n, 1) >= n // 2
            assert prefix_switch_count(n, n - 1) <= switch_count(n)
