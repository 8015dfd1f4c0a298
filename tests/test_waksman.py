"""Benes switching networks: routing correctness and size formulas.

The level-wise router is pinned switch for switch against the recursive
looping walk in ``tests/reference.py``.
"""

from itertools import permutations

import numpy as np
import pytest

from repro.mpc.waksman import (
    apply_network,
    benes_network,
    benes_routing,
    benes_topology,
    pad_permutation,
    switch_count,
)

from . import reference


def settings(perm):
    """:func:`benes_routing` in the oracle's format."""
    return [tuple(bool(s) for s in layer) for layer in benes_routing(perm)]


class TestRouting:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exhaustive_small(self, n):
        for perm in permutations(range(n)):
            layers = benes_network(list(perm))
            routed = apply_network(layers, list(range(n)))
            # value entering wire i leaves on wire perm[i]
            assert all(routed[perm[i]] == i for i in range(n))

    def test_random_large(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 260))
            perm = list(rng.permutation(n))
            padded = pad_permutation(perm)
            layers = benes_network(padded)
            routed = apply_network(layers, list(range(len(padded))))
            assert all(routed[padded[i]] == i for i in range(len(padded)))

    def test_identity_needs_no_swaps(self):
        layers = benes_network(list(range(8)))
        routed = apply_network(layers, list("abcdefgh"))
        assert routed == list("abcdefgh")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            benes_network([0, 1, 2])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            benes_network([0, 0, 1, 1])


class TestLevelWiseRouter:
    """Every switch of the level-wise router equals the recursive
    walk's: colour 0 goes to the orbit of ``i -> inv[perm[i]^1]^1``
    holding the smaller input, which is the orbit the walk starts in."""

    @pytest.mark.parametrize("n", [1, 2, 4])
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

    def test_padded_sizes_up_to_4096(self):
        rng = np.random.default_rng(7)
        for n in [int(v) for v in rng.integers(1, 4097, 12)] + [4096]:
            padded = pad_permutation(rng.permutation(n))
            assert settings(padded) == reference.route_swaps(padded.tolist())

    def test_settings_align_with_topology(self):
        perm = np.random.default_rng(3).permutation(64)
        for (a, b), swaps in zip(benes_topology(64), benes_routing(perm)):
            assert len(a) == len(b) == len(swaps)


class TestStructure:
    def test_layers_have_disjoint_wires(self):
        rng = np.random.default_rng(2)
        perm = list(rng.permutation(16))
        for a, b, _ in benes_network(perm):
            touched = np.concatenate([a, b]).tolist()
            assert len(touched) == len(set(touched))

    def test_depth_is_2logn_minus_1(self):
        for k in (2, 3, 4, 5):
            n = 2**k
            layers = benes_network(list(range(n)))
            assert len(layers) == 2 * k - 1

    def test_switch_count_formula(self):
        # count(n) = n + 2*count(n/2), count(2) = 1
        assert switch_count(2) == 1
        assert switch_count(4) == 6
        assert switch_count(8) == 20
        assert switch_count(16) == 56

    def test_switch_count_matches_network(self):
        for n in (2, 4, 8, 16, 32):
            layers = benes_network(list(range(n)))
            assert sum(len(a) for a, _, _ in layers) == switch_count(n)

    def test_switch_count_pads_to_power_of_two(self):
        assert switch_count(5) == switch_count(8)
        assert switch_count(1) == 0

    def test_pad_permutation_identity_tail(self):
        padded = pad_permutation([2, 0, 1])
        assert padded.tolist() == [2, 0, 1, 3]
