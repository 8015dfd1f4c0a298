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
