"""Beneš switching networks for oblivious permutation.

The OEP protocol of Mohassel & Sadeghian routes values through a network
of 2x2 switches whose settings only the permutation holder (Alice) knows.
This module builds the network *and* its routing for an arbitrary
permutation: sizes are padded to the next power of two (padded slots are
routed identically), giving ``2*log2(n) - 1`` layers and about
``n*log2(n)`` switches.  A layer is arrays: the wire pairs
``(wire_a, wire_b)`` of its switches and, once routed, their settings.

The network splits into two independent parts:

* :func:`benes_topology` — the wire-pair structure of every layer.  It
  depends only on the size ``n``, so it is memoised (both here and in
  the per-run :class:`~repro.mpc.runcache.RunCache`): a query that runs
  hundreds of OEPs over same-sized vectors builds each shape once.
* :func:`benes_routing` — the per-permutation switch settings, by the
  classic looping/2-colouring argument: the two inputs of every
  input-layer switch must enter different sub-networks, and the two
  inputs targeting the same output-layer switch must arrive from
  different sub-networks.  Both constraints together map input ``i`` to
  ``f(i) = inv[perm[i] ^ 1] ^ 1``, which must take the same sub-network
  as ``i``; the orbit of ``f`` through ``i`` and the one through
  ``i ^ 1`` take opposite ones.  The top sub-network goes to the orbit
  holding the smaller input — so a walk from each smallest unrouted
  input, the textbook loop, sets every switch the same way — and
  pointer doubling finds every orbit's minimum in ``log n`` vector
  steps.  The recursion runs one level at a time across all
  sub-networks of that level.

:func:`benes_network` zips the two into the routed layers the OEP
protocol consumes.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "benes_network",
    "benes_topology",
    "benes_routing",
    "apply_network",
    "switch_count",
    "pad_permutation",
    "padded_size",
    "route",
]

#: A topology layer: the ``(wire_a, wire_b)`` arrays of its switches,
#: which touch disjoint wires.
TopologyLayer = Tuple[np.ndarray, np.ndarray]

#: A routed layer: ``(wire_a, wire_b, swap)`` — swap switch ``j`` iff
#: ``swap[j]``.
Layer = Tuple[np.ndarray, np.ndarray, np.ndarray]


def padded_size(n: int) -> int:
    """The power-of-two wire count a network on ``n`` inputs pads to."""
    size = 1
    while size < n:
        size *= 2
    return size


def pad_permutation(perm: Sequence[int]) -> np.ndarray:
    """Extend a permutation of [n] to the next power of two with identity
    on the padding slots."""
    n = len(perm)
    return np.concatenate(
        [np.asarray(perm, dtype=np.int64), np.arange(n, padded_size(n))]
    )


def _check_size(n: int) -> None:
    if n & (n - 1):
        raise ValueError("Benes network size must be a power of two")


def _halves(rows: np.ndarray) -> np.ndarray:
    """The sub-networks one level down: row ``r`` splits into row
    ``2r``, its even-indexed entries (the top half), and row ``2r + 1``,
    its odd-indexed entries (the bottom half)."""
    n_rows, size = rows.shape
    return np.stack([rows[:, 0::2], rows[:, 1::2]], axis=1).reshape(
        2 * n_rows, size // 2
    )


@functools.lru_cache(maxsize=None)
def benes_topology(n: int) -> Tuple[TopologyLayer, ...]:
    """The layers of (wire_a, wire_b) switch pairs of a size-``n`` Beneš
    network — permutation-independent, hence memoised by size.  ``n``
    must be a power of two.  Each sub-network's input and output layers
    pair its wires ``(2p, 2p + 1)``; its top half runs on the
    even-indexed wires and its bottom half on the odd-indexed ones, and
    a layer lists the switches of its sub-networks top first."""
    _check_size(n)
    levels: List[TopologyLayer] = []
    wires = np.arange(n).reshape(1, n)
    while wires.shape[1] > 1:
        levels.append((wires[:, 0::2].ravel(), wires[:, 1::2].ravel()))
        wires = _halves(wires)
    for a, b in levels:
        a.flags.writeable = b.flags.writeable = False
    return tuple(levels + levels[-2::-1])


def benes_routing(perm: Sequence[int]) -> List[np.ndarray]:
    """Per-layer switch settings realising ``wire[perm[i]] <- wire[i]``,
    aligned switch-for-switch with :func:`benes_topology` of the same
    size.  ``perm`` must be a permutation whose length is a power of two
    (use :func:`pad_permutation` first)."""
    sub = np.asarray(perm, dtype=np.int64)
    n = len(sub)
    _check_size(n)
    if not np.array_equal(np.sort(sub), np.arange(n)):
        raise ValueError("not a permutation")
    if n == 1:
        return []
    # ``sub`` holds one permutation per sub-network of the current
    # level, back to back, each on its own wire numbering.
    in_layers: List[np.ndarray] = []
    out_layers: List[np.ndarray] = []
    size = n
    while size > 2:
        in_swaps, out_swaps, sub = _route_level(sub, size)
        in_layers.append(in_swaps)
        out_layers.append(out_swaps)
        size //= 2
    return in_layers + [sub[0::2] == 1] + out_layers[::-1]


def _route_level(
    sub: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One recursion level across all of its size-``size``
    sub-networks: their input- and output-layer settings, and their
    halves' permutations (:func:`_halves` order).  Works on the level's
    flat wire numbering, where sub-network ``r`` owns wires
    ``r * size`` to ``(r + 1) * size - 1``."""
    wires = np.arange(len(sub))
    target = sub + (wires & -size)
    inv = np.empty_like(target)
    inv[target] = wires

    # Colour 1 (bottom) iff the minimum of i's f-orbit exceeds that of
    # i ^ 1's, found by pointer doubling.
    step = inv[target ^ 1] ^ 1
    low = wires
    for _ in range(size.bit_length() - 2):  # orbits hold <= size/2 inputs
        low = np.minimum(low, low[step])
        step = step[step]
    bottom = low > low[wires ^ 1]

    # Input switch p sends its bottom-coloured input down; past the
    # input layer, wire 2p feeds the top half and 2p + 1 the bottom.
    in_swaps = bottom[0::2]
    switched = target[wires ^ np.repeat(in_swaps, 2)]
    # Output switch q swaps iff its input from the top sub-network
    # targets output 2q + 1.
    first = inv[0::2]
    from_top = np.where(bottom[first], inv[1::2], first)
    out_swaps = target[from_top] == wires[1::2]
    halves = _halves(((switched & (size - 1)) >> 1).reshape(-1, size))
    return in_swaps, out_swaps, halves.ravel()


def benes_network(perm: Sequence[int]) -> List[Layer]:
    """Layers of switches realising ``wire[perm[i]] <- wire[i]``, i.e.
    the value entering on wire ``i`` leaves on wire ``perm[i]``.

    ``perm`` must be a permutation whose length is a power of two (use
    :func:`pad_permutation` first).
    """
    return route(benes_topology(len(perm)), perm)


def route(
    topology: Sequence[TopologyLayer], perm: Sequence[int]
) -> List[Layer]:
    """``topology`` (of ``perm``'s size) with ``perm``'s settings."""
    return [
        (a, b, swaps)
        for (a, b), swaps in zip(topology, benes_routing(perm))
    ]


def apply_network(layers: Sequence[Layer], values: Sequence) -> List:
    """Plaintext application (reference semantics for tests)."""
    vals = np.empty(len(values), dtype=object)
    vals[:] = list(values)
    for a, b, swaps in layers:
        a, b = a[swaps], b[swaps]
        vals[a], vals[b] = vals[b], vals[a]
    return vals.tolist()


@functools.lru_cache(maxsize=None)
def switch_count(n: int) -> int:
    """Number of switches of a padded Benes network on ``n`` inputs —
    the quantity the SIMULATED cost model charges per permutation."""
    size = padded_size(n)
    if size == 1:
        return 0

    def count(m: int) -> int:
        if m == 1:
            return 0
        if m == 2:
            return 1
        return m + 2 * count(m // 2)

    return count(size)
