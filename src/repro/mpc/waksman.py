"""Beneš switching networks of any size for oblivious permutation.

The OEP protocol of Mohassel & Sadeghian routes values through a network
of 2x2 switches whose settings only the permutation holder (Alice) knows.
This module builds the network *and* its routing for an arbitrary
permutation of any length ``n``, by the recursive split of Chang &
Melhem (1997): a sub-network on ``s`` wires has ``floor(s/2)`` input
and output switches around a top half on ``floor(s/2)`` wires and a
bottom half on ``ceil(s/2)``; for odd ``s`` the last input and the last
output wire bypass the outer layers into the bottom half.  That gives
``B(s) = 2 floor(s/2) + B(floor(s/2)) + B(ceil(s/2))`` switches, with
``B(1) = 0`` and ``B(2) = 1`` (a two-wire sub-network is one switch),
in ``2 ceil(log2 n) - 1`` layers.  A layer is arrays: the wire pairs
``(wire_a, wire_b)`` of its switches and, once routed, their settings.

Both parts below run one recursion level at a time across all
sub-networks of that level.  A level holds at most two sub-network
sizes, so it is kept as a matrix with one row per sub-network, each
row's wires a prefix padded to a common even width by *phantom* wires:
the phantoms' targets are the identity, and no switch touches one.

* :func:`benes_topology` — the wire-pair structure of every layer.  It
  depends only on the size ``n``, so it is memoised process-wide: a
  query that runs hundreds of OEPs over same-sized vectors builds each
  shape once.
* :func:`benes_routing` — the per-permutation switch settings, by the
  classic looping/2-colouring argument: the two inputs of every
  input-layer switch must enter different sub-networks, and the two
  inputs targeting the same output-layer switch must arrive from
  different sub-networks.  Both constraints together map input ``i`` to
  ``f(i) = inv[perm[i] ^ 1] ^ 1``, which must take the same sub-network
  as ``i``; the orbit of ``f`` through ``i`` and the one through
  ``i ^ 1`` take opposite ones.  The top sub-network goes to the orbit
  with the smaller key — an input's key is its index, so a walk from
  each smallest unrouted input, the textbook loop, sets every switch
  the same way — and pointer doubling finds every orbit's minimum in
  ``log n`` vector steps.  A phantom's key is below every real input's,
  so the phantom paired with an odd row's last wire takes the top and
  sends that wire to the bottom half, which is the bypass; the other
  phantoms pair among themselves and stay put.

:func:`benes_network` zips the two into the routed layers the OEP
protocol consumes.  When only the first ``n_out`` outputs are read (the
extended permutation's first network, whose wires past ``n_out`` are
dropped), it keeps only the switches that feed one of them
(:func:`prefix_masks`); which those are depends on ``(n, n_out)``
alone, and :func:`prefix_switch_count` counts them in closed form.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "benes_network",
    "benes_topology",
    "benes_routing",
    "apply_network",
    "prefix_masks",
    "prefix_switch_count",
    "switch_count",
    "route",
]

#: A topology layer: the ``(wire_a, wire_b)`` arrays of its switches,
#: which touch disjoint wires.
TopologyLayer = Tuple[np.ndarray, np.ndarray]

#: A routed layer: ``(wire_a, wire_b, swap)`` — swap switch ``j`` iff
#: ``swap[j]``.
Layer = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _halves(rows: np.ndarray) -> np.ndarray:
    """The sub-networks one level down: row ``r`` splits into row
    ``2r``, its even-indexed entries (the top half), and row ``2r + 1``,
    its odd-indexed entries (the bottom half).  ``rows`` has an even
    width."""
    n_rows, size = rows.shape
    return (
        rows.reshape(n_rows, size // 2, 2)
        .transpose(0, 2, 1)
        .reshape(2 * n_rows, size // 2)
    )


def _even(rows: np.ndarray, fill: int) -> np.ndarray:
    """``rows`` widened to an even width by one column of ``fill`` when
    its width is odd."""
    if rows.shape[1] % 2 == 0:
        return rows
    column = np.full((rows.shape[0], 1), fill, dtype=rows.dtype)
    return np.concatenate([rows, column], axis=1)


class _Level(NamedTuple):
    """One recursion level's shape: its rows' sizes, which entries of
    the flattened ``(rows, width)`` matrix are phantoms, and which of the
    ``(rows, width // 2)`` wire pairs carry an input switch and which an
    output switch."""

    sizes: np.ndarray
    phantom: np.ndarray
    in_mask: np.ndarray
    out_mask: np.ndarray


@functools.lru_cache(maxsize=32)
def _levels(n: int) -> Tuple[_Level, ...]:
    """The levels of a size-``n`` network.  Pair ``p`` of a row of ``s``
    real wires is a switch iff ``2p + 1 < s``; a two-wire row is one
    switch, counted as its output switch.  A row splits into
    ``floor(s/2)`` wires on top and ``ceil(s/2)`` below."""
    levels: List[_Level] = []
    sizes, width = np.array([n]), n
    while width > 1:
        width += width % 2
        real = np.arange(width) < sizes[:, None]
        pairs = real[:, 1::2]
        level = _Level(
            sizes, ~real.ravel(), pairs & (sizes[:, None] > 2), pairs
        )
        for array in (level.sizes, level.phantom, level.in_mask, pairs):
            array.flags.writeable = False
        levels.append(level)
        sizes = np.stack([sizes // 2, sizes - sizes // 2], axis=1).ravel()
        width //= 2
    return tuple(levels)


@functools.lru_cache(maxsize=32)
def benes_topology(n: int) -> Tuple[TopologyLayer, ...]:
    """The layers of (wire_a, wire_b) switch pairs of a size-``n`` Beneš
    network — permutation-independent, hence memoised by size.  Each
    sub-network's input and output layers pair its wires
    ``(2p, 2p + 1)``; its top half runs on the even-indexed wires and
    its bottom half on the odd-indexed ones plus, for an odd size, the
    last wire; a layer lists the switches of its sub-networks top
    first."""
    ins: List[TopologyLayer] = []
    outs: List[TopologyLayer] = []
    wires = np.arange(n).reshape(1, n)  # -1 marks a phantom
    for level in _levels(n):
        wires = _even(wires, -1)
        a, b = wires[:, 0::2], wires[:, 1::2]
        ins.append((a[level.in_mask], b[level.in_mask]))
        outs.append((a[level.out_mask], b[level.out_mask]))
        # An odd row's last wire goes to the bottom half: it trades
        # places with the phantom after it.
        odd = np.flatnonzero(level.sizes % 2)
        last = level.sizes[odd] - 1
        wires = wires.copy()
        wires[odd, last + 1] = wires[odd, last]
        wires[odd, last] = -1
        wires = _halves(wires)
    layers = [(a, b) for a, b in ins + outs[::-1] if len(a)]
    for a, b in layers:
        a.flags.writeable = b.flags.writeable = False
    return tuple(layers)


def benes_routing(perm: Sequence[int]) -> List[np.ndarray]:
    """Per-layer switch settings realising ``wire[perm[i]] <- wire[i]``,
    aligned switch-for-switch with :func:`benes_topology` of the same
    size.  ``perm`` must be a permutation of ``range(len(perm))``."""
    sub = np.asarray(perm, dtype=np.int64)
    n = len(sub)
    if not np.array_equal(np.sort(sub), np.arange(n)):
        raise ValueError("not a permutation")
    # ``sub`` holds one permutation per sub-network of the current
    # level, one row each, on its own wire numbering.
    ins: List[np.ndarray] = []
    outs: List[np.ndarray] = []
    sub = sub.reshape(1, n)
    for level in _levels(n):
        sub = _even(sub, sub.shape[1])  # a phantom maps to itself
        if sub.shape[1] == 2:  # the middle layer: one switch per pair
            outs.append((sub[:, :1] == 1)[level.out_mask])
            break
        in_swaps, out_swaps, sub = _route_level(sub, level.phantom)
        ins.append(in_swaps[level.in_mask])
        outs.append(out_swaps[level.out_mask])
    return [swaps for swaps in ins + outs[::-1] if len(swaps)]


def _route_level(
    sub: np.ndarray, phantom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One recursion level across all of its sub-networks, one per row
    of ``sub`` (an even width; ``phantom`` marks the entries past a
    row's size, which map to themselves): every wire pair's input- and
    output-layer setting, by row, and the halves' permutations
    (:func:`_halves` order).  Works on the level's flat wire numbering,
    where row ``r`` owns wires ``r * width`` to
    ``(r + 1) * width - 1``."""
    n_rows, width = sub.shape
    wires = np.arange(sub.size)
    local = sub.ravel()
    target = (sub + np.arange(0, sub.size, width)[:, None]).ravel()
    inv = np.empty_like(target)
    inv[target] = wires

    # Colour 1 (bottom) iff the minimum key of i's f-orbit exceeds that
    # of i ^ 1's, found by pointer doubling; phantoms key below inputs.
    step = inv[target ^ 1] ^ 1
    low = np.where(phantom, wires - sub.size, wires)
    for _ in range((width // 2 - 1).bit_length()):  # orbit <= width/2
        low = np.minimum(low, low[step])
        step = step[step]
    bottom = low > low[wires ^ 1]

    # Input switch p sends its bottom-coloured input down; past the
    # input layer, wire 2p feeds the top half and 2p + 1 the bottom.
    in_swaps = bottom[0::2]
    switched = local[wires ^ np.repeat(in_swaps, 2)]
    # Output switch q swaps iff its input from the top sub-network
    # targets output 2q + 1.
    first = inv[0::2]
    from_top = np.where(bottom[first], inv[1::2], first)
    out_swaps = target[from_top] == wires[1::2]
    halves = _halves((switched >> 1).reshape(n_rows, width))
    return (
        in_swaps.reshape(n_rows, -1),
        out_swaps.reshape(n_rows, -1),
        halves,
    )


def benes_network(
    perm: Sequence[int], n_out: Optional[int] = None
) -> List[Layer]:
    """Layers of switches realising ``wire[perm[i]] <- wire[i]``, i.e.
    the value entering on wire ``i`` leaves on wire ``perm[i]``, on
    exactly ``len(perm)`` wires.  With ``n_out``, only the switches
    that feed one of the first ``n_out`` outputs are kept: those
    outputs are as in the full network, the others are not."""
    n = len(perm)
    layers = route(benes_topology(n), perm)
    if n_out is None or n_out >= n:
        return layers
    return [
        (a[keep], b[keep], swaps[keep])
        for (a, b, swaps), keep in zip(layers, prefix_masks(n, n_out))
    ]


@functools.lru_cache(maxsize=32)
def prefix_masks(n: int, n_out: int) -> Tuple[np.ndarray, ...]:
    """Per layer of :func:`benes_topology` of ``n``, which switches feed
    one of the first ``n_out`` outputs: a backward pass from those
    outputs, in which a kept switch makes both its input wires live."""
    live = np.arange(n) < n_out
    masks: List[np.ndarray] = []
    for a, b in reversed(benes_topology(n)):
        keep = live[a] | live[b]
        live[a[keep]] = live[b[keep]] = True
        keep.flags.writeable = False
        masks.append(keep)
    return tuple(masks[::-1])


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
    """``B(n)``, the switches of the Beneš network on ``n`` wires — the
    quantity the SIMULATED cost model charges per permutation."""
    if n <= 2:
        return max(n - 1, 0)
    half = n // 2
    return 2 * half + switch_count(half) + switch_count(n - half)


@functools.lru_cache(maxsize=None)
def prefix_switch_count(n: int, n_out: int) -> int:
    """The switches of the ``n``-wire network that feed one of its first
    ``n_out`` outputs (:func:`prefix_masks`).  Every input of a
    sub-network with a live output reaches it, so all its input switches
    stay; of its output switches, the ``ceil(k/2)`` on its first ``k``
    outputs, whose top and bottom halves then each have
    ``ceil(k/2)`` live outputs (the bypass output is the last, live only
    when all are)."""
    if n_out >= n:
        return switch_count(n)
    if n_out <= 0:
        return 0
    half, k = n // 2, (n_out + 1) // 2
    return (
        (half if n > 2 else 0)
        + k
        + prefix_switch_count(half, k)
        + prefix_switch_count(n - half, k)
    )
