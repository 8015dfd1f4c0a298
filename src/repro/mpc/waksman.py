"""Beneš switching networks for oblivious permutation.

The OEP protocol of Mohassel & Sadeghian routes values through a network
of 2x2 switches whose settings only the permutation holder (Alice) knows.
This module builds the network *and* its routing for an arbitrary
permutation: sizes are padded to the next power of two (padded slots are
routed identically), giving ``2*log2(n) - 1`` layers and about
``n*log2(n)`` switches.

The network splits into two independent parts:

* :func:`benes_topology` — the wire-pair structure of every layer.  It
  depends only on the size ``n``, so it is memoised (both here and in
  the per-run :class:`~repro.mpc.runcache.RunCache`): a query that runs
  hundreds of OEPs over same-sized vectors builds each shape once.
* :func:`benes_routing` — the per-permutation switch settings, computed
  by the classic looping/2-colouring argument: the two inputs of every
  input-layer switch must enter different sub-networks, and the two
  inputs targeting the same output-layer switch must arrive from
  different sub-networks; walking these constraints around their even
  cycles yields a consistent assignment.

:func:`benes_network` zips the two into the routed-switch format the OEP
protocol consumes.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

__all__ = [
    "benes_network",
    "benes_topology",
    "benes_routing",
    "apply_network",
    "switch_count",
    "pad_permutation",
    "padded_size",
]

#: A switch: (wire_a, wire_b, swap?).  Switches within a layer are disjoint.
Switch = Tuple[int, int, bool]
Layer = List[Switch]

#: A topology layer: the (wire_a, wire_b) pairs without settings.
TopologyLayer = Tuple[Tuple[int, int], ...]


def padded_size(n: int) -> int:
    """The power-of-two wire count a network on ``n`` inputs pads to."""
    size = 1
    while size < n:
        size *= 2
    return size


def pad_permutation(perm: Sequence[int]) -> List[int]:
    """Extend a permutation of [n] to the next power of two with identity
    on the padding slots."""
    n = len(perm)
    return list(perm) + list(range(n, padded_size(n)))


def _check_size(n: int) -> None:
    if n & (n - 1):
        raise ValueError("Benes network size must be a power of two")


@functools.lru_cache(maxsize=None)
def benes_topology(n: int) -> Tuple[TopologyLayer, ...]:
    """The layers of (wire_a, wire_b) switch pairs of a size-``n`` Beneš
    network — permutation-independent, hence memoised by size.  ``n``
    must be a power of two."""
    _check_size(n)
    return tuple(_topology(list(range(n))))


def _topology(wires: List[int]) -> List[TopologyLayer]:
    n = len(wires)
    if n == 1:
        return []
    if n == 2:
        return [((wires[0], wires[1]),)]
    in_layer = tuple((wires[2 * p], wires[2 * p + 1]) for p in range(n // 2))
    top = _topology([wires[2 * p] for p in range(n // 2)])
    bot = _topology([wires[2 * p + 1] for p in range(n // 2)])
    middle = [top[d] + bot[d] for d in range(len(top))]
    out_layer = tuple((wires[2 * q], wires[2 * q + 1]) for q in range(n // 2))
    return [in_layer] + middle + [out_layer]


def benes_routing(perm: Sequence[int]) -> List[Tuple[bool, ...]]:
    """Per-layer switch settings realising ``wire[perm[i]] <- wire[i]``,
    aligned switch-for-switch with :func:`benes_topology` of the same
    size.  ``perm`` must be a permutation whose length is a power of two
    (use :func:`pad_permutation` first)."""
    n = len(perm)
    _check_size(n)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    return _route_swaps(list(perm))


def _route_swaps(perm: List[int]) -> List[Tuple[bool, ...]]:
    n = len(perm)
    if n == 1:
        return []
    if n == 2:
        return [(perm[0] == 1,)]

    inv = [0] * n
    for i, t in enumerate(perm):
        inv[t] = i

    # 2-colouring: subnet[i] in {0,1} for each input position.
    subnet = [-1] * n
    for start in range(n):
        if subnet[start] != -1:
            continue
        i, colour = start, 0
        while subnet[i] == -1:
            subnet[i] = colour
            # The input landing in the same *output* pair must differ.
            partner_out = inv[perm[i] ^ 1]
            if subnet[partner_out] == -1:
                subnet[partner_out] = colour ^ 1
            # Its *input*-pair partner must differ from it in turn.
            i = partner_out ^ 1
            colour = subnet[partner_out] ^ 1

    in_swaps: List[bool] = []
    top_perm = [0] * (n // 2)
    bot_perm = [0] * (n // 2)
    for p in range(n // 2):
        a, b = 2 * p, 2 * p + 1
        swap = subnet[a] == 1
        in_swaps.append(swap)
        top_in = b if swap else a
        bot_in = a if swap else b
        top_perm[p] = perm[top_in] // 2
        bot_perm[p] = perm[bot_in] // 2

    out_swaps: List[bool] = []
    for q in range(n // 2):
        # The element reaching output switch q from the top subnet is the
        # input with subnet colour 0 whose target lies in output pair q.
        top_elem = next(
            i for i in (inv[2 * q], inv[2 * q + 1]) if subnet[i] == 0
        )
        out_swaps.append(perm[top_elem] == 2 * q + 1)

    top_layers = _route_swaps(top_perm)
    bot_layers = _route_swaps(bot_perm)
    # Merge the parallel sub-networks layer by layer (top switches first,
    # matching the topology's layer order).
    middle = [
        top_layers[d] + bot_layers[d] for d in range(len(top_layers))
    ]
    return [tuple(in_swaps)] + middle + [tuple(out_swaps)]


def benes_network(perm: Sequence[int]) -> List[Layer]:
    """Layers of switches realising ``wire[perm[i]] <- wire[i]``, i.e.
    the value entering on wire ``i`` leaves on wire ``perm[i]``.

    ``perm`` must be a permutation whose length is a power of two (use
    :func:`pad_permutation` first).
    """
    topology = benes_topology(len(perm))
    swaps = benes_routing(perm)
    return [
        [(a, b, s) for (a, b), s in zip(t_layer, s_layer)]
        for t_layer, s_layer in zip(topology, swaps)
    ]


def apply_network(layers: List[Layer], values: Sequence) -> List:
    """Plaintext application (reference semantics for tests)."""
    vals = list(values)
    for layer in layers:
        for a, b, swap in layer:
            if swap:
                vals[a], vals[b] = vals[b], vals[a]
    return vals


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
