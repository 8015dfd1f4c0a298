"""Oblivious extended permutation (Section 5.4).

Alice holds a function ``xi : [N] -> [M]`` (an *extended permutation* —
repetitions and drops allowed); the parties hold a shared length-``M``
vector and must obtain fresh shares of ``y_i = x_{xi(i)}`` without Bob
learning ``xi`` or either party learning the values.

Construction (Mohassel & Sadeghian [24]): decompose the EP into

    permutation P1  ->  replication pass  ->  permutation P2

``P1`` runs over ``max(M, N)`` wires (zero wires added only when
``M < N``) and brings one copy of every needed source to the head of
its block of duplicated targets; every head and every target lies in
``[0, N)``, so the replication pass — each wire either keeps its value
or copies its left neighbour — and ``P2``, which routes the block
members to their target positions, run over the first ``N`` wires
only, and ``P1`` keeps only the switches that feed one of them
(:func:`~repro.mpc.waksman.prefix_masks`; which depends on ``(M, N)``
alone).  Permutations run on Beneš switching networks of exactly their
wire count (:mod:`repro.mpc.waksman`).  Every 2x2 switch and every
replication gate is applied to the shared values with ONE correlated
1-out-of-2 OT of ONE ring element, in which Alice selects with her
(private) control bit and Bob adopts the OT's own 0-pad as his share
offset, so only his 1-message — the pad plus the difference of his
two shares — crosses the wire (DESIGN.md, "One-word switches").  All
OTs across the whole network are batched into a single OT-extension
call, so the protocol runs in constant rounds with
``~O((M+N) log(M+N))`` communication.

SIMULATED mode reshares ``x[xi]`` directly; both modes send the
network's batch through :func:`_switches`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .batch import le_bytes_to_words, words_to_le_bytes
from .context import Context, Mode
from .costs import (
    Widths,
    oep_widths,
    permutation_widths,
    ring_bytes,
    ring_widths,
)
from .ot import OT
from .sharing import SharedVector
from .waksman import Layer, benes_network

__all__ = ["oblivious_permutation", "oblivious_extended_permutation"]


def oblivious_permutation(
    ctx: Context, ot: OT, perm: Sequence[int], values: SharedVector,
    label: str = "oep/perm",
) -> SharedVector:
    """Permute a shared vector by Alice's private bijection:
    output position ``perm[i]`` receives input ``i``'s value, with fresh
    shares.  ``len(perm) == len(values)``."""
    n = len(values)
    perm = np.asarray(perm, dtype=np.int64)
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a bijection on the vector's indices")
    with ctx.section(label):
        if ctx.mode == Mode.SIMULATED:
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            out_plain = values.reconstruct()[inv]
            _switches(ctx, ot, permutation_widths(ctx.params.ell, n))
            return SharedVector.fresh(ctx, out_plain)
        return _apply_switch_network(
            ctx, ot, _switch_stages(benes_network(perm)), values
        )


def oblivious_extended_permutation(
    ctx: Context, ot: OT, xi: Sequence[int], values: SharedVector, n_out: int,
    label: str = "oep/ext",
) -> SharedVector:
    """``y_i = x_{xi(i)}`` for ``i in [n_out]`` with fresh shares; ``xi``
    is Alice's private map into the input vector's index range."""
    m = len(values)
    # Columnar fast path: validate ndarray maps with array ops instead
    # of a per-element Python loop (the phases pass whole xi columns).
    xi_arr = (
        xi.astype(np.int64, copy=False)
        if isinstance(xi, np.ndarray)
        else np.asarray(list(xi), dtype=np.int64)
    )
    if len(xi_arr) != n_out:
        raise ValueError("xi must give one source per output position")
    if len(xi_arr) and (
        int(xi_arr.min()) < 0 or int(xi_arr.max()) >= m
    ):
        raise IndexError("xi references positions outside the input vector")
    with ctx.section(label):
        if ctx.mode == Mode.SIMULATED:
            out_plain = values.reconstruct()[xi_arr]
            _switches(ctx, ot, oep_widths(ctx.params.ell, m, n_out))
            return SharedVector.fresh(ctx, out_plain)
        return _oep_real(ctx, ot, xi_arr, values, n_out)


# ----------------------------------------------------------------------
# REAL-mode machinery
# ----------------------------------------------------------------------


def _switches(
    ctx: Context,
    ot: OT,
    widths: Widths,
    choices: Optional[np.ndarray] = None,
    stage: Optional[Callable[[List[np.ndarray]], List[np.ndarray]]] = None,
) -> List[np.ndarray]:
    """The network's one C-OT batch, the one send path of both modes,
    under ``<label>/switches/ot/...``: REAL passes Alice's control bits
    and ``stage``, which stages Bob's side on the gates' 0-pads and
    returns his 1-messages; returns what Alice received.  SIMULATED
    passes neither and only charges."""
    with ctx.section("switches"):
        cot = ot.correlated(choices, widths)
        return cot.finish(() if stage is None else stage(cot.p0))


def _oep_real(
    ctx: Context, ot: OT, xi: np.ndarray, values: SharedVector, n_out: int
) -> SharedVector:
    m = len(values)
    perm1, perm2, copy_bits = _ep_permutations(xi, max(m, n_out))
    padded = values.concat(SharedVector.zeros(len(perm1) - m, ctx.modulus))
    # The size-keyed topologies are cached across OEPs; only the
    # per-permutation switch settings are recomputed here.
    stages = (
        _switch_stages(benes_network(perm1, n_out))
        + [("copy", copy_bits[1:].astype(np.uint8))]
        + _switch_stages(benes_network(perm2))
    )
    routed = _apply_switch_network(ctx, ot, stages, padded)
    return routed.take(np.arange(n_out))


def _ep_permutations(
    xi: np.ndarray, n_work: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The extended permutation ``xi`` as ``(perm1, perm2, copy_bits)``.
    Target positions sorted by source (stably) form one block per used
    source, so every block lies in ``[0, n_out)``.  ``perm1``, over
    ``n_work >= n_out`` wires, brings each used source to its block's
    head and every unused one to the free slots in ascending order; the
    ``n_out`` copy bits mark the block positions after a head; ``perm2``,
    over ``n_out`` wires, routes block position ``g`` to its target."""
    n_out = len(xi)
    order = np.argsort(xi, kind="stable")
    sources = xi[order]
    head = np.ones(n_out, dtype=bool)
    head[1:] = sources[1:] != sources[:-1]
    heads = np.flatnonzero(head)
    perm1 = np.full(n_work, -1, dtype=np.int64)
    perm1[sources[heads]] = heads
    taken = np.zeros(n_work, dtype=bool)
    taken[heads] = True
    perm1[perm1 < 0] = np.flatnonzero(~taken)
    return perm1, order, ~head


def _switch_stages(layers: List[Layer]) -> List[Tuple]:
    """One ``("switch", a_idx, b_idx, swaps)`` stage per layer (a
    layer's switches touch disjoint wire pairs, so each stages and
    replays as one vectorised step).  A stage's last element is
    Alice's choice bits, one per OT."""
    return [("switch", a, b, swaps.astype(np.uint8)) for a, b, swaps in layers]


def _stage_bob(
    ctx: Context,
    stages: List[Tuple],
    pads: List[np.ndarray],
    bob: np.ndarray,
) -> List[np.ndarray]:
    """Bob's side of the network, given every gate's 0-pad ``p0``: the
    fresh offset of his shares is his to choose, so he adopts the pad,
    and his 1-message is the pad plus the difference his shares owe
    Alice's when her bit is 1.  A switch on wires ``(a, b)`` makes his
    shares ``a - p0`` and ``b + p0`` and sends ``p0 + (b - a)``; a copy
    gate on wire ``i`` makes his share ``i - p0`` and sends ``p0`` plus
    his new share of wire ``i - 1`` minus his old share of wire ``i``.
    ``bob`` is updated in place stage by stage (his running share
    vector is the one sequential thing); returns the 1-message byte
    matrix per stage."""
    mask = ctx.mask
    rb = ring_bytes(ctx.params.ell)
    crossed = []
    for stage, p0 in zip(stages, pads):
        pad = le_bytes_to_words(p0)
        if stage[0] == "switch":
            _, a_idx, b_idx, _ = stage
            ua, ub = bob[a_idx], bob[b_idx]
            bob[a_idx], bob[b_idx] = (ua - pad) & mask, (ub + pad) & mask
            m1 = pad + ub - ua
        else:
            # Wire i's left neighbour's post-pass share is r[i-2] for
            # i >= 2 (already refreshed by the previous gate) and the
            # original share for i = 1.
            k = len(pad)
            r = (bob[1 : k + 1] - pad) & mask
            m1 = np.concatenate([bob[:1], r[:-1]]) - r
            bob[1 : k + 1] = r
        crossed.append(words_to_le_bytes(m1 & mask, rb))
    return crossed


def _replay_alice(
    ctx: Context,
    stages: List[Tuple],
    messages: List[np.ndarray],
    alice: np.ndarray,
) -> None:
    """Alice's side: apply her OT outputs ``v`` stage by stage.  A
    switch with her bit ``s`` makes her shares ``a + s(b - a) + v`` and
    ``b - s(b - a) - v``; switch layers vectorise (disjoint wire
    pairs), and so does the replication pass, as a segmented prefix sum
    (:func:`_copy_pass`)."""
    mask = ctx.mask
    for stage, msg in zip(stages, messages):
        v = le_bytes_to_words(msg)
        if stage[0] == "switch":
            _, a_idx, b_idx, swaps = stage
            xa, xb = alice[a_idx], alice[b_idx]
            sw = swaps.astype(bool)
            alice[a_idx] = (np.where(sw, xb, xa) + v) & mask
            alice[b_idx] = (np.where(sw, xa, xb) - v) & mask
        else:
            k = len(v) + 1
            alice[:k] = _copy_pass(alice[:k], stage[1].astype(bool), v, mask)


def _copy_pass(
    alice: np.ndarray,
    copy_bits: np.ndarray,
    vals: np.ndarray,
    mask: np.uint64,
) -> np.ndarray:
    """Alice's replication pass: wire ``i >= 1`` becomes her OT output
    ``vals[i - 1]`` plus the pass's *new* value of wire ``i - 1`` if
    ``copy_bits[i - 1]``, else plus her old share of wire ``i``.  A run
    of copies therefore sums from the wire before it, so each wire's new
    value is a prefix sum of ``terms`` restarted at every non-copy wire:
    one ``cumsum`` (mod 2^64, hence mod 2^ell) minus its value before
    the wire's run."""
    n = len(alice)
    copied = np.zeros(n, dtype=bool)
    copied[1:] = copy_bits
    terms = np.where(copied, np.uint64(0), alice)
    terms[1:] += vals
    total = np.cumsum(terms, dtype=np.uint64)
    run = np.maximum.accumulate(np.where(copied, 0, np.arange(n)))
    return (total - total[run] + terms[run]) & mask


def _apply_switch_network(
    ctx: Context, ot: OT, stages: List[Tuple], values: SharedVector
) -> SharedVector:
    """Run ``stages`` — switch layers and at most one replication pass
    ``("copy", bits)``, whose gate ``i`` acts on wire ``i + 1`` — over
    ``values``, batching every OT into one correlated extension call:
    the pads of every gate are known once ``u`` has crossed, Bob stages
    all of them, one correction message crosses, Alice replays."""
    stages = [st for st in stages if len(st[-1])]
    if not stages:  # a one-wire network has no gates
        return values
    alice = values.alice.astype(np.uint64).copy()
    bob = values.bob.astype(np.uint64).copy()
    ell = ctx.params.ell
    messages = _switches(
        ctx,
        ot,
        [w for st in stages for w in ring_widths(ell, len(st[-1]))],
        np.concatenate([st[-1] for st in stages]),
        lambda pads: _stage_bob(ctx, stages, pads, bob),
    )
    _replay_alice(ctx, stages, messages, alice)
    return SharedVector(alice, bob, ctx.modulus)
