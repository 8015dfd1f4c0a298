"""Oblivious extended permutation (Section 5.4).

Alice holds a function ``xi : [N] -> [M]`` (an *extended permutation* —
repetitions and drops allowed); the parties hold a shared length-``M``
vector and must obtain fresh shares of ``y_i = x_{xi(i)}`` without Bob
learning ``xi`` or either party learning the values.

Construction (Mohassel & Sadeghian [24]): decompose the EP into

    permutation P1  ->  replication pass  ->  permutation P2

over ``max(M, N)`` wires.  ``P1`` brings one copy of every needed source
to the head of its block of duplicated targets; the replication pass has
each wire either keep its value or copy its left neighbour; ``P2`` routes
the block members to their target positions.  Permutations run on a
Benes switching network; every 2x2 switch and every replication gate is
applied to the shared values with ONE correlated 1-out-of-2 OT in which
Bob offers both refreshed share pairs and Alice selects with her
(private) control bit.  The refresh masks are Bob's free choice, so he
derives them from the OT's own 0-pad and only the "crossed" pair
crosses the wire.  All OTs across the whole network are batched into a
single OT-extension call, so the protocol runs in constant rounds with
``~O((M+N) log(M+N))`` communication.

SIMULATED mode reshares ``x[xi]`` directly and charges identical bytes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .batch import le_bytes_to_words, words_to_le_bytes
from .context import Context, Mode
from .costs import Widths, oep_widths, permutation_widths, ring_bytes
from .ot import OT
from .sharing import SharedVector
from .waksman import pad_permutation, padded_size

__all__ = ["oblivious_permutation", "oblivious_extended_permutation"]


def oblivious_permutation(
    ctx: Context, ot: OT, perm: Sequence[int], values: SharedVector,
    label: str = "oep/perm",
) -> SharedVector:
    """Permute a shared vector by Alice's private bijection:
    output position ``perm[i]`` receives input ``i``'s value, with fresh
    shares.  ``len(perm) == len(values)``."""
    n = len(values)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a bijection on the vector's indices")
    with ctx.section(label):
        if ctx.mode == Mode.SIMULATED:
            inv = np.empty(n, dtype=np.int64)
            inv[np.asarray(perm, dtype=np.int64)] = np.arange(n)
            out_plain = values.reconstruct()[inv]
            _charge_switches(ctx, ot, permutation_widths(ctx.params.ell, n))
            return SharedVector.fresh(ctx, out_plain)
        layers = ctx.cache.benes_network(pad_permutation(perm))
        padded = values.concat(
            SharedVector.zeros(padded_size(n) - n, ctx.modulus)
        )
        switched = _apply_switch_network(ctx, ot, [layers], [], padded)
        # Output position perm[i] received input i; read back in order.
        return switched.take(np.arange(n))


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
            _charge_switches(ctx, ot, oep_widths(ctx.params.ell, m, n_out))
            return SharedVector.fresh(ctx, out_plain)
        return _oep_real(ctx, ot, [int(s) for s in xi_arr], values, n_out)


# ----------------------------------------------------------------------
# REAL-mode machinery
# ----------------------------------------------------------------------


def _charge_switches(ctx: Context, ot: OT, widths: Widths) -> None:
    """SIMULATED mode: charge the network's one C-OT batch under the
    section the REAL path runs it in, so both modes spell the labels
    ``<label>/switches/ot/...``."""
    with ctx.section("switches"):
        ot.correlated(None, widths).finish()


def _oep_real(
    ctx: Context, ot: OT, xi: List[int], values: SharedVector, n_out: int
) -> SharedVector:
    m = len(values)
    n_work = padded_size(max(m, n_out))
    padded = values.concat(SharedVector.zeros(n_work - m, ctx.modulus))

    # Group target positions by source so duplicates are consecutive.
    order = sorted(range(n_out), key=lambda i: (xi[i], i))
    # P1: bring each used source to the head position of its block.
    perm1 = [-1] * n_work
    copy_bits = [False] * n_work
    prev_source = None
    for g, target in enumerate(order):
        s = xi[target]
        if s != prev_source:
            perm1[s] = g
            prev_source = s
        else:
            copy_bits[g] = True
    free_slots = iter(
        g for g in range(n_work) if g not in set(
            p for p in perm1 if p >= 0
        )
    )
    for s in range(n_work):
        if perm1[s] == -1:
            perm1[s] = next(free_slots)
    # P2: route block member g to its target position order[g].
    perm2 = [-1] * n_work
    taken = [False] * n_work
    for g, target in enumerate(order):
        perm2[g] = target
        taken[target] = True
    free_targets = iter(t for t in range(n_work) if not taken[t])
    for g in range(n_work):
        if perm2[g] == -1:
            perm2[g] = next(free_targets)

    # The size-keyed topology is cached across every OEP of the run;
    # only the per-permutation switch settings are recomputed here.
    layers1 = ctx.cache.benes_network(perm1)
    layers2 = ctx.cache.benes_network(perm2)
    routed = _apply_switch_network(
        ctx, ot, [layers1, layers2], copy_bits, padded
    )
    return routed.take(np.arange(n_out))


def _switch_stages(
    layers: List[List[Tuple[int, int, bool]]]
) -> List[Tuple]:
    """One ``("switch", a_idx, b_idx, swaps)`` stage per non-empty layer
    (a layer's switches touch disjoint wire pairs, so each stages and
    replays as one vectorised step).  A stage's last element is
    Alice's choice bits, one per OT."""
    return [
        (
            "switch",
            np.asarray([a for a, _, _ in layer], dtype=np.int64),
            np.asarray([b for _, b, _ in layer], dtype=np.int64),
            np.asarray([s for _, _, s in layer], dtype=np.uint8),
        )
        for layer in layers
        if layer
    ]


def _stage_bob(
    ctx: Context,
    stages: List[Tuple],
    pads: List[np.ndarray],
    bob: np.ndarray,
) -> List[np.ndarray]:
    """Bob's side of the network, given every gate's 0-pad: each gate
    offers Alice ``(keep, cross)`` re-randomised share tuples, and the
    fresh masks are Bob's to choose, so he fixes them such that the
    ``keep`` tuple *is* the pad — his new shares become ``old - pad`` —
    and only the ``cross`` tuple has to be sent.  ``bob`` is updated in
    place stage by stage (his running share vector is the one
    sequential thing); returns the ``cross`` byte matrix per stage."""
    mask = ctx.mask
    rb = ring_bytes(ctx.params.ell)
    crossed = []
    for stage, p0 in zip(stages, pads):
        if stage[0] == "switch":
            _, a_idx, b_idx, _ = stage
            ua, ub = bob[a_idx], bob[b_idx]
            ra = (ua - le_bytes_to_words(p0[:, :rb])) & mask
            rbv = (ub - le_bytes_to_words(p0[:, rb:])) & mask
            bob[a_idx], bob[b_idx] = ra, rbv
            crossed.append(
                np.concatenate(
                    [
                        words_to_le_bytes((ub - ra) & mask, rb),
                        words_to_le_bytes((ua - rbv) & mask, rb),
                    ],
                    axis=1,
                )
            )
        else:
            # Position i's "copy" tuple offers its left neighbour's
            # post-pass share, which is r[i-2] for i >= 2 (already
            # refreshed by the previous gate) and the original share
            # for i = 1.
            r = (bob[1:] - le_bytes_to_words(p0)) & mask
            prev = np.concatenate([bob[:1], r[:-1]])
            crossed.append(words_to_le_bytes((prev - r) & mask, rb))
            bob[1:] = r
    return crossed


def _replay_alice(
    ctx: Context,
    stages: List[Tuple],
    messages: List[np.ndarray],
    alice: np.ndarray,
) -> None:
    """Alice's side: apply her OT outputs stage by stage.  Switch
    layers vectorise (disjoint wire pairs); the replication pass is a
    sequential left-to-right scan by construction."""
    mask = ctx.mask
    rb = ring_bytes(ctx.params.ell)
    for stage, msg in zip(stages, messages):
        if stage[0] == "switch":
            _, a_idx, b_idx, swaps = stage
            v0 = le_bytes_to_words(msg[:, :rb])
            v1 = le_bytes_to_words(msg[:, rb:])
            xa, xb = alice[a_idx], alice[b_idx]
            sw = swaps.astype(bool)
            alice[a_idx] = (np.where(sw, xb, xa) + v0) & mask
            alice[b_idx] = (np.where(sw, xa, xb) + v1) & mask
        else:
            copy_bits = stage[1]  # for positions 1..n-1
            vals = le_bytes_to_words(msg)
            imask = int(mask)
            for i in range(1, len(alice)):
                prev = int(alice[i - 1])
                keep = int(alice[i])
                alice[i] = (
                    (prev if copy_bits[i - 1] else keep) + int(vals[i - 1])
                ) & imask


def _apply_switch_network(
    ctx: Context,
    ot: OT,
    networks: List[List[List[Tuple[int, int, bool]]]],
    replication_after_first: Sequence[bool],
    values: SharedVector,
) -> SharedVector:
    """Run one or two Benes networks with an optional replication pass in
    between, batching every OT into one correlated extension call: the
    pads of every gate are known once ``u`` has crossed, Bob stages all
    of them, one correction message crosses, Alice replays."""
    alice = values.alice.astype(np.uint64).copy()
    bob = values.bob.astype(np.uint64).copy()
    rb = ring_bytes(ctx.params.ell)

    stages = _switch_stages(networks[0])
    if replication_after_first and len(bob) > 1:
        stages.append(
            ("copy", np.asarray(replication_after_first[1:], dtype=np.uint8))
        )
    for network in networks[1:]:
        stages += _switch_stages(network)
    if not stages:  # a one-wire network has no gates
        return values

    with ctx.section("switches"):
        cot = ot.correlated(
            np.concatenate([st[-1] for st in stages]),
            [
                (len(st[-1]), 2 * rb if st[0] == "switch" else rb)
                for st in stages
            ],
        )
        messages = cot.finish(_stage_bob(ctx, stages, cot.p0, bob))
    _replay_alice(ctx, stages, messages, alice)
    return SharedVector(alice, bob, ctx.modulus)
