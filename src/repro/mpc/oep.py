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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batch import le_bytes_to_words, words_to_le_bytes
from .context import Context, Mode
from .costs import Widths, oep_widths, permutation_widths, ring_bytes
from .ot import OT
from .sharing import SharedVector
from .waksman import Layer, benes_network, pad_permutation, padded_size

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
            _charge_switches(ctx, ot, permutation_widths(ctx.params.ell, n))
            return SharedVector.fresh(ctx, out_plain)
        layers = benes_network(pad_permutation(perm))
        padded = values.concat(
            SharedVector.zeros(padded_size(n) - n, ctx.modulus)
        )
        switched = _apply_switch_network(ctx, ot, [layers], None, padded)
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
        return _oep_real(ctx, ot, xi_arr, values, n_out)


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
    ctx: Context, ot: OT, xi: np.ndarray, values: SharedVector, n_out: int
) -> SharedVector:
    m = len(values)
    n_work = padded_size(max(m, n_out))
    padded = values.concat(SharedVector.zeros(n_work - m, ctx.modulus))
    perm1, perm2, copy_bits = _ep_permutations(xi, n_work)
    # The size-keyed topology is cached across every OEP; only the
    # per-permutation switch settings are recomputed here.
    layers1 = benes_network(perm1)
    layers2 = benes_network(perm2)
    routed = _apply_switch_network(
        ctx, ot, [layers1, layers2], copy_bits, padded
    )
    return routed.take(np.arange(n_out))


def _ep_permutations(
    xi: np.ndarray, n_work: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The extended permutation ``xi`` as ``(perm1, perm2, copy_bits)``
    over ``n_work`` wires.  Target positions sorted by source (stably)
    form one block per used source.  ``perm1`` brings each used source
    to its block's head and every unused one to the free slots in
    ascending order; the copy bits mark the block positions after a
    head; ``perm2`` routes block position ``g`` to its target and the
    spare wires to the spare targets in order."""
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
    copy_bits = np.zeros(n_work, dtype=bool)
    copy_bits[:n_out] = ~head
    perm2 = np.concatenate([order, np.arange(n_out, n_work)])
    return perm1, perm2, copy_bits


def _switch_stages(layers: List[Layer]) -> List[Tuple]:
    """One ``("switch", a_idx, b_idx, swaps)`` stage per non-empty layer
    (a layer's switches touch disjoint wire pairs, so each stages and
    replays as one vectorised step).  A stage's last element is
    Alice's choice bits, one per OT."""
    return [
        ("switch", a, b, swaps.astype(np.uint8))
        for a, b, swaps in layers
        if len(a)
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
    layers vectorise (disjoint wire pairs); so does the replication
    pass, as a segmented prefix sum (:func:`_copy_pass`)."""
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
            alice[:] = _copy_pass(
                alice, stage[1].astype(bool), le_bytes_to_words(msg), mask
            )


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
    ctx: Context,
    ot: OT,
    networks: List[List[Layer]],
    copy_bits: Optional[np.ndarray],
    values: SharedVector,
) -> SharedVector:
    """Run one or two Benes networks with an optional replication pass
    (``copy_bits``, one per wire, the first ignored) in between,
    batching every OT into one correlated extension call: the pads of
    every gate are known once ``u`` has crossed, Bob stages all of
    them, one correction message crosses, Alice replays."""
    alice = values.alice.astype(np.uint64).copy()
    bob = values.bob.astype(np.uint64).copy()
    rb = ring_bytes(ctx.params.ell)

    stages = _switch_stages(networks[0])
    if copy_bits is not None and len(bob) > 1:
        stages.append(("copy", copy_bits[1:].astype(np.uint8)))
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
