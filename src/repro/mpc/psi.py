"""Circuit-based PSI with payloads (Sections 5.3 and 6.5 fast path).

Protocol outline (Pinkas et al. [27], PSTY19 shape):

1. Alice cuckoo-hashes her set into ``B = 1.27 M`` bins (3 hash
   functions, at most one item per bin) and sends the hash seeds.
2. Bob simple-hashes each of his items into all 3 candidate bins; the
   per-bin load is padded to the public bound ``L`` (Section 5.3's
   "details of cuckoo hashing").
3. A batched OPRF gives Alice one pseudorandom value per bin; Bob
   programs per-bin OPPRF polynomials so that any of his items in the
   bin evaluates to his chosen match token ``s_b`` and to the masked
   payload ``z_y - w_b``.
4. One small garbled circuit per bin compares Alice's OPPRF output with
   ``s_b`` and produces ``[[Ind(x_b in Y)]]`` and the payload — in
   shared form (rows on the match bit weighted by Alice's OPPRF
   payload and by Bob's ``w_b`` less the fallback, which is his
   offset), or revealed to Alice for the Section 5.5 composition where
   the revealed values are uniform permutation indices.

Cost: ``~O(M + N)`` communication and computation, constant rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .batch import bits_to_words, sorted_lookup, words_to_bits
from .context import ALICE, BOB, Context, Meter, Mode
from .costs import (
    OPPRF_LIMB_BITS,
    circuit_counts,
    opprf_hint_bytes,
    opprf_payload_limbs,
    psi_bins,
    psi_seed_bytes,
    psi_token_bits,
)
from .cuckoo import (
    DUMMY_ALICE,
    CuckooTable,
    Items,
    fingerprints,
    has_duplicates,
    item_digests,
    simple_hash_bins,
)
from .gadgets import psi_bin_circuit
from .oprf import (
    OPPRF_PRIME,
    BatchedOprf,
    charge_oprf_setup,
    horner,
    interpolate,
)
from .ot import OT
from .sharing import SharedVector, as_ring_column
from .yao import RealInputs, garbled_call

__all__ = ["PsiResult", "charge_opprf", "psi_with_payloads"]


@dataclass
class PsiResult:
    """Output of one PSI-with-payloads invocation.

    ``table`` (Alice-local) maps her items to bins; ``ind`` and
    ``payload`` are per-*bin* vectors of length ``n_bins``.
    """

    table: CuckooTable
    n_bins: int
    ind: SharedVector
    payload: Union[SharedVector, np.ndarray]

    def bin_of_item_index(self) -> np.ndarray:
        """For each of Alice's item indices, its bin (Alice-local)."""
        out = np.full(len(self.table.digests), -1, dtype=np.int64)
        occupied = np.flatnonzero(self.table.bins >= 0)
        out[self.table.bins[occupied]] = occupied
        return out


def psi_with_payloads(
    ctx: Context,
    ot: OT,
    alice_items: Items,
    bob_items: Items,
    bob_payloads: Union[Sequence[int], np.ndarray],
    bob_fallbacks: Union[Sequence[int], np.ndarray, None] = None,
    reveal_payload: bool = False,
    label: str = "psi",
) -> PsiResult:
    """Run PSI where Bob's payloads are known to Bob in the clear.

    Either side's items may be hashables or a precomputed digest matrix
    (:func:`~repro.mpc.cuckoo.item_digests`).
    ``bob_fallbacks``, if given, supplies the per-bin payload for
    non-matching bins (defaults to 0); it is what the Section 5.5
    composition programs with unused permutation indices.
    ``reveal_payload=True`` outputs the payload to Alice in the clear
    (only used when the payloads are data-independent by construction).
    """
    if len(bob_items) != len(bob_payloads):
        raise ValueError("one payload per Bob item is required")
    alice, bob = item_digests(alice_items), item_digests(bob_items)
    if has_duplicates(bob):
        raise ValueError("PSI requires distinct items on Bob's side")

    with ctx.section(label):
        n_bins, load = psi_bins(ctx.params, len(alice), len(bob))
        table = CuckooTable(
            alice,
            n_bins,
            ctx.params.cuckoo_hashes,
            seed=int(ctx.rng.integers(0, 2**31)),
        )
        ctx.send(ALICE, psi_seed_bytes(ctx.params.cuckoo_hashes), "seeds")

        members, counts = simple_hash_bins(bob, table.seeds, n_bins)
        if counts.max() > load:
            raise RuntimeError(
                "simple-hash bin exceeded its statistical load bound "
                "(probability < 2^-sigma); re-run with fresh seeds"
            )

        payloads = as_ring_column(bob_payloads, ctx.modulus)
        fallbacks = (
            np.zeros(n_bins, dtype=np.uint64)
            if bob_fallbacks is None
            else as_ring_column(bob_fallbacks, ctx.modulus)
        )
        if len(fallbacks) != n_bins:
            raise ValueError("need one fallback per bin")

        # Per bin: its item's fingerprint, or a dummy from Alice's space.
        alice_fps = np.uint64(DUMMY_ALICE) | ctx.rng.integers(
            0, 1 << 62, size=n_bins, dtype=np.uint64
        )
        occupied = table.bins >= 0
        alice_fps[occupied] = fingerprints(alice)[table.bins[occupied]]
        bob_fps = fingerprints(bob)

        fp_bits = psi_token_bits(n_bins, ctx.params.sigma)
        opprf = _opprf(
            ctx, ot, alice_fps, bob_fps, members, counts, load, payloads,
            fp_bits,
        )

        # One garbled circuit per bin.
        ell = ctx.params.ell
        circuit = psi_bin_circuit(ell, fp_bits, reveal_payload)

        def real() -> RealInputs:
            # Alice: t, then p as a circuit input (revealed payload) or
            # her row weight;  Bob: s, then w | fallback as circuit
            # inputs or his row weight and word offset.
            t_words, p_words, s_words, w_words = opprf
            t, s = (words_to_bits(x, fp_bits) for x in (t_words, s_words))
            if reveal_payload:
                w, f = (words_to_bits(x, ell) for x in (w_words, fallbacks))
                alice = np.hstack([t, words_to_bits(p_words, ell)])
                return RealInputs(circuit, alice, np.hstack([s, w, f]))
            zero = np.zeros(n_bins, dtype=np.uint64)
            return RealInputs(
                circuit, t, s,
                weights=((w_words - fallbacks) & ctx.mask)[:, None],
                offsets=np.stack([zero, fallbacks], axis=1),
                alice_weights=p_words[:, None],
            )

        def ideal() -> Tuple[np.ndarray, Optional[np.ndarray]]:
            # Per bin, match iff Alice's item is one of Bob's (her dummy
            # fingerprints lie outside the real subspace).
            order, slot = sorted_lookup(bob_fps, alice_fps)
            hit = slot >= 0
            pay = fallbacks.copy()
            pay[hit] = payloads[order[slot[hit]]]
            ind = hit.astype(np.uint64)
            if reveal_payload:
                return ind, words_to_bits(pay, ell)
            return np.concatenate([ind, pay]), None

        with ctx.section("bin_circuits"):
            shares, revealed = garbled_call(
                ctx, ot, circuit_counts(circuit), n_bins,
                real=real, ideal=ideal,
            )
        ind = shares.take(np.arange(n_bins))
        if reveal_payload:
            return PsiResult(table, n_bins, ind, bits_to_words(revealed))
        return PsiResult(
            table, n_bins, ind, shares.take(np.arange(n_bins, 2 * n_bins))
        )


def _opprf(
    ctx: Context,
    ot: OT,
    alice_fps: np.ndarray,
    bob_fps: np.ndarray,
    members: np.ndarray,
    counts: np.ndarray,
    load: int,
    bob_payloads: np.ndarray,
    fp_bits: int,
) -> Tuple[np.ndarray, ...]:
    """Step 3 — PSI's one mode fork: the batched OPRF, then Bob's
    OPPRF polynomials, every bin at once.  REAL returns, per bin,
    Alice's evaluations ``(token, masked payload)`` and Bob's targets
    ``(match token s, payload mask w)`` — the bin circuits' inputs;
    SIMULATED charges the same messages and has no values to return."""
    n_bins = len(alice_fps)
    ell = ctx.params.ell
    if ctx.mode == Mode.SIMULATED:
        charge_opprf(ctx, ot, n_bins, load)
        return ()
    rng = ctx.rng
    prime = np.uint64(OPPRF_PRIME)
    oprf = BatchedOprf(ctx, ot, alice_fps)
    # Bob's items in their bins: the (n_bins, load) point matrix holds
    # item members[e] at ``entry`` e — row bins[e], column its rank in
    # the bin.
    bins = np.repeat(np.arange(n_bins), counts)
    starts = np.cumsum(counts) - counts
    entry = (bins, np.arange(len(members)) - np.repeat(starts, counts))

    # Points: his items' OPRF values, random fillers up to the load.
    xs = rng.integers(0, OPPRF_PRIME, size=(n_bins, load), dtype=np.uint64)
    xs[entry] = oprf.bob_eval(bins, bob_fps[members]) % prime
    filler = np.ones((n_bins, load), dtype=bool)
    filler[entry] = False
    _make_distinct(rng, xs, filler)

    # Values: the bin's match token s and each payload masked with the
    # bin's w (random at fillers), the payload cut into limbs below
    # the prime — one polynomial per value row, all through the bin's
    # points.
    token_mod = 1 << fp_bits
    s_tokens = rng.integers(
        0, min(token_mod, OPPRF_PRIME), size=n_bins, dtype=np.uint64
    )
    w_masks = ctx.random_ring_vector(n_bins)
    tokens = rng.integers(0, OPPRF_PRIME, size=(n_bins, load), dtype=np.uint64)
    tokens[entry] = s_tokens[bins]
    masked = ctx.random_ring_vector(n_bins * load).reshape(n_bins, load)
    masked[entry] = (bob_payloads[members] - w_masks[bins]) & ctx.mask
    shifts = OPPRF_LIMB_BITS * np.arange(
        opprf_payload_limbs(ell), dtype=np.uint64
    )
    limbs = (masked[:, None] >> shifts[:, None]) & np.uint64(
        (1 << OPPRF_LIMB_BITS) - 1
    )
    coeffs = interpolate(xs, np.concatenate([tokens[:, None], limbs], axis=1))
    ctx.send(BOB, 8 * coeffs.size, "opprf_hints")

    # Alice evaluates her bin's polynomials at her OPRF value.
    at = horner(coeffs, oprf.alice_values % prime)
    alice_tokens = at[:, 0] & np.uint64(token_mod - 1)
    alice_payloads = (at[:, 1:] << shifts).sum(axis=1, dtype=np.uint64)
    return alice_tokens, alice_payloads & ctx.mask, s_tokens, w_masks


def charge_opprf(ctx: Meter, ot: OT, n_bins: int, load: int) -> None:
    """SIMULATED mode: charge what :func:`_opprf` sends for ``n_bins``
    bins of Bob's ``load`` — the OPRF set-up, then the hints."""
    charge_oprf_setup(ctx, ot, n_bins)
    ctx.send(
        BOB, opprf_hint_bytes(n_bins, load, ctx.params.ell), "opprf_hints"
    )


def _make_distinct(
    rng: np.random.Generator, xs: np.ndarray, filler: np.ndarray
) -> None:
    """Redraw filler points until each row of ``xs`` is distinct; two
    of Bob's own points colliding is the OPRF's failure event."""
    while True:
        order = np.argsort(xs, axis=1)
        srt = np.take_along_axis(xs, order, axis=1)
        rows, cols = np.nonzero(srt[:, 1:] == srt[:, :-1])
        if not len(rows):
            return
        left, right = order[rows, cols], order[rows, cols + 1]
        if not (filler[rows, left] | filler[rows, right]).all():
            raise RuntimeError(
                "OPRF output collision inside a bin (probability "
                "< 2^-sigma); re-run with fresh seeds"
            )
        redraw = np.where(filler[rows, right], right, left)
        xs[rows, redraw] = rng.integers(
            0, OPPRF_PRIME, size=len(rows), dtype=np.uint64
        )
