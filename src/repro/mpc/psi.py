"""Circuit-based PSI with payloads (Sections 5.3 and 6.5 fast path).

Protocol outline (Pinkas et al. [27], PSTY19 shape):

1. Alice cuckoo-hashes her set into ``B = 1.27 M`` bins (3 hash
   functions, at most one item per bin) and sends the hash seeds.
2. Bob simple-hashes each of his items into all 3 candidate bins
   (Section 5.3's "details of cuckoo hashing").
3. A batched OPRF gives Alice one pseudorandom value per bin; Bob
   programs the OPPRF as one oblivious key-value store over his
   ``(bin, item)`` entries (:mod:`repro.mpc.okvs`), sized by his item
   count alone, so that any of his items in a bin decodes, under the
   bin's OPRF, to his chosen match token ``s_b`` and to the masked
   payload ``z_y - w_b``.
4. Per bin, Alice's OPPRF output ``t_b`` is compared with ``s_b`` leaf
   by leaf (:mod:`repro.mpc.leaves`): one 1-of-32 OT per 5-bit leaf,
   Bob choosing by his leaf of ``s_b``, leaves each leaf's equality
   XOR-shared — Bob's random OTs open in his flow with the hints,
   Alice's 32-bit messages cross in her flow with her label OTs.  One
   small garbled circuit per bin ANDs the shared leaves (10 ANDs for a
   55-bit token) and produces ``[[Ind(x_b in Y)]]`` and the payload —
   in shared form (rows on the match bit weighted by Alice's OPPRF
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
from .context import ALICE, BOB, Checked, Context, Meter, Mode
from .costs import (
    circuit_counts,
    opprf_hint_bytes,
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
from .leaves import LeafOts
from .okvs import Okvs, pack_table, unpack_table
from .oprf import BatchedOprf, charge_oprf_setup
from .ot import OT
from .params import CUCKOO_HASHES, SIGMA
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
    salt = ctx.digest_salt
    alice, bob = item_digests(alice_items, salt), item_digests(bob_items, salt)
    if has_duplicates(bob):
        raise ValueError("PSI requires distinct items on Bob's side")

    with ctx.section(label):
        n_bins = psi_bins(len(alice))
        table = CuckooTable(
            alice,
            n_bins,
            CUCKOO_HASHES,
            seed=int(ctx.rng.integers(0, 2**31)),
        )
        ctx.send(ALICE, psi_seed_bytes(CUCKOO_HASHES), "seeds")

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

        fp_bits = psi_token_bits(n_bins, SIGMA)
        opprf = _opprf(
            ctx, ot, table.seeds, alice_fps, bob, bob_fps, payloads, fp_bits
        )

        # One garbled circuit per bin, on the leaf OTs' shares.
        ell = ctx.params.ell
        circuit = psi_bin_circuit(ell, fp_bits, reveal_payload)

        def real() -> RealInputs:
            # Alice: her leaf masks r, then p as a circuit input
            # (revealed payload) or her row weight;  Bob: his leaf bits,
            # then w | fallback as circuit inputs or his row weight and
            # word offset.
            t_words, p_words, _, w_words = opprf
            r, b = leaves.shares(ctx.rng, t_words)
            if reveal_payload:
                w, f = (words_to_bits(x, ell) for x in (w_words, fallbacks))
                alice = np.hstack([r, words_to_bits(p_words, ell)])
                return RealInputs(circuit, alice, np.hstack([b, w, f]))
            zero = np.zeros(n_bins, dtype=np.uint64)
            return RealInputs(
                circuit, r, b,
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
            # Bob chooses by his tokens s (REAL; SIMULATED only charges)
            s_words = opprf[2] if opprf else None
            leaves = LeafOts(ctx, ot, n_bins, fp_bits, s_words)
            shares, revealed = garbled_call(
                ctx, ot, circuit_counts(circuit), n_bins,
                real=real, ideal=ideal, alice_flow=leaves.send,
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
    seeds: Sequence[bytes],
    alice_fps: np.ndarray,
    bob: np.ndarray,
    bob_fps: np.ndarray,
    bob_payloads: np.ndarray,
    fp_bits: int,
) -> Tuple[np.ndarray, ...]:
    """Step 3 — PSI's one mode fork: the batched OPRF, then Bob's OKVS
    over his entries.  REAL returns, per bin, Alice's decoded
    ``(token, masked payload)`` and Bob's targets ``(match token s,
    payload mask w)`` — the bin circuits' inputs; SIMULATED sends
    through the same two paths and has no values to return."""
    n_bins = len(alice_fps)
    if ctx.mode == Mode.SIMULATED:
        charge_oprf_setup(ctx, ot, n_bins)
        charge_opprf(ctx, len(bob), fp_bits)
        return ()
    rng = ctx.rng
    oprf = BatchedOprf(ctx, ot, alice_fps)
    # Bob's entries: item members[e] in bin bins[e], keyed (bin, item)
    # — distinct, since an item whose hashes collide enters a bin once.
    members, counts = simple_hash_bins(bob, seeds, n_bins)
    bins = np.repeat(np.arange(n_bins), counts)
    keys = np.stack([bins.astype(np.uint64), bob_fps[members]], axis=1)

    # Values: the bin's match token s and the payload masked with the
    # bin's w, one 16-byte slot padded with the entry's OPRF output; the
    # table crosses at the token's and the ring's bits per slot.
    s_tokens = rng.integers(0, 1 << fp_bits, size=n_bins, dtype=np.uint64)
    w_masks = ctx.random_ring_vector(n_bins)
    masked = (bob_payloads[members] - w_masks[bins]) & ctx.mask
    values = np.stack([s_tokens[bins], masked], axis=1)
    values ^= oprf.bob_eval(bins, keys[:, 1])
    okvs = Okvs(CUCKOO_HASHES * len(bob), SIGMA, b"".join(seeds))
    table = okvs.encode(keys, values, rng)
    bits = (fp_bits, ctx.params.ell)
    wire = pack_table(table, bits)
    charge_opprf(ctx, len(bob), fp_bits, wire)

    # Alice decodes her bins' keys on the table's low bits, the low bits
    # of the full decode, and strips her OPRF outputs.
    mine = np.stack([np.arange(n_bins, dtype=np.uint64), alice_fps], axis=1)
    received = unpack_table(wire, len(table), bits)
    at = okvs.decode(received, mine) ^ oprf.alice_values
    token_mask = np.uint64((1 << fp_bits) - 1)
    return at[:, 0] & token_mask, at[:, 1] & ctx.mask, s_tokens, w_masks


def charge_opprf(
    ctx: Meter, n_bob: int, fp_bits: int, wire: Optional[np.ndarray] = None
) -> None:
    """The OPPRF's own message, after the OPRF set-up
    (:func:`~repro.mpc.oprf.charge_oprf_setup`), the one send path of
    both modes: Bob's OKVS over the entries of his ``n_bob`` items,
    sized by ``n_bob`` and the public token width ``fp_bits``.  REAL
    passes the packed table it sends, whose size is checked."""
    hints = None if wire is None else [wire.nbytes]
    Checked(ctx, hints).send(
        BOB, opprf_hint_bytes(ctx.params, n_bob, fp_bits), "opprf_hints"
    )
