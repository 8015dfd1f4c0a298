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
   shared form (with Bob's masks ``r``), or revealed to Alice for the
   Section 5.5 composition where the revealed values are uniform
   permutation indices.

Cost: ``~O(M + N)`` communication and computation, constant rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Union

import numpy as np

from .context import ALICE, BOB, Context, Mode
from .costs import (
    opprf_hint_bytes,
    psi_bins,
    psi_seed_bytes,
    psi_token_bits,
)
from .cuckoo import DUMMY_ALICE, CuckooTable, fingerprint, simple_hash_bins
from .gadgets import bits_of, int_of, psi_bin_circuit
from .oprf import (
    OPPRF_PRIME,
    BatchedOprf,
    charge_oprf_setup,
    poly_eval,
    poly_interpolate,
)
from .ot import OT
from .sharing import SharedVector
from .yao import charge_garbled_batch, run_garbled_batch

__all__ = ["PsiResult", "psi_with_payloads"]

_FP_SALT = b"secyan-psi-fingerprint"


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
        out = np.full(len(self.table.items), -1, dtype=np.int64)
        for b, idx in enumerate(self.table.bins):
            if idx >= 0:
                out[idx] = b
        return out


def psi_with_payloads(
    ctx: Context,
    ot: OT,
    alice_items: Sequence[Hashable],
    bob_items: Sequence[Hashable],
    bob_payloads: Sequence[int],
    bob_fallbacks: Optional[Sequence[int]] = None,
    reveal_payload: bool = False,
    label: str = "psi",
) -> PsiResult:
    """Run PSI where Bob's payloads are known to Bob in the clear.

    ``bob_fallbacks``, if given, supplies the per-bin payload for
    non-matching bins (defaults to 0); it is what the Section 5.5
    composition programs with unused permutation indices.
    ``reveal_payload=True`` outputs the payload to Alice in the clear
    (only used when the payloads are data-independent by construction).
    """
    if len(bob_items) != len(bob_payloads):
        raise ValueError("one payload per Bob item is required")
    if len(set(bob_items)) != len(bob_items):
        raise ValueError("PSI requires distinct items on Bob's side")
    modulus = ctx.modulus

    with ctx.section(label):
        n_bins, load = psi_bins(ctx.params, len(alice_items), len(bob_items))
        table = CuckooTable(
            alice_items,
            n_bins,
            ctx.params.cuckoo_hashes,
            seed=int(ctx.rng.integers(0, 2**31)),
        )
        ctx.send(ALICE, psi_seed_bytes(ctx.params.cuckoo_hashes), "seeds")

        bob_fps = [fingerprint(y, _FP_SALT) for y in bob_items]
        bob_bins = simple_hash_bins(bob_items, table.seeds, n_bins)
        if any(len(b) > load for b in bob_bins):
            raise RuntimeError(
                "simple-hash bin exceeded its statistical load bound "
                "(probability < 2^-sigma); re-run with fresh seeds"
            )

        fallbacks = (
            np.zeros(n_bins, dtype=np.uint64)
            if bob_fallbacks is None
            else np.asarray(bob_fallbacks, dtype=np.uint64) % modulus
        )
        if len(fallbacks) != n_bins:
            raise ValueError("need one fallback per bin")

        alice_fps = [
            fingerprint(table.items[idx], _FP_SALT)
            if idx >= 0
            else DUMMY_ALICE | int(ctx.rng.integers(0, 1 << 62))
            for idx in table.bins
        ]

        if ctx.mode == Mode.REAL:
            return _psi_real(
                ctx, ot, table, n_bins, alice_fps, bob_fps, bob_bins,
                load, bob_payloads, fallbacks, reveal_payload,
            )
        return _psi_simulated(
            ctx, ot, table, n_bins, alice_fps, bob_fps, bob_bins,
            load, bob_payloads, fallbacks, reveal_payload,
        )


def _psi_real(
    ctx: Context,
    ot: OT,
    table: CuckooTable,
    n_bins: int,
    alice_fps: List[int],
    bob_fps: List[int],
    bob_bins: List[List[int]],
    load: int,
    bob_payloads: Sequence[int],
    fallbacks: np.ndarray,
    reveal_payload: bool,
) -> PsiResult:
    ell = ctx.params.ell
    modulus = ctx.modulus
    rng = ctx.rng
    fp_bits = psi_token_bits(n_bins, ctx.params.sigma)
    token_mod = 1 << fp_bits
    oprf = BatchedOprf(ctx, alice_fps)

    # Bob programs per-bin OPPRF polynomials: one for the match token,
    # one for the masked payload; both padded to degree L-1.
    s_tokens = [int(rng.integers(0, token_mod)) for _ in range(n_bins)]
    w_masks = [int(rng.integers(0, modulus)) for _ in range(n_bins)]
    hint_bytes = 0
    alice_tokens: List[int] = []
    alice_payload_vals: List[int] = []
    for b in range(n_bins):
        points_t, points_p = [], []
        used_x = set()
        for idx in bob_bins[b]:
            x = oprf.bob_eval(b, bob_fps[idx]) % OPPRF_PRIME
            if x in used_x:
                raise RuntimeError(
                    "OPRF output collision inside a bin (probability "
                    "< 2^-sigma); re-run with fresh seeds"
                )
            used_x.add(x)
            points_t.append((x, s_tokens[b]))
            points_p.append(
                (x, (int(bob_payloads[idx]) - w_masks[b]) % modulus)
            )
        while len(points_t) < load:
            x = int(rng.integers(0, OPPRF_PRIME))
            if x in used_x:
                continue
            used_x.add(x)
            points_t.append((x, int(rng.integers(0, OPPRF_PRIME))))
            points_p.append((x, int(rng.integers(0, modulus))))
        poly_t = poly_interpolate(points_t)
        poly_p = poly_interpolate(points_p)
        hint_bytes += 8 * (len(poly_t) + len(poly_p))
        x_alice = oprf.alice_values[b] % OPPRF_PRIME
        alice_tokens.append(poly_eval(poly_t, x_alice) % token_mod)
        alice_payload_vals.append(poly_eval(poly_p, x_alice) % modulus)
    ctx.send(BOB, hint_bytes, "opprf_hints")

    # One garbled circuit per bin.
    circuit = psi_bin_circuit(ell, fp_bits, reveal_payload)
    r_ind = ctx.random_ring_vector(n_bins)
    r_pay = ctx.random_ring_vector(n_bins)
    alice_bits = [
        bits_of(alice_tokens[b], fp_bits)
        + bits_of(alice_payload_vals[b], ell)
        for b in range(n_bins)
    ]
    bob_bits = [
        bits_of(s_tokens[b], fp_bits)
        + bits_of(w_masks[b], ell)
        + bits_of(int(fallbacks[b]), ell)
        + bits_of(int(r_ind[b]), ell)
        + bits_of(int(r_pay[b]), ell)
        for b in range(n_bins)
    ]
    with ctx.section("bin_circuits"):
        outputs = run_garbled_batch(ctx, ot, circuit, alice_bits, bob_bits)

    ind_alice = np.asarray(
        [int_of(o[:ell]) for o in outputs], dtype=np.uint64
    )
    pay_alice = np.asarray(
        [int_of(o[ell:]) for o in outputs], dtype=np.uint64
    )
    mask = np.uint64(modulus - 1)
    ind = SharedVector(ind_alice, (-r_ind) & mask, modulus)
    if reveal_payload:
        payload: Union[SharedVector, np.ndarray] = pay_alice
    else:
        payload = SharedVector(pay_alice, (-r_pay) & mask, modulus)
    return PsiResult(table, n_bins, ind, payload)


def _psi_simulated(
    ctx: Context,
    ot: OT,
    table: CuckooTable,
    n_bins: int,
    alice_fps: List[int],
    bob_fps: List[int],
    bob_bins: List[List[int]],
    load: int,
    bob_payloads: Sequence[int],
    fallbacks: np.ndarray,
    reveal_payload: bool,
) -> PsiResult:
    ell = ctx.params.ell
    modulus = ctx.modulus
    mask = np.uint64(modulus - 1)

    # Charge what the real protocol sends.
    charge_oprf_setup(ctx, n_bins)
    ctx.send(BOB, opprf_hint_bytes(n_bins, load), "opprf_hints")
    with ctx.section("bin_circuits"):
        charge_garbled_batch(
            ctx,
            ot,
            psi_bin_circuit(
                ell, psi_token_bits(n_bins, ctx.params.sigma), reveal_payload
            ),
            n_bins,
        )

    # Functionality: per bin, match iff Alice's item is one of Bob's.
    payload_of = {
        fp: int(z) % modulus for fp, z in zip(bob_fps, bob_payloads)
    }
    ind_plain = np.zeros(n_bins, dtype=np.uint64)
    pay_plain = fallbacks.copy() & mask
    for b, idx in enumerate(table.bins):
        if idx < 0:
            continue
        fp = alice_fps[b]
        if fp in payload_of:
            ind_plain[b] = 1
            pay_plain[b] = payload_of[fp]

    ind_a = ctx.random_ring_vector(n_bins)
    ind = SharedVector(ind_a, (ind_plain - ind_a) & mask, modulus)
    if reveal_payload:
        payload: Union[SharedVector, np.ndarray] = pay_plain
    else:
        pay_a = ctx.random_ring_vector(n_bins)
        payload = SharedVector(pay_a, (pay_plain - pay_a) & mask, modulus)
    return PsiResult(table, n_bins, ind, payload)
