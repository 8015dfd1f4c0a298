"""Wire sizes of every primitive: the one place a wire-format change is
made.

An oblivious protocol's cost depends only on public shapes (Section 8),
so each message size here is a pure function of relation sizes and
protocol parameters.  The SIMULATED charge sites across
:mod:`repro.mpc`, :mod:`repro.core.join` and the session framing, and
the analytic estimator (:mod:`repro.bench.estimator`), all size their
messages here and do no size arithmetic of their own; each keeps the
*composition* — which primitives run, at what shapes, in what order —
and the ``(sender, label)`` of its messages (the lint rules need label
literals at the send sites).  REAL paths send what they actually built.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .circuits.circuit import Circuit

from .circuits.garbling import (
    CONTROL_BITS,
    HALF_BYTES,
    SEED_BYTES,
    TABLE_HALVES,
)
from .cuckoo import max_bin_load, num_bins
from .params import SecurityParams
from .waksman import padded_size, switch_count

__all__ = [
    "DH_TOKEN_BYTES",
    "FRAME_HEADER_BYTES",
    "OPPRF_LIMB_BITS",
    "OPRF_WIDTH",
    "OUT_SIZE_BYTES",
    "SOFTSPOKEN_K",
    "WIRE_FORMAT",
    "Widths",
    "CircuitCounts",
    "GarbledBytes",
    "base_ot_bytes",
    "circuit_counts",
    "cot_bytes",
    "dh_oprf_bytes",
    "garbled_bytes",
    "gilboa_widths",
    "kkrt_setup_bytes",
    "merge_chain_counts",
    "oep_widths",
    "opprf_hint_bytes",
    "opprf_payload_limbs",
    "permutation_widths",
    "psi_bins",
    "psi_seed_bytes",
    "psi_token_bits",
    "ring_bytes",
    "seed_ot_widths",
    "share_bytes",
    "tree_correction_bytes",
]

#: The version of the wire format this module sizes: bumped by every
#: change to a message's size or to the message sequence, and folded
#: into ``repro net``'s session id so that a journal or a peer of
#: another format is refused at the start, not at a later divergence.
WIRE_FORMAT = 4

#: The shape of one C-OT batch: consecutive ``(count, width)`` segments
#: of same-width transfers.
Widths = Sequence[Tuple[int, int]]

#: A P-256 point on the wire (SEC1 compressed), and the bare
#: x-coordinate the x-only DH-OPRF sends instead.
POINT_BYTES = 33
X_BYTES = 32

#: KKRT code width (bits); 448 gives ~128-bit security for the code.
OPRF_WIDTH = 448

#: Truncated-hash DH-OPRF token width: 128 bits bound the collision
#: probability between any two distinct items by ``m * n / 2^128``, far
#: inside the protocol's ``2^-sigma`` failure budget.
DH_TOKEN_BYTES = 16

#: ``|J*|``, disclosed to Bob as one 64-bit integer (Section 6.3).
OUT_SIZE_BYTES = 8

#: Session framing overhead per message: 4-byte magic + 8-byte sequence
#: number + 4-byte payload length + 32-byte SHA-256 checksum.
FRAME_HEADER_BYTES = 4 + 8 + 4 + 32


def ring_bytes(ell: int) -> int:
    """Bytes one ``Z_{2^ell}`` element is packed to on the wire."""
    return (ell + 7) // 8


def share_bytes(ell: int, n: int) -> int:
    """One message of ``n`` ring elements: a sharing's complement, or
    the complementary share of a reveal."""
    return n * ring_bytes(ell)


#: SoftSpokenOT's field width: the extension matrix's ``kappa`` columns
#: are ``kappa / k`` small-field VOLEs over ``GF(2^k)``, each from a
#: GGM tree of ``2^k`` leaves punctured at the sender's ``k`` secret
#: bits, so the receiver's correction is ``kappa / k`` bits per OT for
#: ``2^k`` leaf expansions per block.  ``k = 4`` cuts IKNP's ``u`` by
#: 75 %; ``k = 8`` would cost 32 times IKNP's sender-side PRG work.
SOFTSPOKEN_K = 4


def base_ot_bytes(kappa: int) -> Tuple[int, int, int]:
    """The one public-key set-up of an engine, the base phase of its
    forward extension instance — ``kappa`` Chou–Orlandi OTs of 16-byte
    GGM level sums in reversed roles, one per level of each of the
    ``kappa / k`` trees — as ``(A, B, ciphertexts)``."""
    return POINT_BYTES, POINT_BYTES * kappa, 2 * 16 * kappa


def tree_correction_bytes(kappa: int) -> int:
    """The mirror instance's GGM trees below their first level: its
    ``kappa`` base OTs are random OTs of the forward instance, whose
    pads are the trees' level-1 nodes; each deeper level's two sums
    cross once, masked by that level's pads — ``(k - 1)`` pairs of
    16-byte corrections per tree, in the mirror's first ``u``
    message."""
    return (kappa // SOFTSPOKEN_K) * (SOFTSPOKEN_K - 1) * 2 * 16


def seed_ot_widths(n_seeds: int) -> Widths:
    """Every other set of base OTs (the mirror's ``kappa``, a KKRT
    OPRF's :data:`OPRF_WIDTH`): one extension batch of ``n_seeds`` OTs
    that is never finished — only ``u`` crosses, the pads are seeds."""
    return [(n_seeds, 16)]


def cot_bytes(kappa: int, widths: Widths) -> Tuple[int, int]:
    """One correlated-OT extension batch as ``(u, corrections)``: the
    receiver's SoftSpokenOT correction, one bit per OT for each of the
    ``kappa / k`` VOLE blocks, then ONE ciphertext per OT (the sender's
    0-message is the OT's own random pad, so only the 1-message
    crosses)."""
    n_ots = corrections = 0
    for count, width in widths:
        n_ots += count
        corrections += count * width
    return kappa // SOFTSPOKEN_K * ((n_ots + 7) // 8), corrections


def gilboa_widths(ell: int, n: int) -> Widths:
    """One Gilboa cross term over ``n`` element pairs: one C-OT of a
    ring element per bit of the chosen factor."""
    return [(n * ell, ring_bytes(ell))]


def oep_widths(ell: int, m: int, n_out: int) -> Widths:
    """An extended permutation from ``m`` inputs to ``n_out`` outputs:
    two Benes networks of two-word switches around one pass of one-word
    copy gates, over the power-of-two padded wire count."""
    n_work = padded_size(max(m, n_out))
    rb = ring_bytes(ell)
    return [(2 * switch_count(n_work), 2 * rb), (n_work - 1, rb)]


def permutation_widths(ell: int, n: int) -> Widths:
    """A plain permutation of ``n`` shares: one Benes network."""
    return [(switch_count(n), 2 * ring_bytes(ell))]


class CircuitCounts(NamedTuple):
    """All of a template that :func:`garbled_bytes` depends on."""

    ands: int
    #: evaluator input bits, one label OT each
    alice_bits: int
    #: translated output rows that cross the wire (one ring element each)
    rows: int
    #: revealed output bits (one decode bit each)
    revealed: int
    #: Bob's payload bits disclosed under a revealed bit's 1-label
    #: (``ceil(bits / 8)`` bytes per instance)
    disclosed: int
    #: rows weighted by the evaluator (one reverse C-OT of a ring
    #: element each)
    evaluator_rows: int = 0


class GarbledBytes(NamedTuple):
    """The messages of one garbled batch, in wire order: ``u`` (opening
    the label OTs), tables, seed, decode, then the evaluator rows'
    C-OT batch (its ``u``, then its corrections)."""

    #: the evaluator-input label OTs: Δ-correlated, so the batch is
    #: never finished and only its ``u`` crosses
    label_ots: int
    tables: int
    #: every garbler-side input and constant label expands from it
    seed: int
    #: the revealed outputs' decode bits, the translated rows, then the
    #: disclosed payload
    decode: int
    #: the evaluator rows: one C-OT of a ring element per row and
    #: instance, the garbler choosing by the row wire's permute bit
    weight_ots: Widths


def garbled_bytes(
    counts: CircuitCounts, n_instances: int, ell: int
) -> GarbledBytes:
    """``n_instances`` garblings of one template: per AND three 8-byte
    half-ciphertexts (three-halves) plus four control bits, the bits
    packed across the batch, one label OT per evaluator input bit, one
    seed per batch,
    per instance one decode bit per revealed output wire (packed to
    bytes), one ring element per translated row and the disclosed
    payload packed to bytes, and one reverse C-OT of a ring element per
    evaluator row."""
    ands = counts.ands * n_instances
    return GarbledBytes(
        label_ots=counts.alice_bits * n_instances,
        tables=TABLE_HALVES * HALF_BYTES * ands + -(-CONTROL_BITS * ands // 8),
        seed=SEED_BYTES,
        decode=(
            (counts.revealed + 7) // 8
            + counts.rows * ring_bytes(ell)
            + (counts.disclosed + 7) // 8
        ) * n_instances,
        weight_ots=[(counts.evaluator_rows * n_instances, ring_bytes(ell))],
    )


def circuit_counts(circuit: "Circuit") -> CircuitCounts:
    """A template's :class:`CircuitCounts`."""
    disclosure = circuit.disclosure
    return CircuitCounts(
        circuit.and_count,
        len(circuit.alice_inputs),
        len(circuit.sent_rows),
        len(circuit.outputs),
        len(disclosure.payload) if disclosure else 0,
        len(circuit.evaluator_rows),
    )


def merge_chain_counts(
    template: Callable[[int], "Circuit"], n: int
) -> CircuitCounts:
    """:func:`circuit_counts` of the length-``n`` merge chain
    ``template(n)`` without building it: the chain is structurally
    linear in ``n``, so its counts extrapolate exactly from the n=2 and
    n=3 builds."""
    if n <= 3:
        return circuit_counts(template(n))
    c2, c3 = circuit_counts(template(2)), circuit_counts(template(3))
    return CircuitCounts(*(f2 + (n - 2) * (f3 - f2) for f2, f3 in zip(c2, c3)))


def psi_bins(params: SecurityParams, m: int, n: int) -> Tuple[int, int]:
    """``(n_bins, load)`` of a PSI between ``m`` cuckoo-side and ``n``
    simple-hash-side items: the table size and the public bound every
    bin's load is padded to."""
    n_bins = num_bins(m, params.cuckoo_expansion)
    return n_bins, max_bin_load(
        n, n_bins, params.cuckoo_hashes, params.sigma
    )


def psi_seed_bytes(n_hashes: int) -> int:
    """The cuckoo hash seeds: 16 bytes per hash function."""
    return 16 * n_hashes


def kkrt_setup_bytes(n_rows: int) -> int:
    """The batched OPRF's ``u`` over ``n_rows`` bins: an IKNP-style
    matrix of :data:`OPRF_WIDTH` columns, whose base OTs are that many
    :func:`seed_ot_widths` OTs of the reverse extension instance, takes
    one column-correction message of a bit per column and row."""
    return OPRF_WIDTH * ((n_rows + 7) // 8)


#: Bits of the masked payload one ``GF(2^61 - 1)`` element carries: an
#: ``ell``-bit payload crosses the OPPRF as :func:`opprf_payload_limbs`
#: elements, each below the prime.
OPPRF_LIMB_BITS = 60


def opprf_payload_limbs(ell: int) -> int:
    """``ceil(ell / 60)``: one for every ``ell <= 60``."""
    return -(-ell // OPPRF_LIMB_BITS)


def opprf_hint_bytes(n_bins: int, load: int, ell: int) -> int:
    """Per bin, degree-``load - 1`` polynomials of 8-byte
    ``GF(2^61 - 1)`` coefficients: one for the match token and one per
    limb of the ``ell``-bit masked payload."""
    return 8 * (1 + opprf_payload_limbs(ell)) * load * n_bins


def psi_token_bits(n_bins: int, sigma: int) -> int:
    """Match-token width: sigma + log2(B) bits bound the probability of
    any bin's comparison colliding spuriously by 2^-sigma (PSTY19);
    capped at the OPPRF field size."""
    return min(61, sigma + max(1, math.ceil(math.log2(max(n_bins, 2)))))


def dh_oprf_bytes(m: int, n: int) -> Tuple[int, int, int]:
    """A DH-OPRF matching of ``m`` blinded keys against ``n`` tokens as
    ``(blind, eval, tokens)``: one x-coordinate per blinded key in
    each direction, then the sorted tokens."""
    return m * X_BYTES, m * X_BYTES, n * DH_TOKEN_BYTES
