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
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .circuits.circuit import Circuit

from .circuits.garbling import (
    CONTROL_BITS,
    HALF_BYTES,
    SEED_BYTES,
    TABLE_HALVES,
)
from .cuckoo import num_bins
from .okvs import okvs_slots
from .params import CUCKOO_EXPANSION, CUCKOO_HASHES, SIGMA, SecurityParams
from .waksman import prefix_switch_count, switch_count

__all__ = [
    "DH_TOKEN_BYTES",
    "FERRET_BOOT",
    "FERRET_MAIN",
    "FRAME_HEADER_BYTES",
    "LPN_D",
    "OPRF_WIDTH",
    "OUT_SIZE_BYTES",
    "POOL_MIN",
    "SOFTSPOKEN_K",
    "WIRE_FORMAT",
    "Widths",
    "CircuitCounts",
    "LpnSet",
    "PoolDraw",
    "GarbledBytes",
    "base_ot_bytes",
    "circuit_counts",
    "cot_bytes",
    "dh_oprf_bytes",
    "garbled_bytes",
    "gilboa_widths",
    "kkrt_setup_bytes",
    "LEAF_BITS",
    "leaf_bytes",
    "leaf_ot_widths",
    "leaf_widths",
    "merge_chain_counts",
    "oep_widths",
    "opprf_hint_bytes",
    "permutation_widths",
    "pool_draw",
    "psi_bins",
    "psi_seed_bytes",
    "psi_token_bits",
    "ring_bytes",
    "ring_widths",
    "seed_ot_widths",
    "share_bytes",
    "tree_bytes",
    "tree_correction_bytes",
]

#: The version of the wire format this module sizes: bumped by every
#: change to a message's size or to the message sequence, and folded
#: into ``repro net``'s session id so that a journal or a peer of
#: another format is refused at the start, not at a later divergence.
WIRE_FORMAT = 10

#: The shape of one C-OT batch: consecutive ``(count, bits)`` segments
#: of same-width transfers, each width in bits.
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


def ring_widths(ell: int, n: int) -> Widths:
    """``n`` C-OTs of one ring element each, at its packed width."""
    return [(n, 8 * ring_bytes(ell))]


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
    return [(n_seeds, 128)]


def cot_bytes(kappa: int, widths: Widths) -> Tuple[int, int]:
    """One correlated-OT extension batch as ``(u, corrections)``: the
    receiver's SoftSpokenOT correction, one bit per OT for each of the
    ``kappa / k`` VOLE blocks, then ONE ciphertext per OT (the sender's
    0-message is the OT's own random pad, so only the 1-message
    crosses), each at its segment's width in bits, packed across the
    batch."""
    n_ots = bits = 0
    for count, width in widths:
        n_ots += count
        bits += count * width
    return kappa // SOFTSPOKEN_K * ((n_ots + 7) // 8), (bits + 7) // 8


class LpnSet(NamedTuple):
    """One Ferret parameter set (Yang, Weng, Lan, Zhang and Wang, CCS
    2020): an iteration turns a reserve of ``k + t * depth`` COTs into
    ``n`` under regular-noise LPN — ``k`` of the reserve are the LPN
    secret, the rest the path bits of ``t`` single-point COTs, each a
    punctured GGM tree of ``2^depth`` leaves, so ``n = t * 2^depth``."""

    n: int
    t: int
    k: int
    depth: int

    @property
    def reserve(self) -> int:
        """The COTs an iteration consumes."""
        return self.k + self.t * self.depth


#: emp-ot's ``ferret_b13``: the main set, whose iterations each keep
#: their successor's reserve out of their own outputs, and the bootstrap
#: set, whose one iteration fills the main set's first reserve from a
#: SoftSpokenOT batch.  The bootstrap set used alone would open for
#: 0.44 MB but refill for 0.28 MB per 429 k COTs (DESIGN.md,
#: "Silent-OT pool").
FERRET_MAIN = LpnSet(n=10_485_760, t=1_280, k=452_000, depth=13)
FERRET_BOOT = LpnSet(n=470_016, t=918, k=32_768, depth=9)

#: Reserve columns XORed into each output row: the local-linear code's
#: row weight.
LPN_D = 10

#: The smallest batch that opens an instance's pool: past the
#: break-even, where opening (a SoftSpokenOT batch of the bootstrap
#: reserve, the bootstrap trees' SPCOTs, one bit per OT) costs less
#: than SoftSpokenOT's ``kappa / k`` bits per OT; :func:`pool_draw`
#: applies it.
POOL_MIN = 1 << 17


def tree_bytes(lpn: LpnSet) -> int:
    """The sender's bytes of one single-point COT: per level of its tree
    the two level sums, each masked by one side of a reserve COT, and
    one correction, ``Delta`` XOR all its leaves."""
    return lpn.depth * 2 * 16 + 16


def _drawn_trees(row: int) -> int:
    """The trees of a main iteration whose SPCOTs have crossed once its
    draws, which start at the first row past the reserve its successor
    keeps, reach ``row``: every bin from that first row's up to
    ``row``'s."""
    main = FERRET_MAIN
    if row <= main.reserve:
        return 0
    return -(-row >> main.depth) - (main.reserve >> main.depth)


class PoolDraw(NamedTuple):
    """What drawing one batch from an extension instance's pool costs,
    the rows it takes and the pool it leaves."""

    #: usable rows left in the current main iteration; ``None`` while
    #: the pool is closed (the batch ran SoftSpokenOT)
    left: Optional[int]
    #: the receiver's ``ot/ext/u``: SoftSpokenOT's correction, or one
    #: derandomisation bit per OT after an opening batch's
    #: SoftSpokenOT correction of the bootstrap reserve
    u: int
    #: the sender's SPCOT bytes the batch owes: those of every tree
    #: whose bin the batch is the first to draw from
    sender: int
    #: whether the batch opens the pool: a SoftSpokenOT batch of random
    #: choices fills the bootstrap reserve
    opens: bool = False
    #: the main iterations' rows the batch takes, in order, as ``(lo,
    #: hi, fresh)``; ``fresh`` when a new iteration starts there from
    #: the reserve the current one (on opening, the bootstrap
    #: iteration) keeps in its first rows
    rows: Tuple[Tuple[int, int, bool], ...] = ()


def pool_draw(kappa: int, left: Optional[int], m: int) -> PoolDraw:
    """A batch of ``m`` OTs against a pool with ``left`` rows (``None``
    while closed).  A closed pool opens at a batch of at least
    :data:`POOL_MIN` OTs and then serves every later batch until the
    scheduler closes it before the next plan node.  Opening draws the
    bootstrap iteration's trees that fill the main reserve; a main
    iteration's draws take its rows in order past the reserve its
    successor keeps, and a tree's SPCOT crosses with the first batch
    that draws from its bin; a drained iteration refills the pool with a
    new one from that reserve, drawing the reserve's own bins."""
    if left is None and m < POOL_MIN:
        return PoolDraw(None, cot_bytes(kappa, [(m, 0)])[0], 0)
    main, boot = FERRET_MAIN, FERRET_BOOT
    usable = main.n - main.reserve
    u, sender, trees = (m + 7) // 8, 0, 0
    opens = left is None
    if opens:
        u += cot_bytes(kappa, [(boot.reserve, 0)])[0]
        sender = -(-main.reserve >> boot.depth) * tree_bytes(boot)
    rows: List[Tuple[int, int, bool]] = []
    while m:
        fresh = not left
        if left == 0:  # a drained main iteration's reserve
            trees += main.reserve >> main.depth
        if not left:
            left = usable
        row, take = main.n - left, min(left, m)
        trees += _drawn_trees(row + take) - _drawn_trees(row)
        rows.append((row, row + take, fresh))
        left, m = left - take, m - take
    return PoolDraw(
        left, u, sender + trees * tree_bytes(main), opens, tuple(rows)
    )


def gilboa_widths(ell: int, n: int) -> Widths:
    """One Gilboa cross term over ``n`` element pairs, bit-major: per
    bit ``i`` of the chosen factor, ``n`` C-OTs over ``Z_{2^(ell -
    i)}`` — the term ``2^i u_i v`` needs only its low ``ell - i`` bits
    before the shift (Gilboa's triangle), ``ell (ell + 1) / 2`` bits
    per pair."""
    return [(n, ell - i) for i in range(ell)]


def oep_widths(ell: int, m: int, n_out: int) -> Widths:
    """An extended permutation from ``m`` inputs to ``n_out`` outputs:
    the switches of a Beneš network on ``max(m, n_out)`` wires that
    feed its first ``n_out`` outputs, a copy pass of ``n_out - 1``
    gates and a Beneš network on ``n_out`` wires, each switch and gate
    one C-OT of one ring element."""
    n_gates = (
        prefix_switch_count(max(m, n_out), n_out)
        + max(n_out - 1, 0)
        + switch_count(n_out)
    )
    return ring_widths(ell, n_gates)


def permutation_widths(ell: int, n: int) -> Widths:
    """A plain permutation of ``n`` shares: one Beneš network on ``n``
    wires, one C-OT of a ring element per switch."""
    return ring_widths(ell, switch_count(n))


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
        weight_ots=ring_widths(ell, counts.evaluator_rows * n_instances),
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


def psi_bins(m: int) -> int:
    """The cuckoo table size of a PSI over ``m`` cuckoo-side items."""
    return num_bins(m, CUCKOO_EXPANSION)


def psi_seed_bytes(n_hashes: int) -> int:
    """The cuckoo hash seeds: 16 bytes per hash function."""
    return 16 * n_hashes


def kkrt_setup_bytes(n_rows: int) -> int:
    """The batched OPRF's ``u`` over ``n_rows`` bins: an IKNP-style
    matrix of :data:`OPRF_WIDTH` columns, whose base OTs are that many
    :func:`seed_ot_widths` OTs of the reverse extension instance, takes
    one column-correction message of a bit per column and row."""
    return OPRF_WIDTH * ((n_rows + 7) // 8)


def opprf_hint_bytes(params: SecurityParams, n: int, fp_bits: int) -> int:
    """The OPPRF's one OKVS, sized for the at most ``CUCKOO_HASHES * n``
    simple-hash entries of ``n`` items: per slot the token column at
    ``fp_bits`` bits and the masked payload's at ``ell``, packed across
    the table.  Decoding is XOR-linear, so the low bits of a decode are
    the decode of the table's low bits: the bits no party reads are not
    sent."""
    slots = okvs_slots(CUCKOO_HASHES * n, SIGMA)
    return (slots * (fp_bits + params.ell) + 7) // 8


def psi_token_bits(n_bins: int, sigma: int) -> int:
    """Match-token width: sigma + log2(B) bits bound the probability of
    any bin's comparison colliding spuriously by 2^-sigma (PSTY19).
    The token must fit one ``uint64`` word, column 0 of its OKVS value
    slot, into which ``rng.integers(0, 1 << fp_bits)`` draws it; any
    cap up to 63 would do, and 61 is kept so that no message moves."""
    return min(61, sigma + max(1, math.ceil(math.log2(max(n_bins, 2)))))


#: Token bits per leaf of the PSI bins' OT equality test
#: (:mod:`repro.mpc.leaves`): ``w = 5`` gives 11 leaves of a 55-bit
#: token, so a 10-AND garbled tree, for 32-bit leaf messages; ``w = 4``
#: would take 14 leaves and 13 ANDs for 16-bit ones (DESIGN.md,
#: "Equality by OT leaves").  At most 5: a leaf's messages fill one
#: ``uint64`` word at most half.
LEAF_BITS = 5


def leaf_widths(fp_bits: int) -> List[int]:
    """The widths of an ``fp_bits``-bit token's leaves, low bits first:
    :data:`LEAF_BITS` each, the last one the remainder."""
    return [
        min(LEAF_BITS, fp_bits - lo) for lo in range(0, fp_bits, LEAF_BITS)
    ]


def leaf_ot_widths(n_bins: int, fp_bits: int) -> Widths:
    """The leaf OTs' one batch, never finished: a random OT per token
    bit and bin, each pad ``2^w`` bits — one bit for every message of
    its leaf's 1-of-``2^w`` OT."""
    return [(n_bins * fp_bits, 1 << LEAF_BITS)]


def leaf_bytes(n_bins: int, fp_bits: int) -> int:
    """Alice's leaf messages: per bin and leaf of ``w`` bits, ``2^w``
    one-bit messages, packed across the batch."""
    bits = sum(1 << w for w in leaf_widths(fp_bits))
    return (n_bins * bits + 7) // 8


def dh_oprf_bytes(m: int, n: int) -> Tuple[int, int, int]:
    """A DH-OPRF matching of ``m`` blinded keys against ``n`` tokens as
    ``(blind, eval, tokens)``: one x-coordinate per blinded key in
    each direction, then the sorted tokens."""
    return m * X_BYTES, m * X_BYTES, n * DH_TOKEN_BYTES
