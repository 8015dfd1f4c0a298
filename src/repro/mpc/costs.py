"""Wire sizes of the OT-level primitives: the one place a wire-format
change is made.

Every byte the protocols put on the wire below the operator level
belongs to a correlated-OT batch or to a garbled-circuit batch.  The
REAL extension and the SIMULATED charges (:mod:`repro.mpc.ot`,
:mod:`repro.mpc.yao`, :mod:`repro.mpc.engine`) and the analytic
estimator (:mod:`repro.bench.estimator`) all size the messages of those
two batches here; what each layer keeps to itself is the *composition*
— which primitives an operator runs, at what shapes, in what order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .circuits.garbling import LABEL_BYTES, ROWS_PER_AND, SEED_BYTES

__all__ = [
    "Widths",
    "GarbledBytes",
    "base_ot_bytes",
    "cot_bytes",
    "garbled_bytes",
]

#: The shape of one C-OT batch: consecutive ``(count, width)`` segments
#: of same-width transfers.
Widths = Sequence[Tuple[int, int]]


def base_ot_bytes(kappa: int, group_bits: int) -> Tuple[int, int, int]:
    """The one-time base phase of an extension instance — ``kappa``
    Chou–Orlandi OTs of 16-byte seed pairs in reversed roles — as its
    ``(A, B, ciphertexts)`` messages."""
    elem = group_bits // 8
    return elem, elem * kappa, 2 * 16 * kappa


def cot_bytes(kappa: int, widths: Widths) -> Tuple[int, int]:
    """One correlated-OT extension batch as ``(u, corrections)``: the
    receiver's IKNP column corrections, then ONE ciphertext per OT (the
    sender's 0-message is the OT's own random pad, so only the
    1-message crosses)."""
    n_ots = sum(count for count, _ in widths)
    return (
        kappa * ((n_ots + 7) // 8),
        sum(count * width for count, width in widths),
    )


class GarbledBytes(NamedTuple):
    """The messages of one garbled batch, in wire order ``u`` (opening
    the label C-OT), tables, seed, label corrections, decode."""

    #: the evaluator-input label OTs, as a :func:`cot_bytes` segment
    label_ots: Tuple[int, int]
    tables: int
    #: every garbler-side input and constant label expands from it
    seed: int
    decode: int


def garbled_bytes(
    and_count: int, n_alice: int, n_outputs: int, n_instances: int
) -> GarbledBytes:
    """``n_instances`` garblings of one template: two half-gates rows
    per AND, one label OT per evaluator input bit, one seed per batch,
    one decode bit per output wire."""
    return GarbledBytes(
        label_ots=(n_alice * n_instances, LABEL_BYTES),
        tables=ROWS_PER_AND * LABEL_BYTES * and_count * n_instances,
        seed=SEED_BYTES,
        decode=((n_outputs + 7) // 8) * n_instances,
    )
