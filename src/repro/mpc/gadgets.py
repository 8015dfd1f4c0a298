"""Reusable circuit templates for the secure operators.

Each function returns a cached :class:`Circuit` for a given shape; the
docstring states the exact input packing (Alice's bits first, then
Bob's, all words little-endian) and its outputs: shared words leave a
template through translated rows (:meth:`CircuitBuilder.share_word`),
so no template adds a mask, and Bob's tuples leave the reveal template
by label-keyed disclosure (:meth:`CircuitBuilder.disclose`), not a
mux.  A value one party holds in the clear stays out of the circuit:
the zero tests compare Alice's share with Bob's negated one instead of
adding them, and a PSI bin's payload is a row weighted by Alice.  (The
Section 6.1 sum chain has no template: its one product per row is with
Alice's boundary bit, one C-OT in
:meth:`repro.mpc.engine.Engine.merge_aggregate_sum`.)  REAL mode
garbles these templates; SIMULATED mode charges their exact gate and
row counts — one source of truth for both behaviour and cost.

Templates are public, pure functions of their shapes, so each
builder's process-wide ``lru_cache`` is their one cache, shared by
every run and every served session.
"""

from __future__ import annotations

import functools
from typing import List

from .circuits.builder import CircuitBuilder
from .circuits.circuit import Circuit

__all__ = [
    "bits_of",
    "int_of",
    "mul_shared_circuit",
    "nonzero_circuit",
    "merge_or_circuit",
    "psi_bin_circuit",
    "div_reveal_circuit",
    "reveal_tuple_circuit",
]


def bits_of(value: int, n: int) -> List[int]:
    """Little-endian bit list of ``value`` (low ``n`` bits)."""
    return [(int(value) >> i) & 1 for i in range(n)]


def int_of(bits: List[int]) -> int:
    out = 0
    for i, b in enumerate(bits):
        out |= (int(b) & 1) << i
    return out


@functools.lru_cache(maxsize=None)
def mul_shared_circuit(ell: int) -> Circuit:
    """``(x1+x2) * (y1+y2)`` as one shared word.

    Alice: ``x1 | y1``; Bob: ``x2 | y2``.
    """
    b = CircuitBuilder()
    x1, y1 = b.alice_input_bits(ell), b.alice_input_bits(ell)
    x2, y2 = b.bob_input_bits(ell), b.bob_input_bits(ell)
    b.share_word(b.mul(b.add(x1, x2), b.add(y1, y2)))
    return b.build()


@functools.lru_cache(maxsize=None)
def nonzero_circuit(ell: int) -> Circuit:
    """``Ind(x1+x2 != 0)`` as one shared word: ``x1 + x2`` is nonzero
    iff ``x1 != -x2``, so one comparison (``ell - 1`` ANDs) and no
    adder.

    Alice: ``x1``; Bob: ``-x2`` (his negated share).
    """
    b = CircuitBuilder()
    x1 = b.alice_input_bits(ell)
    neg_x2 = b.bob_input_bits(ell)
    b.share_word([b.not_(b.eq(x1, neg_x2))])
    return b.build()


@functools.lru_cache(maxsize=None)
def merge_or_circuit(n: int) -> Circuit:
    """The merge chain with OR in place of the semiring addition, used by
    the support projection ``pi^1`` (Section 6.1).  The shared values are
    0/1 indicators, so only the LSBs of their shares enter the circuit.

    Alice: ``ind[0..n-2] | lsb(v1)[0..n-1]``; Bob: ``lsb(v2)[0..n-1]``.
    Output: ``n`` shared 0/1 words, one translated row each.
    """
    if n < 1:
        raise ValueError("merge chain needs at least one tuple")
    b = CircuitBuilder()
    ind = b.alice_input_bits(n - 1)
    v1 = b.alice_input_bits(n)
    v2 = b.bob_input_bits(n)
    bits = [b.xor(a, c) for a, c in zip(v1, v2)]  # reconstruct indicators
    z = bits[0]
    for i in range(n - 1):
        b.share_word([b.and_(b.not_(ind[i]), z)])
        z = b.or_(b.and_(ind[i], z), bits[i + 1])
    b.share_word([z])
    return b.build()


@functools.lru_cache(maxsize=None)
def psi_bin_circuit(ell: int, fp_bits: int, reveal_payload: bool) -> Circuit:
    """Per-bin matching circuit of the PSI protocol (Sections 5.3/5.5).

    Alice: ``t (fp_bits)``, then ``p (ell)`` when the payload is
    revealed — her OPPRF outputs for this bin; Bob: ``s (fp_bits)``,
    then ``w (ell) | fallback (ell)`` when the payload is revealed.

    ``m = eq(t, s)`` detects membership; shared word 0 is ``m``.  The
    payload is ``m ? (p + w) : fallback``:

    * shared (Section 6.2): word 1 is a row on ``m`` weighted by
      Alice's per-bin weight ``p`` (column 0 of hers) plus a row on
      ``m`` weighted by Bob's ``w - fallback``, with Bob's offset
      ``fallback`` — the payload, with no gate in the circuit;
    * revealed as-is for the shared-payload composition (Section 5.5,
      where the revealed values are uniformly random permutation
      indices): the mux and the adder compute it in the circuit.
    """
    b = CircuitBuilder()
    t = b.alice_input_bits(fp_bits)
    p = b.alice_input_bits(ell) if reveal_payload else []
    s = b.bob_input_bits(fp_bits)
    m = b.eq(t, s)
    b.share_word([m])
    if not reveal_payload:
        pay = b.share_word([m], weight=0, evaluator=True)
        b.share_word([m], word=pay, weight=0)
        return b.build()
    w = b.bob_input_bits(ell)
    fallback = b.bob_input_bits(ell)
    return b.build(b.mux(m, b.add(p, w), fallback))


@functools.lru_cache(maxsize=None)
def div_reveal_circuit(ell: int) -> Circuit:
    """``(x1+x2) // (y1+y2)`` revealed to Alice — the final division of an
    avg/ratio query composition (Section 7).

    Alice: ``x1 | y1``; Bob: ``x2 | y2``.
    """
    b = CircuitBuilder()
    x1, y1 = b.alice_input_bits(ell), b.alice_input_bits(ell)
    x2, y2 = b.bob_input_bits(ell), b.bob_input_bits(ell)
    q, _rem = b.div_unsigned(b.add(x1, x2), b.add(y1, y2))
    return b.build(q)


@functools.lru_cache(maxsize=None)
def reveal_tuple_circuit(ell: int, payload_bits: int) -> Circuit:
    """Section 6.3 step 1: reveal Bob's tuple iff its annotation is
    nonzero, else a dummy.

    Alice: ``v1``; Bob: ``-v2 | tuple payload (payload_bits)``.
    Outputs (revealed to Alice): ``Ind(v != 0)`` — ``v1 != -v2``, as in
    :func:`nonzero_circuit` — then the payload disclosed under it
    (:meth:`CircuitBuilder.disclose`) — Bob's tuple where the bit is 1,
    zeros where it is 0 — with no gate on it.
    """
    b = CircuitBuilder()
    v1 = b.alice_input_bits(ell)
    neg_v2 = b.bob_input_bits(ell)
    payload = b.bob_input_bits(payload_bits)
    bit = b.not_(b.eq(v1, neg_v2))
    b.disclose(bit, payload)
    return b.build([bit])
