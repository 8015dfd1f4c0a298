"""Reusable circuit templates for the secure operators.

Each function returns a cached :class:`Circuit` for a given shape; the
docstring states the exact input packing (Alice's bits first, then
Bob's, all words little-endian).  REAL mode garbles these templates;
SIMULATED mode charges their exact gate counts — one source of truth for
both behaviour and cost.
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
    "merge_sum_circuit",
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
    """``(x1+x2) * (y1+y2) + r``.

    Alice: ``x1 | y1``; Bob: ``x2 | y2 | r``.  Output: ell bits (Alice's
    arithmetic share; Bob's share is ``-r``).
    """
    b = CircuitBuilder()
    x1, y1 = b.alice_input_bits(ell), b.alice_input_bits(ell)
    x2, y2, r = (
        b.bob_input_bits(ell),
        b.bob_input_bits(ell),
        b.bob_input_bits(ell),
    )
    x, y = b.add(x1, x2), b.add(y1, y2)
    return b.build(b.add(b.mul(x, y), r))


@functools.lru_cache(maxsize=None)
def nonzero_circuit(ell: int) -> Circuit:
    """``Ind(x1+x2 != 0) + r`` (indicator as a ring element).

    Alice: ``x1``; Bob: ``x2 | r``.  Output: Alice's share.
    """
    b = CircuitBuilder()
    x1 = b.alice_input_bits(ell)
    x2, r = b.bob_input_bits(ell), b.bob_input_bits(ell)
    bit = b.nonzero(b.add(x1, x2))
    word = [bit] + [b.constant(0)] * (ell - 1)
    return b.build(b.add(word, r))


@functools.lru_cache(maxsize=None)
def merge_sum_circuit(ell: int, n: int) -> Circuit:
    """The N-tuple merge-gate chain of Section 6.1 (sum semiring).

    Alice: ``ind[0..n-2] | v1[0..n-1]`` where ``ind[i] = 1`` iff sorted
    tuples ``i`` and ``i+1`` share the group key; Bob:
    ``v2[0..n-1] | r[0..n-1]``.  Output: ``n`` masked group aggregates —
    position ``i`` holds the group total iff ``i`` is the last member of
    its group, else 0 (before masking).
    """
    if n < 1:
        raise ValueError("merge chain needs at least one tuple")
    b = CircuitBuilder()
    ind = b.alice_input_bits(n - 1)
    v1 = [b.alice_input_bits(ell) for _ in range(n)]
    v2 = [b.bob_input_bits(ell) for _ in range(n)]
    r = [b.bob_input_bits(ell) for _ in range(n)]
    zero = b.constant_word(0, ell)
    z = b.add(v1[0], v2[0])
    outs: List[List[int]] = []
    for i in range(n - 1):
        w = b.mux(ind[i], zero, z)
        outs.append(b.add(w, r[i]))
        carried = b.mux(ind[i], z, zero)
        z = b.add(carried, b.add(v1[i + 1], v2[i + 1]))
    outs.append(b.add(z, r[n - 1]))
    return b.build([w for word in outs for w in word])


@functools.lru_cache(maxsize=None)
def merge_or_circuit(ell: int, n: int) -> Circuit:
    """The merge chain with OR in place of the semiring addition, used by
    the support projection ``pi^1`` (Section 6.1).  The shared values are
    0/1 indicators, so only the LSBs of their shares enter the circuit.

    Alice: ``ind[0..n-2] | lsb(v1)[0..n-1]``; Bob:
    ``lsb(v2)[0..n-1] | r[0..n-1]``.  Output: ``n`` masked 0/1 words.
    """
    if n < 1:
        raise ValueError("merge chain needs at least one tuple")
    b = CircuitBuilder()
    ind = b.alice_input_bits(n - 1)
    v1 = b.alice_input_bits(n)
    v2 = b.bob_input_bits(n)
    r = [b.bob_input_bits(ell) for _ in range(n)]
    bits = [b.xor(a, c) for a, c in zip(v1, v2)]  # reconstruct indicators
    z = bits[0]
    outs: List[List[int]] = []
    zero_tail = [b.constant(0)] * (ell - 1)
    for i in range(n - 1):
        w = b.and_(b.not_(ind[i]), z)
        outs.append(b.add([w] + zero_tail, r[i]))
        z = b.or_(b.and_(ind[i], z), bits[i + 1])
    outs.append(b.add([z] + zero_tail, r[n - 1]))
    return b.build([w for word in outs for w in word])


@functools.lru_cache(maxsize=None)
def psi_bin_circuit(ell: int, fp_bits: int, reveal_payload: bool) -> Circuit:
    """Per-bin matching circuit of the PSI protocol (Sections 5.3/5.5).

    Alice: ``t (fp_bits) | p (ell)`` — her OPPRF outputs for this bin;
    Bob: ``s (fp_bits) | w (ell) | fallback (ell) | r_ind (ell)``, then
    ``r_pay (ell)`` unless the payload is revealed.

    ``m = eq(t, s)`` detects membership.  Outputs: the masked indicator
    word, then the payload ``m ? (p + w) : fallback`` — masked with
    ``r_pay`` when the payload stays shared (Section 6.2), or revealed
    as-is for the shared-payload composition (Section 5.5, where the
    revealed values are uniformly random permutation indices).
    """
    b = CircuitBuilder()
    t = b.alice_input_bits(fp_bits)
    p = b.alice_input_bits(ell)
    s = b.bob_input_bits(fp_bits)
    w = b.bob_input_bits(ell)
    fallback = b.bob_input_bits(ell)
    r_ind = b.bob_input_bits(ell)
    r_pay = [] if reveal_payload else b.bob_input_bits(ell)
    m = b.eq(t, s)
    ind_word = b.add([m] + [b.constant(0)] * (ell - 1), r_ind)
    pay = b.mux(m, b.add(p, w), fallback)
    if r_pay:
        pay = b.add(pay, r_pay)
    return b.build(ind_word + pay)


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

    Alice: ``v1``; Bob: ``v2 | tuple payload (payload_bits)``.
    Outputs (revealed to Alice): ``Ind(v != 0)`` then
    ``Ind ? payload : 0...0``.
    """
    b = CircuitBuilder()
    v1 = b.alice_input_bits(ell)
    v2 = b.bob_input_bits(ell)
    payload = b.bob_input_bits(payload_bits)
    bit = b.nonzero(b.add(v1, v2))
    zeros = [b.constant(0)] * payload_bits
    return b.build([bit] + b.mux(bit, payload, zeros))
