"""Circuit builder with the arithmetic gadgets the protocol needs.

Words are little-endian bit lists over ``Z_{2^ell}`` (wrap-around
arithmetic, matching the arithmetic secret-sharing ring).  Gadgets:

* ``add`` / ``sub`` / ``neg``  — ripple-carry, final carry dropped (mod 2^ell)
* ``mul``                      — shift-and-add schoolbook multiplier, low ell bits
* ``eq`` / ``is_zero`` / ``nonzero`` / ``all_``
* ``mux``                      — word select
* ``lt_unsigned`` / ``gt_unsigned``
* ``div_unsigned``             — restoring long division (for avg/ratio
                                 query composition, Section 7)

Outputs are either revealed bits (the wires passed to :meth:`build`)
or shared words (:meth:`share_word`, one row per bit); Bob's
input bits may also be disclosed outside the circuit under a revealed
bit (:meth:`disclose`).  :meth:`build` keeps only the gates some output
reaches.

The SIMULATED cost model charges a gadget by its built template's gate
and wire counts; the wire sizes per AND gate, input bit, translated row
and revealed bit live in :mod:`repro.mpc.costs`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .circuit import AND, INV, XOR, Circuit, Disclosure, Gate, Row

__all__ = ["CircuitBuilder"]

Wire = int
Word = List[int]


class CircuitBuilder:
    """Incrementally builds a :class:`Circuit`."""

    def __init__(self) -> None:
        self._n_wires = 0
        self._gates: List[Gate] = []
        self._alice: List[int] = []
        self._bob: List[int] = []
        self._consts: List[Tuple[int, int]] = []
        self._const_cache: dict = {}
        self._rows: List[Row] = []
        self._n_words = 0
        self._disclosure: Optional[Disclosure] = None

    # -- wires ----------------------------------------------------------

    def _new_wire(self) -> Wire:
        w = self._n_wires
        self._n_wires += 1
        return w

    def alice_input_bits(self, n: int) -> Word:
        ws = [self._new_wire() for _ in range(n)]
        self._alice.extend(ws)
        return ws

    def bob_input_bits(self, n: int) -> Word:
        ws = [self._new_wire() for _ in range(n)]
        self._bob.extend(ws)
        return ws

    def constant(self, bit: int) -> Wire:
        bit = int(bit) & 1
        if bit not in self._const_cache:
            w = self._new_wire()
            self._consts.append((w, bit))
            self._const_cache[bit] = w
        return self._const_cache[bit]

    def constant_word(self, value: int, n_bits: int) -> Word:
        return [self.constant((value >> i) & 1) for i in range(n_bits)]

    # -- primitive gates --------------------------------------------------

    def xor(self, a: Wire, b: Wire) -> Wire:
        out = self._new_wire()
        self._gates.append(Gate(XOR, a, b, out))
        return out

    def and_(self, a: Wire, b: Wire) -> Wire:
        out = self._new_wire()
        self._gates.append(Gate(AND, a, b, out))
        return out

    def not_(self, a: Wire) -> Wire:
        out = self._new_wire()
        self._gates.append(Gate(INV, a, -1, out))
        return out

    def or_(self, a: Wire, b: Wire) -> Wire:
        # a OR b = NOT(NOT a AND NOT b): one AND gate
        return self.not_(self.and_(self.not_(a), self.not_(b)))

    # -- word gadgets -----------------------------------------------------

    def add(self, xs: Word, ys: Word) -> Word:
        """Ripple-carry addition mod ``2^len``; carry into bit i+1 is
        ``maj(x, y, c) = c ^ ((x^c) & (y^c))`` — one AND per bit."""
        self._check_words(xs, ys)
        out: Word = []
        carry: Optional[Wire] = None
        for x, y in zip(xs, ys):
            if carry is None:
                out.append(self.xor(x, y))
                carry = self.and_(x, y)
            else:
                xc = self.xor(x, carry)
                yc = self.xor(y, carry)
                out.append(self.xor(xc, y))
                carry = self.xor(carry, self.and_(xc, yc))
        return out

    def neg(self, xs: Word) -> Word:
        """Two's complement: ``~x + 1`` mod ``2^len``."""
        inv = [self.not_(x) for x in xs]
        one = self.constant_word(1, len(xs))
        return self.add(inv, one)

    def sub(self, xs: Word, ys: Word) -> Word:
        return self.add(xs, self.neg(ys))

    def mul(self, xs: Word, ys: Word) -> Word:
        """Schoolbook multiplier keeping the low ``len`` bits.

        Partial product i is ``(x & y_i) << i`` truncated to the word, so
        the AND cost is ``sum_i (ell - i)`` for the masks plus the adders.
        """
        self._check_words(xs, ys)
        n = len(xs)
        acc: Optional[Word] = None
        for i, y in enumerate(ys):
            masked = [self.and_(x, y) for x in xs[: n - i]]
            if i == 0:
                acc = list(masked)
            else:
                hi = acc[i:]
                summed = self.add(hi, masked)
                acc = acc[:i] + summed
        if acc is None:
            raise ValueError("mul requires non-empty operand words")
        return acc

    def eq(self, xs: Word, ys: Word) -> Wire:
        """1 iff the words are equal: AND-tree over NOT(x^y)."""
        self._check_words(xs, ys)
        bits = [self.not_(self.xor(x, y)) for x, y in zip(xs, ys)]
        return self._and_tree(bits)

    def is_zero(self, xs: Word) -> Wire:
        return self._and_tree([self.not_(x) for x in xs])

    def all_(self, bits: Sequence[Wire]) -> Wire:
        """1 iff every bit is 1: a balanced tree of ``len - 1`` ANDs."""
        return self._and_tree(bits)

    def nonzero(self, xs: Word) -> Wire:
        return self.not_(self.is_zero(xs))

    def mux(self, sel: Wire, xs: Word, ys: Word) -> Word:
        """``sel ? xs : ys`` per bit: ``y ^ (sel & (x ^ y))`` — one AND/bit."""
        self._check_words(xs, ys)
        return [
            self.xor(y, self.and_(sel, self.xor(x, y)))
            for x, y in zip(xs, ys)
        ]

    def mux_bit(self, sel: Wire, a: Wire, b: Wire) -> Wire:
        return self.xor(b, self.and_(sel, self.xor(a, b)))

    def lt_unsigned(self, xs: Word, ys: Word) -> Wire:
        """1 iff ``x < y`` as unsigned words (ripple comparator)."""
        self._check_words(xs, ys)
        lt = self.constant(0)
        for x, y in zip(xs, ys):  # LSB to MSB; higher bits dominate
            x_ne_y = self.xor(x, y)
            y_gt = self.and_(self.not_(x), y)
            lt = self.mux_bit(x_ne_y, y_gt, lt)
        return lt

    def gt_unsigned(self, xs: Word, ys: Word) -> Wire:
        return self.lt_unsigned(ys, xs)

    def div_unsigned(self, xs: Word, ys: Word) -> Tuple[Word, Word]:
        """Restoring division: returns (quotient, remainder).

        Division by zero yields quotient ``2^len - 1`` and remainder ``x``
        (the all-subtractions-fail path), a total function as circuits
        require.  Used by the avg/ratio query composition of Section 7.
        """
        self._check_words(xs, ys)
        n = len(xs)
        # One extra remainder bit: after the shift the remainder can reach
        # 2*ys - 1 < 2^(n+1), and the invariant rem < 2^n restores it.
        ys_ext = list(ys) + [self.constant(0)]
        rem = self.constant_word(0, n + 1)
        quot: Word = [self.constant(0)] * n
        for i in range(n - 1, -1, -1):
            rem = [xs[i]] + rem[:-1]  # shift left, bring down bit i
            trial = self.sub(rem, ys_ext)
            no_borrow = self.not_(self.lt_unsigned(rem, ys_ext))
            rem = self.mux(no_borrow, trial, rem)
            quot[i] = no_borrow
        return quot, rem[:n]

    # -- shared outputs ---------------------------------------------------

    def share_word(
        self, bits: Sequence[Wire], word: Optional[int] = None,
        weight: int = -1, evaluator: bool = False,
    ) -> int:
        """Output ``bits`` as a shared ring word, bit ``i`` weighing
        ``2**i`` (times the per-instance weight column ``weight``, if
        given: Bob's, or Alice's when ``evaluator``): one row per bit,
        added into ``word`` or a new word.  Returns the word's index."""
        if word is None:
            word = self._n_words
            self._n_words += 1
        elif not 0 <= word < self._n_words:
            raise ValueError(f"no shared word {word}")
        self._rows.extend(
            Row(w, word, shift, weight, evaluator)
            for shift, w in enumerate(bits)
        )
        return word

    def disclose(self, key: Wire, payload: Sequence[Wire]) -> None:
        """Disclose Bob's input bits ``payload`` to Alice where ``key``,
        a revealed output, is 1 (zeros where it is 0), without a gate:
        Bob, who holds both labels of ``key``, sends the packed payload
        encrypted under the hash of its 1-label — ``ceil(len/8)`` bytes
        per instance — and only Alice's label of a 1 opens it.  At most
        one disclosure per circuit; an empty payload declares none."""
        if not payload:
            return
        if self._disclosure is not None:
            raise ValueError("a circuit discloses at most one payload")
        if not set(payload) <= set(self._bob):
            raise ValueError("only Bob's input bits can be disclosed")
        self._disclosure = Disclosure(key, tuple(payload))

    # -- helpers ----------------------------------------------------------

    def _and_tree(self, bits: Sequence[Wire]) -> Wire:
        bits = list(bits)
        if not bits:
            return self.constant(1)
        while len(bits) > 1:
            nxt = [
                self.and_(bits[i], bits[i + 1])
                for i in range(0, len(bits) - 1, 2)
            ]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    @staticmethod
    def _check_words(xs: Word, ys: Word) -> None:
        if len(xs) != len(ys):
            raise ValueError(
                f"word length mismatch: {len(xs)} vs {len(ys)}"
            )

    # -- finalisation ------------------------------------------------------

    def build(self, outputs: Sequence[Wire] = ()) -> Circuit:
        """The circuit revealing ``outputs`` and sharing the words built
        by :meth:`share_word`, without the gates neither reaches (an
        adder's carry out of its top bit, a discarded remainder):
        garbling a dead gate costs its table and computes nothing."""
        if self._disclosure and self._disclosure.key not in outputs:
            raise ValueError("a disclosure's key bit must be revealed")
        live = set(outputs) | {r.wire for r in self._rows}
        kept = []
        for g in reversed(self._gates):
            if g.out in live:
                kept.append(g)
                live.add(g.a)
                live.add(g.b)
        return Circuit(
            n_wires=self._n_wires,
            alice_inputs=tuple(self._alice),
            bob_inputs=tuple(self._bob),
            const_wires=tuple(self._consts),
            gates=tuple(reversed(kept)),
            outputs=tuple(outputs),
            rows=tuple(self._rows),
            disclosure=self._disclosure,
        )
