"""Boolean circuit representation.

Circuits are the unit the garbled-circuit protocol (Section 5.2) operates
on.  A circuit has Alice (evaluator) input wires, Bob (garbler) input
wires, constant wires, and a gate list in topological (construction)
order.  The gate basis is ``XOR / AND / INV`` — the free-XOR garbling
technique makes XOR and INV communication-free, so the circuit's cost is
its AND count.  :attr:`Circuit.levels` regroups the gates by depth, the
order the garbler and the evaluator step through them; each level
carries its AND gates' operands and hash tweak indices, and the
garbling layout (which wire holds whose label) is cached beside it, so
a cached template is garbled without further preparation.

A circuit has two kinds of output: ``outputs`` are revealed to Alice
bit by bit, and ``rows`` leave the circuit as arithmetic shares — row
``j`` adds ``v_j * X_j`` to one shared word of its instance, where
``v_j`` is the bit on its wire and ``X_j`` a weight Bob knows
(:class:`Row`; the translation itself is
:func:`repro.mpc.circuits.garbling.translate`) or, on an *evaluator*
row, a weight Alice knows (paid by one correlated OT on the wire's
colour, :mod:`repro.mpc.yao`).  A circuit may also
*disclose* some of Bob's input bits to Alice where one revealed output
is 1 (:class:`Disclosure`): they never enter the circuit, and leave it
encrypted under that output wire's 1-label
(:func:`repro.mpc.circuits.garbling.disclose`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate", "Circuit", "Disclosure", "Level", "Row", "XOR", "AND", "INV",
]

XOR = "XOR"
AND = "AND"
INV = "INV"
#: Gate kinds in the order a level lists them.
_KIND = {XOR: 0, INV: 1, AND: 2}
#: Added to ``3k``: the hashes of ``A``, ``B`` and ``A ^ B`` of AND ``k``.
_HASHES = np.arange(3, dtype=np.uint64)[:, None, None]


@dataclass(frozen=True)
class Gate:
    op: str
    a: int
    b: int  # unused (-1) for INV
    out: int


class Row(NamedTuple):
    """One shared output bit: the bit on ``wire`` times the weight
    ``X = 2**shift`` — times a per-instance weight column ``weight``
    unless it is ``-1`` — adds into shared word ``word``.  The column
    is Bob's, or Alice's on an ``evaluator`` row."""

    wire: int
    word: int
    shift: int
    weight: int = -1
    evaluator: bool = False


class Disclosure(NamedTuple):
    """Bob's input wires ``payload`` reach Alice where the revealed
    output ``key`` is 1, and read as zeros where it is 0."""

    key: int
    payload: Tuple[int, ...]


class Level(NamedTuple):
    """The gates of one depth, as wire-index arrays by kind.  Every
    operand is an input, a constant or the output of an earlier level,
    so each kind can be evaluated as one vectorised step."""

    xor_a: np.ndarray
    xor_b: np.ndarray
    xor_out: np.ndarray
    inv_a: np.ndarray
    inv_out: np.ndarray
    #: ``(2, n_and)``: the wires of the AND gates' two operands
    and_operands: np.ndarray
    and_out: np.ndarray
    #: each AND's position among the ANDs in construction order
    and_index: np.ndarray
    #: ``(3, n_and, 1)``: AND ``k`` hashes its ``A``, ``B`` and ``A ^
    #: B`` under tweak indices ``3k``, ``3k + 1`` and ``3k + 2``
    and_tweaks: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """An immutable compiled circuit.

    Wire numbering: inputs and constants first (in allocation order), then
    one new wire per gate output.
    """

    n_wires: int
    alice_inputs: Tuple[int, ...]
    bob_inputs: Tuple[int, ...]
    const_wires: Tuple[Tuple[int, int], ...]  # (wire, bit)
    gates: Tuple[Gate, ...]
    outputs: Tuple[int, ...]
    rows: Tuple[Row, ...] = ()
    disclosure: Optional[Disclosure] = None

    @cached_property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g.op == AND)

    @property
    def n_words(self) -> int:
        """Shared words per instance: one past the highest row word."""
        return 1 + max((r.word for r in self.rows), default=-1)

    @cached_property
    def sent_rows(self) -> Tuple[int, ...]:
        """Indices of the translated rows, which cross the wire: a row
        on a constant wire has a value Bob knows, so he folds it into
        his share, and an evaluator row is not translated."""
        const = {w for w, _ in self.const_wires}
        return tuple(
            j for j, r in enumerate(self.rows)
            if r.wire not in const and not r.evaluator
        )

    @cached_property
    def evaluator_rows(self) -> Tuple[int, ...]:
        """Indices of the rows whose weight column is Alice's."""
        return tuple(j for j, r in enumerate(self.rows) if r.evaluator)

    @property
    def size(self) -> int:
        return len(self.gates)

    @cached_property
    def levels(self) -> Tuple[Level, ...]:
        """The gates grouped by depth: inputs and constants have depth
        0, a gate one more than the larger depth of its operands.
        Computed once per template (templates are cached)."""
        a, b, out = (
            np.asarray([getattr(g, f) for g in self.gates], dtype=np.int64)
            for f in ("a", "b", "out")
        )
        depth = [0] * self.n_wires
        keys = []
        for g in self.gates:
            d = depth[g.a]
            if g.op != INV and depth[g.b] > d:
                d = depth[g.b]
            depth[g.out] = d + 1
            keys.append(d * len(_KIND) + _KIND[g.op])
        # key = level * 3 + kind: sorting by it groups by level, then kind
        key = np.asarray(keys, dtype=np.int64)
        and_index = np.cumsum(key % len(_KIND) == _KIND[AND]) - 1
        order = np.argsort(key, kind="stable")
        n_levels = int(key.max(initial=-1)) // len(_KIND) + 1
        bounds = np.searchsorted(
            key[order], np.arange(n_levels * len(_KIND) + 1)
        ).tolist()
        levels = []
        for i in range(0, n_levels * len(_KIND), len(_KIND)):
            xor, inv, ands = (
                order[bounds[j] : bounds[j + 1]]
                for j in range(i, i + len(_KIND))
            )
            index = and_index[ands]
            levels.append(
                Level(
                    a[xor], b[xor], out[xor], a[inv], out[inv],
                    np.stack([a[ands], b[ands]]), out[ands], index,
                    3 * index.astype(np.uint64)[None, :, None] + _HASHES,
                )
            )
        return tuple(levels)

    @cached_property
    def max_level_ands(self) -> int:
        """The most ANDs of any level."""
        return max((len(lv.and_out) for lv in self.levels), default=0)

    # -- the garbling layout: on which wires each party's labels sit ------

    @cached_property
    def alice_wires(self) -> np.ndarray:
        return np.asarray(self.alice_inputs, dtype=np.int64)

    @cached_property
    def bob_cols(self) -> np.ndarray:
        """The columns of Bob's input bits that are garbled: all but
        the disclosed payload's."""
        payload = np.asarray(self._payload, dtype=np.int64)
        return np.flatnonzero(~np.isin(self.bob_inputs, payload))

    @cached_property
    def payload_cols(self) -> np.ndarray:
        """The columns of Bob's input bits on the disclosed payload."""
        column = {w: i for i, w in enumerate(self.bob_inputs)}
        return np.asarray([column[w] for w in self._payload], dtype=np.int64)

    @property
    def _payload(self) -> Tuple[int, ...]:
        return self.disclosure.payload if self.disclosure else ()

    @cached_property
    def garbler_wires(self) -> np.ndarray:
        """The wires whose bits the garbler knows and garbles: Bob's
        inputs on :attr:`bob_cols`, then the constants."""
        bob = np.asarray(self.bob_inputs, dtype=np.int64)
        const = np.asarray([w for w, _ in self.const_wires], dtype=np.int64)
        return np.concatenate([bob[self.bob_cols], const])

    @cached_property
    def const_bits(self) -> np.ndarray:
        return np.asarray([b & 1 for _, b in self.const_wires], dtype=np.uint8)

    @cached_property
    def output_wires(self) -> np.ndarray:
        return np.asarray(self.outputs, dtype=np.int64)

    @cached_property
    def row_wires(self) -> np.ndarray:
        """The wires of the :attr:`sent_rows`."""
        return np.asarray(
            [self.rows[j].wire for j in self.sent_rows], dtype=np.int64
        )

    @property
    def row_tweak_base(self) -> int:
        """Sent row ``j`` hashes under index ``row_tweak_base + j``: past
        the AND gates' hashes and the garbler-side label slots."""
        return 3 * self.and_count + len(self.garbler_wires)

    @property
    def disclosure_tweak_base(self) -> int:
        """Block ``c`` of a disclosed payload's pad hashes under index
        ``disclosure_tweak_base + c``: past the translated rows."""
        return self.row_tweak_base + len(self.row_wires)

    def evaluate(
        self, alice_bits: Sequence[int], bob_bits: Sequence[int]
    ) -> List[int]:
        """Plaintext evaluation of the revealed outputs, then the
        disclosed payload bits (zeros unless the key output is 1) — the
        reference semantics that garbled evaluation must match (asserted
        by the test suite)."""
        value = self._wire_values(alice_bits, bob_bits)
        out = [value[w] for w in self.outputs]
        if self.disclosure is not None:
            key, payload = self.disclosure
            out += [value[w] & value[key] for w in payload]
        return out

    def evaluate_words(
        self,
        alice_bits: Sequence[int],
        bob_bits: Sequence[int],
        ell: int,
        weights: Sequence[int] = (),
        offsets: Sequence[int] = (),
        alice_weights: Sequence[int] = (),
    ) -> List[int]:
        """Plaintext value of the shared words mod ``2**ell``: Bob's
        ``offsets[k]`` (0 if absent) plus the weighted bits of word
        ``k``'s rows, ``weights`` being Bob's per-instance weight
        columns and ``alice_weights`` Alice's."""
        value = self._wire_values(alice_bits, bob_bits)
        words = [int(o) for o in offsets] + [0] * (self.n_words - len(offsets))
        for r in self.rows:
            column = alice_weights if r.evaluator else weights
            x = int(column[r.weight]) if r.weight >= 0 else 1
            words[r.word] += value[r.wire] * (x << r.shift)
        return [w % (1 << ell) for w in words]

    def _wire_values(
        self, alice_bits: Sequence[int], bob_bits: Sequence[int]
    ) -> Dict[int, int]:
        if len(alice_bits) != len(self.alice_inputs):
            raise ValueError(
                f"expected {len(self.alice_inputs)} Alice bits, "
                f"got {len(alice_bits)}"
            )
        if len(bob_bits) != len(self.bob_inputs):
            raise ValueError(
                f"expected {len(self.bob_inputs)} Bob bits, "
                f"got {len(bob_bits)}"
            )
        value: Dict[int, int] = {}
        for w, bit in zip(self.alice_inputs, alice_bits):
            value[w] = int(bit) & 1
        for w, bit in zip(self.bob_inputs, bob_bits):
            value[w] = int(bit) & 1
        for w, bit in self.const_wires:
            value[w] = bit
        for g in self.gates:
            if g.op == XOR:
                value[g.out] = value[g.a] ^ value[g.b]
            elif g.op == AND:
                value[g.out] = value[g.a] & value[g.b]
            elif g.op == INV:
                value[g.out] = value[g.a] ^ 1
            else:  # pragma: no cover
                raise ValueError(f"unknown gate op {g.op}")
        return value
