"""Boolean circuit representation.

Circuits are the unit the garbled-circuit protocol (Section 5.2) operates
on.  A circuit has Alice (evaluator) input wires, Bob (garbler) input
wires, constant wires, and a gate list in topological (construction)
order.  The gate basis is ``XOR / AND / INV`` — the free-XOR garbling
technique makes XOR and INV communication-free, so the circuit's cost is
its AND count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

__all__ = ["Gate", "Circuit", "XOR", "AND", "INV"]

XOR = "XOR"
AND = "AND"
INV = "INV"


@dataclass(frozen=True)
class Gate:
    op: str
    a: int
    b: int  # unused (-1) for INV
    out: int


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

    @cached_property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g.op == AND)

    @property
    def size(self) -> int:
        return len(self.gates)

    def evaluate(
        self, alice_bits: Sequence[int], bob_bits: Sequence[int]
    ) -> List[int]:
        """Plaintext evaluation — the reference semantics that garbled
        evaluation must match (asserted by the test suite)."""
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
        return [value[w] for w in self.outputs]
