"""Boolean circuits and Yao garbling (Section 5.2 substrate)."""

from .builder import CircuitBuilder
from .circuit import AND, INV, XOR, Circuit, Gate

__all__ = [
    "AND",
    "Circuit",
    "CircuitBuilder",
    "Gate",
    "INV",
    "XOR",
]
