"""Cryptographic substrate: secret sharing, garbled circuits, OT, PSI,
OEP, and the two-party protocol runtime (Sections 4 and 5)."""

from .context import ALICE, BOB, Context, Mode
from .engine import Engine
from .oep import oblivious_extended_permutation, oblivious_permutation
from .params import DEFAULT_PARAMS, SecurityParams
from .psi import PsiResult, psi_with_payloads
from .sharing import SharedVector, reveal_vector, share_vector
from .transcript import Transcript, other_party

__all__ = [
    "ALICE",
    "BOB",
    "Context",
    "DEFAULT_PARAMS",
    "Engine",
    "Mode",
    "PsiResult",
    "SecurityParams",
    "SharedVector",
    "Transcript",
    "oblivious_extended_permutation",
    "oblivious_permutation",
    "other_party",
    "psi_with_payloads",
    "reveal_vector",
    "share_vector",
]
