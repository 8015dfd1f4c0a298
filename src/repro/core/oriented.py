"""Role-oriented view of the MPC engine.

The Section 6 protocols are described with "Alice" as the party holding
the relation being operated on — but in an actual query either physical
party may own any relation.  :class:`OrientedEngine` re-exposes the
role-sensitive primitives so that ``owner`` always plays the protocol's
Alice: when the owner is physically Bob, share vectors are mirrored and
the transcript's sender labels are swapped for the duration of the call.
This keeps every operator implementation a literal transcription of the
paper's prose.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Union

import numpy as np

from ..leakage import reveals
from ..mpc.context import ALICE, BOB, Context
from ..mpc.cuckoo import Items
from ..mpc.dhoprf import DhOprfMatch, dh_oprf_match
from ..mpc.engine import Engine
from ..mpc.oep import oblivious_extended_permutation, oblivious_permutation
from ..mpc.psi import PsiResult, psi_with_payloads
from ..mpc.sharing import SharedVector
from ..mpc.transcript import other_party

__all__ = ["OrientedEngine"]


class OrientedEngine:
    """Engine facade in which ``owner`` is the protocol-Alice."""

    def __init__(self, engine: Engine, owner: str):
        if owner not in (ALICE, BOB):
            raise ValueError(f"unknown party {owner!r}")
        self.engine = engine
        self.ctx = engine.ctx
        self.owner = owner
        self.other = other_party(owner)
        self._swap = owner == BOB

    def flipped(self) -> "OrientedEngine":
        """The opposite orientation (protocol-Alice = the other party)."""
        return OrientedEngine(self.engine, self.other)

    # -- share plumbing ---------------------------------------------------

    def _in(self, sv: SharedVector) -> SharedVector:
        return sv.swapped() if self._swap else sv

    def _out(self, sv: SharedVector) -> SharedVector:
        return sv.swapped() if self._swap else sv

    def _call(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        if not self._swap:
            return fn(*args, **kwargs)
        with self.ctx.swapped_roles():
            return fn(*args, **kwargs)

    # -- oriented primitives ------------------------------------------------

    def mul_shared(self, x: SharedVector, y: SharedVector,
                   label: str = "mul") -> SharedVector:
        out = self._call(
            self.engine.mul_shared, self._in(x), self._in(y), label
        )
        return self._out(out)

    def mul_owner_plain(self, plain: Union[Sequence[int], np.ndarray],
                        y: SharedVector,
                        label: str = "mul_plain") -> SharedVector:
        """Multiply by a vector the *owner* knows in the clear."""
        out = self._call(
            self.engine.mul_alice_plain, plain, self._in(y), label
        )
        return self._out(out)

    def indicator_nonzero(self, x: SharedVector,
                          label: str = "nonzero") -> SharedVector:
        out = self._call(
            self.engine.indicator_nonzero, self._in(x), label
        )
        return self._out(out)

    def merge_aggregate_sum(self,
                            same_as_next: Union[Sequence[int], np.ndarray],
                            v: SharedVector,
                            label: str = "merge_sum") -> SharedVector:
        """Merge chain whose boundary indicators the owner knows."""
        out = self._call(
            self.engine.merge_aggregate_sum, same_as_next, self._in(v), label
        )
        return self._out(out)

    def merge_aggregate_or(self,
                           same_as_next: Union[Sequence[int], np.ndarray],
                           v: SharedVector,
                           label: str = "merge_or") -> SharedVector:
        out = self._call(
            self.engine.merge_aggregate_or, same_as_next, self._in(v), label
        )
        return self._out(out)

    def product_across(self, factors: Sequence[SharedVector],
                       label: str = "prod") -> SharedVector:
        out = self._call(
            self.engine.product_across, [self._in(f) for f in factors], label
        )
        return self._out(out)

    def psi(
        self,
        owner_items: Items,
        other_items: Items,
        other_payloads: Union[Sequence[int], np.ndarray],
        other_fallbacks: Union[Sequence[int], np.ndarray, None] = None,
        reveal_payload: bool = False,
        label: str = "psi",
    ) -> PsiResult:
        """PSI with the owner on the cuckoo side (protocol-Alice)."""

        def run() -> PsiResult:
            return psi_with_payloads(
                self.ctx,
                self.engine.ot,  # read inside the swap
                owner_items,
                other_items,
                other_payloads,
                other_fallbacks,
                reveal_payload,
                label,
            )

        res = self._call(run)
        res.ind = self._out(res.ind)
        if isinstance(res.payload, SharedVector):
            res.payload = self._out(res.payload)
        return res

    @reveals("join_pattern:parent")
    def dh_oprf_match(
        self,
        owner_items: Items,
        other_items: Items,
        label: str = "dhoprf",
    ) -> DhOprfMatch:
        """DH-OPRF matching with the owner on the blinding side
        (protocol-Alice); the linear join back-end's core primitive."""
        return self._call(
            dh_oprf_match, self.ctx, owner_items, other_items, label
        )

    def oep(self, xi: Union[Sequence[int], np.ndarray],
            values: SharedVector, n_out: int,
            label: str = "oep/ext") -> SharedVector:
        """Extended permutation held by the owner."""
        values = self._in(values)
        out = self._call(
            lambda: oblivious_extended_permutation(
                self.ctx, self.engine.ot, xi, values, n_out, label
            )
        )
        return self._out(out)

    def permute(self, perm: Union[Sequence[int], np.ndarray],
                values: SharedVector,
                label: str = "oep/perm") -> SharedVector:
        values = self._in(values)
        out = self._call(
            lambda: oblivious_permutation(
                self.ctx, self.engine.ot, perm, values, label
            )
        )
        return self._out(out)
