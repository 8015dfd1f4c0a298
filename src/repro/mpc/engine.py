"""High-level vectorised secure operations.

The oblivious relational operators (Section 6) are written against this
engine rather than raw primitives.  Every method is one constant-round
batched protocol.  The circuit-based ones hand
:func:`repro.mpc.yao.garbled_call` a :mod:`repro.mpc.gadgets` template
with its inputs as bit matrices (what REAL mode garbles, once per vector
element) beside the same function in numpy (what SIMULATED mode
computes, charging the identical bytes); which of the two runs is
decided there, and output shares are always *fresh* (Section 5.2).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.trace import ExecutionTrace
    from .circuits.circuit import Circuit

import numpy as np

from ..leakage import leaks
from . import gadgets
from .batch import bits_to_words, words_to_bits, words_to_le_bytes
from .batch import le_bytes_to_words
from .context import ALICE, BOB, Context, Mode
from .costs import circuit_counts, merge_chain_counts, ring_bytes
from .ot import OT, make_ot
from .sharing import (
    SharedVector,
    as_ring_column,
    reveal_vector,
    share_vector,
)
from .yao import garbled_call

__all__ = ["Engine"]


class Engine:
    """Batched secure vector operations over one protocol context."""

    def __init__(
        self,
        ctx: Context,
        # Inert: frozen benchmarks/e2e passes it; ROADMAP item 1 drops it.
        group_bits: Optional[int] = None,
        tracer: Optional["ExecutionTrace"] = None,
    ) -> None:
        self.ctx = ctx
        #: Join back-end override ("yannakakis" | "linear" | "auto").
        #: ``None`` defers to the query's own setting; when set, every
        #: query run on this engine is routed under this policy.  See
        #: :data:`repro.core.semijoin.BACKENDS` and docs/BACKENDS.md.
        self.backend: Optional[str] = None
        #: The forward OT extension instance: physical Bob sends,
        #: physical Alice chooses.  Its mirror ``reverse`` has the roles
        #: exchanged.
        self._ot = make_ot(ctx)
        #: Optional :class:`repro.exec.ExecutionTrace` that the operator
        #: scheduler and composition circuits record per-node costs into.
        self.tracer = tracer
        #: Cooperative-scheduling hook: when set, the exec scheduler
        #: calls it with each :class:`~repro.exec.ir.Step` before
        #: dispatching it.  The multi-tenant serving layer
        #: (:mod:`repro.serve`) uses this as the yield point at which a
        #: session hands control back to the service coordinator; the
        #: hook must not touch the context or transcript, so enabling
        #: it leaves the run's messages byte-identical.
        self.yield_hook: Optional[Callable[[object], None]] = None

    @property
    def ot(self) -> OT:
        """The extension instance whose sender is the protocol's Bob:
        the forward instance in the written orientation, its mirror
        under :meth:`~repro.mpc.context.Context.swapped_roles`.  Read it
        inside the orientation it serves: each instance's secret ``s``
        — which is also the garbling offset of every batch it feeds —
        then stays with one physical party."""
        return self._ot.reverse if self.ctx.roles_swapped else self._ot

    # -- sharing ----------------------------------------------------------

    def share(
        self, owner: str, values: Sequence[int] | np.ndarray,
        label: str = "share",
    ) -> SharedVector:
        return share_vector(self.ctx, owner, values, label)

    def zeros(self, n: int) -> SharedVector:
        return SharedVector.zeros(n, self.ctx.modulus)

    # -- column-level entry points ----------------------------------------
    #
    # The oblivious phases marshal whole relation columns at once: one
    # validated ``(n,)`` uint64 array in, one SharedVector out, one
    # transcript charge per call.  These are thin, shape-checked fronts
    # over the batched primitives — no per-tuple calls anywhere.

    def share_column(
        self, owner: str, column: Sequence[int] | np.ndarray,
        label: str = "share",
    ) -> SharedVector:
        """``owner`` secret-shares one ``(n,)`` ring column (one send)."""
        col = as_ring_column(column, self.ctx.modulus)
        return share_vector(self.ctx, owner, col, label)

    @leaks("opened:result")
    def reconstruct_column(
        self, sv: SharedVector, to: str = ALICE, label: str = "reveal"
    ) -> np.ndarray:
        """Reveal one shared column to ``to`` (one send of the
        complementary share); returns the ``(n,)`` cleartext array."""
        return reveal_vector(self.ctx, sv, to, label)

    # -- element-wise products ---------------------------------------------
    #
    # Arithmetic products use Gilboa's OT-based multiplication (the
    # A-mult of the ABY framework underlying the paper's implementation):
    # one OT per bit of the chosen factor, ~50x cheaper than a garbled
    # 32-bit multiplier.  ``via="gc"`` keeps the garbled-circuit path for
    # the ablation benchmark.

    def _ring_cot(
        self,
        count: int,
        choices: Callable[[], np.ndarray],
        m1: Callable[[np.ndarray], np.ndarray],
        real: Callable[[np.ndarray, np.ndarray], SharedVector],
        ideal: Callable[[], np.ndarray],
    ) -> SharedVector:
        """One C-OT batch of ``count`` ring elements on :attr:`ot`: Alice
        chooses by ``choices()``, Bob's 0-messages are his pads ``r``
        and his 1-messages ``m1(r)``.  REAL returns ``real(r, recv)``
        with ``recv`` what Alice received; SIMULATED charges the same
        batch and returns a fresh sharing of ``ideal()``."""
        ctx = self.ctx
        mask = ctx.mask
        rb = ring_bytes(ctx.params.ell)
        widths = [(count, rb)]
        ot = self.ot
        if ctx.mode == Mode.SIMULATED:
            ot.correlated(None, widths).finish()
            return SharedVector.fresh(ctx, ideal())
        cot = ot.correlated(choices(), widths)
        r = le_bytes_to_words(cot.p0[0]) & mask
        recv = le_bytes_to_words(
            cot.finish([words_to_le_bytes(m1(r) & mask, rb)])[0]
        ) & mask
        return real(r, recv)

    def _gilboa_cross(
        self, bits_owner: str, u: np.ndarray, v: np.ndarray,
        label: str,
    ) -> SharedVector:
        """Fresh shares of ``u_i * v_i`` where ``bits_owner`` holds ``u``
        and the other party holds ``v``: per bit ``i`` of ``u``, one
        correlated OT of ``(r, r + (v << i))`` selected by that bit,
        with ``r`` the OT's own 0-pad.

        All ``n * ell`` OTs run as one extension batch and the received
        shares are reassembled with vectorised byte packing."""
        ctx = self.ctx
        ell = ctx.params.ell
        n = len(u)
        mask = ctx.mask
        reverse = bits_owner == BOB

        def m1(r: np.ndarray) -> np.ndarray:
            shifted = (
                v.astype(np.uint64)[:, None]
                << np.arange(ell, dtype=np.uint64)[None, :]
            )
            return r + shifted.reshape(-1)

        def real(r: np.ndarray, recv: np.ndarray) -> SharedVector:
            chooser = recv.reshape(n, ell).sum(axis=1, dtype=np.uint64) & mask
            sender = (-r.reshape(n, ell).sum(axis=1, dtype=np.uint64)) & mask
            if reverse:
                return SharedVector(sender, chooser, ctx.modulus)
            return SharedVector(chooser, sender, ctx.modulus)

        with ctx.section(label), (
            ctx.swapped_roles() if reverse else nullcontext()
        ):
            return self._ring_cot(
                n * ell,
                lambda: words_to_bits(u.astype(np.uint64), ell).reshape(-1),
                m1, real,
                lambda: u.astype(np.uint64) * v.astype(np.uint64),
            )

    def mul_shared(self, x: SharedVector, y: SharedVector,
                   label: str = "mul", via: str = "ot") -> SharedVector:
        """``z_i = x_i * y_i`` with both factors secret-shared.

        ``(x1+x2)(y1+y2) = x1*y1 + x2*y2 + x1*y2 + x2*y1``: the first two
        terms are local, the cross terms each take one Gilboa OT batch.
        """
        if len(x) != len(y):
            raise ValueError("vector length mismatch")
        if via == "gc":
            return self._mul_shared_gc(x, y, label)
        ctx = self.ctx
        mask = ctx.mask
        with ctx.section(label):
            cross1 = self._gilboa_cross(ALICE, x.alice, y.bob, "cross_ab")
            cross2 = self._gilboa_cross(BOB, x.bob, y.alice, "cross_ba")
        local = SharedVector(
            (x.alice * y.alice) & mask,
            (x.bob * y.bob) & mask,
            ctx.modulus,
        )
        return local + cross1 + cross2

    def _mul_shared_gc(self, x: SharedVector, y: SharedVector,
                       label: str) -> SharedVector:
        """Garbled-circuit multiplication (ablation reference)."""
        ctx = self.ctx
        circuit = gadgets.mul_shared_circuit(ctx.params.ell)
        with ctx.section(label):
            return garbled_call(
                ctx, self.ot, circuit_counts(circuit), len(x),
                real=lambda: (circuit, *self._share_bits(x, y)),
                ideal=lambda: (x.reconstruct() * y.reconstruct(), None),
            )[0]

    def _share_bits(
        self, *vectors: SharedVector
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Alice's, then Bob's, shares of ``vectors`` side by side as bit
        matrices — the input packing of the per-element gadgets."""
        ell = self.ctx.params.ell
        alice, bob = (
            np.concatenate([words_to_bits(w, ell) for w in words], axis=1)
            for words in zip(*((v.alice, v.bob) for v in vectors))
        )
        return alice, bob

    def _zero_test_bits(self, v: SharedVector) -> Tuple[np.ndarray, np.ndarray]:
        """The input packing of the zero tests: Alice's share, Bob's
        negated share (``v = 0`` iff they are equal)."""
        ell = self.ctx.params.ell
        return (
            words_to_bits(v.alice, ell),
            words_to_bits((-v.bob) & self.ctx.mask, ell),
        )

    def mul_alice_plain(self, plain: Sequence[int] | np.ndarray, y: SharedVector,
                        label: str = "mul_plain") -> SharedVector:
        """``z_i = a_i * y_i`` where Alice knows ``a`` in the clear:
        ``a*y1`` is local to Alice, ``a*y2`` is one Gilboa batch."""
        a = np.asarray(plain, dtype=np.uint64) & self.ctx.mask
        if len(a) != len(y):
            raise ValueError("vector length mismatch")
        ctx = self.ctx
        with ctx.section(label):
            cross = self._gilboa_cross(ALICE, a, y.bob, "cross")
        local = SharedVector(
            (a * y.alice) & ctx.mask,
            np.zeros(len(y), dtype=np.uint64),
            ctx.modulus,
        )
        return local + cross

    def indicator_nonzero(self, x: SharedVector,
                          label: str = "nonzero") -> SharedVector:
        """``z_i = Ind(x_i != 0)`` as shared ring elements."""
        ctx = self.ctx
        circuit = gadgets.nonzero_circuit(ctx.params.ell)
        with ctx.section(label):
            return garbled_call(
                ctx, self.ot, circuit_counts(circuit), len(x),
                real=lambda: (circuit, *self._zero_test_bits(x)),
                ideal=lambda: (x.reconstruct() != 0, None),
            )[0]

    # -- the Section 6.1 merge-gate chains ---------------------------------

    def merge_aggregate_sum(
        self,
        same_as_next: Sequence[bool],
        v: SharedVector,
        label: str = "merge_sum",
    ) -> SharedVector:
        """The oblivious aggregation chain: tuples are sorted by group key
        (Alice-local); ``same_as_next[i]`` says tuple ``i`` and ``i+1``
        share the key.  Output position ``i`` holds the group's
        +-aggregate iff ``i`` is the group's last member, else 0.

        The chain runs over Bob's shares ``v2``: ``z_0 = v2_0`` and
        ``z_{i+1} = ind_i z_i + v2_{i+1}``, where ``ind_i`` is Alice's
        boundary bit.  Its one product per row is one C-OT of a ring
        element, all ``n - 1`` in one batch: Bob's pad ``r_i`` is his
        share ``-r_i`` of ``ind_i z_i``, so his share of ``z`` is
        ``zB_{i+1} = v2_{i+1} - r_i`` and his 1-message ``r_i + zB_i``;
        Alice receives ``r_i + ind_i zB_i`` and keeps her share
        ``zA_{i+1} = ind_i zA_i + recv_i`` as a segmented running sum.
        Alice, who knows the groups, then adds her own shares' group
        sums."""
        n = len(v)
        if n == 0:
            return self.zeros(0)
        if len(same_as_next) != n - 1:
            raise ValueError("need n-1 boundary indicators")
        ctx = self.ctx
        mask = ctx.mask
        ind = np.asarray(same_as_next, dtype=bool)

        def bob_z(r: np.ndarray) -> np.ndarray:
            """Bob's shares ``zB_0 .. zB_{n-1}`` of the running sums."""
            return (v.bob - np.concatenate([[np.uint64(0)], r])) & mask

        def real(r: np.ndarray, recv: np.ndarray) -> SharedVector:
            # zA_{i+1} is the sum of recv over i's segment: back to the
            # last j <= i with ind_j = 0, or to the start
            csum = np.concatenate(
                [[np.uint64(0)], np.cumsum(recv, dtype=np.uint64)]
            )
            start = np.maximum.accumulate(
                np.where(ind, 0, np.arange(n - 1))
            )
            za = csum - np.concatenate([[np.uint64(0)], csum[start]])
            zb = bob_z(r)
            alice = np.append(za[:-1] - za[1:], za[-1])
            bob = np.append(zb[:-1] + r, zb[-1])
            return SharedVector(alice & mask, bob & mask, ctx.modulus)

        with ctx.section(label):
            out = self._ring_cot(
                n - 1, lambda: ind.astype(np.uint8),
                lambda r: r + bob_z(r)[:-1], real,
                lambda: self._segment_last_sums(ind, v.bob),
            )
        own = self._segment_last_sums(ind, v.alice) & mask
        return out + SharedVector(own, np.zeros_like(own), ctx.modulus)

    def merge_aggregate_or(
        self,
        same_as_next: Sequence[bool],
        v: SharedVector,
        label: str = "merge_or",
    ) -> SharedVector:
        """The chain with OR in place of the semiring addition — used by
        ``pi^1``.  ``v`` holds shared 0/1 indicators: one garbled
        instance of :func:`~repro.mpc.gadgets.merge_or_circuit` with
        one shared word per row.  Alice feeds the boundaries and the
        LSBs of her shares, Bob those of his."""
        n = len(v)
        if n == 0:
            return self.zeros(0)
        if len(same_as_next) != n - 1:
            raise ValueError("need n-1 boundary indicators")
        ctx = self.ctx
        ind = np.asarray(same_as_next, dtype=bool)

        def real() -> Tuple["Circuit", np.ndarray, np.ndarray]:
            alice = np.concatenate(
                [ind.astype(np.uint8), words_to_bits(v.alice, 1).reshape(-1)]
            )
            return (
                gadgets.merge_or_circuit(n),
                alice[None, :],
                words_to_bits(v.bob, 1).reshape(1, -1),
            )

        counts = merge_chain_counts(gadgets.merge_or_circuit, n)
        with ctx.section(label):
            return garbled_call(
                ctx, self.ot, counts, 1, real=real,
                ideal=lambda: (
                    self._segment_last_sums(ind, v.reconstruct() != 0) != 0,
                    None,
                ),
            )[0]

    # -- Section 6.3 helpers -------------------------------------------------

    def product_across(self, factors: Sequence[SharedVector],
                       label: str = "prod") -> SharedVector:
        """``z_i = prod_k factors[k][i]`` — one annotation product per
        join result (Section 6.3, step 3): ``k - 1`` chained Gilboa
        multiplications (the chain length is the query size, so the
        round count stays query-dependent only)."""
        k = len(factors)
        if k == 0:
            raise ValueError("need at least one factor")
        n = len(factors[0])
        if any(len(f) != n for f in factors):
            raise ValueError("vector length mismatch")
        with self.ctx.section(label):
            acc = factors[0]
            for i, f in enumerate(factors[1:], start=1):
                acc = self.mul_shared(acc, f, label=f"mul{i}")
        return acc

    @leaks("support:result")
    def reveal_nonzero_flags(
        self,
        v: SharedVector,
        payload_bits: Optional[np.ndarray] = None,
        label: str = "reveal_nonzero",
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Section 6.3 step 1: for each shared annotation, reveal to Alice
        whether it is nonzero, and — when ``payload_bits`` carries Bob's
        encoded tuples as a ``(n, pbits)`` uint8 matrix
        (:func:`repro.core.codec.encode_store_bits`) — the tuple payload
        for nonzero entries, zeros for the rest.

        Returns ``(flags, payloads)`` where ``payloads`` is ``None`` when
        no payload was supplied.
        """
        n = len(v)
        ctx = self.ctx
        if payload_bits is None:
            mat = np.zeros((n, 0), dtype=np.uint8)
        else:
            mat = np.asarray(payload_bits, dtype=np.uint8)
            if mat.ndim != 2 or len(mat) != n:
                raise ValueError("payload matrix must be (n, pbits)")
        circuit = gadgets.reveal_tuple_circuit(ctx.params.ell, mat.shape[1])

        def real() -> Tuple["Circuit", np.ndarray, np.ndarray]:
            alice_bits, bob_bits = self._zero_test_bits(v)
            return circuit, alice_bits, np.concatenate([bob_bits, mat], axis=1)

        def ideal() -> Tuple[None, np.ndarray]:
            out = np.concatenate([np.ones((n, 1), np.uint8), mat], axis=1)
            out[v.reconstruct() == 0] = 0
            return None, out

        with ctx.section(label):
            _, out = garbled_call(
                ctx, self.ot, circuit_counts(circuit), n,
                real=real, ideal=ideal,
            )
        flags = out[:, 0].astype(bool)
        return flags, None if payload_bits is None else out[:, 1:]

    # -- division (query composition, Section 7) ----------------------------

    @leaks("opened:result")
    def divide_reveal(self, x: SharedVector, y: SharedVector,
                      label: str = "div") -> np.ndarray:
        """``x_i // y_i`` revealed to Alice (the final step of an
        avg/ratio composition; the quotient is part of the query result).
        Division by zero yields the all-ones word."""
        if len(x) != len(y):
            raise ValueError("vector length mismatch")
        ctx = self.ctx
        ell = ctx.params.ell
        circuit = gadgets.div_reveal_circuit(ell)

        def ideal() -> Tuple[None, np.ndarray]:
            xs, ys = x.reconstruct(), y.reconstruct()
            out = np.where(ys == 0, ctx.mask, xs // np.maximum(ys, np.uint64(1)))
            return None, words_to_bits(out, ell)

        with ctx.section(label):
            _, out = garbled_call(
                ctx, self.ot, circuit_counts(circuit), len(x),
                real=lambda: (circuit, *self._share_bits(x, y)),
                ideal=ideal,
            )
        return bits_to_words(out)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _segment_last_sums(ind: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorised merge-chain semantics over ``n >= 1`` values and
        their ``n - 1`` boundaries: position i gets its group's
        (wrap-around) sum iff it is the last of its group, else 0."""
        ends = np.append(np.flatnonzero(~ind), len(values) - 1)
        csum = np.cumsum(values.astype(np.uint64), dtype=np.uint64)
        out = np.zeros(len(values), dtype=np.uint64)
        out[ends] = np.diff(csum[ends], prepend=np.uint64(0))
        return out
