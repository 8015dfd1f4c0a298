"""High-level vectorised secure operations.

The oblivious relational operators (Section 6) are written against this
engine rather than raw primitives.  Every method is one constant-round
batched protocol:

* REAL mode garbles the circuit templates of :mod:`repro.mpc.gadgets`
  once per vector element, batching all of Alice's input-label OTs.
* SIMULATED mode computes the identical functionality with numpy and
  charges the identical bytes via :func:`charge_garbled_batch`.

Output shares are always *fresh*: Alice's share is the circuit output
(masked with Bob's random ``r``), Bob's share is ``-r`` — the ABY-style
Yao-to-arithmetic conversion described in Section 5.2.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.trace import ExecutionTrace
    from .circuits.circuit import Circuit

import numpy as np

from ..leakage import leaks
from . import gadgets
from .batch import bits_to_words, words_to_bits, words_to_le_bytes
from .batch import le_bytes_to_words
from .context import ALICE, BOB, Context, Mode
from .costs import (
    DEFAULT_GROUP_BITS,
    gilboa_widths,
    merge_chain_counts,
    ring_bytes,
)
from .ot import make_ot
from .sharing import (
    SharedVector,
    as_ring_column,
    reveal_vector,
    share_vector,
)
from .yao import charge_garbled, charge_garbled_batch, run_garbled_batch

__all__ = ["Engine"]


class Engine:
    """Batched secure vector operations over one protocol context."""

    def __init__(
        self,
        ctx: Context,
        ot_group_bits: int = DEFAULT_GROUP_BITS,
        tracer: Optional["ExecutionTrace"] = None,
    ) -> None:
        self.ctx = ctx
        #: Join back-end override ("yannakakis" | "linear" | "auto").
        #: ``None`` defers to the query's own setting; when set, every
        #: query run on this engine is routed under this policy.  See
        #: :data:`repro.core.semijoin.BACKENDS` and docs/BACKENDS.md.
        self.backend: Optional[str] = None
        self.ot = make_ot(ctx, ot_group_bits)
        # A second extension instance for OTs in the reverse direction
        # (Bob choosing) — used by the Gilboa multiplication's second
        # cross term; runs under swapped protocol roles.
        self._ot_rev = make_ot(ctx, ot_group_bits)
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

    def _gadget(
        self, builder: Callable[..., "Circuit"], *shape: int
    ) -> "Circuit":
        """Fetch a circuit template through the run-scoped cache."""
        return self.ctx.cache.circuit(builder, *shape)

    # -- sharing ----------------------------------------------------------

    def share(
        self, owner: str, values: Sequence[int] | np.ndarray,
        label: str = "share",
    ) -> SharedVector:
        return share_vector(self.ctx, owner, values, label)

    @leaks("opened:result")
    def reveal(self, sv: SharedVector, to: str = ALICE,
               label: str = "reveal") -> np.ndarray:
        return reveal_vector(self.ctx, sv, to, label)

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

    def select_alice_plain(
        self,
        mask: Sequence[int] | np.ndarray,
        x: SharedVector,
        y: SharedVector,
        label: str = "select",
    ) -> SharedVector:
        """Columnwise oblivious select: shares of ``x_i`` where Alice's
        plain ``mask_i`` is 1, else ``y_i`` — computed as
        ``y + mask * (x - y)`` with a single Gilboa batch."""
        m = as_ring_column(mask, self.ctx.modulus)
        if not np.isin(m, (0, 1)).all():
            raise ValueError("selection mask must be 0/1-valued")
        return y + self.mul_alice_plain(m, x - y, label=label)

    # -- element-wise products ---------------------------------------------
    #
    # Arithmetic products use Gilboa's OT-based multiplication (the
    # A-mult of the ABY framework underlying the paper's implementation):
    # one OT per bit of the chosen factor, ~50x cheaper than a garbled
    # 32-bit multiplier.  ``via="gc"`` keeps the garbled-circuit path for
    # the ablation benchmark.

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
        rb = ring_bytes(ell)
        widths = gilboa_widths(ell, n)
        reverse = bits_owner == BOB
        ot = self._ot_rev if reverse else self.ot
        with ctx.section(label), (
            ctx.swapped_roles() if reverse else nullcontext()
        ):
            if ctx.mode == Mode.SIMULATED:
                ot.correlated(None, widths).finish()
                prod = (
                    u.astype(np.uint64) * v.astype(np.uint64)
                ) & mask
                return self._fresh(prod)
            cot = ot.correlated(
                words_to_bits(u.astype(np.uint64), ell).reshape(-1), widths
            )
            r = le_bytes_to_words(cot.p0[0]).reshape(n, ell) & mask
            shifted = (
                v.astype(np.uint64)[:, None]
                << np.arange(ell, dtype=np.uint64)[None, :]
            )
            m1 = words_to_le_bytes(((r + shifted) & mask).reshape(-1), rb)
            recv = le_bytes_to_words(cot.finish([m1])[0]).reshape(
                n, ell
            ).sum(axis=1, dtype=np.uint64) & mask
            sender_share = (-r.sum(axis=1, dtype=np.uint64)) & mask
            if reverse:
                return SharedVector(sender_share, recv, ctx.modulus)
            return SharedVector(recv, sender_share, ctx.modulus)

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
        ell = self.ctx.params.ell
        circuit = self._gadget(gadgets.mul_shared_circuit, ell)
        return self._run_masked(
            circuit,
            label,
            n=len(x),
            alice_words=[x.alice, y.alice],
            bob_words=[x.bob, y.bob],
            semantics=lambda: (x.reconstruct() * y.reconstruct()),
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
        ell = self.ctx.params.ell
        circuit = self._gadget(gadgets.nonzero_circuit, ell)
        return self._run_masked(
            circuit,
            label,
            n=len(x),
            alice_words=[x.alice],
            bob_words=[x.bob],
            semantics=lambda: (x.reconstruct() != 0).astype(np.uint64),
        )

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
        +-aggregate iff ``i`` is the group's last member, else 0."""
        return self._merge_chain(
            gadgets.merge_sum_circuit,
            self.ctx.params.ell,
            self._segment_last_sums,
            same_as_next, v, label,
        )

    def merge_aggregate_or(
        self,
        same_as_next: Sequence[bool],
        v: SharedVector,
        label: str = "merge_or",
    ) -> SharedVector:
        """The chain with OR in place of the semiring addition — used by
        ``pi^1``.  ``v`` holds shared 0/1 indicators."""
        return self._merge_chain(
            gadgets.merge_or_circuit,
            1,
            lambda ind, plain: self._segment_last_sums(ind, plain != 0) != 0,
            same_as_next, v, label,
        )

    def _merge_chain(
        self,
        make_circuit: Callable[..., "Circuit"],
        bits: int,
        semantics: Callable[[np.ndarray, np.ndarray], np.ndarray],
        same_as_next: Sequence[bool],
        v: SharedVector,
        label: str,
    ) -> SharedVector:
        """One merge-gate chain of ``make_circuit`` over the low ``bits``
        bits of each element of ``v``; ``semantics(boundaries,
        cleartext)`` is its function, which SIMULATED mode computes."""
        n = len(v)
        if n == 0:
            return self.zeros(0)
        if len(same_as_next) != n - 1:
            raise ValueError("need n-1 boundary indicators")
        ctx = self.ctx
        ell = ctx.params.ell
        ind = np.asarray(same_as_next, dtype=bool)
        with ctx.section(label):
            if ctx.mode == Mode.SIMULATED:
                counts = merge_chain_counts(
                    lambda k: self._gadget(make_circuit, ell, k), n
                )
                charge_garbled(ctx, self.ot, counts, 1)
                return self._fresh(semantics(ind, v.reconstruct()))
            circuit = self._gadget(make_circuit, ell, n)
            r = ctx.random_ring_vector(n)
            alice_bits = np.concatenate(
                [ind.astype(np.uint8), words_to_bits(v.alice, bits).reshape(-1)]
            )
            bob_bits = np.concatenate(
                [
                    words_to_bits(v.bob, bits).reshape(-1),
                    words_to_bits(r, ell).reshape(-1),
                ]
            )
            outs = run_garbled_batch(
                ctx, self.ot, circuit, [alice_bits], [bob_bits]
            )[0]
            words = bits_to_words(
                np.asarray(outs, dtype=np.uint8).reshape(n, ell)
            )
            return SharedVector(words, (-r) & ctx.mask, ctx.modulus)

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
        payload_bits_list: Optional[
            Union[List[List[int]], np.ndarray]
        ] = None,
        label: str = "reveal_nonzero",
    ) -> Tuple[np.ndarray, Optional[Union[List[List[int]], np.ndarray]]]:
        """Section 6.3 step 1: for each shared annotation, reveal to Alice
        whether it is nonzero, and — when ``payload_bits_list`` carries
        Bob's encoded tuples — the tuple payload for nonzero entries.

        ``payload_bits_list`` is either the legacy list-of-bit-lists or a
        ``(n, pbits)`` uint8 matrix (the columnar fast path); the return
        mirrors the input form.  Returns ``(flags, payloads)`` where
        ``payloads`` is ``None`` when no payload was supplied.
        """
        n = len(v)
        ell = self.ctx.params.ell
        ctx = self.ctx
        is_matrix = isinstance(payload_bits_list, np.ndarray)
        mat: Optional[np.ndarray] = None
        if payload_bits_list is not None:
            if is_matrix:
                mat = np.asarray(payload_bits_list, dtype=np.uint8)
                if mat.ndim != 2 or len(mat) != n:
                    raise ValueError(
                        "payload matrix must be (n, pbits)"
                    )
                pbits = mat.shape[1]
            else:
                if len(payload_bits_list) != n:
                    raise ValueError("one payload per annotation required")
                pbits = len(payload_bits_list[0]) if n else 0
                if any(len(p) != pbits for p in payload_bits_list):
                    raise ValueError("payloads must be fixed-width")
        else:
            pbits = 0
        with ctx.section(label):
            if ctx.mode == Mode.SIMULATED:
                template = self._gadget(gadgets.reveal_tuple_circuit, ell, pbits)
                charge_garbled_batch(ctx, self.ot, template, n)
                plain = v.reconstruct()
                flags = (plain != 0).astype(bool)
                if payload_bits_list is None:
                    return flags, None
                if mat is not None:
                    out = mat.copy()
                    out[~flags] = 0
                    return flags, out
                payloads = [
                    payload_bits_list[i] if flags[i] else [0] * pbits
                    for i in range(n)
                ]
                return flags, payloads
            template = self._gadget(gadgets.reveal_tuple_circuit, ell, pbits)
            alice_bits = words_to_bits(v.alice, ell)
            bob_bits = words_to_bits(v.bob, ell)
            if pbits:
                pb = (
                    mat
                    if mat is not None
                    else np.asarray(payload_bits_list, dtype=np.uint8)
                )
                bob_bits = np.concatenate([bob_bits, pb], axis=1)
            outs = run_garbled_batch(
                ctx, self.ot, template, alice_bits, bob_bits
            )
            flags = np.asarray([o[0] for o in outs], dtype=bool)
            if payload_bits_list is None:
                return flags, None
            if mat is not None:
                return flags, np.asarray(
                    [o[1:] for o in outs], dtype=np.uint8
                ).reshape(n, pbits)
            return flags, [o[1:] for o in outs]

    # -- division (query composition, Section 7) ----------------------------

    @leaks("opened:result")
    def divide_reveal(self, x: SharedVector, y: SharedVector,
                      label: str = "div") -> np.ndarray:
        """``x_i // y_i`` revealed to Alice (the final step of an
        avg/ratio composition; the quotient is part of the query result).
        Division by zero yields the all-ones word."""
        if len(x) != len(y):
            raise ValueError("vector length mismatch")
        n = len(x)
        ell = self.ctx.params.ell
        ctx = self.ctx
        circuit = self._gadget(gadgets.div_reveal_circuit, ell)
        with ctx.section(label):
            if ctx.mode == Mode.SIMULATED:
                charge_garbled_batch(ctx, self.ot, circuit, n)
                xs = x.reconstruct().astype(np.uint64)
                ys = y.reconstruct().astype(np.uint64)
                out = np.full(n, self.ctx.modulus - 1, dtype=np.uint64)
                nz = ys != 0
                out[nz] = xs[nz] // ys[nz]
                return out
            alice_bits = np.concatenate(
                [words_to_bits(x.alice, ell), words_to_bits(y.alice, ell)],
                axis=1,
            )
            bob_bits = np.concatenate(
                [words_to_bits(x.bob, ell), words_to_bits(y.bob, ell)],
                axis=1,
            )
            outs = run_garbled_batch(
                ctx, self.ot, circuit, alice_bits, bob_bits
            )
            return bits_to_words(np.asarray(outs, dtype=np.uint8))

    # -- internals -----------------------------------------------------------

    def _fresh(self, plain: np.ndarray) -> SharedVector:
        a = self.ctx.random_ring_vector(len(plain))
        return SharedVector(
            a, (plain.astype(np.uint64) - a) & self.ctx.mask,
            self.ctx.modulus,
        )

    @staticmethod
    def _segment_last_sums(ind: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorised merge-chain semantics: position i gets its group's
        (wrap-around) sum iff it is the last of its group, else 0."""
        n = len(values)
        out = np.zeros(n, dtype=np.uint64)
        if n == 0:
            return out
        ends = np.flatnonzero(~ind) if n > 1 else np.asarray([], dtype=int)
        ends = np.concatenate([ends, [n - 1]]).astype(np.int64)
        csum = np.cumsum(values.astype(np.uint64), dtype=np.uint64)
        seg_totals = np.diff(np.concatenate([[np.uint64(0)], csum[ends]]))
        out[ends] = seg_totals
        return out

    def _run_masked(
        self,
        circuit: "Circuit",
        label: str,
        n: int,
        alice_words: Sequence[np.ndarray],
        bob_words: Sequence[np.ndarray],
        semantics: Callable[[], np.ndarray],
    ) -> SharedVector:
        """Run one masked-output circuit per element: Bob's inputs are his
        words plus a fresh mask ``r``; Alice's share is the output."""
        ctx = self.ctx
        ell = ctx.params.ell
        with ctx.section(label):
            if n == 0:
                return self.zeros(0)
            if ctx.mode == Mode.SIMULATED:
                charge_garbled_batch(ctx, self.ot, circuit, n)
                return self._fresh(np.asarray(semantics()) & ctx.mask)
            r = ctx.random_ring_vector(n)
            alice_bits = np.concatenate(
                [words_to_bits(w, ell) for w in alice_words], axis=1
            )
            bob_bits = np.concatenate(
                [words_to_bits(w, ell) for w in bob_words]
                + [words_to_bits(r, ell)],
                axis=1,
            )
            outs = run_garbled_batch(
                ctx, self.ot, circuit, alice_bits, bob_bits
            )
            out_words = bits_to_words(np.asarray(outs, dtype=np.uint8))
            return SharedVector(out_words, (-r) & ctx.mask, ctx.modulus)
