"""The oblivious join (Section 6.3).

Preconditions (established by the reduce and semijoin phases): every
remaining attribute is an output attribute and every dangling tuple is
zero-annotated, so the nonzero sub-relations satisfy
``R*_F = pi_F(J*)`` — they are derivable from the query result and may
be revealed to Alice.  Three steps:

1. **Reveal** — per relation, a batch of small garbled circuits tests
   ``v(t) != 0`` and outputs either the (encoded) tuple or a dummy to
   Alice.  For Alice-owned relations only the indicator is needed.
2. **Join** — Alice joins the revealed ``R*`` locally with the
   (non-annotated) Yannakakis join order and sends ``|J*|`` to Bob.
3. **Annotations** — for each relation, an OEP indexed by Alice's
   extended permutation ``xi_F(i) = position of pi_F(t_i) in R_F``
   aligns the annotation shares with the join results; a batch of
   product circuits multiplies them up.

The annotation shares of ``J*`` are returned (the caller reveals them —
they are the query results — or feeds them into a composition circuit).

The data plane is columnar end to end: a Bob-owned relation's tuples
are marshalled into ONE ``(n, bits)`` payload matrix
(:func:`~repro.core.codec.encode_store_bits`), the circuit batch
returns the revealed rows as a matrix, and Alice's local star join runs
over :class:`~repro.relalg.columns.TupleStore` blocks with the source
positions riding along as ordinary ``__idx_`` integer columns.

The three steps are exposed as composable pieces (``reveal_relation``,
``local_star_join``, ``align_factor``, ``finish_join``) so that the
:mod:`repro.exec` scheduler can run them as separate plan steps;
:func:`oblivious_join` strings them together for monolithic callers.
Both paths produce byte-identical transcripts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..leakage import leaks
from ..mpc.context import ALICE, Context
from ..mpc.costs import OUT_SIZE_BYTES
from ..mpc.engine import Engine
from ..mpc.sharing import SharedVector, reveal_vector
from ..relalg.columns import Column, TupleStore, dummy_value
from ..relalg.relation import AnnotatedRelation
from ..relalg.operators import join as plain_join
from ..relalg.semiring import IntegerRing
from .codec import decode_bits_store, encode_store_bits, infer_specs_store
from .oriented import OrientedEngine
from .relation import SecureRelation

__all__ = [
    "ObliviousJoinResult",
    "RevealedRelation",
    "oblivious_join",
    "reveal_relation",
    "local_star_join",
    "empty_join_result",
    "align_factor",
    "finish_join",
    "reveal_result",
]


class ObliviousJoinResult:
    """Join tuples (Alice's) plus their shared annotations."""

    __slots__ = ("attributes", "_store", "annotations")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        tuples: Union[TupleStore, Sequence[Tuple]],
        annotations: SharedVector,
    ):
        self.attributes = attributes
        if isinstance(tuples, TupleStore):
            self._store = tuples
        else:
            self._store = TupleStore.from_tuples(attributes, tuples)
        self.annotations = annotations

    @property
    def store(self) -> TupleStore:
        return self._store

    @property
    def tuples(self) -> List[Tuple]:
        return self._store.materialize()


class RevealedRelation:
    """Step-1 output for one relation: the nonzero rows Alice learned,
    plus their original positions in the owner's relation."""

    __slots__ = ("positions", "store")

    def __init__(self, positions: np.ndarray, store: TupleStore):
        self.positions = positions
        self.store = store

    def __iter__(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """``(position, tuple)`` pairs — the historical view."""
        return iter(
            zip(self.positions.tolist(), self.store.materialize())
        )


@leaks("support:result")
def _reveal_nonzero(
    engine: Engine, rel: SecureRelation, sv: SharedVector, label: str
) -> RevealedRelation:
    """Step 1 for one relation with annotation shares ``sv``: Alice
    learns the nonzero-annotated rows (with their original positions)."""
    if rel.owner == ALICE:
        flags, _ = engine.reveal_nonzero_flags(sv, None, label=label)
        keep = np.flatnonzero(np.asarray(flags, dtype=bool))
        return RevealedRelation(keep, rel.store.take(keep))
    specs = infer_specs_store(rel.store)
    payload_bits = encode_store_bits(rel.store, specs)
    flags, payloads = engine.reveal_nonzero_flags(
        sv, payload_bits, label=label
    )
    keep = np.flatnonzero(np.asarray(flags, dtype=bool))
    revealed = decode_bits_store(
        np.asarray(payloads, dtype=np.uint8)[keep], specs, rel.attributes
    )
    return RevealedRelation(keep, revealed)


def _pad_join(
    joined: AnnotatedRelation,
    relations: Dict[str, SecureRelation],
    pad_out_to: int,
    ring: IntegerRing,
) -> AnnotatedRelation:
    """Append zero-annotated dummy join rows up to the declared size;
    their hidden index columns point at each relation's extra zero slot
    so the annotation product vanishes."""
    if len(joined) > pad_out_to:
        raise ValueError(
            f"true output size {len(joined)} exceeds the declared "
            f"bound {pad_out_to}"
        )
    pad = pad_out_to - len(joined)
    # One dummy value per padding row, shared across its visible
    # attributes (the row is a mixed dummy: real __idx_ slots, dummy
    # data slots — exactly the tuple-path layout).  It is a function of
    # the row's position in J* alone, in the negative nonces no
    # counter-drawn dummy reaches: the process-wide counter's state
    # would tell Alice how many dummies the inputs made.
    positions = range(len(joined), pad_out_to)
    dummy_vals = [dummy_value(-1 - p) for p in positions]
    pad_cols = []
    for a in joined.attributes:
        if a.startswith("__idx_"):
            slot = len(relations[a[len("__idx_"):]])
            pad_cols.append(
                Column.from_ints(np.full(pad, slot, dtype=np.int64))
            )
        else:
            pad_cols.append(Column.from_objects(dummy_vals))
    pad_store = TupleStore.from_columns(
        joined.attributes, pad_cols, np.zeros(pad, dtype=np.int64)
    )
    return AnnotatedRelation(
        joined.attributes,
        joined.store.concat(pad_store),
        None,
        ring,
    )


def reveal_relation(
    engine: Engine, rel: SecureRelation, name: str
) -> Tuple[SharedVector, RevealedRelation]:
    """Step 1 for one relation: share its annotations, then reveal the
    nonzero-annotated rows to Alice."""
    shares = rel.annotations.to_shared(engine, label="share")
    revealed = _reveal_nonzero(engine, rel, shares, f"reveal/{name}")
    return shares, revealed


def local_star_join(
    ctx: Context,
    relations: Dict[str, SecureRelation],
    revealed: Dict[str, RevealedRelation],
    join_steps: List[Tuple[str, str]],
    pad_out_to: int = 0,
) -> AnnotatedRelation:
    """Step 2: Alice's local non-annotated join over the revealed ``R*``,
    tracking per-relation source positions through hidden ``__idx_``
    columns, then disclosing ``|J*|`` (optionally padded) to Bob."""
    ring = IntegerRing(ctx.params.ell)
    star: Dict[str, AnnotatedRelation] = {}
    for name, rel in relations.items():
        rev = revealed[name]
        star_store = rev.store.with_column(
            f"__idx_{name}",
            Column.from_ints(
                np.asarray(rev.positions, dtype=np.int64)
            ),
        )
        star[name] = AnnotatedRelation(
            star_store.attributes, star_store, None, ring
        )
    order = list(join_steps)
    if order:
        rels = dict(star)
        for child, parent in order:
            rels[parent] = plain_join(rels[parent], rels[child])
            del rels[child]
        (root_name, joined), = rels.items()
    else:
        (root_name, joined), = star.items()
    if pad_out_to:
        joined = _pad_join(joined, relations, pad_out_to, ring)
    ctx.send(ALICE, OUT_SIZE_BYTES, "out_size")
    return joined


def empty_join_result(
    ctx: Context, joined: AnnotatedRelation
) -> ObliviousJoinResult:
    """The ``|J*| = 0`` early exit: no OEPs, no product circuits."""
    attrs = tuple(
        a for a in joined.attributes if not a.startswith("__idx_")
    )
    return ObliviousJoinResult(
        attrs, TupleStore.empty(attrs), SharedVector.zeros(0, ctx.modulus)
    )


def align_factor(
    engine: Engine,
    name: str,
    shares: SharedVector,
    joined: AnnotatedRelation,
) -> SharedVector:
    """Step 3a for one relation: the OEP aligning its annotation shares
    with the join rows via Alice's ``__idx_`` column."""
    ctx = engine.ctx
    oe = OrientedEngine(engine, ALICE)
    xi = joined.column_array(f"__idx_{name}")
    # One extra zero slot receives the padding rows' indices, so
    # their annotation product is a (shared) zero.
    extended = shares.concat(SharedVector.zeros(1, ctx.modulus))
    return oe.oep(xi, extended, len(joined), label=f"oep/{name}")


def finish_join(
    engine: Engine,
    joined: AnnotatedRelation,
    factors: List[SharedVector],
) -> ObliviousJoinResult:
    """Step 3b: one product circuit per join row, then strip the hidden
    index columns."""
    oe = OrientedEngine(engine, ALICE)
    annots = oe.product_across(factors, label="prod")
    attrs = tuple(
        a for a in joined.attributes if not a.startswith("__idx_")
    )
    return ObliviousJoinResult(attrs, joined.store.project(attrs), annots)


def oblivious_join(
    engine: Engine,
    relations: Dict[str, SecureRelation],
    join_steps: List[Tuple[str, str]],
    label: str = "oblivious_join",
    pad_out_to: int = 0,
) -> ObliviousJoinResult:
    """Compute ``J*`` and its shared annotations.

    ``join_steps`` is the reduced plan's bottom-up ``(child, parent)``
    order; the last surviving node is the root.

    ``pad_out_to``: if the true output size is sensitive, Alice pads
    ``J*`` with zero-annotated dummy tuples up to this declared size
    before disclosing it to Bob (Section 6.3 step 2); raises if the
    true size exceeds the declared bound.
    """
    ctx = engine.ctx
    with ctx.section(label):
        # Step 1: reveal R*_F to Alice (with original positions).
        revealed: Dict[str, RevealedRelation] = {}
        shares: Dict[str, SharedVector] = {}
        for name, rel in relations.items():
            shares[name], revealed[name] = reveal_relation(
                engine, rel, name
            )

        # Step 2: Alice's local join; |J*| goes to Bob.
        joined = local_star_join(
            ctx, relations, revealed, join_steps, pad_out_to
        )

        # Step 3: per-relation OEP + one product circuit per join row.
        if len(joined) == 0:
            return empty_join_result(ctx, joined)
        factors = [
            align_factor(engine, name, shares[name], joined)
            for name in relations
        ]
        return finish_join(engine, joined, factors)


@leaks("opened:result")
def reveal_result(ctx: Context, result: ObliviousJoinResult) -> np.ndarray:
    """Open the result annotations to Alice: the query's answer, the
    one reveal its semantics sanction (Section 4)."""
    return reveal_vector(ctx, result.annotations, ALICE, label="result")
