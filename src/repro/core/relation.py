"""Secure relations: the data model of the oblivious operators.

A :class:`SecureRelation` is a relation whose *tuples* are held by one
party (the owner) and whose *annotations* are either known to the owner
in the clear (:class:`SecureAnnotations` of kind ``plain`` — the common
situation for protocol inputs, Section 6.5) or secret-shared between the
parties (always the case for intermediate results).

Tuples are stored columnar (:class:`~repro.relalg.columns.TupleStore`):
per-attribute code arrays plus a row-level dummy-nonce vector, with the
tuple-list view available through the ``.tuples`` property.  Dummy
tuples (Section 4, footnote 2) are built from per-tuple nonces so that
they are pairwise distinct, never collide with real domain values, and
survive projection; their annotations are zero, so they contribute
nothing to any aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mpc.batch import DigestMessages, aes_digests
from ..mpc.context import Context
from ..mpc.cuckoo import LOCAL_SALT, encode_item
from ..mpc.engine import Engine
from ..mpc.sharing import SharedVector
from ..relalg.columns import (
    DUMMY_MARKER,
    TupleStore,
    dummy_tuple,
    dummy_value,
    is_dummy_tuple,
    lex_rank,
)
from ..relalg.relation import AnnotatedRelation

__all__ = [
    "DUMMY_MARKER",
    "dummy_tuple",
    "is_dummy_tuple",
    "sort_key",
    "row_digests",
    "SecureAnnotations",
    "SecureRelation",
]


def sort_key(t: Tuple[Any, ...]) -> bytes:
    """A total order over heterogeneous tuples (ints, strings, dummies):
    the canonical item encoding.  Owners sort locally with this key."""
    return encode_item(tuple(t))


def _cell(encoded: bytes) -> bytes:
    """One tuple component as :func:`encode_item` frames it."""
    return len(encoded).to_bytes(4, "little") + encoded


def _bytes(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8)


#: An int64 cell and a dummy cell are fixed-width: a constant prefix
#: (taken from the scalar definition) plus the value's / nonce's 8 bytes.
_INT_CELL = _bytes(_cell(encode_item(0))[:-8])
_DUMMY_CELL = _bytes(_cell(encode_item(dummy_value(0)))[:-8])


def _fixed_cells(prefix: np.ndarray, values: np.ndarray) -> List[np.ndarray]:
    """The two parts of ``len(values)`` fixed-width cells: the prefix,
    then each int64's 8 little-endian bytes."""
    le8 = np.asarray(values, dtype="<i8").view(np.uint8)
    return [prefix, le8.reshape(len(values), 8)]


def _cell_table(values: List[Any]) -> Tuple[np.ndarray, np.ndarray]:
    """An obj column's distinct values as framed cells: ``(table,
    width)``, where ``table[k, :width[k]]`` is value ``k``'s cell (the
    rows zero-padded to the widest), encoded once per value."""
    cells = [_cell(encode_item(v)) for v in values]
    width = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    table = np.zeros((len(cells), int(width.max(initial=0))), np.uint8)
    for w in np.unique(width).tolist():
        ks = np.flatnonzero(width == w)
        table[ks, :w] = _bytes(b"".join([cells[k] for k in ks])).reshape(
            len(ks), w
        )
    return table, width


def _row_blocks(
    store: TupleStore,
) -> Iterator[Tuple[np.ndarray, DigestMessages]]:
    """``(rows, block)`` pairs covering every row of ``store`` once:
    ``block.rows[i]`` is ``encode_item`` of row ``rows[i]``, written in
    place in the messages :func:`~repro.mpc.batch.aes_digests` hashes.

    Dummy rows form one block of fixed-width cells.  Real rows are
    grouped by their cell-width signature (an int cell is fixed-width,
    an obj cell as wide as its value's), so within a block every cell
    is a column slice: int cells from the codes' bytes, obj cells
    gathered by code from the column's :func:`_cell_table`."""
    head = _bytes(b"t" + store.arity.to_bytes(4, "little"))

    def block(n: int, parts: List[np.ndarray]) -> DigestMessages:
        """``n`` rows of the head and then ``parts`` side by side, each
        part one byte column range (a constant prefix broadcasts)."""
        parts = [head] + parts
        out = DigestMessages.zeros(n, sum(p.shape[-1] for p in parts))
        rows, at = out.rows, 0
        for part in parts:
            rows[:, at : at + part.shape[-1]] = part
            at += part.shape[-1]
        return out

    dummies = np.flatnonzero(store.nonce)
    if len(dummies):
        cell = _fixed_cells(_DUMMY_CELL, store.nonce[dummies])
        yield dummies, block(len(dummies), cell * store.arity)
    real = np.flatnonzero(store.nonce == 0)
    if not len(real):
        return
    tables = {
        j: _cell_table(c.values)
        for j, c in enumerate(store.columns)
        if c.values is not None
    }
    groups = [real]
    if tables:
        sig = lex_rank(
            [w[store.columns[j].codes[real]] for j, (_, w) in tables.items()]
        )
        order = np.argsort(sig, kind="stable")
        groups = np.split(real[order], np.flatnonzero(np.diff(sig[order])) + 1)
    for rows in groups:
        parts: List[np.ndarray] = []
        for j, c in enumerate(store.columns):
            codes = c.codes[rows]
            if j in tables:
                table, width = tables[j]
                parts.append(table[codes, : width[codes[0]]])
            else:
                parts.extend(_fixed_cells(_INT_CELL, codes))
        yield rows, block(len(rows), parts)


def row_digests(store: TupleStore, salt: bytes = LOCAL_SALT) -> np.ndarray:
    """The PSI / DH-OPRF digest matrix of a store's rows under ``salt``
    — equal to :func:`~repro.mpc.cuckoo.item_digests` of its
    materialised tuples — one :func:`~repro.mpc.batch.aes_digests` per
    block of rows."""
    out = np.empty((store.n, 32), dtype=np.uint8)
    for rows, block in _row_blocks(store):
        out[rows] = aes_digests(salt, block)
    return out.view("<u8")


@dataclass
class SecureAnnotations:
    """Annotation vector: plain (owner-known) or secret-shared."""

    kind: str  # "plain" | "shared"
    owner: Optional[str] = None
    values: Optional[np.ndarray] = None
    shares: Optional[SharedVector] = None

    @classmethod
    def plain(cls, owner: str, values: Any) -> "SecureAnnotations":
        arr = np.asarray(values, dtype=np.uint64)
        return cls(kind="plain", owner=owner, values=arr)

    @classmethod
    def shared(cls, shares: SharedVector) -> "SecureAnnotations":
        return cls(kind="shared", shares=shares)

    def __len__(self) -> int:
        if self.kind == "plain":
            assert self.values is not None
            return len(self.values)
        assert self.shares is not None
        return len(self.shares)

    def to_shared(self, engine: Engine, label: str = "annot") -> SharedVector:
        """Convert to shared form (the owner shares its vector: one
        column-level entry point, one transcript charge)."""
        if self.kind == "shared":
            assert self.shares is not None
            return self.shares
        assert self.owner is not None and self.values is not None
        return engine.share_column(self.owner, self.values, label)

    def reconstruct(self) -> np.ndarray:
        """Test-only / designated reveals: the cleartext annotations."""
        if self.kind == "plain":
            assert self.values is not None
            return self.values.copy()
        assert self.shares is not None
        return self.shares.reconstruct()


class SecureRelation:
    """Tuples held by ``owner`` (columnar); annotations plain or shared."""

    __slots__ = ("owner", "attributes", "_store", "annotations")

    def __init__(
        self,
        owner: str,
        attributes: Sequence[str],
        tuples: Union[TupleStore, Sequence[Tuple[Any, ...]]],
        annotations: SecureAnnotations,
    ) -> None:
        self.owner = owner
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if isinstance(tuples, TupleStore):
            if tuples.attributes != self.attributes:
                tuples = tuples.with_attributes(self.attributes)
            self._store = tuples
        else:
            self._store = TupleStore.from_tuples(self.attributes, tuples)
        self.annotations = annotations
        if self._store.n != len(annotations):
            raise ValueError(
                f"{self._store.n} tuples but "
                f"{len(annotations)} annotations"
            )

    def __len__(self) -> int:
        return self._store.n

    def __repr__(self) -> str:
        return (
            f"SecureRelation(owner={self.owner!r}, "
            f"attributes={self.attributes!r}, n={len(self)})"
        )

    @property
    def store(self) -> TupleStore:
        """The columnar tuple block (primary representation)."""
        return self._store

    @property
    def tuples(self) -> List[Tuple[Any, ...]]:
        """Tuple-list compatibility view (cached materialisation)."""
        return self._store.materialize()

    @property
    def dummy_mask(self) -> np.ndarray:
        """Boolean mask of dummy rows (columnar dummy representation)."""
        return self._store.dummy_mask

    @classmethod
    def from_annotated(
        cls, owner: str, rel: AnnotatedRelation
    ) -> "SecureRelation":
        """Wrap a party's plaintext input relation (annotations plain) —
        zero-copy: the columnar store is shared with the source."""
        return cls(
            owner=owner,
            attributes=rel.attributes,
            tuples=rel.store,
            annotations=SecureAnnotations.plain(owner, rel.annotations),
        )

    def index_of(self, attrs: Sequence[str]) -> List[int]:
        missing = [a for a in attrs if a not in self.attributes]
        if missing:
            raise KeyError(f"attributes {missing} not in {self.attributes}")
        return [self.attributes.index(a) for a in attrs]

    def project_tuples(self, attrs: Sequence[str]) -> List[Tuple[Any, ...]]:
        return self._store.project(attrs).materialize()

    def to_annotated(self, ctx: Context) -> AnnotatedRelation:
        """Test-only: reconstruct the plaintext K-relation this secure
        relation represents (dummies keep their zero annotations)."""
        from ..relalg.semiring import IntegerRing

        return AnnotatedRelation(
            self.attributes,
            self._store,
            self.annotations.reconstruct(),
            IntegerRing(ctx.params.ell),
        )
