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
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mpc.context import Context
from ..mpc.cuckoo import digest_encoded, encode_item
from ..mpc.engine import Engine
from ..mpc.sharing import SharedVector
from ..relalg.columns import (
    DUMMY_MARKER,
    TupleStore,
    dummy_tuple,
    dummy_value,
    is_dummy_tuple,
)
from ..relalg.relation import AnnotatedRelation

__all__ = [
    "DUMMY_MARKER",
    "dummy_tuple",
    "is_dummy_tuple",
    "sort_key",
    "encode_rows",
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


def _le8(values: np.ndarray) -> List[bytes]:
    """Each int64 as its 8 little-endian bytes."""
    buf = values.astype("<i8", copy=False).tobytes()
    return [buf[i : i + 8] for i in range(0, len(buf), 8)]


#: An int64 cell and a dummy cell are fixed-width: a constant prefix
#: (taken from the scalar definition) plus the value's / nonce's 8 bytes.
_INT_CELL = _cell(encode_item(0))[:-8]
_DUMMY_CELL = _cell(encode_item(dummy_value(0)))[:-8]


def encode_rows(store: TupleStore) -> List[bytes]:
    """``encode_item(row)`` for every row of ``store`` without building
    the rows: int columns and dummy nonces encode as fixed-width byte
    blocks, obj columns once per *distinct* value, gathered by code."""
    arity = store.arity
    head = b"t" + arity.to_bytes(4, "little")
    cols = []
    for c in store.columns:
        if c.values is None:
            cols.append([_INT_CELL + b for b in _le8(c.codes)])
        else:
            cells = [_cell(encode_item(v)) for v in c.values]
            cols.append([cells[i] for i in c.codes.tolist()])
    rows = [head + b"".join(r) for r in zip(*cols)] or [head] * store.n
    dummies = np.flatnonzero(store.nonce)
    for i, z in zip(dummies.tolist(), _le8(store.nonce[dummies])):
        rows[i] = head + (_DUMMY_CELL + z) * arity
    return rows


def row_digests(store: TupleStore) -> np.ndarray:
    """The PSI / DH-OPRF digest matrix of a store's rows — equal to
    :func:`~repro.mpc.cuckoo.item_digests` of its materialised tuples."""
    return digest_encoded(encode_rows(store))


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

    def project_store(self, attrs: Sequence[str]) -> TupleStore:
        """Columnar projection onto ``attrs`` (no materialisation)."""
        return self._store.project(attrs)

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
