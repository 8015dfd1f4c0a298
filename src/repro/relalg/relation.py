"""Annotated relations (K-relations) following Section 3.1 of the paper.

An annotated relation is a collection of tuples over a fixed attribute
list, each carrying an annotation from a commutative semiring.  Tuples
are stored *columnar*: one contiguous array per attribute (raw ``int64``
or dictionary-encoded, see :mod:`repro.relalg.columns`) plus a row-level
dummy-nonce vector; annotations live in a parallel ``uint64`` numpy
array so that secret sharing and vectorised semiring arithmetic are
cheap.  The historical tuple-list view stays available through the
``.tuples`` property (a cached materialisation) and iteration, so
row-oriented callers keep working unchanged.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .columns import TupleStore
from .semiring import DEFAULT_RING, Semiring

__all__ = ["AnnotatedRelation"]


def _as_annotation_array(
    values: Any, length: int, semiring: Semiring
) -> np.ndarray:
    if values is None:
        return np.full(length, semiring.one, dtype=np.uint64)
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            raise TypeError("annotations must be integers, not floats")
        if values.dtype.kind in ("i", "u", "b"):
            # Normalise in uint64 space: the unsigned cast wraps mod
            # 2^64 (exact for negatives too), and the semiring reduces
            # from there.  An int64 round-trip would corrupt uint64
            # inputs >= 2^63 and overflows outright for ell = 63.
            arr = semiring.normalize_vec(
                values.astype(np.uint64, copy=False)
            )
        else:
            arr = np.asarray(
                [semiring.normalize(int(v)) for v in values.tolist()],
                dtype=np.uint64,
            )
    else:
        vals = list(values)
        if any(isinstance(v, float) for v in vals):
            raise TypeError("annotations must be integers, not floats")
        arr = np.asarray(
            [semiring.normalize(int(v)) for v in vals], dtype=np.uint64
        )
    if arr.shape != (length,):
        raise ValueError(
            f"annotation array has shape {arr.shape}, expected ({length},)"
        )
    return arr


class AnnotatedRelation:
    """A relation whose tuples carry semiring annotations.

    Parameters
    ----------
    attributes:
        Ordered attribute names.  Order matters for tuple layout only; all
        relational operators match attributes by name.
    tuples:
        Iterable of equal-length tuples of hashable values, or a
        pre-built :class:`~repro.relalg.columns.TupleStore` (zero-copy).
    annotations:
        Optional iterable of semiring elements (defaults to all-ones, the
        multiplicative identity — the convention for "plain" relations).
    semiring:
        The annotation semiring (defaults to ``Z_{2^32}``).
    """

    __slots__ = ("attributes", "_store", "annotations", "semiring")

    def __init__(
        self,
        attributes: Sequence[str],
        tuples: Union[TupleStore, Iterable[Tuple[Any, ...]]],
        annotations: Any = None,
        semiring: Semiring = DEFAULT_RING,
    ):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attributes in {self.attributes}")
        if isinstance(tuples, TupleStore):
            if tuples.attributes != self.attributes:
                tuples = tuples.with_attributes(self.attributes)
            self._store = tuples
        else:
            self._store = TupleStore.from_tuples(self.attributes, tuples)
        self.semiring = semiring
        self.annotations = _as_annotation_array(
            annotations, self._store.n, semiring
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        rows: Iterable[Dict[str, Any]],
        annotation_of: Optional[Callable[[Dict[str, Any]], int]] = None,
        semiring: Semiring = DEFAULT_RING,
    ) -> "AnnotatedRelation":
        """Build a relation from dict rows.

        ``annotation_of`` is an optional callable mapping a row dict to its
        annotation; by default every tuple is annotated with 1.
        """
        attrs = tuple(attributes)
        tuples: List[Tuple[Any, ...]] = []
        annotations: List[int] = []
        for row in rows:
            tuples.append(tuple(row[a] for a in attrs))
            annotations.append(
                semiring.normalize(int(annotation_of(row)))
                if annotation_of
                else semiring.one
            )
        return cls(attrs, tuples, annotations, semiring)

    @classmethod
    def from_columns(
        cls,
        attributes: Sequence[str],
        columns: Sequence[Any],
        annotations: Any = None,
        semiring: Semiring = DEFAULT_RING,
        nonce: Optional[np.ndarray] = None,
    ) -> "AnnotatedRelation":
        """Zero-copy ingestion from per-attribute arrays (the columnar
        fast path used by the TPC-H loader and the benchmarks)."""
        store = TupleStore.from_columns(attributes, columns, nonce)
        return cls(store.attributes, store, annotations, semiring)

    @classmethod
    def empty(
        cls, attributes: Sequence[str], semiring: Semiring = DEFAULT_RING
    ) -> "AnnotatedRelation":
        return cls(attributes, [], [], semiring)

    def replace(
        self,
        tuples: Union[TupleStore, Iterable[Tuple[Any, ...]], None] = None,
        annotations: Any = None,
        attributes: Optional[Sequence[str]] = None,
    ) -> "AnnotatedRelation":
        """Copy with selected fields replaced (annotations re-normalised)."""
        store: Union[TupleStore, Iterable[Tuple[Any, ...]]]
        if tuples is None:
            store = self._store
            if attributes is not None:
                store = store.with_attributes(tuple(attributes))
        else:
            store = tuples
        return AnnotatedRelation(
            self.attributes if attributes is None else attributes,
            store,
            self.annotations if annotations is None else annotations,
            self.semiring,
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def store(self) -> TupleStore:
        """The columnar tuple block (the primary representation)."""
        return self._store

    @property
    def tuples(self) -> List[Tuple[Any, ...]]:
        """Tuple-list compatibility view (cached materialisation)."""
        return self._store.materialize()

    def __len__(self) -> int:
        return self._store.n

    def __iter__(self) -> Iterator[Tuple[Tuple[Any, ...], int]]:
        for t, v in zip(self.tuples, self.annotations):
            yield t, int(v)

    def __repr__(self) -> str:
        return (
            f"AnnotatedRelation({list(self.attributes)}, "
            f"{len(self)} tuples, {self.semiring!r})"
        )

    def index_of(self, attrs: Sequence[str]) -> List[int]:
        """Positions of ``attrs`` within this relation's attribute list."""
        missing = [a for a in attrs if a not in self.attributes]
        if missing:
            raise KeyError(f"attributes {missing} not in {self.attributes}")
        return [self.attributes.index(a) for a in attrs]

    def keys(self, attrs: Sequence[str]) -> List[Tuple[Any, ...]]:
        """Projection of every tuple onto ``attrs``, preserving order and
        duplicates (the *tuple list* of ``pi_attrs``, not its set)."""
        idx = self.index_of(attrs)
        return [tuple(t[i] for i in idx) for t in self.tuples]

    def column(self, attr: str) -> List[Any]:
        """One attribute's values as a Python list (dummy rows appear as
        their ``(DUMMY_MARKER, nonce)`` values)."""
        i = self.attributes.index(attr)
        col = self._store.columns[i]
        out = col.to_pylist()
        from .columns import dummy_value

        for j in np.flatnonzero(self._store.nonce).tolist():
            out[j] = dummy_value(int(self._store.nonce[j]))
        return out

    def column_array(self, attr: str) -> np.ndarray:
        """One integer attribute as an ``int64`` array (raises for
        dictionary-encoded columns or relations with dummy rows)."""
        i = self.attributes.index(attr)
        col = self._store.columns[i]
        if not col.is_int:
            raise TypeError(f"column {attr!r} is not integer-typed")
        if self._store.nonce.any():
            raise TypeError(
                f"column {attr!r} has dummy rows; use .column()"
            )
        return col.codes

    def annotation_of(self, t: Tuple[Any, ...]) -> int:
        """Total annotation of tuple ``t`` (sum over duplicates); zero if
        absent.  This realises the K-relation view of the multiset."""
        total = self.semiring.zero
        for u, v in self:
            if u == t:
                total = self.semiring.add(total, v)
        return total

    def to_dict(self) -> Dict[Tuple[Any, ...], int]:
        """Aggregate duplicates into a ``{tuple: annotation}`` map.

        This is the canonical K-relation semantics; two relations are
        semantically equal iff their dicts agree on nonzero annotations.
        """
        out: Dict[Tuple[Any, ...], int] = {}
        for t, v in self:
            out[t] = self.semiring.add(out.get(t, self.semiring.zero), v)
        return {t: v for t, v in out.items() if v != self.semiring.zero}

    def nonzero(self) -> "AnnotatedRelation":
        """The sub-relation of nonzero-annotated tuples (``R*`` in §6.3)."""
        keep = np.flatnonzero(self.annotations != 0)
        return AnnotatedRelation(
            self.attributes,
            self._store.take(keep),
            self.annotations[keep],
            self.semiring,
        )

    def semantically_equal(self, other: "AnnotatedRelation") -> bool:
        """Equality as K-relations: same nonzero annotation per tuple.

        Dummy (zero-annotated) tuples are ignored, which is exactly the
        sense in which the paper's oblivious operators return output that is
        "semantically equivalent" to the true operator output.
        """
        if set(self.attributes) != set(other.attributes):
            return False
        if self.semiring != other.semiring:
            return False
        perm = [other.attributes.index(a) for a in self.attributes]
        reordered = {
            tuple(t[i] for i in perm): v for t, v in other.to_dict().items()
        }
        return self.to_dict() == reordered
