"""Columnar tuple storage for annotated and secure relations.

A relation's tuples are held as one contiguous array per attribute
(:class:`Column`) plus a row-level dummy-nonce vector, instead of a list
of Python tuples.  Two column kinds cover every value the protocol
moves:

* **int** — the values themselves in an ``int64`` array (``codes`` with
  ``values is None``); the common case for TPC-H keys and dates.
* **obj** — dictionary-encoded: ``codes[i]`` indexes into ``values``, a
  list of distinct hashable Python objects in first-appearance order.
  Strings, dummy markers and mixed-type columns land here.

Dummy tuples (Section 4, footnote 2) are *row* properties, not values:
``nonce[i] != 0`` marks row ``i`` as the dummy tuple whose every
attribute is ``(DUMMY_MARKER, nonce[i])``.  Keeping the nonce out of the
columns lets the group-by/join kernels treat dummies uniformly — a
dummy row equals another row iff both are dummies with the same nonce,
exactly the semantics of the tuple representation.

Cross-relation comparisons go through :func:`joint_row_codes`, which
re-encodes the stores into one shared ``int64`` code space (the rows'
lexicographic rank, :func:`lex_rank`) so that equality of rows is
equality of codes; all group-by, join and
deduplication kernels then run on plain integer arrays via
``np.unique``/``np.argsort``/``np.searchsorted``.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "DUMMY_MARKER",
    "dummy_tuple",
    "dummy_value",
    "fresh_nonces",
    "is_dummy_tuple",
    "is_dummy_value",
    "Column",
    "TupleStore",
    "joint_row_codes",
    "lex_rank",
    "group_by_first_appearance",
    "sort_with_same_flags",
]

DUMMY_MARKER = "__dummy__"

#: The nonce stream of data preparation (TPC-H masks, padded
#: selections): every dummy it makes is distinct, so dummies never
#: join each other (or any real value) by accident.  It counts up from
#: 1.  The dummies an operator makes while a plan runs take their
#: nonces from the run's context instead
#: (:meth:`repro.mpc.context.Context.dummy_nonces`, from 2^62 up), and
#: the negative nonces are the padding rows of a padded join output
#: (``core/join._pad_join``), one per position.
_dummy_nonce = itertools.count(1)


def fresh_nonces(k: int) -> np.ndarray:
    """Reserve a block of ``k`` fresh preparation-time dummy nonces as
    an int64 array."""
    return np.fromiter(
        itertools.islice(_dummy_nonce, k), dtype=np.int64, count=k
    )


def dummy_value(nonce: int) -> Tuple[str, int]:
    """The per-attribute value of the dummy tuple with this nonce."""
    return (DUMMY_MARKER, int(nonce))


def is_dummy_value(v: Any) -> bool:
    return (
        isinstance(v, tuple) and len(v) == 2 and v[0] == DUMMY_MARKER
    )


def dummy_tuple(arity: int) -> Tuple[Any, ...]:
    """A fresh dummy tuple: every attribute carries the same unique nonce,
    so any projection of a dummy is itself a distinct dummy value."""
    nonce = next(_dummy_nonce)
    return tuple(dummy_value(nonce) for _ in range(max(arity, 1)))[
        :arity
    ] or ()


def is_dummy_tuple(t: Tuple[Any, ...]) -> bool:
    return any(is_dummy_value(v) for v in t)


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------


class Column:
    """One attribute's values: raw ``int64`` or dictionary-encoded."""

    __slots__ = ("codes", "values")

    def __init__(
        self, codes: np.ndarray, values: Optional[List[Hashable]]
    ) -> None:
        self.codes = codes
        self.values = values

    @property
    def is_int(self) -> bool:
        return self.values is None

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def from_ints(cls, arr: Any) -> "Column":
        return cls(np.asarray(arr, dtype=np.int64), None)

    @classmethod
    def from_values(cls, vals: Sequence[Hashable]) -> "Column":
        """Build a column from arbitrary hashable Python values, picking
        the int fast path when every value is a (non-bool) int."""
        if all(type(v) is int for v in vals):
            ints = np.fromiter(
                vals, dtype=np.int64, count=len(vals)
            ) if vals else np.zeros(0, dtype=np.int64)
            return cls(ints, None)
        return cls.from_objects(vals)

    @classmethod
    def from_objects(cls, vals: Sequence[Hashable]) -> "Column":
        """Dictionary-encode arbitrary hashable values (first-appearance
        dictionary order)."""
        mapping: Dict[Hashable, int] = {}
        codes = np.fromiter(
            (mapping.setdefault(v, len(mapping)) for v in vals),
            dtype=np.int64,
            count=len(vals),
        ) if len(vals) else np.zeros(0, dtype=np.int64)
        return cls(codes, list(mapping))

    @classmethod
    def from_array(cls, arr: Any) -> "Column":
        """Build a column from a numpy array or Python sequence.

        Integer arrays that fit int64 stay raw; string arrays are
        dictionary-encoded via a vectorised ``np.unique``; everything
        else goes through the generic object path.
        """
        if isinstance(arr, Column):
            return arr
        a = np.asarray(arr)
        if a.ndim != 1:
            raise ValueError("columns must be one-dimensional")
        if a.dtype.kind == "i":
            return cls(a.astype(np.int64, copy=False), None)
        if a.dtype.kind == "u":
            if a.size and int(a.max()) > np.iinfo(np.int64).max:
                return cls.from_objects([int(v) for v in a.tolist()])
            return cls(a.astype(np.int64), None)
        if a.dtype.kind in ("U", "S"):
            uniq, inv = np.unique(a, return_inverse=True)
            return cls(
                inv.astype(np.int64, copy=False), list(uniq.tolist())
            )
        return cls.from_values(list(a.tolist()))

    def take(self, rows: np.ndarray) -> "Column":
        # Dictionary values are shared with the source column: stores
        # are immutable, so aliasing is safe and keeps gathers O(rows).
        return Column(self.codes[rows], self.values)

    def concat(self, other: "Column") -> "Column":
        if self.is_int and other.is_int:
            return Column(
                np.concatenate([self.codes, other.codes]), None
            )
        mapping: Dict[Hashable, int] = {}
        a = _remap_codes(self, mapping)
        b = _remap_codes(other, mapping)
        return Column(np.concatenate([a, b]), list(mapping))

    def to_pylist(self) -> List[Hashable]:
        if self.values is None:
            return list(self.codes.tolist())
        vals = self.values
        return [vals[c] for c in self.codes.tolist()]


def _remap_codes(col: Column, mapping: Dict[Hashable, int]) -> np.ndarray:
    """``col``'s codes re-expressed in the growing shared ``mapping``
    (value -> shared code), extending it with unseen values."""
    if col.values is None:
        distinct, inv = np.unique(col.codes, return_inverse=True)
        shared = np.fromiter(
            (
                mapping.setdefault(int(v), len(mapping))
                for v in distinct.tolist()
            ),
            dtype=np.int64,
            count=len(distinct),
        )
        return shared[inv] if len(distinct) else col.codes
    if not col.values:
        return col.codes
    remap = np.fromiter(
        (mapping.setdefault(v, len(mapping)) for v in col.values),
        dtype=np.int64,
        count=len(col.values),
    )
    return remap[col.codes]


def unify_codes(cols: Sequence[Column]) -> List[np.ndarray]:
    """Codes for several columns of the *same* attribute in one shared
    space: equal values get equal codes across all of them."""
    if all(c.is_int for c in cols):
        return [c.codes for c in cols]
    mapping: Dict[Hashable, int] = {}
    return [_remap_codes(c, mapping) for c in cols]


# ----------------------------------------------------------------------
# tuple stores
# ----------------------------------------------------------------------


class TupleStore:
    """An immutable columnar block of tuples plus a dummy-nonce vector.

    ``nonce[i] == 0`` means row ``i`` is the real tuple spelled by the
    columns; ``nonce[i] == k != 0`` means row ``i`` is the dummy tuple
    ``((DUMMY_MARKER, k),) * arity`` and its column codes are ignored.

    A store lays out its own tuples once: :meth:`groups` and
    :meth:`sort_layout` memoise, per attribute tuple, derivations that
    are functions of the rows alone (never of a salt, a seed or
    annotations), as read-only arrays, so a prepared query's input
    stores are grouped and sorted on their first run only.
    """

    __slots__ = ("attributes", "columns", "nonce", "_rows", "_memo")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        columns: Tuple[Column, ...],
        nonce: np.ndarray,
    ) -> None:
        self.attributes = attributes
        self.columns = columns
        self.nonce = nonce
        self._rows: Optional[List[Tuple[Any, ...]]] = None
        self._memo: Dict[Tuple[str, Tuple[str, ...]], Any] = {}
        for c in columns:
            if len(c) != len(nonce):
                raise ValueError("column lengths disagree")

    @property
    def n(self) -> int:
        return len(self.nonce)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.nonce)

    @property
    def dummy_mask(self) -> np.ndarray:
        """Boolean mask of dummy rows (the columnar dummy representation)."""
        return self.nonce != 0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        attributes: Sequence[str],
        tuples: Iterable[Tuple[Any, ...]],
    ) -> "TupleStore":
        attrs = tuple(attributes)
        rows = [tuple(t) for t in tuples]
        arity = len(attrs)
        for t in rows:
            if len(t) != arity:
                raise ValueError(
                    f"tuple {t!r} has arity {len(t)}, "
                    f"schema has {arity} attributes"
                )
        n = len(rows)
        nonce = np.zeros(n, dtype=np.int64)
        dummy_rows: List[int] = []
        for i, t in enumerate(rows):
            if (
                arity > 0
                and is_dummy_value(t[0])
                and all(v == t[0] for v in t[1:])
            ):
                # A whole-row dummy: keep its original nonce so it
                # stays equal to itself across store rebuilds.
                nonce[i] = t[0][1]
                dummy_rows.append(i)
        if dummy_rows:
            # Dummy rows' cell values are row-level; park a placeholder
            # in the columns (sanitised away by joint_row_codes).
            cols = []
            for j in range(arity):
                vals = [
                    (t[j] if nonce[i] == 0 else 0)
                    for i, t in enumerate(rows)
                ]
                cols.append(Column.from_values(vals))
        else:
            cols = [
                Column.from_values([t[j] for t in rows])
                for j in range(arity)
            ]
        store = cls(attrs, tuple(cols), nonce)
        store._rows = rows
        return store

    @classmethod
    def from_columns(
        cls,
        attributes: Sequence[str],
        columns: Sequence[Any],
        nonce: Optional[np.ndarray] = None,
    ) -> "TupleStore":
        attrs = tuple(attributes)
        cols = tuple(Column.from_array(c) for c in columns)
        if cols:
            n = len(cols[0])
        elif nonce is not None:
            n = len(nonce)
        else:
            raise ValueError(
                "zero-attribute stores need an explicit nonce vector"
            )
        if nonce is None:
            nonce = np.zeros(n, dtype=np.int64)
        return cls(attrs, cols, np.asarray(nonce, dtype=np.int64))

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "TupleStore":
        attrs = tuple(attributes)
        return cls(
            attrs,
            tuple(
                Column(np.zeros(0, dtype=np.int64), None) for _ in attrs
            ),
            np.zeros(0, dtype=np.int64),
        )

    # -- transformations ------------------------------------------------

    def take(self, rows: Any) -> "TupleStore":
        idx = np.asarray(rows, dtype=np.int64)
        return TupleStore(
            self.attributes,
            tuple(c.take(idx) for c in self.columns),
            self.nonce[idx],
        )

    def project(self, attrs: Sequence[str]) -> "TupleStore":
        """Reorder/select columns by name.  Projecting onto zero
        attributes drops the nonce too: every tuple, dummy or not,
        projects to the empty tuple ``()`` (matching tuple semantics)."""
        order = tuple(attrs)
        pos = {a: i for i, a in enumerate(self.attributes)}
        missing = [a for a in order if a not in pos]
        if missing:
            raise KeyError(
                f"attributes {missing} not in {self.attributes}"
            )
        if not order:
            return TupleStore(
                (), (), np.zeros(self.n, dtype=np.int64)
            )
        return TupleStore(
            order,
            tuple(self.columns[pos[a]] for a in order),
            self.nonce,
        )

    def with_attributes(self, attributes: Sequence[str]) -> "TupleStore":
        attrs = tuple(attributes)
        if len(attrs) != self.arity:
            raise ValueError("attribute count mismatch")
        return TupleStore(attrs, self.columns, self.nonce)

    def with_column(self, name: str, col: Column) -> "TupleStore":
        if len(col) != self.n:
            raise ValueError("column length mismatch")
        return TupleStore(
            self.attributes + (name,), self.columns + (col,), self.nonce
        )

    def concat(self, other: "TupleStore") -> "TupleStore":
        if self.attributes != other.attributes:
            raise ValueError("concat needs identical attribute tuples")
        return TupleStore(
            self.attributes,
            tuple(
                a.concat(b)
                for a, b in zip(self.columns, other.columns)
            ),
            np.concatenate([self.nonce, other.nonce]),
        )

    def with_dummies(self, pad_nonce: np.ndarray) -> "TupleStore":
        """Append one dummy row per nonce of ``pad_nonce`` (vectorised
        dummy generation: zero Python tuples built)."""
        k = len(pad_nonce)
        if k == 0:
            return self
        zeros = np.zeros(k, dtype=np.int64)
        return TupleStore(
            self.attributes,
            tuple(
                Column(np.concatenate([c.codes, zeros]), c.values)
                for c in self.columns
            ),
            np.concatenate([self.nonce, pad_nonce]),
        )

    # -- owner-local layouts (memoised) ---------------------------------

    def groups(
        self, attrs: Sequence[str]
    ) -> Tuple[np.ndarray, "TupleStore"]:
        """``(gid, keys)``: the distinct projections onto ``attrs`` in
        first-appearance order (``keys``) and, per row, the index of its
        projection among them (``gid``)."""
        key = ("groups", tuple(attrs))
        hit: Optional[Tuple[np.ndarray, TupleStore]] = self._memo.get(key)
        if hit is None:
            proj = self.project(key[1])
            gid, first = group_by_first_appearance(
                joint_row_codes([proj])[0]
            )
            hit = (_frozen(gid), _frozen_store(proj.take(first)))
            self._memo[key] = hit
        return hit

    def sort_layout(
        self, attrs: Sequence[str]
    ) -> Tuple[np.ndarray, "TupleStore", np.ndarray]:
        """``(order, sorted_proj, same)``: a stable sort of the rows by
        their projection onto ``attrs``, that projection in sorted
        order, and its same-as-next flags
        (:func:`sort_with_same_flags`)."""
        key = ("sorted", tuple(attrs))
        hit: Optional[Tuple[np.ndarray, TupleStore, np.ndarray]] = (
            self._memo.get(key)
        )
        if hit is None:
            proj = self.project(key[1])
            order, same = sort_with_same_flags(joint_row_codes([proj])[0])
            hit = (
                _frozen(order),
                _frozen_store(proj.take(order)),
                _frozen(same),
            )
            self._memo[key] = hit
        return hit

    # -- row views ------------------------------------------------------

    def materialize(self) -> List[Tuple[Any, ...]]:
        """The tuple-list view (cached; the compatibility API)."""
        if self._rows is None:
            n = self.n
            if self.arity == 0:
                rows: List[Tuple[Any, ...]] = [()] * n
            else:
                pycols = [c.to_pylist() for c in self.columns]
                rows = list(zip(*pycols))
                for i in np.flatnonzero(self.nonce).tolist():
                    nv = dummy_value(int(self.nonce[i]))
                    rows[i] = tuple(nv for _ in range(self.arity))
            self._rows = rows
        return self._rows


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen_store(store: TupleStore) -> TupleStore:
    """``store`` (freshly gathered, so it owns its arrays) read-only."""
    for c in store.columns:
        _frozen(c.codes)
    _frozen(store.nonce)
    return store


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


def joint_row_codes(stores: Sequence[TupleStore]) -> List[np.ndarray]:
    """Per-store ``int64`` row codes in one shared space: two rows (from
    any of the stores) are equal as tuples iff their codes are equal.

    All stores must share the same attribute tuple (project first).
    Dummy rows compare through their nonce; their column codes are
    sanitised to zero so a dummy never equals a real row.
    """
    if not stores:
        return []
    arity = stores[0].arity
    for s in stores[1:]:
        if s.attributes != stores[0].attributes:
            raise ValueError("joint codes need identical schemas")
    if arity == 0:
        # Every tuple projects to (): all rows are equal.
        return [np.zeros(s.n, dtype=np.int64) for s in stores]
    real = [s.nonce == 0 for s in stores]
    keys = [np.concatenate([s.nonce for s in stores])]
    for j in range(arity):
        codes = unify_codes([s.columns[j] for s in stores])
        keys.append(np.concatenate([c * r for c, r in zip(codes, real)]))
    rank = lex_rank(keys)
    return np.split(rank, np.cumsum([s.n for s in stores])[:-1])


def lex_rank(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The dense rank of every row of the equal-length ``int64`` columns
    ``keys`` in lexicographic order (``keys[0]`` most significant): one
    ``np.lexsort``, the run heads of the sorted rows and a cumsum."""
    n = len(keys[0])
    order = np.lexsort(keys[::-1])
    head = np.zeros(n, dtype=bool)
    head[:1] = True
    for k in keys:
        srt = k[order]
        head[1:] |= srt[1:] != srt[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(head) - 1
    return rank


def group_by_first_appearance(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by code: ``(gid, first)`` where groups are numbered in
    first-appearance order (the dict-insertion order of the tuple-path
    operators) and ``first[g]`` is the index of group ``g``'s first row."""
    if not len(codes):
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    _, first, inv = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inv.astype(np.int64, copy=False)], first[order]


def sort_with_same_flags(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """A stable sort order over row codes plus the ``same-as-next``
    boundary flags the oblivious merge chains consume."""
    order = np.argsort(codes, kind="stable")
    srt = codes[order]
    same = np.zeros(max(len(codes) - 1, 0), dtype=bool)
    if len(codes) > 1:
        same = srt[1:] == srt[:-1]
    return order, same
