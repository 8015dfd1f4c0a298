"""Fixed-width tuple wire format for the oblivious join's reveal step.

When a Bob-owned relation's nonzero tuples are revealed to Alice inside
a garbled circuit (Section 6.3 step 1), the tuple content must enter
the circuit as a fixed number of bits — a width that depends on the
public schema, not on the data.  Each attribute gets a fixed-width slot
(4- or 8-byte two's-complement integers, zero-padded UTF-8 for
strings); the per-relation layout is public.

Dummy tuples encode as all-zero slots; they are only ever produced for
zero-annotated rows, which the circuit never reveals.

The codec works per relation — :func:`encode_store_bits` /
:func:`decode_bits_store` over ``(n, bits)`` ``uint8`` matrices built
straight from a :class:`~repro.relalg.columns.TupleStore`: integer
columns encode by one vectorised byte-view, dictionary columns encode
each distinct value once and gather by code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from ..relalg.columns import Column, TupleStore, is_dummy_value

__all__ = [
    "AttrSpec",
    "infer_specs_store",
    "tuple_bits",
    "encode_store_bits",
    "decode_bits_store",
]


@dataclass(frozen=True)
class AttrSpec:
    """Public layout of one attribute slot."""

    kind: str  # "int" | "str"
    n_bytes: int


def infer_specs_store(store: TupleStore) -> List[AttrSpec]:
    """A public per-relation layout: ints use 4 bytes (8 when any value
    needs it), strings their maximum length rounded up to 4 bytes.
    Integer columns resolve their width with two array reductions;
    dictionary columns inspect each distinct value once.  Dummy rows
    (and dummy values inside mixed rows) are skipped — their slots
    follow the real values'."""
    real = np.flatnonzero(store.nonce == 0)
    specs: List[AttrSpec] = []
    for col in store.columns:
        kind, width = "int", 4
        if col.is_int:
            if len(real):
                vals = col.codes[real]
                if len(vals) and (
                    int(vals.min()) < -(2**31)
                    or int(vals.max()) >= 2**31
                ):
                    width = 8
        else:
            assert col.values is not None
            used = np.unique(col.codes[real]) if len(real) else []
            for c in np.asarray(used).tolist():
                v = col.values[int(c)]
                if is_dummy_value(v):
                    continue
                if isinstance(v, str):
                    kind = "str"
                    width = max(width, (len(v.encode()) + 3) // 4 * 4)
                elif isinstance(v, (int,)):
                    if not -(2**31) <= v < 2**31:
                        width = max(width, 8)
                else:
                    raise TypeError(
                        f"cannot lay out attribute value {v!r} "
                        f"({type(v).__name__})"
                    )
        specs.append(AttrSpec(kind, width))
    return specs


def tuple_bits(specs: Sequence[AttrSpec]) -> int:
    return 8 * sum(s.n_bytes for s in specs)


def _encode_value(v: Any, spec: AttrSpec) -> bytes:
    if spec.kind == "int":
        return int(v).to_bytes(spec.n_bytes, "little", signed=True)
    raw = str(v).encode("utf-8")
    if len(raw) > spec.n_bytes:
        raise ValueError(
            f"string {v!r} exceeds its {spec.n_bytes}-byte slot"
        )
    if b"\x00" in raw:
        raise ValueError("strings with NUL bytes cannot be encoded")
    return raw + b"\x00" * (spec.n_bytes - len(raw))


def _dummy_row_mask(store: TupleStore) -> np.ndarray:
    """Rows that encode as all zeros: whole-row dummies plus any row
    holding a dummy *value* (the ``is_dummy_tuple`` rule)."""
    mask = store.nonce != 0
    for col in store.columns:
        if col.values is None:
            continue
        flags = np.fromiter(
            (is_dummy_value(v) for v in col.values),
            dtype=bool,
            count=len(col.values),
        )
        if flags.any():
            mask = mask | flags[col.codes]
    return mask


def _encode_int_column(codes: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` little-endian two's-complement bytes."""
    le = np.ascontiguousarray(codes.astype("<i8"))
    byts = le.view(np.uint8).reshape(len(codes), 8)
    if width >= 8:
        return byts
    if len(codes) and (
        int(codes.min()) < -(2 ** (8 * width - 1))
        or int(codes.max()) >= 2 ** (8 * width - 1)
    ):
        raise OverflowError("int too big to convert")
    return byts[:, :width]


def encode_store_bits(
    store: TupleStore, specs: Sequence[AttrSpec]
) -> np.ndarray:
    """Bit matrix of the whole store: row ``i`` holds the little-endian
    bits of row ``i``'s fixed slots; dummy rows become all zeros (they
    are never revealed)."""
    if len(specs) != store.arity:
        raise ValueError("layout arity does not match the store")
    n = store.n
    zero_rows = _dummy_row_mask(store)
    parts: List[np.ndarray] = []
    for col, spec in zip(store.columns, specs):
        if col.is_int and spec.kind == "int":
            parts.append(_encode_int_column(col.codes, spec.n_bytes))
            continue
        # Dictionary path: encode each distinct value once, gather by
        # code.  Only values referenced by an encoded (non-zeroed) row
        # are touched, so placeholders behind dummy rows never error.
        if col.is_int:
            distinct, inv = np.unique(col.codes, return_inverse=True)
            dvals: List = distinct.tolist()
            codes = inv.astype(np.int64, copy=False)
        else:
            assert col.values is not None
            dvals = col.values
            codes = col.codes
        enc = np.zeros((max(len(dvals), 1), spec.n_bytes), dtype=np.uint8)
        used = (
            np.unique(codes[~zero_rows]) if n and not zero_rows.all()
            else np.zeros(0, dtype=np.int64)
        )
        for c in used.tolist():
            enc[int(c)] = np.frombuffer(
                _encode_value(dvals[int(c)], spec), dtype=np.uint8
            )
        parts.append(
            enc[codes] if n else np.zeros((0, spec.n_bytes), np.uint8)
        )
    if parts:
        byte_mat = np.concatenate(parts, axis=1)
    else:
        byte_mat = np.zeros((n, 0), dtype=np.uint8)
    byte_mat[zero_rows] = 0
    return np.unpackbits(byte_mat, axis=1, bitorder="little")


def decode_bits_store(
    bits: np.ndarray,
    specs: Sequence[AttrSpec],
    attributes: Sequence[str],
) -> TupleStore:
    """Invert :func:`encode_store_bits` row-wise into a fresh store.
    Integer slots decode with one byte-view per column; string slots
    decode per row (they only appear in revealed — i.e. small — sets)."""
    mat = np.asarray(bits, dtype=np.uint8)
    k = len(mat)
    total = sum(s.n_bytes for s in specs)
    if k and mat.shape[1] != 8 * total:
        raise ValueError("bit-matrix width does not match the layout")
    packed = (
        np.packbits(mat, axis=1, bitorder="little")
        if mat.size
        else np.zeros((k, total), dtype=np.uint8)
    )
    cols: List[Column] = []
    pos = 0
    for s in specs:
        chunk = packed[:, pos : pos + s.n_bytes]
        pos += s.n_bytes
        if s.kind == "int":
            w = 8 if s.n_bytes >= 8 else 4
            if s.n_bytes not in (4, 8):
                vals = [
                    int.from_bytes(bytes(row), "little", signed=True)
                    for row in chunk
                ]
                cols.append(Column.from_ints(vals))
                continue
            arr = np.ascontiguousarray(chunk).view(f"<i{w}")
            cols.append(
                Column.from_ints(arr.reshape(k).astype(np.int64))
            )
        else:
            cols.append(
                Column.from_objects(
                    [
                        bytes(row).rstrip(b"\x00").decode("utf-8")
                        for row in chunk
                    ]
                )
            )
    return TupleStore.from_columns(
        attributes, cols, np.zeros(k, dtype=np.int64)
    )
