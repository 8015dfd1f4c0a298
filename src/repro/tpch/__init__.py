"""TPC-H substrate: deterministic data generator and the paper's five
benchmark queries (Section 8)."""

from .datagen import SCALES_MB, TpchDataset, generate
from .queries import (
    PREPARED,
    PreparedQuery,
    prepare,
    prepare_q10,
    prepare_q18,
    prepare_q3,
    prepare_q8,
    prepare_q9,
    to_signed,
)
from .schema import Table, date_ordinal, year_of_ordinals

__all__ = [
    "PREPARED",
    "PreparedQuery",
    "SCALES_MB",
    "Table",
    "TpchDataset",
    "date_ordinal",
    "generate",
    "prepare",
    "prepare_q10",
    "prepare_q18",
    "prepare_q3",
    "prepare_q8",
    "prepare_q9",
    "to_signed",
    "year_of_ordinals",
]
