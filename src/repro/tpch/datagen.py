"""Deterministic synthetic TPC-H data generator.

Scales in **megabytes** like the paper's datasets (1, 3, 10, 33, 100 MB)
with the standard TPC-H row-count ratios (1 GB = scale factor 1):

=========  ======================  =================
table      rows at scale factor s  at 1 MB (s=0.001)
=========  ======================  =================
customer   150,000 s               150
orders     1,500,000 s             1,500
lineitem   ~4 per order            ~6,000
part       200,000 s               200
supplier   10,000 s                10
partsupp   4 per part              800
nation     25 (public)             25
region     5 (public)              5
=========  ======================  =================

Values follow the TPC-H shapes the five benchmark queries rely on:
market segments, order-date range 1992-01-01..1998-08-02, ship-date =
order-date + 1..121 days, part types from the official type triples,
part names as five colour words, integer cents for money, integer
percent for discounts.  Obliviousness makes the *values* irrelevant to
protocol cost (the paper notes this), so matching distributions and
cardinalities reproduces the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .schema import Table, date_ordinal, year_of_ordinals

__all__ = ["TpchDataset", "generate", "SCALES_MB"]

#: The paper's dataset scales (Section 8.2).
SCALES_MB = (1, 3, 10, 33, 100)

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_RETURN_FLAGS = ["R", "A", "N"]
_COLOURS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque",
    "black", "blanched", "blue", "blush", "brown", "burlywood",
    "burnished", "chartreuse", "chiffon", "chocolate", "coral",
    "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim",
    "dodger", "drab", "firebrick", "floral", "forest", "frosted",
    "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
    "lemon", "light", "lime", "linen", "magenta", "maroon", "medium",
]
_TYPE_SYLL1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_TYPE_SYLL2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_TYPE_SYLL3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

_DATE_LO = date_ordinal("1992-01-01")
_DATE_HI = date_ordinal("1998-08-02")


@dataclass
class TpchDataset:
    """All eight tables for one scale."""

    scale_mb: float
    tables: Dict[str, Table]

    def __getitem__(self, name: str) -> Table:
        return self.tables[name]


def _rows(base: int, sf: float) -> int:
    return max(1, round(base * sf))


def generate(scale_mb: float, seed: int = 20210618) -> TpchDataset:
    """Generate a dataset of roughly ``scale_mb`` megabytes."""
    sf = scale_mb / 1000.0
    rng = np.random.default_rng(seed)

    n_cust = _rows(150_000, sf)
    n_orders = _rows(1_500_000, sf)
    n_part = _rows(200_000, sf)
    n_supp = _rows(10_000, sf)

    customer = Table(
        "customer",
        {
            "c_custkey": np.arange(1, n_cust + 1, dtype=np.int64),
            "c_name": [f"Customer#{k:09d}" for k in range(1, n_cust + 1)],
            "c_mktsegment": [
                _SEGMENTS[i]
                for i in rng.integers(0, len(_SEGMENTS), n_cust)
            ],
            "c_nationkey": rng.integers(0, 25, n_cust).astype(np.int64),
        },
    )

    o_orderdate = rng.integers(_DATE_LO, _DATE_HI + 1, n_orders).astype(
        np.int64
    )
    orders = Table(
        "orders",
        {
            "o_orderkey": np.arange(1, n_orders + 1, dtype=np.int64),
            "o_custkey": rng.integers(1, n_cust + 1, n_orders).astype(
                np.int64
            ),
            "o_orderdate": o_orderdate,
            "o_year": year_of_ordinals(o_orderdate),
            "o_shippriority": np.zeros(n_orders, dtype=np.int64),
            "o_totalprice": rng.integers(
                100_00, 45_000_00, n_orders
            ).astype(np.int64),
        },
    )

    lines_per_order = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(
        np.arange(1, n_orders + 1, dtype=np.int64), lines_per_order
    )
    n_line = len(l_orderkey)
    l_linenumber = np.concatenate(
        [np.arange(1, k + 1) for k in lines_per_order]
    ).astype(np.int64)
    l_quantity = rng.integers(1, 51, n_line).astype(np.int64)
    l_partkey = rng.integers(1, n_part + 1, n_line).astype(np.int64)
    # TPC-H: the (partkey, suppkey) of a lineitem is one of the part's
    # four partsupp suppliers.
    supp_slot = rng.integers(0, 4, n_line)
    l_suppkey = _partsupp_supplier(l_partkey, supp_slot, n_supp, n_part)
    base_price = (90_000 + (l_partkey % 20_001) * 10).astype(np.int64)
    l_extendedprice = l_quantity * base_price // 100  # cents
    lineitem = Table(
        "lineitem",
        {
            "l_orderkey": l_orderkey,
            "l_linenumber": l_linenumber,
            "l_partkey": l_partkey,
            "l_suppkey": l_suppkey,
            "l_quantity": l_quantity,
            "l_extendedprice": l_extendedprice,
            "l_discount": rng.integers(0, 11, n_line).astype(np.int64),
            "l_shipdate": (
                o_orderkey_dates(o_orderdate, l_orderkey)
                + rng.integers(1, 122, n_line)
            ).astype(np.int64),
            "l_returnflag": [
                _RETURN_FLAGS[i]
                for i in rng.integers(0, len(_RETURN_FLAGS), n_line)
            ],
        },
    )

    name_words = rng.integers(0, len(_COLOURS), (n_part, 5))
    part = Table(
        "part",
        {
            "p_partkey": np.arange(1, n_part + 1, dtype=np.int64),
            "p_name": [
                " ".join(_COLOURS[w] for w in row) for row in name_words
            ],
            "p_type": [
                f"{_TYPE_SYLL1[a]} {_TYPE_SYLL2[b]} {_TYPE_SYLL3[c]}"
                for a, b, c in zip(
                    rng.integers(0, len(_TYPE_SYLL1), n_part),
                    rng.integers(0, len(_TYPE_SYLL2), n_part),
                    rng.integers(0, len(_TYPE_SYLL3), n_part),
                )
            ],
        },
    )

    supplier = Table(
        "supplier",
        {
            "s_suppkey": np.arange(1, n_supp + 1, dtype=np.int64),
            "s_nationkey": rng.integers(0, 25, n_supp).astype(np.int64),
        },
    )

    ps_partkey = np.repeat(
        np.arange(1, n_part + 1, dtype=np.int64), 4
    )
    ps_slot = np.tile(np.arange(4), n_part)
    partsupp = Table(
        "partsupp",
        {
            "ps_partkey": ps_partkey,
            "ps_suppkey": _partsupp_supplier(
                ps_partkey, ps_slot, n_supp, n_part
            ),
            "ps_supplycost": rng.integers(
                1_00, 1_000_00, 4 * n_part
            ).astype(np.int64),
        },
    )

    nation = Table(
        "nation",
        {
            "n_nationkey": np.arange(25, dtype=np.int64),
            "n_name": [n for n, _ in _NATIONS],
            "n_regionkey": np.asarray(
                [r for _, r in _NATIONS], dtype=np.int64
            ),
        },
    )
    region = Table(
        "region",
        {
            "r_regionkey": np.arange(5, dtype=np.int64),
            "r_name": list(_REGIONS),
        },
    )

    return TpchDataset(
        scale_mb,
        {
            "customer": customer,
            "orders": orders,
            "lineitem": lineitem,
            "part": part,
            "supplier": supplier,
            "partsupp": partsupp,
            "nation": nation,
            "region": region,
        },
    )


def _partsupp_supplier(
    partkey: np.ndarray, slot: np.ndarray, n_supp: int, n_part: int
) -> np.ndarray:
    """The TPC-H partsupp supplier formula (deterministic given part and
    slot), guaranteeing lineitem/partsupp join consistency."""
    return (
        (partkey + slot * (n_supp // 4 + (partkey - 1) // n_supp)) % n_supp
    ).astype(np.int64) + 1


def o_orderkey_dates(
    o_orderdate: np.ndarray, l_orderkey: np.ndarray
) -> np.ndarray:
    """Order date of each lineitem's order (orderkey is 1-based dense)."""
    return o_orderdate[l_orderkey - 1]
