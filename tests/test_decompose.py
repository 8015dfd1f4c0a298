"""The generic per-value decomposition of non-free-connex queries."""

import numpy as np
import pytest

from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.query import JoinAggregateQuery
from repro.query.decompose import decompose_by_attribute, run_decomposed
from repro.relalg import AnnotatedRelation, IntegerRing


RING = IntegerRing(32)


def q9_shaped_query():
    """Grouping by attributes from both ends of a chain — acyclic but
    not free-connex (the Q9 situation)."""
    rng = np.random.default_rng(4)
    supplier = AnnotatedRelation(
        ("sk", "nation"),
        [(s, s % 3) for s in range(9)],
        None,
        RING,
    )
    lineitem = AnnotatedRelation(
        ("sk", "ok"),
        [
            (int(rng.integers(0, 9)), int(rng.integers(0, 12)))
            for _ in range(40)
        ],
        rng.integers(1, 50, 40),
        RING,
    )
    orders = AnnotatedRelation(
        ("ok", "year"), [(o, 1995 + o % 3) for o in range(12)], None, RING
    )
    return (
        JoinAggregateQuery(output=["nation", "year"])
        .add_relation("supplier", supplier, owner=BOB)
        .add_relation("lineitem", lineitem, owner=ALICE)
        .add_relation("orders", orders, owner=BOB)
    )


class TestDecomposition:
    def test_original_is_not_free_connex(self):
        assert not q9_shaped_query().is_free_connex()

    def test_sub_queries_are_free_connex(self):
        parts = decompose_by_attribute(q9_shaped_query(), "nation", [0, 1, 2])
        assert len(parts) == 3
        for _value, sub in parts:
            assert sub.is_free_connex()

    def test_sub_queries_keep_full_size(self):
        q = q9_shaped_query()
        parts = decompose_by_attribute(q, "nation", [0])
        (_, sub), = parts
        # PRIVATE selection: the supplier relation stays 9 tuples
        assert len(sub.relations["supplier"]) == 9

    def test_requires_output_attribute(self):
        with pytest.raises(ValueError):
            decompose_by_attribute(q9_shaped_query(), "sk", [0])

    def test_unknown_attribute(self):
        with pytest.raises(ValueError):
            decompose_by_attribute(q9_shaped_query(), "ghost", [0])


class TestEndToEnd:
    def test_matches_naive_evaluation(self):
        q = q9_shaped_query()
        expect = q.run_naive()
        engine = Engine(Context(Mode.SIMULATED, seed=5))
        got = run_decomposed(engine, q, "nation", [0, 1, 2])
        # reorder expected columns to (nation, year)
        perm = [expect.attributes.index(a) for a in got.attributes]
        expect_rows = {
            tuple(t[i] for i in perm): v for t, v in expect.to_dict().items()
        }
        assert got.to_dict() == expect_rows

    def test_per_value_traffic_identical(self):
        """Obliviousness across the decomposition: every sub-query's
        transcript has the same shape regardless of the fixed value's
        selectivity."""
        q = q9_shaped_query()
        parts = decompose_by_attribute(q, "nation", [0, 1, 2])
        prints = []
        for _value, sub in parts:
            engine = Engine(Context(Mode.SIMULATED, seed=6))
            sub.run_secure_shared(engine)
            prints.append(engine.ctx.transcript.fingerprint())
        assert prints[0] == prints[1] == prints[2]
