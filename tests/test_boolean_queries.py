"""Boolean-semiring queries: set semantics via ({0,1}, OR, AND).

The paper (Section 3.1) notes the Boolean semiring is handled by
mapping True/False to 1/0 — the protocol itself runs over Z_{2^ell};
set-semantics *existence* queries come out as nonzero-ness.
"""

import numpy as np

from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.query import JoinAggregateQuery
from repro.relalg import (
    AnnotatedRelation,
    BooleanSemiring,
    IntegerRing,
    aggregate,
    join,
)



class TestPlaintextBooleanSemiring:
    def test_join_is_conjunction(self):
        b = BooleanSemiring()
        r1 = AnnotatedRelation(("a", "x"), [(1, 1), (2, 2)], [1, 0], b)
        r2 = AnnotatedRelation(("a", "y"), [(1, 5), (2, 6)], [1, 1], b)
        out = join(r1, r2)
        assert out.to_dict() == {(1, 1, 5): 1}  # (2,...) killed by 0

    def test_aggregate_is_disjunction(self):
        b = BooleanSemiring()
        r = AnnotatedRelation(
            ("g", "x"), [(1, 1), (1, 2), (2, 1)], [0, 1, 0], b
        )
        out = aggregate(r, ("g",))
        assert out.to_dict() == {(1,): 1}

    def test_no_overflow_under_or(self):
        b = BooleanSemiring()
        r = AnnotatedRelation(
            ("g",), [(1,)] * 10, [1] * 10, b
        )
        assert aggregate(r, ("g",)).to_dict() == {(1,): 1}


class TestSecureExistenceQuery:
    def test_which_groups_exist(self):
        """'Does any joining row exist per group?' — run over the ring
        and read nonzero-ness, the standard embedding."""
        ring = IntegerRing(32)
        r1 = AnnotatedRelation(
            ("g", "k"), [(1, 10), (2, 20), (3, 30)], [1, 1, 1], ring
        )
        r2 = AnnotatedRelation(
            ("k",), [(10,), (30,)], [1, 1], ring
        )
        q = (
            JoinAggregateQuery(output=["g"])
            .add_relation("R1", r1, owner=ALICE)
            .add_relation("R2", r2, owner=BOB)
        )
        engine = Engine(Context(Mode.SIMULATED, seed=1))
        result, _ = q.run_secure(engine)
        exists = {t[0] for t, v in result if v != 0}
        assert exists == {1, 3}
