"""Empty and degenerate inputs across the stack."""

from functools import partial

import numpy as np
import pytest

from repro.core import SecureRelation, secure_yannakakis
from repro.core.composition import divide_compose
from repro.core.join import ObliviousJoinResult
from repro.mpc import ALICE, BOB, Context, Mode
from repro.mpc.oep import (
    oblivious_extended_permutation,
    oblivious_permutation,
)
from repro.mpc.ot import make_ot
from repro.mpc.sharing import SharedVector, share_vector
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan

from .conftest import make_engine

RING = IntegerRing(32)


mk_engine = partial(make_engine, seed=1)


class TestEmptyVectors:
    def test_empty_permutation(self):
        ctx = Context(Mode.SIMULATED, seed=1)
        ot = make_ot(ctx)
        sv = SharedVector.zeros(0, ctx.modulus)
        out = oblivious_permutation(ctx, ot, [], sv)
        assert len(out) == 0

    def test_empty_oep_output(self):
        ctx = Context(Mode.SIMULATED, seed=1)
        ot = make_ot(ctx)
        sv = share_vector(ctx, ALICE, [1, 2, 3])
        out = oblivious_extended_permutation(ctx, ot, [], sv, 0)
        assert len(out) == 0

    def test_engine_empty_ops(self):
        eng = mk_engine()
        z = eng.zeros(0)
        assert len(eng.mul_shared(z, z)) == 0
        assert len(eng.indicator_nonzero(z)) == 0
        assert len(eng.divide_reveal(z, z)) == 0
        flags, _ = eng.reveal_nonzero_flags(z)
        assert len(flags) == 0

    def test_share_empty(self):
        eng = mk_engine()
        sv = eng.share(BOB, [])
        assert len(sv) == 0 and len(sv.reconstruct()) == 0


class TestEmptyRelations:
    def test_protocol_with_one_empty_relation(self):
        r1 = AnnotatedRelation(("a", "b"), [(1, 2)], [5], RING)
        r2 = AnnotatedRelation(("b",), [], None, RING)
        h = Hypergraph({"R1": ("a", "b"), "R2": ("b",)})
        plan = build_plan(find_free_connex_tree(h, {"a"}), ("a",))
        eng = mk_engine()
        sec = {
            "R1": SecureRelation.from_annotated(ALICE, r1),
            "R2": SecureRelation.from_annotated(BOB, r2),
        }
        result, _ = secure_yannakakis(eng, sec, plan)
        assert len(result) == 0

    def test_protocol_all_annotations_zero(self):
        r1 = AnnotatedRelation(("a",), [(1,), (2,)], [0, 0], RING)
        h = Hypergraph({"R1": ("a",)})
        plan = build_plan(find_free_connex_tree(h, {"a"}), ("a",))
        eng = mk_engine()
        sec = {"R1": SecureRelation.from_annotated(ALICE, r1)}
        result, _ = secure_yannakakis(eng, sec, plan)
        assert len(result) == 0

    def test_single_tuple_single_relation(self):
        r1 = AnnotatedRelation(("a",), [(42,)], [7], RING)
        h = Hypergraph({"R1": ("a",)})
        plan = build_plan(find_free_connex_tree(h, {"a"}), ("a",))
        eng = mk_engine()
        sec = {"R1": SecureRelation.from_annotated(BOB, r1)}
        result, _ = secure_yannakakis(eng, sec, plan)
        assert result.to_dict() == {(42,): 7}


class TestDegenerateComposition:
    def test_divide_with_empty_denominator(self):
        eng = mk_engine()
        num = ObliviousJoinResult(("g",), [(1,)], eng.share(BOB, [4]))
        den = ObliviousJoinResult(
            ("g",), [], SharedVector.zeros(0, eng.ctx.modulus)
        )
        out = divide_compose(eng, num, den)
        assert len(out) == 0

    def test_extreme_annotation_values(self):
        # annotations at the ring boundary survive the whole pipeline
        big = RING.modulus - 1
        r1 = AnnotatedRelation(("a",), [(1,)], [big], RING)
        r2 = AnnotatedRelation(("a",), [(1,)], [1], RING)
        h = Hypergraph({"R1": ("a",), "R2": ("a",)})
        plan = build_plan(find_free_connex_tree(h, {"a"}), ("a",))
        eng = mk_engine()
        sec = {
            "R1": SecureRelation.from_annotated(ALICE, r1),
            "R2": SecureRelation.from_annotated(BOB, r2),
        }
        result, _ = secure_yannakakis(eng, sec, plan)
        assert result.to_dict() == {(1,): big}
