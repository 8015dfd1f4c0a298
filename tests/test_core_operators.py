"""The oblivious operators (Section 6.1/6.2) against plaintext
semantics, across ownership and annotation regimes."""

from functools import partial

import numpy as np
import pytest

from repro.core import (
    SecureAnnotations,
    SecureRelation,
    is_dummy_tuple,
    oblivious_aggregate,
    oblivious_reduce_join,
    oblivious_semijoin,
    oblivious_support_projection,
)
from repro.mpc import ALICE, BOB, Mode
from repro.relalg import (
    AnnotatedRelation,
    IntegerRing,
    aggregate,
    join,
    semijoin,
    support_projection,
)

from .conftest import make_engine

RING = IntegerRing(32)


mk_engine = partial(make_engine, seed=31)


def secure(owner, rel, engine=None, shared=False):
    sec = SecureRelation.from_annotated(owner, rel)
    if shared:
        assert engine is not None
        sec.annotations = SecureAnnotations.shared(
            engine.share(owner, rel.annotations)
        )
    return sec


def plain_rel(attrs, tuples, annots=None):
    return AnnotatedRelation(attrs, tuples, annots, RING)


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
@pytest.mark.parametrize("owner", [ALICE, BOB])
@pytest.mark.parametrize("shared", [False, True])
class TestObliviousAggregate:
    def test_matches_plaintext(self, mode, owner, shared):
        eng = mk_engine(mode)
        rel = plain_rel(
            ("a", "b"),
            [(1, 10), (2, 20), (1, 30), (3, 40), (1, 50)],
            [5, 6, 7, 8, 9],
        )
        sec = secure(owner, rel, eng, shared)
        out = oblivious_aggregate(eng, sec, ("a",))
        assert len(out) == len(rel)  # size-preserving (padded)
        assert out.owner == owner
        assert out.to_annotated(eng.ctx).semantically_equal(
            aggregate(rel, ("a",))
        )

    def test_support_projection(self, mode, owner, shared):
        eng = mk_engine(mode)
        rel = plain_rel(
            ("a", "b"), [(1, 1), (1, 2), (2, 1), (3, 1)], [0, 4, 0, 6]
        )
        sec = secure(owner, rel, eng, shared)
        out = oblivious_support_projection(eng, sec, ("a",))
        assert len(out) == len(rel)
        assert out.to_annotated(eng.ctx).semantically_equal(
            support_projection(rel, ("a",))
        )


class TestAggregateDetails:
    def test_dummy_padding_positions(self):
        eng = mk_engine()
        rel = plain_rel(("a",), [(1,), (1,), (2,)], [5, 6, 7])
        out = oblivious_aggregate(
            eng, secure(ALICE, rel, eng, True), ("a",)
        )
        dummies = [t for t in out.tuples if is_dummy_tuple(t)]
        assert len(dummies) == 1  # 2 groups out of 3 tuples

    def test_empty_relation(self):
        eng = mk_engine()
        rel = plain_rel(("a", "b"), [])
        out = oblivious_aggregate(eng, secure(BOB, rel), ("b",))
        assert len(out) == 0

    def test_plain_fast_path_is_free(self):
        eng = mk_engine()
        rel = plain_rel(("a",), [(i % 4,) for i in range(50)])
        before = eng.ctx.transcript.total_bytes
        oblivious_aggregate(eng, secure(ALICE, rel), ("a",))
        assert eng.ctx.transcript.total_bytes == before

    def test_scalar_aggregation(self):
        eng = mk_engine()
        rel = plain_rel(("a",), [(1,), (2,)], [10, 20])
        out = oblivious_aggregate(
            eng, secure(ALICE, rel, eng, True), ()
        )
        total = out.annotations.reconstruct().sum() % eng.ctx.modulus
        assert total == 30


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestReduceJoin:
    @pytest.mark.parametrize(
        "owners", [(ALICE, BOB), (BOB, ALICE), (ALICE, ALICE), (BOB, BOB)]
    )
    def test_cross_and_same_owner(self, mode, owners):
        eng = mk_engine(mode)
        parent = plain_rel(
            ("a", "b"), [(1, 1), (2, 2), (3, 3), (4, 4)], [2, 3, 4, 5]
        )
        child = plain_rel(("a",), [(1,), (3,), (9,)], [10, 20, 0])
        p = secure(owners[0], parent, eng, shared=True)
        c = secure(owners[1], child, eng, shared=True)
        out = oblivious_reduce_join(eng, p, c)
        # Same tuples as the parent; only the annotations change.
        assert out.tuples == parent.tuples
        expect = join(parent, child)
        assert out.to_annotated(eng.ctx).semantically_equal(expect)

    def test_plain_payload_fast_path(self, mode):
        eng = mk_engine(mode)
        parent = plain_rel(("a",), [(1,), (2,)], [5, 7])
        child = plain_rel(("a",), [(2,)], [100])
        out = oblivious_reduce_join(
            eng, secure(ALICE, parent), secure(BOB, child)
        )
        assert out.to_annotated(eng.ctx).semantically_equal(
            join(parent, child)
        )

    def test_same_owner_all_plain_stays_plain(self, mode):
        eng = mk_engine(mode)
        parent = plain_rel(("a",), [(1,), (2,)], [5, 7])
        child = plain_rel(("a",), [(1,)], [3])
        out = oblivious_reduce_join(
            eng, secure(ALICE, parent), secure(ALICE, child)
        )
        assert out.annotations.kind == "plain"
        assert out.to_annotated(eng.ctx).semantically_equal(
            join(parent, child)
        )

    def test_scalar_child(self, mode):
        eng = mk_engine(mode)
        parent = plain_rel(("a",), [(1,), (2,)], [5, 7])
        child = AnnotatedRelation((), [(), ()], [3, 4], RING)
        out = oblivious_reduce_join(
            eng,
            secure(ALICE, parent, eng, True),
            secure(BOB, child, eng, True),
        )
        assert list(
            out.annotations.reconstruct()
        ) == [35, 49]

    def test_attr_subset_enforced(self, mode):
        eng = mk_engine(mode)
        parent = plain_rel(("a",), [(1,)])
        child = plain_rel(("z",), [(1,)])
        with pytest.raises(ValueError):
            oblivious_reduce_join(
                eng, secure(ALICE, parent), secure(BOB, child)
            )


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestSemijoin:
    def test_zero_annotates_dangling(self, mode):
        eng = mk_engine(mode)
        target = plain_rel(
            ("a", "b"), [(1, 1), (2, 2), (3, 3)], [5, 6, 7]
        )
        filt = plain_rel(("b", "c"), [(1, 9), (3, 9)], [1, 0])
        t = secure(ALICE, target, eng, shared=True)
        f = secure(BOB, filt, eng, shared=True)
        out = oblivious_semijoin(eng, t, f)
        assert out.tuples == target.tuples
        assert out.to_annotated(eng.ctx).semantically_equal(
            semijoin(target, filt)
        )

    def test_disconnected_filter(self, mode):
        # No shared attributes: the filter acts as a global gate.
        eng = mk_engine(mode)
        target = plain_rel(("a",), [(1,), (2,)], [5, 6])
        filt_on = plain_rel(("z",), [(9,)], [1])
        filt_off = plain_rel(("z",), [(9,)], [0])
        t = secure(ALICE, target, eng, shared=True)
        on = oblivious_semijoin(
            eng, t, secure(BOB, filt_on, eng, shared=True)
        )
        assert list(on.annotations.reconstruct()) == [5, 6]
        off = oblivious_semijoin(
            eng, t, secure(BOB, filt_off, eng, shared=True)
        )
        assert list(off.annotations.reconstruct()) == [0, 0]


class TestOperatorObliviousness:
    def test_aggregate_traffic_value_independent(self):
        def run(annots):
            eng = mk_engine(seed=11)
            rel = plain_rel(
                ("a",), [(i,) for i in range(12)], annots
            )
            oblivious_aggregate(
                eng, secure(ALICE, rel, eng, True), ("a",)
            )
            return eng.ctx.transcript.fingerprint()

        assert run(list(range(12))) == run([0] * 12)

    def test_reduce_join_traffic_value_independent(self):
        def run(parent_keys, child_keys):
            eng = mk_engine(seed=12)
            parent = plain_rel(
                ("a",), [(k,) for k in parent_keys], [1] * len(parent_keys)
            )
            child = plain_rel(
                ("a",), [(k,) for k in child_keys], [1] * len(child_keys)
            )
            oblivious_reduce_join(
                eng,
                secure(ALICE, parent, eng, True),
                secure(BOB, child, eng, True),
            )
            return eng.ctx.transcript.fingerprint()

        # full overlap vs no overlap: identical traffic
        assert run(range(10), range(5)) == run(range(10), range(50, 55))


class TestPreconditionGuards:
    def test_same_owner_duplicate_child_rejected(self):
        eng = mk_engine()
        parent = plain_rel(("a",), [(1,)], [1])
        child = plain_rel(("a",), [(1,), (1,)], [2, 3])
        with pytest.raises(ValueError, match="distinct"):
            oblivious_reduce_join(
                eng,
                secure(ALICE, parent, eng, True),
                secure(ALICE, child, eng, True),
            )

    def test_cross_owner_duplicate_child_rejected(self):
        eng = mk_engine()
        parent = plain_rel(("a",), [(1,)], [1])
        child = plain_rel(("a",), [(1,), (1,)], [2, 3])
        with pytest.raises(ValueError, match="distinct"):
            oblivious_reduce_join(
                eng,
                secure(ALICE, parent, eng, True),
                secure(BOB, child, eng, True),
            )


# ----------------------------------------------------------------------
# DESIGN.md's ablations at 256 rows: exact SIMULATED bytes with /
# without each design choice (the table in EXPERIMENTS.md)
# ----------------------------------------------------------------------


def _rel(engine, owner, arity, shared, seed, n=256):
    rng = np.random.default_rng(seed)
    rows = map(tuple, rng.integers(0, n, (n, arity)).tolist())
    tuples = list(dict.fromkeys(rows))  # PSI sides hold distinct tuples
    attrs = tuple(f"a{i}" for i in range(arity))
    rel = plain_rel(attrs, tuples, rng.integers(1, 100, len(tuples)))
    return secure(owner, rel, engine, shared)


def _join(op, parent, child):
    return lambda e: op(e, _rel(e, *parent, seed=1), _rel(e, *child, seed=2))


def _mul(via):
    def run(e):
        x, y = np.random.default_rng(0).integers(0, 1000, (2, 256))
        e.mul_shared(e.share(ALICE, x), e.share(BOB, y), via=via)

    return run


A2, A1, B1 = (ALICE, 2, True), (ALICE, 1, True), (BOB, 1, True)

ABLATIONS = {
    # Section 6.2: a same-party reduce-join needs no PSI.
    "same_party_shortcut": (
        _join(oblivious_reduce_join, A2, A1),
        _join(oblivious_reduce_join, A2, B1),
        (145_693, 1_003_408),
    ),
    # Section 6.5: owner-known annotations vs forced sharing.
    "plain_annotation_fast_path": (
        _join(oblivious_reduce_join, (ALICE, 2, False), (BOB, 1, False)),
        _join(oblivious_reduce_join, A2, B1),
        (290_523, 1_003_408),
    ),
    # Section 5.1: Gilboa OT-multiplication vs a garbled multiplier.
    "gilboa_vs_garbled_multiplier": (
        _mul("ot"), _mul("gc"), (113_313, 6_725_681),
    ),
    # Why reduce comes first: a semijoin filter of arity 1 vs arity 4.
    "reduced_semijoin_filter": (
        _join(oblivious_semijoin, A2, B1),
        _join(oblivious_semijoin, A2, (BOB, 4, True)),
        (1_177_859, 1_309_624),
    ),
}


@pytest.mark.parametrize("choice", ABLATIONS)
def test_design_choice_ablation(choice):
    *runs, want = ABLATIONS[choice]
    engines = [mk_engine() for _ in runs]
    for run, engine in zip(runs, engines):
        run(engine)
    got = tuple(e.ctx.transcript.total_bytes for e in engines)
    assert got == want and got[0] < got[1]
