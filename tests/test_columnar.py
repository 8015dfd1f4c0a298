"""The columnar data plane (PR 6): boundary regressions, store laws,
columnar-vs-reference operator equivalence, representation independence
of the secure transcript, and the SQL baseline."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SecureRelation, secure_yannakakis
from repro.fuzz.generator import TINY_CONFIG, generate_instance
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.params import SecurityParams
from repro.mpc.sharing import as_ring_column
from repro.relalg import AnnotatedRelation, IntegerRing
from repro.relalg.columns import (
    Column,
    TupleStore,
    fresh_nonces,
    group_by_first_appearance,
    is_dummy_tuple,
    joint_row_codes,
    lex_rank,
    unify_codes,
)
from repro.baselines import run_sql_baseline, sql_backend_name

from . import relalg_reference



# ----------------------------------------------------------------------
# satellite 1: integer-width boundary regressions
# ----------------------------------------------------------------------


class TestAnnotationBoundaries:
    """Annotations at and above 2^63 must survive normalisation exactly.

    The seed's int64 round-trip silently wrapped ``uint64`` inputs
    >= 2^63 and overflowed outright for ``ell = 63`` moduli."""

    def test_ell_63_top_of_ring_exact(self):
        ring = IntegerRing(63)
        values = np.asarray(
            [2**62, 2**63 - 1, 2**62 + 17], dtype=np.uint64
        )
        rel = AnnotatedRelation(("a",), [(0,), (1,), (2,)], values, ring)
        assert rel.annotations.tolist() == [2**62, 2**63 - 1, 2**62 + 17]

    def test_uint64_above_2_63_reduces_without_overflow(self):
        # numpy raises OverflowError on ``int64_array % 2**63`` — the
        # normalisation must stay in uint64 space the whole way.
        ring = IntegerRing(63)
        values = np.asarray([2**63 + 5, 2**64 - 1], dtype=np.uint64)
        rel = AnnotatedRelation(("a",), [(0,), (1,)], values, ring)
        assert rel.annotations.tolist() == [5, 2**63 - 1]

    def test_python_int_annotations_above_int64(self):
        ring = IntegerRing(63)
        rel = AnnotatedRelation(("a",), [(0,)], [2**64 - 1], ring)
        assert int(rel.annotations[0]) == 2**63 - 1

    def test_negative_int64_wraps(self):
        ring = IntegerRing(63)
        values = np.asarray([-1, -(2**62)], dtype=np.int64)
        rel = AnnotatedRelation(("a",), [(0,), (1,)], values, ring)
        assert rel.annotations.tolist() == [2**63 - 1, 2**63 - 2**62]

    @pytest.mark.parametrize("ell", [32, 63])
    def test_as_ring_column_boundaries(self, ell):
        mod = 1 << ell
        arr = np.asarray([2**63, 2**64 - 1, 0], dtype=np.uint64)
        out = as_ring_column(arr, mod)
        assert out.dtype == np.uint64
        assert out.tolist() == [
            2**63 % mod, (2**64 - 1) % mod, 0
        ]

    def test_share_column_round_trips_high_values(self):
        ctx = Context(Mode.SIMULATED, SecurityParams(ell=63), seed=3)
        engine = Engine(ctx)
        values = np.asarray([2**62, 2**63 - 1, 12345], dtype=np.uint64)
        sv = engine.share_column(ALICE, values)
        back = engine.reconstruct_column(sv, to=BOB)
        assert back.tolist() == values.tolist()


# ----------------------------------------------------------------------
# tentpole: TupleStore laws
# ----------------------------------------------------------------------


ROWS = [(1, "x", 7), (2, "y", 7), (1, "x", 9), (3, "z", 7)]
ATTRS = ("a", "b", "c")
INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def unique_row_codes(stores):
    """The row codes as ``np.unique(axis=0)`` ranks them: the
    ``(nonce, sanitised codes...)`` rows of every store, stacked."""
    per_attr = [
        unify_codes([s.columns[j] for s in stores])
        for j in range(stores[0].arity)
    ]
    mats = [
        np.stack(
            [s.nonce] + [codes[i] * (s.nonce == 0) for codes in per_attr],
            axis=1,
        )
        for i, s in enumerate(stores)
    ]
    _, inv = np.unique(np.concatenate(mats), axis=0, return_inverse=True)
    return np.split(inv.reshape(-1), np.cumsum([s.n for s in stores])[:-1])


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    k=st.integers(1, 3),
)
@example(seed=0, n=0, k=2)
@example(seed=1, n=25, k=1)
def test_lex_rank_equals_unique_rows(seed, n, k):
    """Dense lexicographic ranks, exactly ``np.unique(axis=0)``'s
    inverse: duplicates, negatives and the int64 extremes."""
    rng = np.random.default_rng(seed)
    mat = rng.integers(-3, 3, size=(n, k))
    extreme = rng.random((n, k)) < 0.3
    mat[extreme] = rng.choice(
        [INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX], size=extreme.sum()
    )
    _, inv = np.unique(mat, axis=0, return_inverse=True)
    got = lex_rank([mat[:, j] for j in range(k)])
    assert got.tolist() == inv.reshape(-1).tolist()


class TestTupleStore:
    def test_round_trip(self):
        store = TupleStore.from_tuples(ATTRS, ROWS)
        assert store.materialize() == ROWS

    def test_from_columns_equals_from_tuples(self):
        cols = [
            Column.from_values([row[i] for row in ROWS])
            for i in range(len(ATTRS))
        ]
        a = TupleStore.from_columns(ATTRS, cols)
        b = TupleStore.from_tuples(ATTRS, ROWS)
        assert a.materialize() == b.materialize()

    def test_take_project_concat(self):
        store = TupleStore.from_tuples(ATTRS, ROWS)
        taken = store.take(np.asarray([3, 0]))
        assert taken.materialize() == [ROWS[3], ROWS[0]]
        proj = store.project(("c", "a"))
        assert proj.materialize() == [(r[2], r[0]) for r in ROWS]
        both = store.concat(taken)
        assert both.materialize() == ROWS + [ROWS[3], ROWS[0]]

    def test_joint_row_codes_group_equal_rows(self):
        store = TupleStore.from_tuples(ATTRS, ROWS)
        (codes,) = joint_row_codes([store])
        # rows 0 and 2 differ only in c; all four rows are distinct
        assert len(np.unique(codes)) == 4
        dup = TupleStore.from_tuples(ATTRS, ROWS + [ROWS[0]])
        (codes2,) = joint_row_codes([dup])
        assert codes2[0] == codes2[4]

    def test_joint_row_codes_rank_like_unique_rows_with_dummies(self):
        rng = np.random.default_rng(4)
        stores = []
        for n in (0, 7, 40):
            ints = rng.integers(-2, 2, n)
            ints[:2] = [INT64_MIN, INT64_MAX][:n]
            names = [f"v{i}" for i in rng.integers(0, 3, n)]
            store = TupleStore.from_columns(("a", "b"), [ints, names])
            pad = fresh_nonces(int(rng.integers(0, 4)))
            stores.append(store.with_dummies(pad))
        got = joint_row_codes(stores)
        want = unique_row_codes(stores)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_group_by_first_appearance_order(self):
        gid, first = group_by_first_appearance(
            np.asarray([5, 3, 5, 9, 3], dtype=np.int64)
        )
        assert gid.tolist() == [0, 1, 0, 2, 1]
        assert first.tolist() == [0, 1, 3]

    def test_dummy_rows_survive_round_trip(self):
        store = TupleStore.from_tuples(ATTRS, ROWS).with_dummies(
            fresh_nonces(2)
        )
        rows = store.materialize()
        assert rows[:4] == ROWS
        assert all(is_dummy_tuple(t) for t in rows[4:])
        # dummy markers are pairwise distinct (fresh nonces)
        assert rows[4] != rows[5]


# ----------------------------------------------------------------------
# satellite 3a: columnar operators vs the retained tuple-path reference
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_columnar_matches_reference_operators(seed):
    """Over fuzz-generated free-connex instances, the columnar plan
    execution returns exactly the tuple path's result — tuples,
    order, and annotations (dummies included, via ``replace``-free
    comparison on the raw outputs)."""
    inst = generate_instance(seed, 0)
    query = inst.query()
    col = query.run_plain()
    ref = query.run_plain(operators=relalg_reference)
    assert col.attributes == ref.attributes
    assert col.tuples == ref.tuples
    assert col.annotations.tolist() == ref.annotations.tolist()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_columnar_matches_naive_oracle(seed):
    inst = generate_instance(seed, 1)
    query = inst.query()
    assert query.run_plain().semantically_equal(query.run_naive())


# ----------------------------------------------------------------------
# satellite 3b: representation independence of the secure transcript
# ----------------------------------------------------------------------


def _rebuilt_from_columns(rel: AnnotatedRelation) -> AnnotatedRelation:
    """The same relation, ingested column-wise instead of row-wise."""
    cols = [
        Column.from_values([t[i] for t in rel.tuples])
        for i in range(len(rel.attributes))
    ]
    store = TupleStore.from_columns(rel.attributes, cols)
    return AnnotatedRelation(
        rel.attributes, store, rel.annotations, rel.semiring
    )


def _secure_fingerprint(inst, relations):
    from repro.yannakakis import build_plan
    from repro.relalg import find_free_connex_tree

    tree = find_free_connex_tree(inst.hypergraph(), set(inst.output))
    plan = build_plan(tree, inst.output)
    ctx = Context(
        Mode.SIMULATED, SecurityParams(ell=inst.ell), seed=11
    )
    engine = Engine(ctx)
    inputs = {
        n: SecureRelation.from_annotated(inst.owners[n], relations[n])
        for n in relations
    }
    result, _ = secure_yannakakis(engine, inputs, plan)
    return result, ctx.transcript.fingerprint()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ingest_representation_does_not_change_transcript(seed):
    """from_tuples- and from_columns-built inputs are the *same*
    relation; the secure run must agree on every result tuple and on
    every transcript message fingerprint."""
    inst = generate_instance(seed, 2, TINY_CONFIG)
    res_a, fp_a = _secure_fingerprint(inst, inst.relations)
    rebuilt = {
        n: _rebuilt_from_columns(r) for n, r in inst.relations.items()
    }
    res_b, fp_b = _secure_fingerprint(inst, rebuilt)
    assert fp_a == fp_b
    assert res_a.semantically_equal(res_b)


# ----------------------------------------------------------------------
# satellite 2: the honest-engine SQL baseline
# ----------------------------------------------------------------------


class TestSqlBaseline:
    def test_backend_is_available(self):
        assert sql_backend_name() in ("duckdb", "sqlite3")

    def test_matches_yannakakis_on_q3_shape(self):
        ring = IntegerRing(32)
        orders = AnnotatedRelation(
            ("okey", "ckey"), [(1, 10), (2, 10), (3, 20)], [1, 1, 1], ring
        )
        customer = AnnotatedRelation(
            ("ckey",), [(10,), (20,), (30,)], [2, 3, 5], ring
        )
        lineitem = AnnotatedRelation(
            ("okey",), [(1,), (1,), (2,)], [7, 11, 13], ring
        )
        from repro.query import JoinAggregateQuery

        q = (
            JoinAggregateQuery(output=["ckey"])
            .add_relation("orders", orders, owner=ALICE)
            .add_relation("customer", customer, owner=BOB)
            .add_relation("lineitem", lineitem, owner=ALICE)
        )
        sql = run_sql_baseline(q.relations, list(q.output))
        assert sql.result.semantically_equal(q.run_plain())
        assert sql.seconds >= 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_yannakakis_on_fuzz_instances(self, seed):
        inst = generate_instance(seed, 3)
        query = inst.query()
        sql = run_sql_baseline(
            query.relations, list(query.output), ell=inst.ell
        )
        assert sql.result.semantically_equal(query.run_plain())

    def test_dummy_tuples_excluded(self):
        ring = IntegerRing(32)
        store = TupleStore.from_tuples(("a",), [(1,), (2,)]).with_dummies(
            fresh_nonces(3)
        )
        rel = AnnotatedRelation(
            ("a",), store, [5, 6, 1, 1, 1], ring
        )
        sql = run_sql_baseline({"R": rel}, ["a"])
        assert sorted(sql.result.tuples) == [(1,), (2,)]
