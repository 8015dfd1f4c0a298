"""End-to-end secure Yannakakis: randomized equivalence with the
plaintext algorithm, every ownership split, and whole-protocol
obliviousness."""

import numpy as np
import pytest

from repro.core import SecureRelation, secure_yannakakis
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan, naive_join_aggregate


RING = IntegerRing(32)


def run_secure(rels, owners, output, mode, seed=42):
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    tree = find_free_connex_tree(h, set(output))
    plan = build_plan(tree, tuple(output))
    ctx = Context(mode, seed=seed)
    engine = Engine(ctx)
    sec = {
        n: SecureRelation.from_annotated(owners[n], rels[n])
        for n in rels
    }
    result, stats = secure_yannakakis(engine, sec, plan)
    return result, stats, ctx


def example_11():
    r1 = AnnotatedRelation(
        ("person", "coins"), [("p1", 20), ("p2", 50)], [80, 50], RING
    )
    r2 = AnnotatedRelation(
        ("person", "disease"),
        [("p1", "flu"), ("p1", "cold"), ("p2", "flu"), ("p3", "flu")],
        [100, 30, 200, 70],
        RING,
    )
    r3 = AnnotatedRelation(
        ("disease", "cls"),
        [("flu", "resp"), ("cold", "resp"), ("mal", "trop")],
        None,
        RING,
    )
    return {"R1": r1, "R2": r2, "R3": r3}


OWNER_SPLITS = [
    {"R1": ALICE, "R2": BOB, "R3": ALICE},
    {"R1": BOB, "R2": ALICE, "R3": BOB},
    {"R1": ALICE, "R2": ALICE, "R3": ALICE},
    {"R1": BOB, "R2": BOB, "R3": BOB},
    {"R1": ALICE, "R2": ALICE, "R3": BOB},
]


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
@pytest.mark.parametrize("owners", OWNER_SPLITS)
def test_example_11_all_splits(mode, owners):
    rels = example_11()
    expect = naive_join_aggregate(rels, ["cls"])
    result, stats, _ = run_secure(rels, owners, ("cls",), mode)
    assert result.semantically_equal(expect)
    assert stats.total_bytes > 0 or all(
        o == ALICE for o in owners.values()
    )


SCHEMAS = {
    "chain": {"R1": ("a", "b"), "R2": ("b", "c"), "R3": ("c", "d")},
    "star": {"F": ("a", "b"), "D1": ("a", "x"), "D2": ("b", "y")},
    "two": {"R1": ("a", "b"), "R2": ("b", "c")},
}
OUTPUTS = {
    "chain": [("a",), ("b", "c"), ()],
    "star": [("a", "b"), ("x",)],
    "two": [("b",), ("a", "b"), ()],
}


@pytest.mark.parametrize("shape", sorted(SCHEMAS))
def test_random_queries_simulated(shape):
    schema = SCHEMAS[shape]
    rng = np.random.default_rng(abs(hash(shape)) % 2**31)
    names = sorted(schema)
    for output in OUTPUTS[shape]:
        for trial in range(3):
            rels = {}
            for name, attrs in schema.items():
                n = int(rng.integers(1, 10))
                tuples = [
                    tuple(int(v) for v in rng.integers(0, 4, len(attrs)))
                    for _ in range(n)
                ]
                rels[name] = AnnotatedRelation(
                    attrs, tuples, rng.integers(0, 50, n), RING
                )
            owners = {
                n: (ALICE if i % 2 == 0 else BOB)
                for i, n in enumerate(names)
            }
            expect = naive_join_aggregate(rels, list(output))
            result, _, _ = run_secure(
                rels, owners, output, Mode.SIMULATED, seed=trial
            )
            assert result.semantically_equal(expect), (
                shape, output, trial,
                result.to_dict(), expect.to_dict(),
            )


@pytest.mark.real
def test_real_mode_two_relation_query():
    rng = np.random.default_rng(5)
    r1 = AnnotatedRelation(
        ("a", "b"),
        [(int(x), int(y)) for x, y in rng.integers(0, 3, (6, 2))],
        rng.integers(0, 9, 6),
        RING,
    )
    r2 = AnnotatedRelation(
        ("b", "c"),
        [(int(x), int(y)) for x, y in rng.integers(0, 3, (5, 2))],
        rng.integers(0, 9, 5),
        RING,
    )
    rels = {"R1": r1, "R2": r2}
    expect = naive_join_aggregate(rels, ["b"])
    result, _, _ = run_secure(
        rels, {"R1": ALICE, "R2": BOB}, ("b",), Mode.REAL
    )
    assert result.semantically_equal(expect)


class TestProtocolObliviousness:
    def test_transcript_depends_only_on_shape(self):
        """Same relation sizes, same plan, same OUT — different values
        and different intermediate (hidden!) join sizes."""

        def run(r2_keys):
            r1 = AnnotatedRelation(
                ("a", "b"), [(i, i) for i in range(8)],
                [1] * 8, RING,
            )
            # Both variants produce OUT = 0 (annotations kill results)
            r2 = AnnotatedRelation(
                ("b", "c"), [(k, 0) for k in r2_keys], [0] * 8, RING
            )
            result, _, ctx = run_secure(
                {"R1": r1, "R2": r2},
                {"R1": ALICE, "R2": BOB},
                ("a",),
                Mode.SIMULATED,
                seed=9,
            )
            assert len(result) == 0
            return ctx.transcript.fingerprint()

        # r2 joins everything vs nothing — the *intermediate* join sizes
        # differ wildly, but the transcript must not.
        assert run(list(range(8))) == run(list(range(100, 108)))

    def test_rounds_independent_of_data_size(self):
        """Round count depends on the query, not the data (Section 1.2)."""

        def rounds(n):
            rng = np.random.default_rng(1)
            r1 = AnnotatedRelation(
                ("a", "b"),
                [(int(i), int(i % 3)) for i in range(n)],
                rng.integers(1, 5, n),
                RING,
            )
            r2 = AnnotatedRelation(
                ("b",), [(0,), (1,), (2,)], [1, 1, 1], RING
            )
            _, _, ctx = run_secure(
                {"R1": r1, "R2": r2},
                {"R1": ALICE, "R2": BOB},
                ("a", "b"),
                Mode.SIMULATED,
            )
            return ctx.transcript.rounds

        assert rounds(8) == rounds(64)


def test_whole_protocol_byte_parity_across_modes():
    """REAL and SIMULATED runs of the same query charge identical
    bytes."""
    rels = example_11()

    def run(mode):
        h = Hypergraph({n: r.attributes for n, r in rels.items()})
        tree = find_free_connex_tree(h, {"cls"})
        plan = build_plan(tree, ("cls",))
        ctx = Context(mode, seed=77)
        engine = Engine(ctx)
        sec = {
            n: SecureRelation.from_annotated(o, rels[n])
            for n, o in OWNER_SPLITS[0].items()
        }
        secure_yannakakis(engine, sec, plan)
        return ctx.transcript.total_bytes

    assert run(Mode.REAL) == run(Mode.SIMULATED)


def test_stats_report_phases():
    rels = example_11()
    result, stats, ctx = run_secure(
        rels, OWNER_SPLITS[0], ("cls",), Mode.SIMULATED
    )
    assert stats.total_bytes == ctx.transcript.total_bytes
    assert "reduce" in stats.bytes_by_phase


def _second_run_stats(run):
    """Stats of ``run(engine)`` alone on a fresh context, and as the
    second run on a context another run already used (a fresh engine,
    so both windows open with the same base-OT set-up)."""
    fresh = run(Engine(Context(Mode.SIMULATED, seed=3)))
    ctx = Context(Mode.SIMULATED, seed=3)
    run(Engine(ctx))
    return fresh, run(Engine(ctx)), ctx


def test_stats_of_a_later_run_cover_its_own_window():
    """Bytes AND rounds are the run's message window's — not the whole
    transcript's — from both builders of ``ProtocolStats``:
    ``secure_yannakakis`` and ``PreparedQuery.run_secure``."""
    from repro.query import JoinAggregateQuery
    from repro.tpch import generate, prepare_q3

    query = JoinAggregateQuery(output=("cls",))
    for name, rel in example_11().items():
        query.add_relation(name, rel, owner=OWNER_SPLITS[0][name])
    prepared = prepare_q3(generate(0.1))
    for run in (query.run_secure, prepared.run_secure):
        fresh, second, ctx = _second_run_stats(lambda e: run(e)[1])
        assert fresh.rounds > 0
        assert second.rounds == fresh.rounds
        assert second.total_bytes == fresh.total_bytes
        assert second.bytes_by_phase == fresh.bytes_by_phase
        assert ctx.transcript.rounds > second.rounds
