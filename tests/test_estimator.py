"""The analytic cost estimator against the metered execution."""

import numpy as np
import pytest

from repro.bench.estimator import estimate_plan_cost
from repro.core import SecureRelation, secure_yannakakis
from repro.mpc import ALICE, BOB, Context, Engine, Mode
from repro.mpc.circuits.garbling import SEED_BYTES
from repro.mpc.costs import cot_bytes
from repro.relalg import (
    AnnotatedRelation,
    Hypergraph,
    IntegerRing,
    find_free_connex_tree,
)
from repro.yannakakis import build_plan

from .conftest import TEST_GROUP_BITS

RING = IntegerRing(32)


def run_and_estimate(owners, n1, n2, output=("b",), seed=0):
    rng = np.random.default_rng(seed)
    r1 = AnnotatedRelation(
        ("a", "b"),
        [(int(x), int(y)) for x, y in rng.integers(0, 50, (n1, 2))],
        rng.integers(1, 9, n1),
        RING,
    )
    r2 = AnnotatedRelation(
        ("b", "c"),
        [(int(x), int(y)) for x, y in rng.integers(0, 50, (n2, 2))],
        rng.integers(1, 9, n2),
        RING,
    )
    rels = {"R1": r1, "R2": r2}
    h = Hypergraph({n: r.attributes for n, r in rels.items()})
    plan = build_plan(find_free_connex_tree(h, set(output)), output)
    engine = Engine(Context(Mode.SIMULATED, seed=1), TEST_GROUP_BITS)
    sec = {
        n: SecureRelation.from_annotated(owners[n], rels[n]) for n in rels
    }
    result, stats = secure_yannakakis(engine, sec, plan)
    est = estimate_plan_cost(
        plan,
        {"R1": n1, "R2": n2},
        owners,
        out_size=len(result),
        group_bits=TEST_GROUP_BITS,
    )
    return stats.total_bytes, est


class TestAccuracy:
    @pytest.mark.parametrize("n1,n2", [(10, 10), (40, 25), (7, 60)])
    def test_cross_party_exact(self, n1, n2):
        actual, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, n1, n2, seed=n1
        )
        assert est.total == actual

    def test_reverse_ownership_exact(self):
        actual, est = run_and_estimate({"R1": BOB, "R2": ALICE}, 30, 20)
        assert est.total == actual

    def test_same_party_within_one_percent(self):
        actual, est = run_and_estimate({"R1": ALICE, "R2": ALICE}, 40, 25)
        assert abs(est.total - actual) <= 0.01 * actual

    def test_semijoin_phase_estimated(self):
        # Output on both ends forces the semijoin/full-join phases.
        actual, est = run_and_estimate(
            {"R1": ALICE, "R2": BOB}, 20, 20, output=("a", "b", "c")
        )
        assert abs(est.total - actual) <= 0.02 * actual


class TestBreakdown:
    def test_parts_sum_to_total(self):
        _, est = run_and_estimate({"R1": ALICE, "R2": BOB}, 15, 15)
        assert sum(est.by_part.values()) == est.total

    def test_gc_tables_present_for_cross_party(self):
        _, est = run_and_estimate({"R1": ALICE, "R2": BOB}, 15, 15)
        assert est.by_part.get("gc_tables", 0) > 0
        assert est.by_part.get("oprf", 0) > 0

    def test_estimate_scales_linearly(self):
        _, small = run_and_estimate({"R1": ALICE, "R2": BOB}, 20, 20)
        _, big = run_and_estimate({"R1": ALICE, "R2": BOB}, 80, 80)
        ratio = big.total / small.total
        assert 2.5 < ratio < 6  # ~4x data, ~linear cost


class TestByteBudgetPin:
    """Q3 at 1 MB, SIMULATED, yannakakis: the wire format's bottom line.
    A change to a primitive's wire size is made in ``mpc/costs.py`` —
    and then here, knowingly."""

    TOTAL = 59_793_848
    #: bytes per label class (the benchmark's ``mpc.bytes.*`` split),
    #: base OTs excluded
    GROUPS = {
        "gc/bob_labels": 64,
        "gc/alice_labels/": 13_239_568,
        "/switches/": 4_292_592,
        "/cross": 2_880_000,
    }

    @pytest.fixture(scope="class")
    def messages(self):
        from repro.tpch.datagen import generate
        from repro.tpch.queries import PREPARED

        query = PREPARED["Q3"](generate(1))
        ctx = query.make_context(Mode.SIMULATED, seed=7)
        engine = Engine(ctx)
        engine.backend = "yannakakis"
        query.run_secure(engine)
        return ctx.transcript.messages

    def test_total_and_label_groups(self, messages):
        assert sum(m.n_bytes for m in messages) == self.TOTAL
        messages = [m for m in messages if "/base/" not in m.label]
        for pattern, want in self.GROUPS.items():
            got = sum(m.n_bytes for m in messages if pattern in m.label)
            assert got == want, pattern

    def test_groups_follow_the_closed_forms(self, messages):
        """One seed per garbled batch; every uniform-width C-OT batch is
        ``(kappa/8 per 8 OTs, one ciphertext per OT)``."""
        messages = [m for m in messages if "/base/" not in m.label]
        seeds = [m for m in messages if m.label.endswith("gc/bob_labels")]
        tables = [m for m in messages if m.label.endswith("gc/tables")]
        assert [m.n_bytes for m in seeds] == [SEED_BYTES] * len(tables)
        for pattern, width in (("gc/alice_labels/", 16), ("/cross", 4)):
            batch = [m.n_bytes for m in messages if pattern in m.label]
            for u, ct in zip(batch[::2], batch[1::2]):
                assert cot_bytes(128, [(ct // width, width)]) == (u, ct)
