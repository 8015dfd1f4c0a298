"""The garbled-circuit baseline: cost model and the runnable circuit."""

import time

import pytest

from repro.baselines import (
    cartesian_gc_cost,
    gc_gate_rate,
    run_cartesian_gc,
)
from repro.baselines import garbled_baseline
from repro.baselines.garbled_baseline import per_combo_and_gates
from repro.mpc import ALICE, BOB, Context, Engine, Mode, costs
from repro.mpc.ot import SoftSpokenExtension
from repro.relalg import AnnotatedRelation, IntegerRing
from repro.tpch import generate, prepare_q3
from repro.yannakakis import naive_join_aggregate


RING = IntegerRing(32)


def rel(attrs, tuples):
    return AnnotatedRelation(attrs, tuples, None, RING)


class TestCostModel:
    def test_combos_multiply(self):
        cost = cartesian_gc_cost([10, 20, 30], 2, gate_rate=1e6)
        assert cost.combos == 6000
        assert cost.and_gates == 6000 * per_combo_and_gates(2)

    def test_runs_scale_linearly(self):
        one = cartesian_gc_cost([5, 5], 1, gate_rate=1e6, runs=1)
        fifty = cartesian_gc_cost([5, 5], 1, gate_rate=1e6, runs=50)
        assert fifty.and_gates == 50 * one.and_gates

    def test_polynomial_growth(self):
        # doubling every relation of a 3-way join: 8x the gates
        small = cartesian_gc_cost([10, 10, 10], 2, gate_rate=1e6)
        big = cartesian_gc_cost([20, 20, 20], 2, gate_rate=1e6)
        assert big.and_gates == 8 * small.and_gates

    def test_time_inversely_proportional_to_rate(self):
        slow = cartesian_gc_cost([10, 10], 1, gate_rate=1e3)
        fast = cartesian_gc_cost([10, 10], 1, gate_rate=1e6)
        assert slow.est_seconds == pytest.approx(
            1000 * fast.est_seconds
        )

    def test_bytes_are_one_garbled_batch(self):
        """The baseline's bytes come from the one cost model: one
        garbled batch of its counts, every input bit an evaluator
        label OT (only its ``u`` crosses)."""
        cost = cartesian_gc_cost([10, 20, 30], 2, gate_rate=1e6)
        sizes = costs.garbled_bytes(
            costs.CircuitCounts(cost.and_gates, cost.input_bits, 0, 0, 0),
            1, 32,
        )
        u, _ = costs.cot_bytes(128, [(cost.input_bits, 0)])
        assert cost.comm_bytes == sizes.tables + sizes.seed + u
        assert cost.comm_bytes == 24 * cost.and_gates + (
            cost.and_gates + 1
        ) // 2 + 16 + 32 * ((cost.input_bits + 7) // 8)

    def test_gate_rate_measured_positive(self, monkeypatch):
        # The rate multiplies a gate count, so nothing that does not
        # scale with the circuit may be timed: the extension's base
        # phase runs before the clock starts.
        events = []

        def spy(name, real):
            def wrapped(*args):
                events.append(name)
                return real(*args)

            return wrapped

        base = SoftSpokenExtension._base_phase
        monkeypatch.setattr(
            SoftSpokenExtension, "_base_phase", spy("base", base)
        )
        monkeypatch.setattr(
            garbled_baseline.time, "perf_counter",
            spy("clock", time.perf_counter),
        )
        rate = gc_gate_rate.__wrapped__()
        assert rate > 100  # even pure Python garbles >100 gates/s
        assert events == ["base", "clock", "clock"]


@pytest.mark.parametrize("mode", [Mode.SIMULATED, Mode.REAL])
class TestRunnableBaseline:
    def test_counts_join_results(self, mode):
        r1 = rel(("a", "b"), [(1, 1), (2, 2), (3, 1)])
        r2 = rel(("b", "c"), [(1, 5), (2, 5), (1, 6)])
        engine = Engine(Context(mode, seed=4))
        count = run_cartesian_gc(
            engine, {"R1": (r1, ALICE), "R2": (r2, BOB)}
        )
        expect = naive_join_aggregate(
            {"R1": r1, "R2": r2}, []
        ).to_dict()
        assert count == expect.get((), 0)

    def test_three_way(self, mode):
        r1 = rel(("a",), [(1,), (2,)])
        r2 = rel(("a", "b"), [(1, 5), (2, 6)])
        r3 = rel(("b",), [(5,)])
        engine = Engine(Context(mode, seed=5))
        count = run_cartesian_gc(
            engine,
            {"R1": (r1, ALICE), "R2": (r2, BOB), "R3": (r3, ALICE)},
        )
        assert count == 1

    def test_rejects_non_integer_keys(self, mode):
        r1 = rel(("a",), [("x",)])
        engine = Engine(Context(mode, seed=6))
        with pytest.raises(TypeError):
            run_cartesian_gc(engine, {"R1": (r1, ALICE)})


class TestBaselineVsSecureYannakakis:
    def test_baseline_loses_by_orders_of_magnitude(self):
        dataset = generate(1)
        query = prepare_q3(dataset)
        ctx = query.make_context(Mode.SIMULATED, seed=1)
        _, stats = query.run_secure(Engine(ctx))
        gc = cartesian_gc_cost(
            query.gc_sizes, query.gc_conditions, gate_rate=gc_gate_rate()
        )
        assert gc.comm_bytes > 1000 * stats.total_bytes
        assert gc.est_seconds > 1000 * stats.seconds


def test_nonprivate_baseline_reports_input_as_comm():
    # The non-private baseline is the plaintext run; by the paper's
    # convention it communicates the effective input size.
    query = prepare_q3(generate(1))
    result, seconds = query.run_plain()
    assert 0 < query.effective_bytes
    assert seconds < 5
    assert len(result) > 0
