"""The tenant-isolation battery.

The serving layer's hard guarantee, stated in ``docs/SERVING.md``: a
crashed or faulted session leaves every other tenant's transcript
**byte-identical** to its solo run.  These tests prove it:

* dual-session chaos sweeps — every message-fault kind at strided wire
  indices in session A, plus a party crash at every plan node — assert
  session B's :class:`~repro.runtime.chaos.RunProfile` (rows, bytes,
  rounds, full transcript fingerprint) equals its solo baseline at
  every point, under both interleave policies (full-stride sweeps run
  in the nightly ``repro serve --isolation-sweep`` job);
* arbitrary worker crashes (not just protocol aborts) are contained;
* a sampled sweep in REAL mode (actual OT/garbling/OPRF bytes);
* the acceptance run: all five TPC-H queries served concurrently match
  their solo fingerprints exactly.

Runtime note: tier-1 keeps each sweep to a few dozen points via
``stride``; nightly runs stride 1.
"""

from __future__ import annotations

import pytest

from repro.fuzz.generator import GeneratorConfig, generate_instance
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve import (
    DONE,
    FAILED,
    QueryRequest,
    QueryService,
    isolation_sweep,
    run_solo,
    run_workload,
    tpch_request,
)

pytestmark = pytest.mark.serve

SMALL = GeneratorConfig(max_relations=3, max_tuples=4)
#: Minimal instances for REAL mode (sub-second per run).
TINY = GeneratorConfig(
    min_relations=2,
    max_relations=2,
    max_arity=2,
    max_private_attrs=1,
    max_tuples=3,
)


def factory(master_seed, tenant, name, mode=None, config=SMALL):
    """A RequestFactory over one fuzz instance (fresh query per call:
    relations are re-wrapped per run)."""
    inst = generate_instance(master_seed, 0, config)

    def make(faults):
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        return QueryRequest(
            tenant=tenant,
            name=name,
            query=inst.query(),
            seed=5,
            faults=faults,
            **kwargs,
        )

    return make


class TestDualSessionSweep:
    @pytest.mark.parametrize("interleave", ["round_robin", "clock"])
    def test_faults_in_a_never_touch_b(self, interleave):
        report = isolation_sweep(
            factory(101, "a", "victim"),
            factory(202, "b", "observer"),
            interleave=interleave,
            stride=7,
        )
        assert report.outcomes, "sweep produced no fault points"
        # Observer drift is a VIOLATION like any other.
        assert report.ok, f"{report.summary()}\n" + "\n".join(
            str(o) for o in report.violations
        )

    def test_crashes_at_every_node_contained(self):
        """Party crashes (node-scoped, the harshest fault) only."""
        report = isolation_sweep(
            factory(101, "a", "victim"),
            factory(202, "b", "observer"),
            kinds=("crash",),
        )
        # every plan node of the victim was crashed at least once
        assert len(report.outcomes) == len(report.baseline.nodes_seen)
        assert report.ok, report.summary()

    @pytest.mark.real
    def test_sampled_sweep_real_mode(self):
        """Sampled fault points with actual cryptography on the wire."""
        from repro.mpc import Mode

        report = isolation_sweep(
            factory(8, "a", "victim", mode=Mode.REAL, config=TINY),
            factory(7, "b", "observer", mode=Mode.REAL, config=TINY),
            kinds=("corrupt", "drop"),
            stride=5,
        )
        assert report.outcomes
        assert report.ok, report.summary()


class TestCrashContainment:
    def test_arbitrary_worker_crash_is_contained(self):
        """A non-protocol exception in one session's worker (a bug, not
        an injected fault) must not perturb the other session."""

        def exploding(engine):
            raise RuntimeError("tenant bug")

        baseline = run_solo(
            QueryRequest(
                tenant="b",
                name="observer",
                query=generate_instance(202, 0, SMALL).query(),
                seed=5,
            )
        )
        assert baseline.state == DONE

        svc = QueryService()
        svc.submit(
            QueryRequest(tenant="a", name="boom", run=exploding, ell=32)
        )
        svc.submit(
            QueryRequest(
                tenant="b",
                name="observer",
                query=generate_instance(202, 0, SMALL).query(),
                seed=5,
            )
        )
        report = svc.run()
        crashed, observer = svc.sessions
        assert crashed.state == FAILED
        assert isinstance(crashed.error, RuntimeError)
        assert observer.state == DONE
        assert observer.profile.diff(baseline.profile) == ""
        assert report.counts == {"done": 1, "failed": 1}

    def test_victim_crash_mid_protocol(self):
        """A peer crash partway through the victim's plan: the victim
        fails cleanly, the observer stays byte-identical."""
        victim_solo = run_solo(factory(101, "a", "victim")(None))
        observer_solo = run_solo(factory(202, "b", "observer")(None))
        # crash at a node past the first (mid-protocol, unretryable)
        node = victim_solo.profile.nodes_seen[2]
        svc = QueryService()
        svc.submit(
            factory(101, "a", "victim")(
                FaultPlan([FaultSpec("crash", node=node, party="alice")])
            )
        )
        svc.submit(factory(202, "b", "observer")(None))
        svc.run()
        victim, observer = svc.sessions
        assert victim.state == FAILED
        assert observer.state == DONE
        assert observer.profile.diff(observer_solo.profile) == ""


class TestAcceptanceTpch:
    """The headline acceptance run: a concurrent-session run of all
    five TPC-H queries matches solo-run fingerprints exactly."""

    def test_all_five_queries_concurrent_match_solo(self):
        requests = [
            tpch_request(q, tenant=f"tenant{i % 2}", scale_mb=0.1)
            for i, q in enumerate(("Q3", "Q10", "Q18", "Q8", "Q9"))
        ]
        result = run_workload(
            requests, interleave="clock", check_solo=True
        )
        assert [s.state for s in result.sessions] == [DONE] * 5
        assert result.solo_deltas == {
            "Q3": "",
            "Q10": "",
            "Q18": "",
            "Q8": "",
            "Q9": "",
        }
        assert result.isolated

    def test_single_plan_requests_are_priced_and_match_the_run_form(self):
        """Q3/Q10/Q18 reach admission as plans (priced, audited); the
        decomposed queries stay opaque.  Same routes, same pipeline:
        the transcript equals the ``run=`` form's."""
        from repro.tpch import PREPARED, generate

        svc = QueryService()
        decomposed = tpch_request("Q8", tenant="t", scale_mb=0.1)
        assert decomposed.query is None and svc.price(decomposed) is None
        for backend in ("yannakakis", "auto"):
            request = tpch_request(
                "Q3", tenant="t", scale_mb=0.1, backend=backend
            )
            assert request.run is None
            assert svc.price(request).total > 0
            assert svc.plan_leakage(request) is not None
            prepared = PREPARED["Q3"](generate(0.1))

            def run(engine):
                engine.backend = backend
                return prepared.run_secure(engine)[0]

            opaque = run_solo(
                QueryRequest(tenant="t", name="Q3", run=run, ell=32, seed=7)
            )
            planned = run_solo(request)
            assert planned.state == opaque.state == DONE
            assert planned.profile.diff(opaque.profile) == ""

    def test_two_tenants_round_robin_with_budgets(self):
        """Budgeted two-tenant smoke (the CI gate): byte-exact vs solo
        with admission accounting active."""
        requests = [
            tpch_request("Q3", tenant="t0", scale_mb=0.1),
            tpch_request("Q3", tenant="t1", scale_mb=0.1, name="Q3b"),
        ]
        result = run_workload(
            requests,
            interleave="round_robin",
            budgets={"t0": (1 << 30, 1 << 30), "t1": (1 << 30, 1 << 30)},
            check_solo=True,
        )
        assert result.isolated, result.solo_deltas
        snap = result.report.admission
        assert snap["t0"]["bytes_spent"] > 0
        assert snap["t1"]["bytes_spent"] > 0
