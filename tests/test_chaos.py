"""The one fault-sweep harness, seen through its three runners.

``repro.runtime.chaos`` owns the only Outcome, Report, classifier and
sweep driver; the in-process, victim + observer and two-process
runners only produce observations.  These tests pin what that buys:
one report schema whichever runner ran, and one sanitization check
whichever runner saw the abort.
"""

import json
import sys

import pytest

from repro.fuzz.generator import GeneratorConfig, generate_instance
from repro.runtime import (
    CLASSIFICATIONS,
    FaultSpec,
    NetConfig,
    PeerCrash,
    classify_fault,
    make_tpch_runner,
    netchaos,
    run_scenario,
    solo_profile,
    sweep_faults,
    sweep_processes,
)
from repro.serve import QueryRequest, isolation_sweep

CONFIG = NetConfig(role="alice", query="Q3", scale_mb=0.1, seed=7)
SMALL = GeneratorConfig(max_relations=3, max_tuples=4)

REPORT_KEYS = {
    "meta", "baseline_messages", "baseline_nodes",
    "baseline_fingerprint", "counts", "ok", "outcomes",
}
OUTCOME_KEYS = {
    "fault", "classification", "detail", "abort",
    "retried", "resumed", "reconnects",
}


def fuzz_request(master_seed, tenant):
    inst = generate_instance(master_seed, 0, SMALL)

    def make(faults):
        return QueryRequest(
            tenant=tenant, name=tenant, query=inst.query(), seed=5,
            faults=faults,
        )

    return make


def in_process_report(tmp_path):
    return sweep_faults(make_tpch_runner("Q3", scale_mb=0.1), stride=20)


def serve_report(tmp_path):
    return isolation_sweep(
        fuzz_request(101, "victim"), fuzz_request(202, "observer"),
        stride=20,
    )


def process_report(tmp_path):
    return sweep_processes(
        CONFIG, kinds=("disconnect",), stride=40, workdir=str(tmp_path),
        timeout_s=90.0,
    )


@pytest.mark.parametrize(
    "make_report", [in_process_report, serve_report, process_report]
)
def test_every_runner_emits_the_one_report_schema(make_report, tmp_path):
    report = make_report(tmp_path)
    assert report.ok, report.summary()
    assert report.n_fault_points > 0
    blob = json.loads(json.dumps(report.to_json()))
    assert set(blob) == REPORT_KEYS
    assert set(blob["counts"]) == set(CLASSIFICATIONS)
    assert sum(blob["counts"].values()) == len(blob["outcomes"])
    for outcome in blob["outcomes"]:
        assert set(outcome) == OUTCOME_KEYS
        assert outcome["classification"] in CLASSIFICATIONS


# -- an abort outside the public vocabulary is a VIOLATION everywhere --

OOV_REASON = "secret-value-was-42"


def oov_abort():
    abort = PeerCrash("peer-crashed", node=0, party="bob")
    abort.reason = OOV_REASON
    return abort


def in_process_oov(tmp_path, monkeypatch):
    def run(faults):
        raise oov_abort()

    return classify_fault(
        run, solo_profile(CONFIG), FaultSpec("crash", node=0, party="bob")
    )


def serve_oov(tmp_path, monkeypatch):
    healthy = fuzz_request(101, "victim")

    def raise_oov(engine):
        raise oov_abort()

    def make_victim(faults):
        if faults is None:
            return healthy(None)
        return QueryRequest(
            tenant="victim", name="victim", run=raise_oov, ell=32
        )

    report = isolation_sweep(
        make_victim, fuzz_request(202, "observer"), kinds=("crash",)
    )
    assert len(report.violations) == len(report.outcomes) > 0
    return report.outcomes[0]


def process_oov(tmp_path, monkeypatch):
    """Both 'parties' are stubs that write an abort payload and exit 2,
    the way ``repro net`` reports a protocol abort."""
    script = (
        "import json, sys; json.dump("
        f"{{'status': 'abort', 'abort': {oov_abort().to_json()!r}}}, "
        "open(sys.argv[1], 'w')); sys.exit(2)"
    )
    monkeypatch.setattr(
        netchaos, "_party_cmd",
        lambda config, role, endpoint, journal, out, fault, **kw: [
            sys.executable, "-c", script, out,
        ],
    )
    return run_scenario(CONFIG, solo_profile(CONFIG), None, str(tmp_path))


@pytest.mark.parametrize(
    "observe", [in_process_oov, serve_oov, process_oov]
)
def test_out_of_vocabulary_abort_is_a_violation(
    observe, tmp_path, monkeypatch
):
    outcome = observe(tmp_path, monkeypatch)
    assert outcome.classification == "VIOLATION", str(outcome)
    assert "unsanitized abort" in outcome.detail
    assert outcome.abort["reason"] == OOV_REASON
