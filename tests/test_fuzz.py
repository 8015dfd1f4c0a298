"""The differential fuzzer and obliviousness auditor themselves.

These tests pin the harness's own guarantees: deterministic instance
generation, structure-preserving twin construction, a green bounded
campaign, corpus replay, and — crucially — that an injected fault IS
detected (a differential oracle that can't fail is worthless).
"""

import json

import pytest

from repro.fuzz import (
    TINY_CONFIG,
    QueryInstance,
    check_instance,
    fuzz,
    generate_instance,
    iter_corpus,
    minimize_instance,
    replay_file,
    run_differential,
    save_failure,
    value_disjoint_twin,
)
from repro.mpc import Mode
from repro.relalg.join_tree import is_free_connex
from repro.runtime import FaultPlan, FaultSpec

#: The semantic fault: one input share perturbed before the run.
PERTURB = FaultPlan([FaultSpec("perturb_share")])


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------


def test_generator_is_deterministic():
    for i in range(12):
        a = generate_instance(3, i)
        b = generate_instance(3, i)
        assert a.to_json() == b.to_json()
    # Different indices give different instances.
    assert generate_instance(3, 0).to_json() != generate_instance(
        3, 1
    ).to_json()


def test_generated_instances_are_free_connex():
    for i in range(25):
        inst = generate_instance(11, i)
        assert is_free_connex(inst.hypergraph(), set(inst.output)), (
            inst.describe()
        )


def test_instance_json_roundtrip():
    inst = generate_instance(5, 2)
    back = QueryInstance.from_json(inst.to_json())
    assert back.to_json() == inst.to_json()
    assert back.seed == inst.seed


def test_value_disjoint_twin_structure():
    inst = generate_instance(7, 3)
    twin = value_disjoint_twin(inst)
    assert set(twin.relations) == set(inst.relations)
    for name, rel in inst.relations.items():
        trel = twin.relations[name]
        assert trel.attributes == rel.attributes
        assert len(trel) == len(rel)
        # Attribute values are disjoint from the originals.
        orig = {v for t in rel.tuples for v in t}
        new = {v for t in trel.tuples for v in t}
        assert orig.isdisjoint(new)
        # Annotation zero-pattern is preserved (the only value property
        # the transcript may legitimately depend on).
        assert [bool(a) for a in rel.annotations] == [
            bool(a) for a in trel.annotations
        ]


# ----------------------------------------------------------------------
# differential + audit
# ----------------------------------------------------------------------


def test_differential_clean_instances():
    for i in range(5):
        inst = generate_instance(0, i)
        assert run_differential(inst) == []


def test_check_instance_includes_audit():
    inst = generate_instance(0, 2)
    assert check_instance(inst, audit=True) == []


@pytest.mark.real
@pytest.mark.slow
def test_differential_real_mode_tiny():
    inst = generate_instance(0, 0, TINY_CONFIG)
    assert run_differential(inst, mode=Mode.REAL) == []


def test_injected_fault_is_caught_and_replayable(tmp_path):
    report = fuzz(
        0, 8, real_every=0, audit=False, fault=PERTURB,
        save_failures_to=str(tmp_path),
    )
    assert report.failures, "a perturbed share must not go unnoticed"
    f = report.failures[0]
    assert f.kind == "mismatch"
    assert "--seed 0" in f.replay_hint()
    # The failure was saved as a replayable file with the instance.
    saved = list(tmp_path.glob("fail_*.json"))
    assert saved
    blob = json.loads(saved[0].read_text())
    assert blob["failure"]["kind"] == "mismatch"
    assert "relations" in blob["instance"]
    # The file carries the fault, so replaying it reproduces the
    # mismatch; without the fault the same instance passes — the
    # instance itself is healthy, the perturbation was the bug.
    assert blob["failure"]["fault"] == PERTURB.to_json()
    assert {f.kind for f in replay_file(str(saved[0]))} == {"mismatch"}
    assert check_instance(QueryInstance.from_json(blob["instance"])) == []


def test_minimizer_shrinks_under_fault():
    inst = generate_instance(0, 4)

    def still_fails(candidate):
        return any(
            f.kind == "mismatch"
            for f in run_differential(candidate, fault=PERTURB)
        )

    assert still_fails(inst)
    small = minimize_instance(inst, still_fails)
    assert still_fails(small)
    n_before = sum(len(r) for r in inst.relations.values())
    n_after = sum(len(r) for r in small.relations.values())
    assert n_after <= n_before


# ----------------------------------------------------------------------
# campaign + corpus
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_bounded_campaign_is_green():
    report = fuzz(0, 10, real_every=5)
    assert report.ok, report.summary()
    assert report.iterations == 10
    assert report.real_iterations == 2
    assert report.audits == 10


def test_corpus_replays_clean():
    # replay_file (not bare check_instance): corpus entries without a
    # persisted back-end replay under "both", so every seeded edge
    # case exercises the cross-protocol oracle.
    entries = list(iter_corpus())
    assert len(entries) >= 5, "seed corpus went missing"
    for path, inst in entries:
        assert replay_file(str(path)) == [], path.name


def test_save_failure_roundtrip(tmp_path):
    from repro.fuzz import FuzzFailure

    inst = generate_instance(0, 1)
    failure = FuzzFailure(
        "mismatch", inst.seed, "synthetic", instance=inst,
    )
    path = save_failure(failure, str(tmp_path))
    assert replay_file(str(path)) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_fuzz_smoke(capsys):
    from repro.cli import main

    rc = main(
        ["fuzz", "--seed", "0", "--iterations", "2", "--real-every", "0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK: 2 instances" in out


def test_cli_fuzz_inject_fault_self_test(capsys):
    from repro.cli import main

    rc = main(
        [
            "fuzz", "--seed", "0", "--iterations", "8",
            "--inject-fault", "--no-audit", "--real-every", "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "caught and reported" in out
    assert "replay: repro fuzz --seed 0" in out


def test_cli_fuzz_corpus(capsys):
    from repro.cli import main

    rc = main(["fuzz", "--corpus"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failures" in out


def test_cli_fuzz_corpus_replays_each_entrys_backend(monkeypatch, capsys):
    """``fuzz --corpus`` used to check every entry under the default
    ``yannakakis`` alone; like ``--replay`` it now replays an entry
    under its saved back-end, and under "both" when it has none."""
    import repro.fuzz
    import repro.fuzz.runner
    from repro.cli import main

    checked = []

    def record(instance, audit=True, fault=None, backend="yannakakis"):
        checked.append(backend)
        return []

    monkeypatch.setattr(repro.fuzz, "check_instance", record)
    monkeypatch.setattr(repro.fuzz.runner, "check_instance", record)
    assert main(["fuzz", "--corpus"]) == 0
    saved = [
        json.loads(path.read_text()).get("backend", "both")
        for path, _ in iter_corpus()
    ]
    assert checked == saved
    assert f"corpus: {len(saved)} instances, 0 failures" in (
        capsys.readouterr().out
    )


def test_leakage_audit_sweep_is_clean():
    """Acceptance sweep: across 50 generated instances, every
    back-end's routed plan composes to a leakage summary within its
    documented model — statically, without running the protocol."""
    from repro.fuzz import audit_leakage

    for i in range(50):
        inst = generate_instance(900, i, TINY_CONFIG)
        for backend in ("yannakakis", "linear", "auto"):
            assert audit_leakage(inst, backend=backend) == [], (
                f"instance {i} backend {backend}"
            )
