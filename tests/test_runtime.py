"""Tests for the fault-tolerant session layer (``repro.runtime``).

Four layers:

* unit tests — framing, virtual clock, fault-plan semantics, and the
  kind -> abort-type mapping of every injectable fault;
* invariants — accounting neutrality of the framing overhead, abort
  sanitization (no payload ever escapes through an abort), checkpoint
  rollback of transcript and session counters;
* supervisor — retry convergence, bounded backoff, retries-exhausted
  and non-retryable propagation;
* end-to-end — checkpoint/resume byte-equality on TPC-H Q3, the
  chaos sweep (full sweep and REAL-mode samples behind the
  ``slow``/``real`` markers), and the fuzz
  integration (channel faults surface as replayable ``abort``
  failures).
"""

import json
import pickle

import pytest

from repro.bench.estimator import session_framing_overhead
from repro.fuzz import TINY_CONFIG, generate_instance
from repro.fuzz.runner import (
    _plan_for,
    _run_secure,
    fuzz,
    replay_file,
    run_differential,
)
from repro.mpc import Context, Engine, Mode
from repro.mpc.params import SecurityParams
from repro.mpc.transcript import ALICE, BOB, Transcript
from repro.runtime import (
    FAULT_KINDS,
    FRAME_HEADER_BYTES,
    FaultPlan,
    FaultSpec,
    IntegrityAbort,
    PeerCrash,
    ProtocolAbort,
    RetryPolicy,
    SequenceAbort,
    Session,
    Supervisor,
    TimeoutAbort,
    VirtualClock,
    classify_fault,
    enable_session,
    make_tpch_runner,
    sweep_faults,
)
from repro.runtime.framing import (
    corrupted,
    make_frame,
    truncated,
    verify_frame,
)
from repro.tpch import PREPARED, generate


def _session(specs=(), **kwargs):
    ctx = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
    session = enable_session(ctx, FaultPlan(list(specs)), **kwargs)
    return ctx, session


def _exchange(ctx, session):
    """A fixed three-message node: ALICE(seq0), BOB(seq0), ALICE(seq1)."""
    session.begin_node(0, "n0")
    ctx.send(ALICE, 16, "a")
    ctx.send(BOB, 16, "b")
    ctx.send(ALICE, 8, "c")
    session.end_node()
    session.finish()


# ----------------------------------------------------------------------
# framing + clock
# ----------------------------------------------------------------------


def test_frame_verifies_clean():
    f = make_frame(0, ALICE, 100, "share")
    assert verify_frame(f) == ""
    assert f.wire_bytes == 100 + FRAME_HEADER_BYTES


def test_corrupted_frame_fails_checksum():
    f = corrupted(make_frame(0, ALICE, 100, "share"))
    assert verify_frame(f) == "checksum-mismatch"


def test_truncated_frame_fails_length():
    f = truncated(make_frame(0, ALICE, 100, "share"))
    assert verify_frame(f) == "length-mismatch"


def test_clock_is_monotone():
    c = VirtualClock()
    c.advance(5)
    c.advance_to(3)  # never goes backwards
    assert c.now == 5
    with pytest.raises(ValueError):
        c.advance(-1)


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("explode")
    with pytest.raises(ValueError):
        FaultSpec("corrupt")  # needs a message_index
    with pytest.raises(ValueError):
        FaultSpec("crash")  # needs a node


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "corrupt", "message_index": "3"},
        {"kind": "corrupt", "message_index": -1},
        {"kind": "corrupt", "message_index": True},
        {"kind": "hang", "message_index": 1, "ticks": -5},
        {"kind": "hang", "message_index": 1, "ticks": "5"},
        {"kind": "crash", "node": "2", "party": BOB},
        {"kind": "crash", "node": 2, "party": "carol"},
    ],
)
def test_fault_spec_rejects_malformed_fields(fields):
    # A replayed failure file with "message_index": "3" used to load,
    # then match no wire index: the faulted run came back clean.
    with pytest.raises(ValueError):
        FaultSpec(**fields)
    with pytest.raises(ValueError):
        FaultSpec.from_json(fields)


def test_fault_spec_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        FaultSpec.from_json({"kind": "corrupt", "msg": 3})
    with pytest.raises(ValueError):
        FaultSpec.from_json({"message_index": 3})


def test_fault_plan_json_roundtrip():
    plan = FaultPlan(
        [
            FaultSpec("corrupt", message_index=3),
            FaultSpec("hang", message_index=5, ticks=99),
            FaultSpec("crash", node=2, party=BOB),
            FaultSpec("perturb_share"),
        ]
    )
    again = FaultPlan.from_json(
        json.loads(json.dumps(plan.to_json()))
    )
    assert again.specs == plan.specs


def test_fault_specs_fire_once():
    plan = FaultPlan([FaultSpec("corrupt", message_index=3)])
    assert plan.for_message(3) is not None
    assert plan.for_message(3) is None, "one-shot spec re-fired"
    assert plan.fresh().for_message(3) is not None


@pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
def test_every_kind_round_trips_text_and_json(kind):
    row = FAULT_KINDS[kind]
    for party in (None, ALICE, BOB):
        spec = FaultSpec.make(
            kind, None if row.target is None else 7, party=party,
            duration=None if row.unit is None else 250,
        )
        assert spec.at == (None if row.target is None else 7)
        assert FaultSpec.parse(str(spec)) == spec
        assert FaultSpec.from_json(
            json.loads(json.dumps(spec.to_json()))
        ) == spec
    if row.unit is not None:
        # A duration left out of the text is the table's default.
        bare = FaultSpec.parse(f"{kind}@7")
        assert getattr(bare, row.unit) == row.default


@pytest.mark.parametrize(
    "text",
    ["corrupt", "corrupt@-1", "corrupt@3:5", "crash@x", "perturb_share@1",
     "stall@2/carol", "kill-node@1:400", "drop@1 extra", ""],
)
def test_fault_spec_parse_rejects(text):
    with pytest.raises(ValueError):
        FaultSpec.parse(text)


def test_process_faults_are_never_journalled():
    # A kill spec pickled into a checkpoint would SIGKILL the resumed
    # party again at the same node; message specs keep their latch.
    plan = FaultPlan([
        FaultSpec.parse("corrupt@1"),
        FaultSpec.parse("kill-node@2"),
        FaultSpec.parse("corrupt@3"),
        FaultSpec.parse("stall@4:10"),
    ])
    assert plan.for_message(3) is not None
    session = Session(Transcript(), plan)
    revived = pickle.loads(pickle.dumps(session)).faults
    assert [str(s) for s in revived.specs] == ["corrupt@1", "corrupt@3"]
    assert revived.for_message(3) is None, "fired latch lost"
    assert revived.for_message(1) is not None
    assert len(session.faults) == 4  # the live plan is untouched


# ----------------------------------------------------------------------
# fault kind -> abort type
# ----------------------------------------------------------------------


def _abort_for(specs, **kwargs):
    ctx, session = _session(specs, **kwargs)
    with pytest.raises(ProtocolAbort) as err:
        _exchange(ctx, session)
    return err.value


def test_corrupt_raises_integrity_abort():
    abort = _abort_for([FaultSpec("corrupt", message_index=0)])
    assert isinstance(abort, IntegrityAbort)
    assert abort.reason == "checksum-mismatch"
    assert abort.retryable


def test_truncate_raises_integrity_abort():
    abort = _abort_for([FaultSpec("truncate", message_index=0)])
    assert isinstance(abort, IntegrityAbort)
    assert abort.reason == "length-mismatch"


def test_drop_trips_the_node_barrier():
    abort = _abort_for([FaultSpec("drop", message_index=1)])
    assert isinstance(abort, TimeoutAbort)
    assert abort.reason == "deadline-expired"
    assert abort.party == BOB


def test_duplicate_raises_sequence_replay():
    abort = _abort_for([FaultSpec("duplicate", message_index=0)])
    assert isinstance(abort, SequenceAbort)
    assert abort.reason == "sequence-replay"


def test_reorder_raises_sequence_gap():
    # ALICE's first frame is held; her second (seq 1) overtakes it.
    abort = _abort_for([FaultSpec("reorder", message_index=0)])
    assert isinstance(abort, SequenceAbort)
    assert abort.reason == "sequence-gap"


def test_hang_expires_the_deadline():
    abort = _abort_for(
        [FaultSpec("hang", message_index=1, ticks=100)],
        node_budget=50,
    )
    assert isinstance(abort, TimeoutAbort)
    assert abort.reason == "deadline-expired"


def test_crash_is_terminal():
    abort = _abort_for([FaultSpec("crash", node=0, party=BOB)])
    assert isinstance(abort, PeerCrash)
    assert not abort.retryable
    assert abort.party == BOB


def test_every_abort_is_sanitized():
    for specs in (
        [FaultSpec("corrupt", message_index=0)],
        [FaultSpec("drop", message_index=0)],
        [FaultSpec("duplicate", message_index=0)],
        [FaultSpec("reorder", message_index=0)],
        [FaultSpec("crash", node=0, party=ALICE)],
    ):
        abort = _abort_for(specs)
        assert abort.is_sanitized(), str(abort)
        # Only public channel metadata in the JSON view.
        assert set(abort.to_json()) == {
            "type", "reason", "retryable", "node", "label", "seq",
            "expected", "party", "n_bytes", "tick", "deadline",
            "attempts", "message",
        }


def test_abort_rejects_unknown_reason():
    with pytest.raises(ValueError):
        ProtocolAbort("secret-value-was-42")


# ----------------------------------------------------------------------
# accounting invariants + checkpointing
# ----------------------------------------------------------------------


def _plain_and_framed(workload):
    """Transcripts of one run without and one with the session layer:
    the three-message toy node, or a TPC-H query at 0.1 MB."""
    if workload == "toy":
        plain = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
        plain.send(ALICE, 16, "a")
        plain.send(BOB, 16, "b")
        plain.send(ALICE, 8, "c")
        ctx, session = _session([])
        _exchange(ctx, session)
        return plain.transcript, ctx.transcript
    prepared = PREPARED[workload](generate(0.1))
    transcripts = []
    for framed in (False, True):
        ctx = prepared.make_context(Mode.SIMULATED, seed=7)
        session = enable_session(ctx, FaultPlan(), seed=7) if framed else None
        prepared.run_secure(Engine(ctx))
        if session is not None:
            session.finish()
        transcripts.append(ctx.transcript)
    return transcripts


@pytest.mark.parametrize(
    "workload, n_messages", [("toy", 3), ("Q3", 50), ("Q10", 50)]
)
def test_session_framing_is_accounting_neutral(workload, n_messages):
    p, t = _plain_and_framed(workload)
    assert len(t.messages) == len(p.messages) == n_messages
    assert t.total_bytes == p.total_bytes + session_framing_overhead(
        n_messages
    )
    # Senders, labels and round structure are untouched.
    assert [(m.sender, m.label) for m in t.messages] == [
        (m.sender, m.label) for m in p.messages
    ]
    assert t.rounds == p.rounds


def test_transcript_rollback():
    ctx = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
    ctx.send(ALICE, 16, "keep")
    mark = ctx.transcript.state()
    ctx.send(BOB, 99, "discard")
    ctx.send(ALICE, 7, "discard")
    ctx.transcript.rollback(mark)
    assert len(ctx.transcript.messages) == 1
    assert ctx.transcript.total_bytes == 16
    assert ctx.transcript.rounds == 1


def test_session_rollback_rewinds_seq_not_wire_index():
    ctx, session = _session([])
    session.begin_node(0)
    ctx.send(ALICE, 16, "a")
    mark = session.state()
    wire_before = session.wire_index
    ctx.send(BOB, 16, "b")
    session.rollback(mark)
    assert session.state() == mark
    assert session.wire_index == wire_before + 1, (
        "the wire index must stay monotone across rollback"
    )


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


class _FakeStep:
    id = 0
    kind = "probe"
    label = "probe"


def _supervised(specs, policy=None):
    ctx, session = _session(specs)
    session.retry_policy = policy
    supervisor = Supervisor(session, Engine(ctx))
    supervisor.run_step(
        _FakeStep(), {}, lambda: ctx.send(ALICE, 16, "probe")
    )
    return ctx, session


def test_supervisor_retries_to_success():
    ctx, session = _supervised(
        [FaultSpec("corrupt", message_index=0)]
    )
    assert session.n_retries == 1
    assert session.n_aborts == 1
    # The delivered run is exactly one clean message.
    assert len(ctx.transcript.messages) == 1


def test_supervisor_exhausts_retries():
    specs = [
        FaultSpec("corrupt", message_index=i) for i in range(3)
    ]
    with pytest.raises(IntegrityAbort) as err:
        _supervised(specs)
    assert err.value.reason == "retries-exhausted"
    assert err.value.attempts == 3
    assert err.value.is_sanitized()


def test_supervisor_takes_the_session_retry_policy():
    with pytest.raises(IntegrityAbort) as err:
        _supervised(
            [FaultSpec("corrupt", message_index=0)],
            policy=RetryPolicy(max_attempts=1),
        )
    assert err.value.reason == "retries-exhausted"
    assert err.value.attempts == 1


def test_supervisor_does_not_retry_a_crash():
    with pytest.raises(PeerCrash):
        _supervised([FaultSpec("crash", node=0, party=BOB)])


def test_supervisor_records_events():
    from repro.exec.trace import ExecutionTrace

    ctx, session = _session([FaultSpec("corrupt", message_index=0)])
    engine = Engine(ctx)
    trace = ExecutionTrace()
    supervisor = Supervisor(session, engine, trace=trace)
    supervisor.run_step(
        _FakeStep(), {}, lambda: ctx.send(ALICE, 16, "probe")
    )
    kinds = [e["type"] for e in trace.events]
    assert kinds == ["abort", "retry"]
    assert trace.events[0]["abort"]["reason"] == "checksum-mismatch"
    assert "events" in trace.to_json()
    # Fault-free traces keep the golden-pinned schema (no events key).
    assert "events" not in ExecutionTrace().to_json()


def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(
        max_attempts=10, base_backoff_ticks=8, max_backoff_ticks=64
    )
    assert [policy.backoff(a) for a in (1, 2, 3, 4, 5)] == [
        8, 16, 32, 64, 64,
    ]


# ----------------------------------------------------------------------
# end-to-end: checkpoint/resume equality + chaos sweep
# ----------------------------------------------------------------------


def test_checkpoint_resume_is_byte_equal():
    """The security invariant: a retried run's output and per-section
    accounting equal the unfaulted run's exactly."""
    run = make_tpch_runner("Q3", scale_mb=0.1, seed=7)
    baseline = run(FaultPlan())
    faulted = run(
        FaultPlan([FaultSpec("corrupt", message_index=10)])
    )
    assert faulted.n_retries >= 1
    assert faulted.diff(baseline) == ""


def test_chaos_sweep_q3_tiny():
    """Bounded CI sweep: strided message faults of every kind plus a
    crash at every node."""
    run = make_tpch_runner("Q3", scale_mb=0.1)
    report = sweep_faults(run, stride=6)
    assert report.ok, report.summary()
    counts = report.counts
    assert counts["completed-correct"] > 0
    assert counts["clean-abort"] > 0  # the crashes


@pytest.mark.slow
def test_chaos_sweep_q3_tiny_full():
    """The acceptance gate: the full cross product, zero VIOLATIONs."""
    run = make_tpch_runner("Q3", scale_mb=0.1)
    report = sweep_faults(run, stride=1)
    assert report.ok, report.summary()
    assert report.n_fault_points == (
        6 * report.baseline.n_messages + len(report.baseline.nodes_seen)
    )


@pytest.mark.real
@pytest.mark.slow
def test_chaos_real_mode_sampled():
    """The same machinery over genuine cryptography: a corrupt frame
    retries to byte-equality, a crash aborts cleanly."""
    run = make_tpch_runner("Q3", scale_mb=0.1, real=True)
    baseline = run(FaultPlan())
    retried = classify_fault(
        run, baseline, FaultSpec("corrupt", message_index=5)
    )
    assert retried.classification == "completed-correct"
    assert retried.retried
    crashed = classify_fault(
        run, baseline,
        FaultSpec("crash", node=baseline.nodes_seen[0], party=BOB),
    )
    assert crashed.classification == "clean-abort"


@pytest.mark.real
@pytest.mark.slow
def test_real_vs_sim_parity_with_session():
    """Enabling the session must not disturb REAL-vs-SIM transcript
    identity (fingerprints include the framed sizes on both sides)."""
    inst = generate_instance(0, 0, TINY_CONFIG)
    plan = _plan_for(inst)
    fingerprints = {}
    for mode in (Mode.SIMULATED, Mode.REAL):
        _, ctx = _run_secure(inst, plan, mode, fault=FaultPlan())
        fingerprints[mode] = ctx.transcript.fingerprint()
    assert fingerprints[Mode.SIMULATED] == fingerprints[Mode.REAL]


# ----------------------------------------------------------------------
# fuzz integration
# ----------------------------------------------------------------------


def test_fuzz_channel_fault_surfaces_as_abort():
    inst = generate_instance(0, 0)
    plan = FaultPlan([FaultSpec("corrupt", message_index=3)])
    failures = run_differential(inst, fault=plan)
    assert failures
    assert {f.kind for f in failures} == {"abort"}
    assert {f.exc_type for f in failures} == {"IntegrityAbort"}
    assert all(f.fault == plan.to_json() for f in failures)


def test_fuzz_faulted_failure_replays_identically(tmp_path):
    plan = FaultPlan([FaultSpec("truncate", message_index=3)])
    report = fuzz(
        0, 1, real_every=0, audit=False, fault=plan,
        save_failures_to=str(tmp_path),
    )
    assert report.failures
    saved = sorted(tmp_path.glob("fail_abort_*.json"))
    assert saved
    blob = json.loads(saved[0].read_text())
    assert blob["failure"]["fault"] == plan.to_json()
    replayed = replay_file(str(saved[0]), audit=False)
    assert replayed, "replay must reproduce the abort"
    assert {f.exc_type for f in replayed} == {"IntegrityAbort"}
