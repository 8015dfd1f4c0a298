"""Tests for the fault-tolerant session layer (``repro.runtime``).

Four layers:

* unit tests — framing, fault-plan semantics, and the kind ->
  abort-type mapping of every injectable fault;
* invariants — accounting neutrality of the framing overhead, abort
  sanitization (no payload ever escapes through an abort);
* retry by replay — retry convergence, the attempt bound,
  retries-exhausted and non-retryable propagation, the exact replay of
  the prefix, fresh randomness for the retried node, monotone
  counters, and the position check;
* end-to-end — retry byte-equality on TPC-H Q3 and at every node of
  the composed Q8, the chaos sweep (full sweep and REAL-mode samples behind the
  ``slow``/``real`` markers), and the fuzz
  integration (channel faults surface as replayable ``abort``
  failures).
"""

import json

import pytest

from repro.bench.estimator import session_framing_overhead
from repro.exec.trace import ExecutionTrace
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
from repro.mpc.transcript import ALICE, BOB
from repro.runtime import (
    FAULT_KINDS,
    FRAME_HEADER_BYTES,
    FaultPlan,
    FaultSpec,
    IntegrityAbort,
    PeerCrash,
    ProtocolAbort,
    SequenceAbort,
    Session,
    TimeoutAbort,
    TransportAbort,
    classify_fault,
    enable_session,
    make_tpch_runner,
    run_replayed,
    sweep_faults,
)
from repro.runtime.framing import (
    corrupted,
    make_frame,
    truncated,
    verify_frame,
)
from repro.tpch import PREPARED, generate


def _session(specs=()):
    ctx = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
    session = enable_session(ctx, FaultPlan(list(specs)))
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
# framing
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
    with pytest.raises(ValueError):
        FaultSpec.parse("hang@3:5")  # a hang has no duration


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "corrupt", "message_index": "3"},
        {"kind": "corrupt", "message_index": -1},
        {"kind": "corrupt", "message_index": True},
        {"kind": "stall", "message_index": 1, "ms": -5},
        {"kind": "stall", "message_index": 1, "ms": "5"},
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
            FaultSpec("hang", message_index=5),
            FaultSpec("stall", message_index=6, ms=99),
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


# ----------------------------------------------------------------------
# fault kind -> abort type
# ----------------------------------------------------------------------


def _abort_for(specs):
    ctx, session = _session(specs)
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
    ctx, session = _session([FaultSpec("hang", message_index=1)])
    with pytest.raises(TimeoutAbort) as err:
        _exchange(ctx, session)
    assert err.value.reason == "deadline-expired"
    assert (err.value.node, err.value.label, err.value.party) == (
        0, "b", BOB
    )
    # The hung frame advanced the wire index, then expired the node
    # before it was verified or metered.
    assert session.wire_index == 2
    assert [m.label for m in ctx.transcript.messages] == ["a"]


def test_a_hang_between_nodes_delivers_its_frame():
    """No node is in flight, so there is nothing to expire: the hung
    frame is delivered and metered like any other."""
    ctx, session = _session([FaultSpec("hang", message_index=0)])
    ctx.send(ALICE, 16, "outside")
    _exchange(ctx, session)
    assert session.wire_index == 4
    assert [m.label for m in ctx.transcript.messages] == [
        "outside", "a", "b", "c",
    ]
    assert ctx.transcript.total_bytes == 56 + 4 * FRAME_HEADER_BYTES


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
            "expected", "party", "n_bytes", "attempts", "message",
        }


def test_abort_rejects_unknown_reason():
    with pytest.raises(ValueError):
        ProtocolAbort("secret-value-was-42")


# ----------------------------------------------------------------------
# accounting invariants
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


# ----------------------------------------------------------------------
# retry by replay
# ----------------------------------------------------------------------


def _probe_run(specs, max_attempts=3, n_nodes=1, traced=False, body=None):
    """A toy run of ``n_nodes`` nodes of one 16-byte message each under
    the replay helper.  Every attempt builds a fresh engine (with a
    fresh trace when ``traced``); returns the session and the engines
    in build order."""
    session = Session(None, FaultPlan(list(specs)), seed=1)
    session.max_attempts = max_attempts
    engines = []

    def build():
        ctx = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
        engines.append(
            Engine(ctx, tracer=ExecutionTrace() if traced else None)
        )
        return engines[-1]

    def probe(engine):
        for node in range(n_nodes):
            session.commit_checkpoint(node)
            session.begin_node(node, "probe")
            engine.ctx.send(ALICE, 16, "probe")
            session.end_node()

    run_replayed(session, build, body or probe)
    return session, engines


def test_supervisor_retries_to_success():
    session, engines = _probe_run([FaultSpec("corrupt", message_index=0)])
    assert session.n_retries == 1
    assert session.n_aborts == 1
    # The delivered run is exactly one clean message, in the rebuilt
    # context's transcript.
    assert len(engines) == 2
    assert len(engines[-1].ctx.transcript.messages) == 1
    assert session.transcript is engines[-1].ctx.transcript


def test_supervisor_exhausts_retries():
    specs = [
        FaultSpec("corrupt", message_index=i) for i in range(3)
    ]
    with pytest.raises(IntegrityAbort) as err:
        _probe_run(specs)
    assert err.value.reason == "retries-exhausted"
    assert err.value.attempts == 3
    assert err.value.is_sanitized()


def test_supervisor_takes_the_session_retry_policy():
    with pytest.raises(IntegrityAbort) as err:
        _probe_run(
            [FaultSpec("corrupt", message_index=0)],
            max_attempts=1,
        )
    assert err.value.reason == "retries-exhausted"
    assert err.value.attempts == 1


def test_supervisor_does_not_retry_a_crash():
    with pytest.raises(PeerCrash):
        _probe_run([FaultSpec("crash", node=0, party=BOB)])


def test_supervisor_records_events():
    session, engines = _probe_run(
        [FaultSpec("corrupt", message_index=0)], traced=True
    )
    trace = engines[-1].tracer
    kinds = [e["type"] for e in trace.events]
    assert kinds == ["abort", "retry"]
    assert trace.events[0]["abort"]["reason"] == "checksum-mismatch"
    assert trace.events[1]["ordinal"] == 0
    assert "events" in trace.to_json()
    # Fault-free traces keep the golden-pinned schema (no events key).
    assert "events" not in ExecutionTrace().to_json()


def _drawing_run(specs, n_nodes=4):
    """A toy run whose every node draws from the context's RNG and its
    tweak and nonce streams: returns ``{(attempt, ordinal): draws}``
    and which of them ran replayed."""
    draws, replayed = {}, set()
    engines = []

    def body(engine):
        ctx = engine.ctx
        session = ctx.session
        for node in range(n_nodes):
            session.commit_checkpoint(node)
            session.begin_node(node, "probe")
            key = (len(engines), node)
            draws[key] = (
                int(ctx.rng.integers(1 << 62)),
                ctx.tweak_batch(),
                int(ctx.dummy_nonces(1)[0]),
            )
            if session.replaying:
                replayed.add(key)
            ctx.send(ALICE, 16, "probe")
            session.end_node()

    session = Session(None, FaultPlan(list(specs)), seed=1)

    def build():
        ctx = Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1)
        engines.append(Engine(ctx))
        return engines[-1]

    run_replayed(session, build, body)
    return draws, replayed


def test_a_retried_node_draws_fresh_randomness():
    """The replay repeats the prefix exactly; the retried node draws a
    fresh RNG value and tweaks and nonces past every one the failed
    attempt drew."""
    draws, replayed = _drawing_run([FaultSpec("corrupt", message_index=2)])
    assert replayed == {(2, 0), (2, 1)}
    assert [draws[2, n] for n in (0, 1)] == [draws[1, n] for n in (0, 1)]
    (rng1, tweak1, nonce1), (rng2, tweak2, nonce2) = draws[1, 2], draws[2, 2]
    assert rng2 != rng1
    assert tweak2 > tweak1 and nonce2 > nonce1


def test_a_second_retry_replays_the_first_identically():
    """A later node's retry replays the earlier retried node with that
    retry's re-key, not the seed's."""
    draws, replayed = _drawing_run(
        [
            FaultSpec("corrupt", message_index=1),
            FaultSpec("corrupt", message_index=4),
        ]
    )
    # attempt 2 re-ran node 1; attempt 3 re-ran node 3 after replaying
    # nodes 0-2, node 1 among them
    assert replayed == {(2, 0), (3, 0), (3, 1), (3, 2)}
    assert [draws[3, n] for n in range(3)] == [draws[2, n] for n in range(3)]
    assert draws[2, 1] != draws[1, 1]
    assert draws[3, 3] != draws[2, 3]


def test_retry_never_moves_counters_backwards(monkeypatch):
    """Across a retry of a TPC-H run the wire index never decreases,
    and neither do the tweak and nonce streams of live (not replayed)
    messages."""
    seen = []
    send = Context.send

    def spy(self, sender, n_bytes, label):
        send(self, sender, n_bytes, label)
        session = self.session
        seen.append(
            (session.replaying, session.wire_index) + self.counters
        )

    monkeypatch.setattr(Context, "send", spy)
    run = make_tpch_runner("Q3", scale_mb=0.1, seed=7)
    profile = run(FaultPlan([FaultSpec("corrupt", message_index=30)]))
    assert profile.n_retries == 1
    assert any(row[0] for row in seen), "the retry replayed no prefix"
    values = [row[1] for row in seen]
    assert values == sorted(values)
    live = [row for row in seen if not row[0]]
    for column in (2, 3):
        values = [row[column] for row in live]
        assert values == sorted(values)
    assert live[-1][2:] > live[0][2:]


def test_replay_that_disagrees_aborts():
    """A replayed prefix that does not reach the failed attempt's
    position is a typed, sanitized ``replay-divergence`` abort, never
    a silent divergence."""
    engines = []

    def body(engine):
        session = engine.ctx.session
        for node in range(3):
            session.commit_checkpoint(node)
            session.begin_node(node, "probe")
            # the second attempt sends one message more in node 0
            for _ in range(1 + (node == 0 and len(engines) > 1)):
                engine.ctx.send(ALICE, 16, "probe")
            session.end_node()

    session = Session(
        None, FaultPlan([FaultSpec("corrupt", message_index=2)]), seed=1
    )

    def build():
        engines.append(
            Engine(Context(Mode.SIMULATED, SecurityParams(ell=32), seed=1))
        )
        return engines[-1]

    with pytest.raises(TransportAbort) as err:
        run_replayed(session, build, body)
    assert err.value.reason == "replay-divergence"
    assert err.value.node == 2
    assert err.value.label == "seq_alice"
    assert err.value.is_sanitized()


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


def test_a_retry_at_every_node_of_q8_equals_its_solo_run(monkeypatch):
    """Q8 runs two plans in one context, so its step ids repeat: a
    retry replays to the failed node's ordinal in the run.  A timeout
    abort entering each node in turn (most of Q8's nodes send no frame
    a message fault could hit) retries that node alone, to the solo
    run's rows, accounting and fingerprint."""
    run = make_tpch_runner("Q8", scale_mb=0.1, seed=7)
    baseline = run(FaultPlan())
    assert len(baseline.nodes_seen) == 2 * len(set(baseline.nodes_seen))
    begin_node = Session.begin_node
    for ordinal in range(len(baseline.nodes_seen)):
        fired = []

        def flaky(self, node_id, label="", ordinal=ordinal, fired=fired):
            begin_node(self, node_id, label)
            if len(self.nodes_seen) == ordinal + 1 and not (
                self.replaying or fired
            ):
                fired.append(node_id)
                raise TimeoutAbort("deadline-expired", node=node_id)

        monkeypatch.setattr(Session, "begin_node", flaky)
        profile = run(FaultPlan())
        assert fired == [baseline.nodes_seen[ordinal]]
        assert profile.n_retries == 1, ordinal
        assert profile.diff(baseline) == "", ordinal
        assert profile.nodes_seen == baseline.nodes_seen


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
