"""Disk-durable checkpoints: journal integrity and resume equality.

The acceptance bar (docs/ROBUSTNESS.md): a journal round-trip must
reproduce the in-memory checkpoint exactly, and resuming Q3 from
*every* plan node's committed checkpoint must yield a transcript
fingerprint and result byte-identical to the unfaulted run.
"""

import json
import os
import pickle

import pytest

from repro.mpc.context import Mode
from repro.mpc.engine import Engine
from repro.runtime import (
    DurableStore,
    FaultPlan,
    FaultSpec,
    Journal,
    NetConfig,
    PeerCrash,
    RetryPolicy,
    enable_session,
    profile_run,
    revive,
    run_party,
    solo_profile,
)
from repro.runtime.durable import KIND_CHECKPOINT, KIND_DONE, KIND_META
from repro.runtime.netrun import _prepared


class TestJournal:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "j.syj")
        records = [
            (KIND_META, b'{"query": "Q3"}'),
            (KIND_CHECKPOINT, os.urandom(1000)),
            (KIND_CHECKPOINT, b""),
            (KIND_DONE, b"{}"),
        ]
        with Journal(path, truncate=True) as j:
            for kind, payload in records:
                j.append(kind, payload)
        assert list(Journal.scan(path)) == records

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "j.syj")
        with Journal(path, truncate=True) as j:
            j.append(KIND_META, b"{}")
            j.append(KIND_CHECKPOINT, b"x" * 500)
        size = os.path.getsize(path)
        # Tear the last record: every truncation point inside it must
        # recover the committed prefix, never raise.
        for cut in (size - 1, size - 250, size - 500, size - 520):
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            assert list(Journal.scan(path)) == [(KIND_META, b"{}")]
            # restore for the next iteration
            with Journal(path, truncate=True) as j:
                j.append(KIND_META, b"{}")
                j.append(KIND_CHECKPOINT, b"x" * 500)

    def test_scan_stops_at_corrupt_payload(self, tmp_path):
        path = str(tmp_path / "j.syj")
        with Journal(path, truncate=True) as j:
            j.append(KIND_META, b"{}")
            j.append(KIND_CHECKPOINT, b"y" * 100)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        assert list(Journal.scan(path)) == [(KIND_META, b"{}")]

    def test_append_after_close_rejected(self, tmp_path):
        path = str(tmp_path / "j.syj")
        j = Journal(path, truncate=True)
        j.close()
        with pytest.raises(ValueError):
            j.append(KIND_META, b"{}")

    def test_unknown_kind_rejected(self, tmp_path):
        with Journal(str(tmp_path / "j.syj"), truncate=True) as j:
            with pytest.raises(ValueError):
                j.append(99, b"")


class TestDurableStore:
    def test_load_requires_leading_meta(self, tmp_path):
        path = str(tmp_path / "j.syj")
        with Journal(path, truncate=True) as j:
            j.append(KIND_CHECKPOINT, pickle.dumps(None))
        with pytest.raises(ValueError):
            DurableStore.load(path)

    def test_resume_counts_meta_records(self, tmp_path):
        path = str(tmp_path / "j.syj")
        store = DurableStore.create(path, {"session_id": "abc"})
        store.close()
        again = DurableStore.append_to(path)
        again.journal.append(KIND_META, json.dumps({"x": 1}).encode())
        again.save_done({"status": "done"})
        again.close()
        state = DurableStore.load(path)
        assert state.meta["session_id"] == "abc"
        assert state.meta["resumes"] == 1
        assert state.done == {"status": "done"}


# -- end-to-end durability over Q3 -------------------------------------

CONFIG_KW = dict(query="Q3", scale_mb=0.1, seed=7)


@pytest.fixture(scope="module")
def q3_baseline():
    return solo_profile(NetConfig(role="alice", **CONFIG_KW))


@pytest.fixture(scope="module")
def q3_journal(tmp_path_factory):
    """One unfaulted journaled Q3 run; returns its journal path."""
    path = str(tmp_path_factory.mktemp("durable") / "q3.syj")
    config = NetConfig(role="alice", journal=path, **CONFIG_KW)
    outcome = run_party(config)
    assert outcome["status"] == "done"
    assert outcome["checkpoints_committed"] > 0
    return path


class TestResume:
    def test_journal_round_trip_reproduces_checkpoint(self, q3_journal):
        """Serialise -> fsync -> load -> revive reproduces the captured
        state exactly: counters, transcript prefix, step id."""
        state = DurableStore.load(q3_journal)
        for step_id, blob in state.checkpoints:
            live = pickle.loads(blob)
            engine, session, env, revived = revive(blob)
            assert revived.step_id == step_id == live.step_id
            assert session is engine.ctx.session
            # The revived session counters equal the captured ones.
            assert session._seq == live._session_state.seq
            assert session._expected == live._session_state.expected
            # The transcript prefix was cut back to the capture point.
            assert (
                len(engine.ctx.transcript.messages)
                == live._transcript_state.n_messages
            )

    def test_resume_from_every_node_matches_baseline(
        self, q3_journal, q3_baseline
    ):
        """The tentpole equality: from every committed checkpoint, a
        revived run completes with a byte-identical transcript."""
        state = DurableStore.load(q3_journal)
        config = NetConfig(role="alice", **CONFIG_KW)
        assert len(state.checkpoints) == len(q3_baseline.nodes_seen)
        for step_id, blob in state.checkpoints:
            engine, session, env, _ = revive(blob)
            result, _ = _prepared(config)._build().run_secure(
                engine, env=env, start_at=step_id
            )
            session.finish()
            profile = profile_run(engine.ctx, session, result)
            assert profile.diff(q3_baseline) == "", (
                f"resume from node {step_id} diverged: "
                f"{profile.diff(q3_baseline)}"
            )

    def test_crashed_run_resumes_via_run_party(
        self, tmp_path, q3_baseline
    ):
        """The CLI-facing flow: a run that dies mid-plan (in-session
        crash fault, terminal under net-mode max_attempts=1) leaves a
        journal that ``--resume`` completes to baseline equality."""
        path = str(tmp_path / "crash.syj")
        config = NetConfig(role="alice", journal=path, **CONFIG_KW)
        crash_node = q3_baseline.nodes_seen[4]

        prepared = _prepared(config)
        ctx = prepared.make_context(Mode.SIMULATED, seed=config.seed)
        engine = Engine(ctx)
        engine.backend = config.backend
        from repro.mpc.transcript import BOB

        session = enable_session(
            ctx,
            FaultPlan([FaultSpec("crash", node=crash_node, party=BOB)]),
            node_budget=config.node_budget,
            seed=config.seed,
        )
        session.retry_policy = RetryPolicy(max_attempts=1)
        store = DurableStore.create(path, config.meta())
        session.durable = store
        with pytest.raises(PeerCrash):
            prepared.run_secure(engine)
        store.close()

        resumed = run_party(
            NetConfig(role="alice", journal=path, resume=True, **CONFIG_KW)
        )
        assert resumed["status"] == "done"
        assert resumed["resumed_from"] == crash_node
        from repro.runtime.netrun import profile_from_json

        profile = profile_from_json(resumed["profile"])
        assert profile.diff(q3_baseline) == ""

    def test_done_journal_resume_is_idempotent(self, q3_journal):
        outcome = run_party(
            NetConfig(
                role="alice", journal=q3_journal, resume=True, **CONFIG_KW
            )
        )
        assert outcome["already_done"] is True
        assert outcome["status"] == "done"

    def test_session_id_mismatch_rejected(self, tmp_path):
        # A journal written under one configuration must refuse to
        # resume a differently-configured run (no DONE record, so the
        # idempotence shortcut does not mask the check).
        path = str(tmp_path / "other.syj")
        other = NetConfig(role="alice", query="Q3", scale_mb=0.1, seed=99)
        DurableStore.create(path, other.meta()).close()
        with pytest.raises(ValueError) as err:
            run_party(
                NetConfig(
                    role="alice", journal=path, resume=True, **CONFIG_KW
                )
            )
        assert "different run configuration" in str(err.value)

    def test_journal_of_another_wire_format_refused(
        self, tmp_path, monkeypatch
    ):
        # The same run configuration under the previous wire format: a
        # journal its binary wrote cannot be revived by this one.
        from repro.mpc import costs

        path = str(tmp_path / "old-wire.syj")
        current = NetConfig(role="alice", **CONFIG_KW).session_id
        with monkeypatch.context() as patch:
            patch.setattr(costs, "WIRE_FORMAT", costs.WIRE_FORMAT - 1)
            old = NetConfig(role="alice", journal=path, **CONFIG_KW)
            assert len(old.session_id) == len(current) == 16
            assert old.session_id != current
            DurableStore.create(path, old.meta()).close()
        with pytest.raises(ValueError) as err:
            run_party(
                NetConfig(
                    role="alice", journal=path, resume=True, **CONFIG_KW
                )
            )
        assert "different run configuration" in str(err.value)
