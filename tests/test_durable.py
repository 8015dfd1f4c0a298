"""Disk-durable positions: journal integrity and resume equality.

The acceptance bar (docs/ROBUSTNESS.md): a journal round-trip must
reproduce the recorded positions exactly, a replay that disagrees with
its record must abort cleanly, and resuming Q3 from *every* plan
node's committed position must yield a transcript fingerprint and
result byte-identical to the unfaulted run.
"""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys

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
    TransportAbort,
    enable_session,
    netchaos,
    revive,
    run_party,
    solo_profile,
)
from repro.runtime.durable import (
    KIND_CHECKPOINT,
    KIND_DONE,
    KIND_META,
    Position,
)
from repro.runtime.netrun import _prepared, profile_from_json


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

    def test_journal_of_another_format_refused(self, tmp_path):
        """A version-1 journal (pickled engine state) is refused with
        a clear error at its first header, its payload never read."""
        path = str(tmp_path / "v1.syj")
        payload = b"\x80\x04N."  # a pickle of None, never decoded
        header = struct.pack(
            "<4sBQ32s", b"SYJ1", KIND_META, len(payload),
            hashlib.sha256(payload).digest(),
        )
        with open(path, "wb") as fh:
            fh.write(header + payload)
        with pytest.raises(ValueError, match="SYJ1.*another format"):
            DurableStore.load(path)


class TestPosition:
    def test_record_round_trip(self):
        position = Position(3, 5, 4, 5, 4, 9, 6)
        assert revive(position.to_json()) == position
        assert position.first_difference(position) is None
        moved = dataclasses.replace(position, n_messages=10)
        assert position.first_difference(moved) == ("n_messages", 9, 10)

    @pytest.mark.parametrize(
        "blob",
        [
            b"\x80\x04N.",
            b"[]",
            b'{"step": 0}',
            Position().to_json().replace(b'"step": 0', b'"step": -1'),
            Position().to_json().replace(b'"rounds": 0', b'"rounds": "0"'),
            Position().to_json().replace(b'"rounds": 0', b'"rounds": 0.5'),
            Position().to_json().replace(b'"rounds": 0', b'"rounds": true'),
            Position().to_json()[:-1] + b', "env": {}}',
        ],
    )
    def test_malformed_record_rejected(self, blob):
        with pytest.raises(ValueError):
            revive(blob)


class TestDurableStore:
    def test_load_requires_leading_meta(self, tmp_path):
        path = str(tmp_path / "j.syj")
        with Journal(path, truncate=True) as j:
            j.append(KIND_CHECKPOINT, Position().to_json())
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


def journal_prefix(source, path, step, record=None):
    """Copy ``source``'s meta and position records up to node ``step``
    to ``path``, as a party killed at that node leaves them; a given
    ``record`` replaces the last one."""
    with Journal(path, truncate=True) as out:
        for kind, payload in Journal.scan(source):
            if kind == KIND_CHECKPOINT and revive(payload).step == step:
                out.append(kind, payload if record is None else record)
                return path
            if kind != KIND_DONE:
                out.append(kind, payload)
    raise AssertionError(f"no record of node {step}")


def resume(path):
    return run_party(
        NetConfig(role="alice", journal=path, resume=True, **CONFIG_KW)
    )


class TestResume:
    def test_journal_round_trip_reproduces_checkpoint(self, q3_journal):
        """Serialise -> fsync -> load -> revive reproduces the position
        a fresh run reaches at the top of every node: step id, channel
        counters and transcript position."""
        config = NetConfig(role="alice", **CONFIG_KW)
        prepared = _prepared(config)
        engine = Engine(prepared.make_context(Mode.SIMULATED, seed=7))
        session = enable_session(engine.ctx, seed=7)
        live = []
        session.before_commit = lambda step: live.append(
            Position.of(step, session)
        )
        prepared.run_secure(engine)
        state = DurableStore.load(q3_journal)
        assert [revive(blob) for _, blob in state.checkpoints] == live
        assert [step for step, _ in state.checkpoints] == [
            p.step for p in live
        ]

    def test_resume_from_every_node_matches_baseline(
        self, q3_journal, q3_baseline, tmp_path
    ):
        """The tentpole equality: from every committed position, a
        replayed run completes with a byte-identical transcript."""
        state = DurableStore.load(q3_journal)
        assert len(state.checkpoints) == len(q3_baseline.nodes_seen)
        for step_id, _ in state.checkpoints:
            path = journal_prefix(
                q3_journal, str(tmp_path / f"node{step_id}.syj"), step_id
            )
            outcome = resume(path)
            assert outcome["resumed_from"] == step_id
            profile = profile_from_json(outcome["profile"])
            assert profile.diff(q3_baseline) == "", (
                f"resume from node {step_id} diverged: "
                f"{profile.diff(q3_baseline)}"
            )
            # Resumed: the recorded node's position again, then one
            # per later node, then done.
            after = DurableStore.load(path)
            assert after.done is not None
            assert [s for s, _ in after.checkpoints] == [
                s for s, _ in state.checkpoints if s <= step_id
            ] + [s for s, _ in state.checkpoints if s >= step_id]

    @pytest.mark.parametrize(
        "change",
        [
            dict(n_messages=1),
            dict(rounds=99),
            dict(seq_bob=10_000),
            dict(step=10_000),
        ],
        ids=["n_messages", "rounds", "seq", "past-the-plan"],
    )
    def test_replay_that_disagrees_with_its_record_aborts(
        self, q3_journal, tmp_path, change
    ):
        """A record whose counters the replayed prefix does not reach
        is a typed, sanitized abort — never a silent divergence."""
        state = DurableStore.load(q3_journal)
        step, blob = state.checkpoints[len(state.checkpoints) // 2]
        record = dataclasses.replace(revive(blob), **change).to_json()
        path = journal_prefix(
            q3_journal, str(tmp_path / "bad.syj"), step, record
        )
        with pytest.raises(TransportAbort) as err:
            resume(path)
        assert err.value.reason == "replay-divergence"
        assert err.value.node == change.get("step", step)
        assert err.value.is_sanitized()
        assert DurableStore.load(path).done is None

    def test_resumed_party_carries_no_process_fault(
        self, tmp_path, q3_baseline
    ):
        """A party SIGKILLed by its own ``kill-node`` fault resumes
        from a journal of public positions alone: the replay carries
        no fault of the killed process and runs to baseline parity."""
        path = str(tmp_path / "killed.syj")
        node = q3_baseline.nodes_seen[len(q3_baseline.nodes_seen) // 2]
        killed = subprocess.run(
            [
                sys.executable, "-m", "repro", "net", "--role", "alice",
                "--scale", "0.1", "--seed", "7", "--journal", path,
                "--kill-at-node", str(node),
            ],
            env=netchaos._src_env(), capture_output=True, timeout=120,
        )
        assert killed.returncode == -9, killed.stdout
        state = DurableStore.load(path)
        assert state.latest[0] == node and state.done is None
        outcome = resume(path)
        assert outcome["resumed_from"] == node
        assert profile_from_json(outcome["profile"]).diff(q3_baseline) == ""

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
            seed=config.seed,
        )
        session.max_attempts = 1
        store = DurableStore.create(path, config.meta())
        session.durable = store
        with pytest.raises(PeerCrash):
            prepared.run_secure(engine)
        store.close()

        resumed = resume(path)
        assert resumed["status"] == "done"
        assert resumed["resumed_from"] == crash_node
        profile = profile_from_json(resumed["profile"])
        assert profile.diff(q3_baseline) == ""

    def test_done_journal_resume_is_idempotent(self, q3_journal):
        outcome = resume(q3_journal)
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
            resume(path)
        assert "different run configuration" in str(err.value)

    def test_journal_of_another_wire_format_refused(
        self, tmp_path, monkeypatch
    ):
        # The same run configuration under the previous wire format: a
        # journal its binary wrote cannot be resumed by this one.
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
            resume(path)
        assert "different run configuration" in str(err.value)

    @pytest.mark.parametrize(
        "journal", ["syj1", "other-run", "no-position", "missing"]
    )
    def test_refused_journal_is_not_a_crash(self, tmp_path, capsys, journal):
        """``repro net --resume`` on a journal it will not resume prints
        one line and exits with its own code, not a traceback and the
        exit code of a crash."""
        from repro.cli import main
        from repro.runtime.netrun import EXIT_JOURNAL_REFUSED

        path = str(tmp_path / "refused.syj")
        if journal == "syj1":
            payload = b"\x80\x04N."
            with open(path, "wb") as fh:
                fh.write(
                    struct.pack(
                        "<4sBQ32s", b"SYJ1", KIND_META, len(payload),
                        hashlib.sha256(payload).digest(),
                    )
                    + payload
                )
        elif journal != "missing":
            seed = 99 if journal == "other-run" else CONFIG_KW["seed"]
            config = NetConfig(
                role="alice", **dict(CONFIG_KW, seed=seed)
            )
            DurableStore.create(path, config.meta()).close()
        code = main([
            "net", "--role", "alice", "--scale", "0.1", "--seed", "7",
            "--journal", path, "--resume",
        ])
        assert code == EXIT_JOURNAL_REFUSED != 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "journal refused" in out[0], out
