"""Two-process execution: real sockets, SIGKILL, ``--resume``.

Each test here launches both parties of Q3 as separate OS processes
(``python -m repro net``) over a localhost TCP socket and checks the
tentpole equality: whatever is done to the processes — nothing, a
SIGKILL mid-plan followed by ``--resume``, a forced disconnect, a
partition — both parties' run profiles (rows, per-section accounting,
transcript fingerprint) must come out byte-identical to the solo
in-process baseline.
"""

import pytest

from repro.cli import build_parser
from repro.runtime import (
    PROCESS_FAULT_KINDS,
    FaultSpec,
    NetConfig,
    build_specs,
    netchaos,
    run_scenario,
    solo_profile,
)

CONFIG = NetConfig(role="alice", query="Q3", scale_mb=0.1, seed=7)


@pytest.fixture(scope="module")
def baseline():
    return solo_profile(CONFIG)


def scenario(baseline, tmp_path, *faults):
    outcome = run_scenario(
        CONFIG, baseline, faults, str(tmp_path), timeout_s=90.0
    )
    assert outcome.classification == "completed-correct", str(outcome)
    return outcome


class TestTwoProcess:
    def test_clean_run_matches_solo(self, baseline, tmp_path):
        outcome = scenario(baseline, tmp_path)
        assert not outcome.resumed
        assert outcome.reconnects == 0

    def test_sigkill_mid_plan_resumes_to_parity(self, baseline, tmp_path):
        node = baseline.nodes_seen[len(baseline.nodes_seen) // 2]
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec("kill-node", node=node, party="bob"),
        )
        assert outcome.resumed

    def test_sigkill_at_first_node(self, baseline, tmp_path):
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec(
                "kill-node", node=baseline.nodes_seen[0], party="alice"
            ),
        )
        assert outcome.resumed

    def test_sigkill_at_last_node(self, baseline, tmp_path):
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec(
                "kill-node", node=baseline.nodes_seen[-1], party="bob"
            ),
        )
        assert outcome.resumed

    def test_dropped_connection_reconnects_transparently(
        self, baseline, tmp_path
    ):
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec.make(
                "disconnect", baseline.n_messages // 2, party="bob"
            ),
        )
        assert not outcome.resumed  # no restart: in-transport recovery
        assert outcome.reconnects >= 1

    def test_partition_heals(self, baseline, tmp_path):
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec.parse("partition@10:300/alice"),
        )
        assert outcome.reconnects >= 1

    @pytest.mark.parametrize("victim", ["alice", "bob"])
    def test_kill_after_a_reconnect_resumes_to_parity(
        self, baseline, tmp_path, victim
    ):
        """A party reconnects, is killed two exchanges later and
        resumes from an earlier node: the peer's outbox still holds
        every frame the resumed party lost (the reconnect handshake
        must not prune it on counters the kill wipes out)."""
        outcome = scenario(
            baseline, tmp_path,
            FaultSpec.parse(f"disconnect@22/{victim}"),
            FaultSpec.parse(f"kill-wire@24/{victim}"),
        )
        assert outcome.resumed


class TestSpecBuilder:
    def test_kill_covers_every_node(self, baseline):
        specs = build_specs(baseline, kinds=("kill-node",))
        assert sorted(s.node for s in specs) == sorted(
            baseline.nodes_seen
        )
        assert {s.party for s in specs} == {"alice", "bob"}

    def test_wire_kinds_stride(self, baseline):
        specs = build_specs(baseline, kinds=("disconnect",), stride=10)
        assert [s.message_index for s in specs] == list(
            range(0, baseline.n_messages, 10)
        )
        # Process faults target a party; the parties alternate.
        assert {s.party for s in specs} == {"alice", "bob"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("kill-node")  # needs a node
        with pytest.raises(ValueError):
            FaultSpec("disconnect")  # needs a wire index
        with pytest.raises(ValueError):
            FaultSpec("nonsense", message_index=0)
        with pytest.raises(ValueError):
            FaultSpec("kill-node", node=1, ms=5)  # kills take no time
        with pytest.raises(ValueError):
            NetConfig(role="alice", faults=[FaultSpec.parse("corrupt@3")])
        with pytest.raises(ValueError):
            NetConfig(role="alice", faults=[FaultSpec.parse("stall@1/bob")])

    def test_flags_round_trip_kinds(self):
        # The harness hands the target party `--fault str(spec)`; the
        # party's own parser must read back the identical spec.  The
        # other party and a resumed party get no fault.
        for kind in PROCESS_FAULT_KINDS:
            spec = FaultSpec.make(kind, 5, party="bob")
            cmd = netchaos._party_cmd(
                CONFIG, "bob", "127.0.0.1:1", "j", "o", [spec]
            )
            argv = cmd[cmd.index("net"):]
            assert argv[argv.index("--fault") + 1] == str(spec)
            assert build_parser().parse_args(argv).fault == [spec]
            for role, resume in (("alice", False), ("bob", True)):
                cmd = netchaos._party_cmd(
                    CONFIG, role, "127.0.0.1:1", "j", "o", [spec],
                    resume=resume,
                )
                assert "--fault" not in cmd

    def test_a_crash_is_reported_with_its_last_log_line(self, tmp_path):
        log = tmp_path / "bob.log"
        log.write_text("Traceback (most recent call last):\n"
                       "  ...\nValueError: boom\n\n")
        assert netchaos._last_line(str(log)) == ": ValueError: boom"
        assert netchaos._last_line(str(tmp_path / "missing.log")) == ""

    def test_kill_at_node_is_a_kill_node_spec(self):
        args = build_parser().parse_args(
            ["net", "--role", "bob", "--kill-at-node", "4"]
        )
        assert args.fault == [FaultSpec("kill-node", node=4)]
