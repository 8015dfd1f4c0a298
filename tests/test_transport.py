"""The socket transport: codec, process-level faults, lockstep loopback.

Two-process integration (real ``repro net`` subprocesses, SIGKILL,
``--resume``) lives in ``tests/test_netrun.py``; this file covers the
transport's in-process surface — the wire codec, where process-level
faults fire, and a two-transport loopback over a real localhost socket
pair driven from two threads, with the transport's timing constants
shortened.
"""

import threading
import time

import pytest

from repro.mpc.transcript import ALICE, BOB, Transcript
from repro.runtime import transport as transport_module
from repro.runtime.aborts import PeerCrash, TransportAbort
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.framing import Frame, frame_digest
from repro.runtime.session import Session
from repro.runtime.transport import (
    _MSG_FRAME,
    _MSG_HEADER,
    WIRE_MAGIC,
    SocketTransport,
    _encode,
    _frame_from_payload,
    _frame_payload,
    free_port,
)


def make_frame(seq, sender=ALICE, n_bytes=96, label="unit/test"):
    return Frame(
        seq=seq,
        sender=sender,
        n_bytes=n_bytes,
        length=n_bytes,
        label=label,
        digest=frame_digest(seq, sender, n_bytes, label),
    )


class TestCodec:
    def test_frame_payload_round_trip(self):
        frame = make_frame(7, BOB, 1234, "semijoin/orders")
        assert _frame_from_payload(_frame_payload(frame)) == frame

    def test_encode_header_shape(self):
        payload = _frame_payload(make_frame(0))
        blob = _encode(_MSG_FRAME, payload)
        magic, msg_type, length = _MSG_HEADER.unpack_from(blob)
        assert magic == WIRE_MAGIC
        assert msg_type == _MSG_FRAME
        assert length == len(payload)
        assert blob[_MSG_HEADER.size:] == payload

    def test_digest_survives_hex_round_trip(self):
        frame = make_frame(3, label="reduce/agg")
        again = _frame_from_payload(_frame_payload(frame))
        assert again.digest == frame.digest
        assert again.wire_bytes == frame.wire_bytes


class _Killed(Exception):
    """Stands in for the SIGKILL a process-level fault sends."""


@pytest.fixture
def no_sigkill(monkeypatch):
    """Process faults SIGKILL the current process; record the kill and
    raise instead."""
    kills = []

    def kill(pid, sig):
        kills.append(sig)
        raise _Killed

    monkeypatch.setattr(transport_module.os, "kill", kill)
    return kills


class _Socketless(SocketTransport):
    """A transport whose socket side only records what ``exchange``
    did: frames handed on, connections dropped."""

    def __init__(self, specs):
        super().__init__(
            role=ALICE, session_id="fake", listen=("127.0.0.1", 0)
        )
        self.attach(_SessionStub(FaultPlan(specs)))
        self.events = []

    def _transmit(self, frame):
        self.events.append(("frame", frame.seq))

    def _await_peer(self, frame):
        self.events.append(("frame", frame.seq))

    def _drop_socket(self):
        self.events.append(("disconnect", None))


class TestProcessLevelFaults:
    """Process faults fire from the session's one FaultPlan, keyed on
    the transport's exchange count (0-based: the fault at index k
    fires before the k-th frame is handed on)."""

    def exchange_all(self, transport, n):
        for i in range(n):
            transport.exchange(make_frame(i))

    def test_wire_faults_fire_once(self):
        transport = _Socketless(
            [FaultSpec("disconnect", message_index=3)]
        )
        self.exchange_all(transport, 6)
        assert transport.events == [
            ("frame", 0), ("frame", 1), ("frame", 2),
            ("disconnect", None),
            ("frame", 3), ("frame", 4), ("frame", 5),
        ]
        # Latched: the same index never fires again.
        assert transport.session.faults.for_exchange(3) is None

    def test_kill_wire_fires_at_the_exchange_index(self, no_sigkill):
        transport = _Socketless([FaultSpec.parse("kill-wire@2")])
        with pytest.raises(_Killed):
            self.exchange_all(transport, 6)
        assert transport.events == [("frame", 0), ("frame", 1)]
        assert len(no_sigkill) == 1

    def test_message_faults_never_fire_in_the_transport(self):
        transport = _Socketless([FaultSpec("drop", message_index=1)])
        self.exchange_all(transport, 3)
        assert ("disconnect", None) not in transport.events

    def test_stall_is_bounded(self):
        transport = _Socketless([FaultSpec.parse("stall@0:1")])
        t0 = time.monotonic()
        self.exchange_all(transport, 2)
        assert time.monotonic() - t0 < 1.0
        assert ("disconnect", None) not in transport.events

    def test_node_faults_ignore_other_nodes(self, no_sigkill):
        session = Session(
            Transcript(), FaultPlan([FaultSpec.parse("kill-node@99")])
        )
        session.begin_node(0)
        session.begin_node(98)
        assert not no_sigkill
        with pytest.raises(_Killed):
            session.begin_node(99)

    def test_crash_is_a_peer_crash_not_a_kill(self, no_sigkill):
        session = Session(
            Transcript(), FaultPlan([FaultSpec.parse("crash@4/bob")])
        )
        with pytest.raises(PeerCrash):
            session.begin_node(4)
        assert not no_sigkill


class TestFreePort:
    def test_free_port_is_bindable(self):
        import socket

        port = free_port()
        assert 0 < port < 65536
        with socket.socket() as s:
            s.bind(("127.0.0.1", port))


class _SessionStub:
    """The sliver of Session the transport reads: the per-sender
    delivered-frame counters and the fault plan (``repro net``
    attaches the real thing)."""

    def __init__(self, faults=None):
        self._expected = {ALICE: 0, BOB: 0}
        self.faults = faults if faults is not None else FaultPlan()
        self.wire = None
        self.node = None


@pytest.fixture
def short_reconnects(monkeypatch):
    """Three reconnect attempts: a party whose peer aborted spends its
    whole reconnect budget before ``connection-lost``."""
    monkeypatch.setattr(
        transport_module, "RECONNECT_DELAYS_S", (0.05, 0.1, 0.2)
    )


class TestLoopback:
    """Both roles in one process, over a real localhost socket."""

    @pytest.fixture(autouse=True)
    def short_timings(self, monkeypatch):
        monkeypatch.setattr(transport_module, "HEARTBEAT_S", 0.1)
        monkeypatch.setattr(transport_module, "IDLE_TIMEOUT_S", 5.0)
        monkeypatch.setattr(transport_module, "EXCHANGE_DEADLINE_S", 20.0)

    def run_party(
        self,
        role,
        port,
        frames,
        results,
        faults=(),
        session_id="loopback-test",
    ):
        transport = SocketTransport(
            role=role,
            session_id=session_id,
            listen=("127.0.0.1", port) if role == ALICE else None,
            connect=("127.0.0.1", port) if role == BOB else None,
        )
        transport.attach(_SessionStub(FaultPlan(faults)))
        try:
            transport.start()
            for frame in frames:
                transport.exchange(frame)
                # Mirror Session._deliver's post-exchange bookkeeping.
                transport.session._expected[frame.sender] += 1
            transport.finish_barrier()
            results[role] = dict(transport.stats)
        except BaseException as exc:  # pragma: no cover - surfaced below
            results[role] = exc
        finally:
            transport.close()

    def drive(self, frames, faults_by_role=None):
        port = free_port()
        results = {}
        faults_by_role = faults_by_role or {}
        threads = [
            threading.Thread(
                target=self.run_party,
                args=(role, port, frames, results),
                kwargs={"faults": faults_by_role.get(role, ())},
            )
            for role in (ALICE, BOB)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        for role in (ALICE, BOB):
            if isinstance(results.get(role), BaseException):
                raise results[role]
        return results

    def mirrored_frames(self, n=10):
        # Frame seqs are per-sender (Session._seq), not global.
        frames, per_sender = [], {ALICE: 0, BOB: 0}
        for i in range(n):
            sender = ALICE if i % 2 == 0 else BOB
            frames.append(
                make_frame(per_sender[sender], sender, 64 + i)
            )
            per_sender[sender] += 1
        return frames

    def test_clean_exchange(self):
        frames = self.mirrored_frames(10)
        results = self.drive(frames)
        assert results[ALICE]["frames_sent"] == 5
        assert results[ALICE]["frames_received"] == 5
        assert results[BOB]["frames_sent"] == 5
        assert results[BOB]["frames_received"] == 5
        assert results[ALICE]["reconnects"] == 0

    def test_drop_mid_stream_reconnects(self):
        frames = self.mirrored_frames(10)
        results = self.drive(
            frames,
            faults_by_role={BOB: [FaultSpec.parse("disconnect@4")]},
        )
        # The drop is recovered transparently: both sides complete,
        # at least one reconnect episode ran, outbox replay covered
        # anything lost in flight.
        assert results[ALICE]["frames_received"] == 5
        assert results[BOB]["frames_received"] == 5
        assert (
            results[ALICE]["reconnects"] + results[BOB]["reconnects"]
            >= 1
        )

    def test_peer_of_another_wire_format_fails_the_handshake(
        self, monkeypatch, short_reconnects
    ):
        """``repro net``'s session id digests the wire format: a peer
        built for the previous one is refused at HELLO, before any
        protocol frame."""
        from repro.mpc import costs
        from repro.runtime.netrun import NetConfig

        ids = {ALICE: NetConfig(role=ALICE).session_id}
        with monkeypatch.context() as patch:
            patch.setattr(costs, "WIRE_FORMAT", costs.WIRE_FORMAT - 1)
            ids[BOB] = NetConfig(role=BOB).session_id
        port, results = free_port(), {}
        threads = [
            threading.Thread(
                target=self.run_party,
                args=(role, port, self.mirrored_frames(4), results),
                kwargs={"session_id": ids[role]},
            )
            for role in (ALICE, BOB)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        reasons = {
            getattr(results.get(role), "reason", None)
            for role in (ALICE, BOB)
        }
        assert "handshake-failed" in reasons, results
        assert reasons <= {"handshake-failed", "connection-lost"}, results

    def test_divergent_mirror_aborts(self, short_reconnects):
        port = free_port()
        results = {}
        good = self.mirrored_frames(6)
        evil = list(good)
        # Bob's mirror disagrees about the size of bob's second frame.
        evil[3] = make_frame(good[3].seq, BOB, n_bytes=4096)
        # Alice aborts at once; the survivor then spends its reconnect
        # budget before connection-lost, so keep that budget short.
        threads = [
            threading.Thread(
                target=self.run_party,
                args=(role, port, frames, results),
            )
            for role, frames in ((ALICE, good), (BOB, evil))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        reasons = {
            role: getattr(results.get(role), "reason", None)
            for role in (ALICE, BOB)
        }
        assert all(
            isinstance(results.get(role), TransportAbort)
            for role in (ALICE, BOB)
        ), f"expected both parties to abort, got {results}"
        assert set(reasons.values()) <= {
            "peer-divergence", "connection-lost",
        }, reasons
        assert "peer-divergence" in reasons.values()
