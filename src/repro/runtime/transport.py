"""Real two-party transport: PR-5 frames over a TCP socket.

The whole pipeline is a deterministic orchestration that computes both
parties' views from one seed, and the metered channel records message
*metadata* (sender, size, label), never payloads.  Two OS processes
therefore execute in **lockstep mirror** mode: each runs the full
deterministic computation, and the transport exchanges the frame
*headers* — a process transmits the frames whose sender is its own
role and, for every peer-sender frame, blocks until the peer's copy
arrives and verifies it byte-for-byte against the locally mirrored
expectation (sequence number, declared size, label, SHA-256 header
digest).  Any disagreement is a ``peer-divergence``
:class:`~repro.runtime.aborts.TransportAbort` — the cross-process
analogue of the session layer's checksum check.

Transport control traffic — HELLO handshakes, heartbeats, BYE — is
deliberately **never metered**: the transcript of a two-process run
stays byte-identical to the solo in-process run (the acceptance test
of ``repro net``).

Reliability model
-----------------

* **Handshake** — on every (re)connect both sides exchange HELLO
  records carrying the session id, the role, and the per-sender
  *expected* frame counters (next sequence number wanted, as the
  session counts them: live, or replayed from the journal after a
  ``--resume``).  A session or role mismatch is ``handshake-failed``.
* **Outbox replay** — the outbox is the one replay source: it keeps
  every frame this party has transmitted since it attached, and
  nothing prunes it.  In the lockstep mirror a frame is a header only
  and the plan fixes how many there are (Q3 sends about 25 per party
  from 0.1 to 10 MB), so it needs no bound.  After a handshake the sender
  replays every outbox frame at or past the peer's expected counter;
  the receiver drops already-seen sequence numbers.  A peer that
  restarts from any journalled node therefore finds every frame it
  lost, however many reconnects came first.
* **Reconnect** — connection loss inside an exchange triggers
  transparent re-establishment on the fixed schedule
  :data:`RECONNECT_DELAYS_S` (capped exponential; one dialer meets one
  listener, so there is nothing to spread apart).  Exhausting it
  raises ``connection-lost``; recovery from that point is process
  restart + ``repro net --resume``, not an in-node retry, which would
  desynchronise the mirrors.  The first connection does not back off
  from a refused dial: the peer's listener is just not up yet, and
  the dialer polls for it every :data:`DIAL_POLL_S`.
* **Heartbeats** — a daemon thread emits unmetered keepalives so a
  peer that is busy computing a long node is distinguishable from a
  dead one; only a *silent* connection (no bytes at all within
  :data:`IDLE_TIMEOUT_S`) is torn down and reconnected.  They are how
  a survivor notices a peer host that dies without sending a FIN.

See ``docs/ROBUSTNESS.md`` for the state machine.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import struct
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Tuple

from ..mpc.transcript import ALICE, BOB, other_party
from .aborts import TransportAbort
from .framing import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultSpec
    from .session import Session

__all__ = [
    "WIRE_MAGIC",
    "SocketTransport",
    "free_port",
]

#: Wire magic for transport records ("Secure Yannakakis Wire v1").
WIRE_MAGIC = b"SYW1"

_MSG_HEADER = struct.Struct("<4sBI")

_MSG_HELLO = 1
_MSG_FRAME = 2
_MSG_HEARTBEAT = 4
_MSG_BYE = 5

#: Seconds between two unmetered keepalives.
HEARTBEAT_S = 0.25
#: Seconds of total silence (not even a heartbeat) after which a
#: connection is dead and is reconnected.
IDLE_TIMEOUT_S = 10.0
#: Hard bound, in seconds, on one frame exchange and on the finish
#: barrier's linger.
EXCHANGE_DEADLINE_S = 120.0
#: The delay before each attempt of one reconnect episode: capped
#: exponential, 0.05 s doubling to 2 s, ten attempts.
RECONNECT_DELAYS_S = tuple(min(0.05 * 2 ** i, 2.0) for i in range(10))
#: Bound, in seconds, on one dial or accept and on the peer's HELLO.
ATTEMPT_TIMEOUT_S = 2.0
#: Seconds between two dials of the first connection while the peer's
#: listener is not up yet (its dials are refused): the peer binds only
#: once it has prepared its data, so this is a wait for it, not a
#: backoff, and it is bounded by the reconnect schedule's total.
DIAL_POLL_S = 0.005


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (for tests and the chaos harness)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind((host, 0))
        return int(s.getsockname()[1])


def _encode(msg_type: int, payload: bytes) -> bytes:
    return _MSG_HEADER.pack(WIRE_MAGIC, msg_type, len(payload)) + payload


def _frame_payload(frame: Frame) -> bytes:
    return json.dumps(
        {
            "seq": frame.seq,
            "sender": frame.sender,
            "n_bytes": frame.n_bytes,
            "length": frame.length,
            "label": frame.label,
            "digest": frame.digest.hex(),
        },
        sort_keys=True,
    ).encode()


def _frame_from_payload(payload: bytes) -> Frame:
    d = json.loads(payload.decode())
    return Frame(
        seq=int(d["seq"]),
        sender=str(d["sender"]),
        n_bytes=int(d["n_bytes"]),
        length=int(d["length"]),
        label=str(d["label"]),
        digest=bytes.fromhex(d["digest"]),
    )


class SocketTransport:
    """One party's end of the two-process frame exchange.

    Attach to a session (``session.wire = transport`` via
    :meth:`attach`), then :meth:`start` establishes the connection and
    runs the first handshake.  The session calls :meth:`exchange` for
    every delivered frame; the runner calls :meth:`finish_barrier` and
    :meth:`close` after the session's final barrier.  Its timings are
    the module constants.
    """

    def __init__(
        self,
        role: str,
        session_id: str,
        listen: Optional[Tuple[str, int]] = None,
        connect: Optional[Tuple[str, int]] = None,
    ) -> None:
        if role not in (ALICE, BOB):
            raise ValueError(f"unknown role {role!r}")
        if (listen is None) == (connect is None):
            raise ValueError("exactly one of listen/connect is required")
        self.role = role
        self.peer = other_party(role)
        self.session_id = session_id
        self.listen = listen
        self.connect = connect

        self.session: Optional["Session"] = None
        self._sock: Optional[socket.socket] = None
        self._listener: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._recv_buf = bytearray()
        self._inbox: Deque[Frame] = deque()
        self._outbox: Deque[Frame] = deque()
        self._wire_count = 0
        self._peer_bye = False
        self._closed = False
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        self.stats: Dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "dup_skipped": 0,
            "replayed": 0,
            "reconnects": 0,
            "heartbeats_sent": 0,
        }

    # -- lifecycle -------------------------------------------------------

    def attach(self, session: "Session") -> None:
        """Wire this transport into a session: every delivered frame
        flows through :meth:`exchange` before it is metered."""
        self.session = session
        session.wire = self

    def start(self) -> None:
        """Open the listener (listen mode), establish the connection,
        run the first handshake, and start the heartbeat thread."""
        if self.listen is not None:
            self._listener = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listener.bind(self.listen)
            self._listener.listen(8)
        self._reconnect_loop(initial=True)
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, daemon=True
        )
        self._hb_thread.start()

    def finish_barrier(self) -> bool:
        """Graceful shutdown handshake after the session's final
        barrier: announce BYE, then keep serving the connection —
        answering reconnect handshakes, replaying the outbox, dropping
        duplicate frames — until the peer's BYE arrives (``True``) or
        :data:`EXCHANGE_DEADLINE_S` elapses (``False``).

        This is what makes a *tail-node* kill recoverable: the
        surviving party may have everything it needs and finish first,
        but the killed party's resume still depends on the survivor's
        handshake replay.  The survivor therefore lingers here instead
        of vanishing the moment its own run completes."""
        if self._sock is None and self._listener is None:
            return self._peer_bye
        deadline = time.monotonic() + EXCHANGE_DEADLINE_S
        try:
            self._send_raw(_encode(_MSG_BYE, b""))
        except OSError:
            pass
        while not self._peer_bye and time.monotonic() < deadline:
            self._inbox.clear()  # anything arriving now is a replay dup
            try:
                if not self._fill_buffer(deadline):
                    continue
            except OSError:
                try:
                    self._reconnect_loop(initial=False)
                    # The peer of a fresh handshake needs our BYE again.
                    self._send_raw(_encode(_MSG_BYE, b""))
                except (TransportAbort, OSError):
                    # The peer is gone for good — it either finished
                    # and exited, or will find an empty socket and
                    # abort cleanly.  Our run is already complete.
                    return self._peer_bye
                continue
            self._parse_buffer()
        return self._peer_bye

    def close(self) -> None:
        self._closed = True
        self._hb_stop.set()
        if self._sock is not None:
            try:
                self._send_raw(_encode(_MSG_BYE, b""))
            except OSError:
                pass
        self._drop_socket()
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _drop_socket(self) -> None:
        with self._send_lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
        self._recv_buf.clear()

    # -- the session-facing API ------------------------------------------

    def exchange(self, frame: Frame) -> None:
        """Called by the session for every frame, in the global
        deterministic delivery order.  Own-role frames are transmitted;
        peer-role frames block until the peer's copy arrives and is
        verified against the local mirror.  At most one process-level
        fault of the session's plan fires first, keyed on this exchange
        count."""
        wire = self._wire_count
        self._wire_count += 1
        assert self.session is not None
        spec = self.session.faults.for_exchange(wire)
        if spec is not None:
            self._fire(spec)
        if frame.sender == self.role:
            self._transmit(frame)
        else:
            self._await_peer(frame)

    def _fire(self, spec: "FaultSpec") -> None:
        """Fire one process-level fault (a chaos-harness hook): the
        next exchange reconnects after a disconnect, ``--resume``
        recovers a SIGKILL."""
        if spec.kind == "kill-wire":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind in ("disconnect", "partition"):
            self._drop_socket()
        if spec.kind in ("stall", "partition"):
            time.sleep(spec.ms / 1000.0)

    # -- sending ---------------------------------------------------------

    def _transmit(self, frame: Frame) -> None:
        self._outbox.append(frame)
        try:
            self._send_raw(_encode(_MSG_FRAME, _frame_payload(frame)))
        except OSError:
            # The handshake replay retransmits this frame: it is in
            # the outbox.
            self._reconnect()
        self.stats["frames_sent"] += 1

    def _send_raw(self, data: bytes) -> None:
        with self._send_lock:
            if self._sock is None:
                raise ConnectionError("no connection")
            self._sock.sendall(data)

    # -- receiving -------------------------------------------------------

    def _await_peer(self, expected: Frame) -> None:
        session = self.session
        assert session is not None
        want = session._expected[expected.sender]
        deadline = time.monotonic() + EXCHANGE_DEADLINE_S
        while True:
            got = self._next_frame(deadline, expected)
            if got.sender != expected.sender:
                raise TransportAbort(
                    "peer-divergence",
                    node=self._node(),
                    label=got.label,
                    seq=got.seq,
                    party=got.sender,
                )
            if got.seq < want:
                self.stats["dup_skipped"] += 1
                continue
            if (
                got.seq != expected.seq
                or got.n_bytes != expected.n_bytes
                or got.length != expected.length
                or got.label != expected.label
                or got.digest != expected.digest
            ):
                raise TransportAbort(
                    "peer-divergence",
                    node=self._node(),
                    label=got.label,
                    seq=got.seq,
                    expected=expected.seq,
                    party=got.sender,
                    n_bytes=got.n_bytes,
                )
            self.stats["frames_received"] += 1
            return

    def _next_frame(self, deadline: float, expected: Frame) -> Frame:
        """The next peer FRAME (from the parsed inbox or the socket),
        reconnecting on connection loss, aborting at the deadline."""
        while True:
            if self._inbox:
                return self._inbox.popleft()
            if self._peer_bye:
                raise TransportAbort(
                    "peer-divergence",
                    node=self._node(),
                    label=expected.label,
                    seq=expected.seq,
                    party=self.peer,
                )
            if time.monotonic() >= deadline:
                raise TransportAbort(
                    "connection-lost",
                    node=self._node(),
                    label=expected.label,
                    seq=expected.seq,
                    party=self.peer,
                )
            try:
                got_data = self._fill_buffer(deadline)
            except OSError:
                self._reconnect()
                continue
            if not got_data:
                # A whole idle window with zero bytes: even an idle
                # peer heartbeats, so the connection is dead.
                self._reconnect()
                continue
            self._parse_buffer()

    def _wait_readable(self, timeout: float) -> bool:
        sock = self._sock
        if sock is None:
            raise ConnectionError("no connection")
        try:
            ready, _, _ = select.select([sock], [], [], max(timeout, 0.0))
        except (OSError, ValueError):
            raise ConnectionError("connection dropped") from None
        return bool(ready)

    def _fill_buffer(self, deadline: float) -> bool:
        """Block up to one idle window for bytes; ``False`` means the
        window elapsed in total silence (sockets stay in blocking mode
        — readiness is select-gated, so the heartbeat thread's sends
        never race a timeout mode change)."""
        remaining = deadline - time.monotonic()
        window = min(max(remaining, 0.05), IDLE_TIMEOUT_S)
        if not self._wait_readable(window):
            return False
        sock = self._sock
        if sock is None:
            raise ConnectionError("no connection")
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed connection")
        self._recv_buf.extend(chunk)
        return True

    def _parse_buffer(self) -> None:
        """Consume every complete message in the receive buffer;
        FRAMEs go to the inbox, control messages are handled inline."""
        while True:
            if len(self._recv_buf) < _MSG_HEADER.size:
                return
            magic, msg_type, length = _MSG_HEADER.unpack_from(
                self._recv_buf
            )
            if magic != WIRE_MAGIC:
                raise TransportAbort(
                    "peer-divergence", node=self._node(), party=self.peer
                )
            end = _MSG_HEADER.size + length
            if len(self._recv_buf) < end:
                return
            payload = bytes(self._recv_buf[_MSG_HEADER.size:end])
            del self._recv_buf[:end]
            if msg_type == _MSG_FRAME:
                self._inbox.append(_frame_from_payload(payload))
            elif msg_type == _MSG_HEARTBEAT:
                pass
            elif msg_type == _MSG_BYE:
                self._peer_bye = True
            elif msg_type == _MSG_HELLO:
                # A handshake outside _handshake(): the peer
                # reconnected behind our back (cannot happen with the
                # blocking establish protocol) — treat as divergence.
                raise TransportAbort(
                    "peer-divergence", node=self._node(), party=self.peer
                )

    # -- connection management -------------------------------------------

    def _node(self) -> Optional[int]:
        return self.session.node if self.session is not None else None

    def _reconnect(self) -> None:
        if self._closed:
            raise TransportAbort(
                "connection-lost", node=self._node(), party=self.peer
            )
        self._reconnect_loop(initial=False)

    def _reconnect_loop(self, initial: bool) -> None:
        """Establish + handshake on the reconnect schedule."""
        if not initial:
            self.stats["reconnects"] += 1
            self._drop_socket()
        last_error: Optional[Exception] = None
        poll_until = time.monotonic() + sum(RECONNECT_DELAYS_S)
        for attempt, delay in enumerate(RECONNECT_DELAYS_S):
            if attempt > 0 or not initial:
                time.sleep(delay)
            try:
                self._establish(poll_until if initial else None)
                self._handshake()
                return
            except TransportAbort:
                self._drop_socket()
                raise
            except (OSError, json.JSONDecodeError) as exc:
                last_error = exc
                self._drop_socket()
                if initial and isinstance(exc, ConnectionRefusedError):
                    break  # no listener within the schedule's total
        raise TransportAbort(
            "connection-lost",
            node=self._node(),
            party=self.peer,
            attempts=len(RECONNECT_DELAYS_S),
        ) from last_error

    def _establish(self, poll_until: Optional[float] = None) -> None:
        """Accept or dial one connection.  With ``poll_until`` (the
        first connection), a refused dial means the peer's listener is
        not up yet and is retried every :data:`DIAL_POLL_S` until then."""
        if self._listener is not None:
            self._listener.settimeout(ATTEMPT_TIMEOUT_S)
            conn, _addr = self._listener.accept()
        else:
            assert self.connect is not None
            while True:
                try:
                    conn = socket.create_connection(
                        self.connect, timeout=ATTEMPT_TIMEOUT_S
                    )
                    break
                except ConnectionRefusedError:
                    if poll_until is None or time.monotonic() >= poll_until:
                        raise
                    time.sleep(DIAL_POLL_S)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(None)  # blocking; all waits are select-gated
        with self._send_lock:
            self._sock = conn
        self._recv_buf.clear()

    def _handshake(self) -> None:
        """Exchange HELLOs, then replay every outbox frame the peer
        still expects."""
        session = self.session
        expected = dict(session._expected) if session is not None else {}
        hello = json.dumps(
            {
                "session": self.session_id,
                "role": self.role,
                "expected": expected,
            },
            sort_keys=True,
        ).encode()
        self._send_raw(_encode(_MSG_HELLO, hello))
        peer_hello = self._recv_hello()
        if (
            peer_hello.get("session") != self.session_id
            or peer_hello.get("role") != self.peer
        ):
            raise TransportAbort(
                "handshake-failed", node=self._node(), party=self.peer
            )
        peer_expected = int(
            peer_hello.get("expected", {}).get(self.role, 0)
        )
        for frame in self._outbox:
            if frame.seq >= peer_expected:
                self._send_raw(
                    _encode(_MSG_FRAME, _frame_payload(frame))
                )
                self.stats["replayed"] += 1

    def _recv_hello(self) -> Dict[str, Any]:
        """The peer's HELLO, skipping any stale pre-reconnect traffic
        still buffered ahead of it."""
        deadline = time.monotonic() + ATTEMPT_TIMEOUT_S
        while True:
            while len(self._recv_buf) >= _MSG_HEADER.size:
                magic, msg_type, length = _MSG_HEADER.unpack_from(
                    self._recv_buf
                )
                if magic != WIRE_MAGIC:
                    raise ConnectionError("bad magic in handshake")
                end = _MSG_HEADER.size + length
                if len(self._recv_buf) < end:
                    break
                payload = bytes(self._recv_buf[_MSG_HEADER.size:end])
                del self._recv_buf[:end]
                if msg_type == _MSG_HELLO:
                    out = json.loads(payload.decode())
                    if not isinstance(out, dict):
                        raise ConnectionError("malformed HELLO")
                    return out
                # Frames that raced ahead of the HELLO belong to the
                # new connection's replay; keep them.
                if msg_type == _MSG_FRAME:
                    self._inbox.append(_frame_from_payload(payload))
                elif msg_type == _MSG_BYE:
                    self._peer_bye = True
            if time.monotonic() >= deadline or not self._fill_buffer(deadline):
                raise ConnectionError("handshake timed out")

    def _heartbeat_loop(self) -> None:  # pragma: no cover - timing thread
        while not self._hb_stop.wait(HEARTBEAT_S):
            try:
                self._send_raw(_encode(_MSG_HEARTBEAT, b""))
                self.stats["heartbeats_sent"] += 1
            except OSError:
                # The main thread owns reconnection.
                continue
