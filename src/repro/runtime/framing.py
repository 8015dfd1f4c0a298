"""Message framing: sequence numbers, lengths and SHA-256 checksums.

The metered channel (:class:`repro.mpc.transcript.Transcript`) records
message *sizes*, not payloads — both back-ends account bytes without
materialising ciphertexts.  The session layer therefore frames the
channel *metadata*: each logical send becomes a :class:`Frame` whose
digest covers the canonical header encoding (magic, sequence number,
sender, payload length, label).  A fault that corrupts or truncates a
frame is detected exactly as a real wire protocol would detect it —
checksum or length mismatch on the receiver side — and the framing
overhead (:data:`FRAME_HEADER_BYTES` per message) is metered into the
transcript so REAL and SIMULATED accounting stay comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..mpc.costs import FRAME_HEADER_BYTES

__all__ = [
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "Frame",
    "make_frame",
    "frame_digest",
    "verify_frame",
    "corrupted",
    "truncated",
]

#: Wire magic identifying a session frame ("Secure Yannakakis Frame v1").
FRAME_MAGIC = b"SYF1"


@dataclass(frozen=True)
class Frame:
    """One framed message: header fields plus the header digest."""

    seq: int
    sender: str
    n_bytes: int  #: payload length the sender declared
    length: int  #: payload length on the wire (differs iff truncated)
    label: str
    digest: bytes

    @property
    def wire_bytes(self) -> int:
        """Metered size: payload plus framing overhead."""
        return self.length + FRAME_HEADER_BYTES


def _header(seq: int, sender: str, length: int, label: str) -> bytes:
    return b"|".join(
        (
            FRAME_MAGIC,
            str(int(seq)).encode(),
            sender.encode(),
            str(int(length)).encode(),
            label.encode(),
        )
    )


def frame_digest(seq: int, sender: str, length: int, label: str) -> bytes:
    return hashlib.sha256(_header(seq, sender, length, label)).digest()


def make_frame(seq: int, sender: str, n_bytes: int, label: str) -> Frame:
    return Frame(
        seq=seq,
        sender=sender,
        n_bytes=int(n_bytes),
        length=int(n_bytes),
        label=label,
        digest=frame_digest(seq, sender, int(n_bytes), label),
    )


def verify_frame(frame: Frame) -> str:
    """Receiver-side verification.  Returns ``""`` when the frame is
    intact, else the abort reason (``length-mismatch`` when the wire
    length disagrees with the declared payload size, ``checksum-
    mismatch`` when the digest fails)."""
    if frame.length != frame.n_bytes:
        return "length-mismatch"
    if frame.digest != frame_digest(
        frame.seq, frame.sender, frame.n_bytes, frame.label
    ):
        return "checksum-mismatch"
    return ""


def corrupted(frame: Frame) -> Frame:
    """The frame after an in-flight bit flip: same header, digest no
    longer matches."""
    flipped = bytes([frame.digest[0] ^ 0x01]) + frame.digest[1:]
    return replace(frame, digest=flipped)


def truncated(frame: Frame) -> Frame:
    """The frame after losing its final payload byte (empty payloads
    lose part of the header instead, surfacing as a checksum failure)."""
    if frame.length == 0:
        return corrupted(frame)
    return replace(frame, length=frame.length - 1)
