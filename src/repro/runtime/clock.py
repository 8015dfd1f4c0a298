"""A virtual clock for deterministic deadlines and backoff.

The session layer never reads wall-clock time: progress is measured in
*ticks*, advanced by frame deliveries, injected hangs and retry
backoff.  Two runs with the same fault plan therefore observe the
identical clock, which is what makes deadline expiry reproducible.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotone integer time."""

    def __init__(self, start: int = 0) -> None:
        self.now = int(start)

    def advance(self, ticks: int) -> int:
        if ticks < 0:
            raise ValueError("the virtual clock cannot run backwards")
        self.now += int(ticks)
        return self.now

    def advance_to(self, t: int) -> int:
        if t > self.now:
            self.now = int(t)
        return self.now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now})"
