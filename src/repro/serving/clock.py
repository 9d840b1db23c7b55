"""Simulation clock and arrival stream.

The simulation loop (:mod:`repro.cluster.fleet`) jumps the clock to each
event in global time order — an arrival, a replica's iteration boundary,
or a fault — and admits requests when their arrival timestamps pass.
``ArrivalStream`` wraps the sorted arrival list with a cursor so the loop
stays O(n) overall.
"""

from __future__ import annotations

from typing import Sequence

from repro.serving.request import Request


class SimClock:
    """Monotonically advancing simulated time (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, t: float) -> float:
        """Jump to absolute time ``t`` (must not be in the past)."""
        if t < self._now - 1e-12:
            raise ValueError(f"cannot move clock backward to {t} from {self._now}")
        self._now = max(self._now, t)
        return self._now


class ArrivalStream:
    """Cursor over requests ordered by arrival time."""

    def __init__(self, requests: Sequence[Request]) -> None:
        self._requests = sorted(requests, key=lambda r: (r.arrival_time, r.rid))
        self._idx = 0

    @property
    def exhausted(self) -> bool:
        """Whether every request has been released."""
        return self._idx >= len(self._requests)

    @property
    def next_arrival(self) -> float | None:
        """Arrival time of the next unreleased request."""
        if self.exhausted:
            return None
        return self._requests[self._idx].arrival_time

    def release_until(self, now: float) -> list[Request]:
        """Pop all requests with arrival_time <= now."""
        out: list[Request] = []
        while not self.exhausted and self._requests[self._idx].arrival_time <= now:
            out.append(self._requests[self._idx])
            self._idx += 1
        return out

    def __len__(self) -> int:
        return len(self._requests) - self._idx
