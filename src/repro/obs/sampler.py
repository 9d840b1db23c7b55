"""Deterministic periodic gauge sampling.

Between events nothing changes in a discrete-event simulation, so the
sampler never needs its own entries on the event heap (which would both
keep the run alive past its natural drain and perturb the autoscaler's
per-event evaluation cadence).  Instead the driving loops call
:meth:`GaugeSampler.catch_up` immediately *before* processing each event
at time ``T``: every pending tick ``<= T`` fires then, capturing the
state the fleet held just before ``T`` — exactly what an on-heap sampler
would have observed, with zero effect on the simulation.

Storage is a bounded ring with stride doubling: when the buffer reaches
capacity, every other sample is dropped and the effective period
doubles, so memory is O(capacity) regardless of run length while the
full run span stays covered.  All of it is deterministic, so two
fixed-seed runs produce identical sample sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

#: Field names of one per-replica gauge row, in tuple order.
REPLICA_FIELDS = (
    "replica",
    "state",
    "waiting",
    "running",
    "kv_used_blocks",
    "kv_total_blocks",
    "prefix_blocks",
)

#: Field names of the fleet-level gauge tuple, in tuple order.
FLEET_FIELDS = ("live", "warming", "draining", "failed", "total")


@dataclass(frozen=True, slots=True)
class Sample:
    """One gauge snapshot: fleet counters + per-replica rows."""

    t: float
    #: ``FLEET_FIELDS``-ordered counters (autoscaler/chaos state).
    fleet: tuple
    #: One ``REPLICA_FIELDS``-ordered tuple per replica, index order.
    replicas: tuple


class GaugeSampler:
    """Catch-up periodic sampler with stride-doubling ring storage."""

    def __init__(self, period_s: float = 0.5, capacity: int = 4096) -> None:
        if not period_s > 0:
            raise ValueError(f"sample period must be positive, got {period_s!r}")
        if capacity < 2:
            raise ValueError(f"sampler capacity must be >= 2, got {capacity}")
        self.period_s = float(period_s)
        #: The configured period (before any stride doubling), for export.
        self.requested_period_s = self.period_s
        self.capacity = capacity
        self.samples: list[Sample] = []
        self._next_t = 0.0
        self._capture: Callable[[float], Sample] | None = None

    def bind(self, capture: Callable[[float], Sample]) -> None:
        """Install the state-capture callback (one per run topology)."""
        self._capture = capture

    def catch_up(self, t: float) -> None:
        """Fire every pending tick ``<= t`` against the current state.

        Called by the driving loop just before it processes an event at
        ``t``; multiple ticks in a long inter-event gap all capture the
        same (unchanged) state, which is exactly correct for a
        discrete-event simulation.
        """
        if self._capture is None:
            return
        # Tolerance absorbs accumulated float error in the tick cursor so
        # a tick nominally equal to ``t`` is never skipped.
        while self._next_t <= t + 1e-12:
            self._take(self._next_t)
            self._next_t += self.period_s

    def _take(self, t: float) -> None:
        if len(self.samples) >= self.capacity:
            # Ring full: keep every other sample and double the stride.
            del self.samples[::2]
            self.period_s *= 2.0
        self.samples.append(self._capture(t))

    def __len__(self) -> int:
        return len(self.samples)
