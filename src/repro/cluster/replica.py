"""One fleet replica: an engine + scheduler pair on its own timeline.

A replica is a :class:`~repro.serving.engine.SimulatedEngine` wrapped by a
scheduler, plus the bookkeeping the fleet loop needs to interleave
replicas over one shared clock (a solo run,
:class:`~repro.serving.server.ServingSimulator`, is a fleet of one):

- ``local_now`` is the time up to which this replica has been simulated
  (its next iteration boundary when it has work);
- ``available_at`` models autoscaler warm-up: a freshly added replica is
  not routable until its warm-up completes;
- ``draining`` marks a replica being scaled down: it finishes the work it
  already owns but receives no new requests.

Load introspection (``queued_requests``/``queued_tokens``) is what the
routing policies in :mod:`repro.cluster.router` compare, and
:meth:`Replica.requests` is what the fleet's one report aggregates.
"""

from __future__ import annotations

from repro.serving.engine import PhaseTimes, SimulatedEngine
# aggregate_metrics is unused here; it stays a module global because
# simbench/tracer.py wraps it.
from repro.serving.metrics import aggregate_metrics  # noqa: F401
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler


class Replica:
    """A single engine + scheduler pair inside a fleet."""

    def __init__(
        self,
        index: int,
        engine: SimulatedEngine,
        scheduler: Scheduler,
        available_at: float = 0.0,
    ) -> None:
        if scheduler.engine is not engine:
            raise ValueError("scheduler must wrap the provided engine")
        self.index = index
        self.engine = engine
        self.scheduler = scheduler
        self.available_at = available_at
        #: Time up to which this replica has been simulated.  While the
        #: replica has work this is its next iteration boundary; idle
        #: replicas are pulled forward when a request is routed to them.
        self.local_now = available_at
        self.draining = False
        self.retired = False
        #: Crashed and waiting for its restart (chaos runs): not
        #: routable, not stepped, still occupying its hardware slot.
        self.failed = False
        self.iterations = 0
        # Crash stash: requests that finished on pre-crash engines and
        # their accumulated phase times.  Lazy (None until the first
        # crash) so no-crash replicas report through the exact same code
        # path — and the same floats — as before chaos existed.
        self._crash_finished: list[Request] = []
        self._crash_phase: PhaseTimes | None = None
        # Load changes only at admissions and iteration boundaries, but
        # routers probe it once per routable replica per arrival — cache
        # the queue scan and invalidate on those two events.
        self._load_version = 0
        self._load_at_version = -1
        self._load = (0, 0)

    # ------------------------------------------------------------------
    # Fleet-facing interface
    # ------------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether the replica can run an iteration."""
        return self.scheduler.has_work()

    def admit(self, req: Request, now: float) -> None:
        """Accept a routed request at fleet time ``now``.

        An idle replica's timeline is pulled forward to the admission
        instant (there is nothing to simulate in the gap); a busy replica
        queues the request for its next boundary, as a real engine's
        waiting queue does.
        """
        if not self.has_work():
            self.local_now = max(self.local_now, now)
        self.scheduler.admit(req)
        tracer = self.engine.obs
        if tracer is not None:
            tracer.enqueue(now, req)
        self._load_version += 1

    def step(self) -> float:
        """Run one iteration at ``local_now``; advance to its boundary."""
        tracer = self.engine.obs
        if tracer is not None:
            # Emission sites without a time parameter of their own
            # (preemption, prefix lookups) stamp the iteration start.
            tracer.now = self.local_now
        latency = self.scheduler.step(self.local_now)
        if latency <= 0:
            raise RuntimeError(
                f"replica {self.index} ({self.scheduler.name}): "
                f"non-positive iteration latency {latency}"
            )
        self.local_now += latency
        self.iterations += 1
        self._load_version += 1
        return latency

    def finalize(self) -> None:
        """Retire requests that finished in the last iteration."""
        self.scheduler.finalize()

    def crash(self, engine: SimulatedEngine, scheduler: Scheduler) -> list[Request]:
        """Lose all engine state at a fault instant; swap in a fresh pair.

        Models the replica process dying: every private KV block *and*
        shared prefix block is wiped (:meth:`KVCacheManager.invalidate_all`),
        unfinished requests are surrendered to the caller for re-routing,
        and the replacement engine + scheduler start cold.  Requests that
        finished before the crash — and the dead engine's accumulated
        phase times — are stashed so :meth:`requests` stays complete.
        """
        if scheduler.engine is not engine:
            raise ValueError("scheduler must wrap the provided engine")
        victims = self.scheduler.evacuate()
        self._crash_finished.extend(self.scheduler.finished)
        if self._crash_phase is None:
            self._crash_phase = PhaseTimes()
        self._crash_phase.add(self.engine.phase_times)
        self.engine.kv.invalidate_all()
        self.engine = engine
        self.scheduler = scheduler
        self._load_version += 1
        return victims

    def accumulated_phase_times(self) -> PhaseTimes:
        """Busy time across every engine this replica has run.

        Returns the live engine's tally directly when the replica never
        crashed, so no-crash runs see the identical object (and floats)
        they always did.
        """
        if self._crash_phase is None:
            return self.engine.phase_times
        merged = PhaseTimes()
        merged.add(self._crash_phase)
        merged.add(self.engine.phase_times)
        return merged

    # ------------------------------------------------------------------
    # Load introspection (router inputs)
    # ------------------------------------------------------------------
    def _current_load(self) -> tuple[int, int]:
        """(unfinished requests, outstanding tokens), memoized per version."""
        if self._load_at_version != self._load_version:
            self._load = self.scheduler.outstanding()
            self._load_at_version = self._load_version
        return self._load

    @property
    def waiting_requests(self) -> int:
        """Backlog: admitted requests not yet scheduled onto the engine."""
        return len(self.scheduler.waiting)

    @property
    def queued_requests(self) -> int:
        """Requests owned and not yet finished (waiting + running)."""
        return self._current_load()[0]

    @property
    def queued_tokens(self) -> int:
        """Outstanding work in tokens (prompt left + output left)."""
        return self._current_load()[1]

    # ------------------------------------------------------------------
    def requests(self) -> list[Request]:
        """Every request served here, in scheduler order (pre-crash finishes first)."""
        return self._crash_finished + self.scheduler.all_requests()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (("D", self.draining), ("R", self.retired), ("F", self.failed))
            if on
        )
        return (
            f"Replica(#{self.index}{flags}, t={self.local_now:.3f}, "
            f"queued={self.queued_requests})"
        )
