"""Top-level serving simulator.

Drives a scheduler over an arrival trace: admit requests whose timestamps
have passed, run scheduler iterations, advance the simulated clock by each
iteration's modeled latency, and collect metrics when the pool drains.

The loop is iteration-driven rather than event-driven: GPU serving systems
execute one batch step at a time, and every interesting event (token
commit, prefill completion) happens at an iteration boundary.  Arrivals
between boundaries are admitted at the next boundary, exactly as a real
engine's waiting queue behaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.clock import ArrivalStream, ChunkedArrivalStream, SimClock
from repro.serving.engine import SimulatedEngine
from repro.serving.metrics import RunMetrics
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
from repro.serving.streaming import aggregate_metrics


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one simulated run."""

    scheduler_name: str
    metrics: RunMetrics
    sim_time_s: float
    iterations: int
    phase_breakdown: dict[str, float]
    requests: list[Request]
    #: Incident report (fault timeline + recovery milestones) for runs
    #: with an active fault schedule; None otherwise.  See repro.chaos.
    chaos: dict | None = None

    @property
    def attainment(self) -> float:
        """SLO attainment (convenience passthrough)."""
        return self.metrics.attainment

    @property
    def goodput(self) -> float:
        """Goodput in tokens/s (convenience passthrough)."""
        return self.metrics.goodput


class ServingSimulator:
    """Simulate one scheduler over one workload trace.

    Parameters
    ----------
    engine:
        The simulated execution engine (fresh per run).
    scheduler:
        The policy under test (fresh per run, wrapping ``engine``).
    requests:
        The workload; arrival times are absolute seconds.
    max_sim_time_s:
        Safety horizon; the run aborts (with unfinished requests counted
        as violations) if simulated time exceeds it.
    max_iterations:
        Safety cap on scheduler iterations.
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`; enables
        lifecycle tracing + periodic gauge sampling.  Observation is
        passive — an observed run's report is byte-identical to an
        unobserved one's.
    invariants:
        Optional :class:`~repro.check.invariants.InvariantChecker`
        (``--check-invariants``); validates event-time monotonicity,
        sampler bounds, and request conservation during the run.  Checks
        are read-only: a checked run's report is byte-identical too.
    """

    def __init__(
        self,
        engine: SimulatedEngine,
        scheduler: Scheduler,
        requests: list[Request],
        max_sim_time_s: float = 7200.0,
        max_iterations: int = 2_000_000,
        observer=None,
        invariants=None,
        metrics_mode: str = "exact",
    ) -> None:
        if scheduler.engine is not engine:
            raise ValueError("scheduler must wrap the provided engine")
        self.engine = engine
        self.scheduler = scheduler
        # A columnar workload (anything exposing iter_chunks in arrival
        # order) is consumed lazily — requests materialize as the clock
        # reaches them instead of all up front.
        self.requests = requests if hasattr(requests, "iter_chunks") else list(requests)
        self.max_sim_time_s = max_sim_time_s
        self.max_iterations = max_iterations
        self.observer = observer
        self.invariants = invariants
        self.metrics_mode = metrics_mode

    def run(self) -> SimulationReport:
        """Execute the simulation to completion (or safety cutoff)."""
        clock = SimClock()
        if hasattr(self.requests, "iter_chunks"):
            arrivals = ChunkedArrivalStream(self.requests.iter_chunks())
        else:
            arrivals = ArrivalStream(self.requests)
        iterations = 0
        sampler = None
        if self.observer is not None:
            self.observer.bind_solo(self.scheduler, self.engine)
            sampler = self.observer.sampler
        # The tracer (if any) was installed as ``engine.obs`` by the
        # harness; a solo run never swaps engines, so bind it once.
        tracer = self.engine.obs
        inv = self.invariants
        # Conservation is checked against what was actually admitted: a
        # horizon abort legitimately leaves unreleased arrivals behind.
        admitted = [] if inv is not None else None

        while True:
            # Gauge ticks <= now fire before this boundary's admissions,
            # capturing the state held since the previous event.
            if sampler is not None:
                sampler.catch_up(clock.now)
            if inv is not None:
                inv.check_event_time(clock.now)
                if sampler is not None:
                    inv.check_sampler(sampler, clock.now)

            for req in arrivals.release_until(clock.now):
                self.scheduler.admit(req)
                if tracer is not None:
                    tracer.enqueue(clock.now, req)
                if admitted is not None:
                    admitted.append(req)

            if not self.scheduler.has_work():
                nxt = arrivals.next_arrival
                if nxt is None:
                    break  # drained
                clock.advance_to(nxt)
                continue

            if tracer is not None:
                tracer.now = clock.now
            latency = self.scheduler.step(clock.now)
            if latency <= 0:
                raise RuntimeError(
                    f"{self.scheduler.name}: non-positive iteration latency {latency}"
                )
            clock.advance(latency)
            iterations += 1

            if clock.now > self.max_sim_time_s:
                break
            if iterations > self.max_iterations:
                raise RuntimeError(
                    f"{self.scheduler.name}: exceeded {self.max_iterations} iterations"
                )

        if sampler is not None:
            sampler.catch_up(clock.now)
        self.scheduler.finalize()
        all_requests = self.scheduler.all_requests()
        for req in all_requests:
            req.on_finish = None  # still set on requests left unfinished
        if inv is not None:
            if sampler is not None:
                inv.check_sampler(sampler, clock.now)
            inv.check_conservation(admitted, all_requests, "solo drain")
        return SimulationReport(
            scheduler_name=self.scheduler.name,
            metrics=aggregate_metrics(all_requests, self.metrics_mode),
            sim_time_s=clock.now,
            iterations=iterations,
            phase_breakdown=self.engine.phase_times.breakdown(),
            requests=all_requests,
        )
