"""Engine-level driver for tests and examples, and the run report.

:class:`ServingSimulator` drives one built engine and scheduler over an
arrival trace as a one-replica fleet: there is one simulation loop,
:meth:`repro.cluster.fleet.FleetSimulator.run`.  Experiments build their
points through :func:`repro.analysis.harness.run_once` instead.

The loop is iteration-driven: GPU serving systems execute one batch step
at a time, and every interesting event (token commit, prefill
completion) happens at an iteration boundary.  A request joins the
waiting queue at its arrival instant and is scheduled at the next
boundary, exactly as a real engine's waiting queue behaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.engine import SimulatedEngine
from repro.serving.metrics import RunMetrics
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
# Unused here; kept as a module global because simbench/tracer.py wraps it.
from repro.serving.streaming import aggregate_metrics  # noqa: F401


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
        Safety horizon; no iteration starts after it (unfinished requests
        count as violations).
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
        self.requests = requests
        self.max_sim_time_s = max_sim_time_s
        self.max_iterations = max_iterations
        self.observer = observer
        self.invariants = invariants
        self.metrics_mode = metrics_mode

    def run(self) -> SimulationReport:
        """Execute the simulation to completion (or safety cutoff).

        Runs a one-replica :class:`~repro.cluster.fleet.FleetSimulator`
        over this simulator's engine and scheduler and returns the
        replica's report: the scheduler's own label, metrics aggregated
        in scheduler order, and ``sim_time_s`` at the replica's last
        iteration boundary.
        """
        # Imported here: repro.cluster imports SimulationReport from this module.
        from repro.cluster.fleet import FleetSimulator
        from repro.cluster.router import RoundRobinRouter

        fleet = FleetSimulator(
            lambda _index: (self.engine, self.scheduler),
            self.requests,
            RoundRobinRouter(),
            num_replicas=1,
            max_sim_time_s=self.max_sim_time_s,
            max_iterations=self.max_iterations,
            observer=self.observer,
            invariants=self.invariants,
            metrics_mode=self.metrics_mode,
        )
        return fleet.run().replica_reports[0]
