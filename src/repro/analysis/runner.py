"""Parallel experiment runner over declarative experiment specs.

The sweeps behind Figures 8-15 are embarrassingly parallel: every point
is an independent simulation, a pure function of its
:class:`~repro.analysis.spec.ExperimentSpec`.  :class:`SweepRunner` fans
points out across a ``ProcessPoolExecutor`` and commits each finished
point to a :class:`~repro.analysis.cache.ResultCache`, so

- ``jobs=N`` produces results identical to the serial path (points carry
  their full configuration, including the workload seed — nothing depends
  on execution order or worker identity);
- a warm cache answers a whole sweep with zero simulations;
- an interrupted sweep resumes from the points already committed.

Results are returned in input order regardless of completion order.  To
keep cached and freshly-executed results indistinguishable, every report
is round-tripped through its JSON record form (per-request detail is
dropped; all aggregates survive exactly).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro._rng import derive_seed
from repro.analysis.cache import ResultCache
from repro.analysis.export import report_from_dict, report_to_dict
from repro.analysis.harness import Setup, build_setup, run_once
from repro.analysis.spec import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.registry import TRACES
from repro.serving.request import Request
from repro.serving.server import SimulationReport
from repro.workloads.generator import WorkloadGenerator

__all__ = [
    "ClusterSpec",
    "ExperimentSpec",
    "SweepResult",
    "SweepRunner",
    "SystemSpec",
    "WorkloadSpec",
    "build_workload",
    "derive_seed",
    "execute_point",
    "run_spec",
    "run_traced",
]


def build_workload(setup: Setup, config: ExperimentSpec) -> list[Request]:
    """The request trace for a spec (same recipe as the CLI/benchmarks).

    The workload section's ``trace`` is a registry spec string
    (``bursty``, ``diurnal:peak_to_trough=6``, ...); its parameters are
    forwarded to the registered trace factory.
    """
    w = config.workload
    gen = WorkloadGenerator(setup.target_roofline, seed=w.seed, slo_scale=w.slo_scale)
    mix = dict(w.mix) if w.mix else None
    return TRACES.create(w.trace, gen, w.duration_s, w.rps, mix=mix)


def run_spec(
    config: ExperimentSpec, observer=None, invariants=None
) -> SimulationReport:
    """Execute one spec fresh and return the live report (no cache).

    The single build-and-run recipe behind :func:`execute_point` and
    the golden-equivalence tests — so every consumer simulates exactly
    the configuration real experiments would.  Every point runs through
    :func:`~repro.analysis.harness.run_once`; cluster points (see
    :attr:`ExperimentSpec.is_cluster`) return the fleet-level summary.
    ``observer`` (see :func:`run_traced`) attaches passive
    observability; ``invariants`` (an
    :class:`~repro.check.invariants.InvariantChecker`, see
    ``--check-invariants``) attaches the runtime sanitizer.  Neither
    ever changes the report.
    """
    setup = build_setup(
        config.system.model,
        seed=config.workload.seed,
        prefix_cache=config.system.prefix_cache,
    )
    requests = build_workload(setup, config)
    cluster = config.cluster
    return run_once(
        setup,
        config.system.name,
        requests,
        replicas=cluster.replicas,
        router=cluster.router,
        autoscale=None if cluster.autoscale is None else dict(cluster.autoscale),
        faults=config.chaos.faults,
        max_sim_time_s=config.system.max_sim_time_s,
        observer=observer,
        invariants=invariants,
        metrics_mode=config.system.metrics,
    )


def run_traced(config: ExperimentSpec, invariants=None):
    """Execute one spec fresh with its ``obs`` section attached.

    Returns ``(report, observer)`` where ``observer`` is the
    :class:`~repro.obs.observer.RunObserver` holding the trace
    collector, gauge sampler, and iteration logs the run produced.
    Always simulates fresh (never consults the result cache): traces are
    a by-product of execution, so a cache hit would have nothing to
    return — and because the ``obs`` section is excluded from the cache
    key, traced runs still *validate* against cached results via their
    byte-identical reports.  ``invariants`` attaches the runtime
    sanitizer exactly as in :func:`run_spec`.
    """
    from repro.obs import RunObserver

    observer = RunObserver.from_spec(config.obs)
    report = run_spec(config, observer=observer, invariants=invariants)
    return report, observer


def execute_point(config: ExperimentSpec) -> dict:
    """Run one simulation point and return its serialized report.

    Top-level (picklable) so it can serve as the process-pool worker;
    deterministic given ``config``.
    """
    return report_to_dict(run_spec(config))


@dataclass(frozen=True)
class SweepResult:
    """One completed point: its config, cache key, report, and provenance."""

    config: ExperimentSpec
    key: str
    report: SimulationReport
    from_cache: bool


class SweepRunner:
    """Executes config grids, in parallel, through the result cache.

    Parameters
    ----------
    cache:
        Result store consulted before and populated after each point;
        ``None`` disables caching entirely.
    jobs:
        Worker processes for cache-missing points.  ``1`` runs in-process
        (still through the same ``execute_point`` path, so parallel and
        serial sweeps are bit-identical).
    """

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.jobs = jobs
        self.executed = 0  # simulations actually run (cache misses)

    def run(
        self,
        configs: Iterable[ExperimentSpec],
        on_result: Callable[[SweepResult], None] | None = None,
    ) -> list[SweepResult]:
        """All points of a grid, in input order.

        ``on_result`` (if given) fires once per point as it completes —
        cache hits first, then simulations in completion order.
        """
        grid: Sequence[ExperimentSpec] = list(configs)
        results: list[SweepResult | None] = [None] * len(grid)

        # Resolve cache hits up front; group the misses by digest so a
        # grid with duplicate points simulates each point once.
        pending: dict[str, list[int]] = {}
        for i, config in enumerate(grid):
            key = config.digest()
            record = self.cache.get(config) if self.cache is not None else None
            if record is not None:
                results[i] = SweepResult(
                    config, key, report_from_dict(record["report"]), True
                )
                if on_result:
                    on_result(results[i])
            else:
                pending.setdefault(key, []).append(i)

        def finish(key: str, indices: list[int], report_dict: dict) -> None:
            self.executed += 1
            if self.cache is not None:
                self.cache.put(grid[indices[0]], report_dict)
            for i in indices:
                results[i] = SweepResult(
                    grid[i], key, report_from_dict(report_dict), False
                )
                if on_result:
                    on_result(results[i])

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for key, indices in pending.items():
                    finish(key, indices, execute_point(grid[indices[0]]))
            else:
                workers = min(self.jobs, len(pending), os.cpu_count() or 1)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(execute_point, grid[indices[0]]): (key, indices)
                        for key, indices in pending.items()
                    }
                    for future in as_completed(futures):
                        key, indices = futures[future]
                        finish(key, indices, future.result())

        return [r for r in results if r is not None]

    def stats_line(self) -> str:
        """One-line summary: cache traffic plus simulations executed."""
        prefix = (
            self.cache.stats.summary() if self.cache is not None else "cache: disabled"
        )
        return f"{prefix}; simulations executed: {self.executed}"
