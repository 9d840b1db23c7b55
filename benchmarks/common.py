"""Shared machinery for the figure/table benchmarks.

Each benchmark reproduces one piece of the paper's evaluation.  A
benchmark builds its grid of :class:`ExperimentSpec` points and runs it
with one :func:`run_grid` call: one :class:`SweepRunner` batch through
the content-addressed result cache (:mod:`repro.analysis.cache`), fanned
out over every core.  Results are reused across benchmark files, pytest
sessions, CLI invocations, and CI jobs alike, and the end-to-end figures
(8, 9, 12) share one RPS sweep per model.  Set ``REPRO_CACHE_DIR`` to
relocate the cache and ``REPRO_JOBS`` to set the worker count
(``REPRO_JOBS=1`` runs serially; printed results are identical either
way).

Scale note: traces are shorter than the paper's (tens of seconds rather
than tens of minutes) to keep the full benchmark run in minutes on a
laptop; the contention regime (prefill utilization and RPS range) matches
the paper's setup, which is what the reproduced *shapes* depend on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

from repro.analysis.cache import ResultCache
from repro.analysis.harness import Setup, build_setup
from repro.analysis.report import SeriesPoint, point_from_metrics
from repro.analysis.runner import ExperimentSpec, SweepResult, SweepRunner

#: Systems compared in the end-to-end figures (Figures 8-12, 14).
E2E_SYSTEMS = ("adaserve", "vllm", "sarathi", "vllm-spec:k=4", "vllm-spec:k=6", "vllm-spec:k=8")

#: RPS sweeps per model (Figure 8/9 x-axes).
RPS_SWEEP = {
    "llama70b": (2.6, 3.0, 3.4, 3.8, 4.2, 4.6, 5.0),
    "qwen32b": (2.4, 2.8, 3.2, 3.6, 4.0, 4.4),
}

#: Trace length for the end-to-end sweeps (seconds).
SWEEP_DURATION_S = 45.0

#: Workload seed for all benchmarks (results are deterministic given it).
SEED = 1234


@cache
def benchmark_cache() -> ResultCache:
    """The session-wide result cache (one instance, so stats aggregate)."""
    return ResultCache()


def benchmark_jobs() -> int:
    """Worker processes per grid: ``REPRO_JOBS``, default one per core.

    The value is passed on unclamped, so ``REPRO_JOBS=0`` fails with the
    runner's ``SpecError`` instead of quietly running serially.
    """
    jobs = os.environ.get("REPRO_JOBS")
    return int(jobs) if jobs is not None else os.cpu_count() or 1


def setup_for(model: str) -> Setup:
    """Deployment setup under the benchmark seed."""
    return build_setup(model, seed=SEED)


def standard_config(
    model: str,
    system: str,
    rps: float,
    duration_s: float = SWEEP_DURATION_S,
    mix: dict[str, float] | None = None,
    slo_scale: float = 1.0,
    trace: str = "bursty",
) -> ExperimentSpec:
    """A standard-workload experiment point (seed and trace explicit).

    ``system`` and ``trace`` accept any registry spec string
    (``vllm-spec:k=8``, ``diurnal:peak_to_trough=6``, ...).
    """
    return ExperimentSpec.create(
        model=model,
        system=system,
        rps=rps,
        duration_s=duration_s,
        seed=SEED,
        trace=trace,
        slo_scale=slo_scale,
        mix=mix,
        max_sim_time_s=1800.0,
    )


def run_grid(configs: list[ExperimentSpec]) -> list[SweepResult]:
    """Run a benchmark's grid as one cached batch; results in input order."""
    return SweepRunner(cache=benchmark_cache(), jobs=benchmark_jobs()).run(configs)


def rps_sweep(model: str, systems: tuple[str, ...] = E2E_SYSTEMS) -> list[SeriesPoint]:
    """The Figure 8/9/12 sweep: every system at every RPS point."""
    configs = [
        standard_config(model, system, rps)
        for rps in RPS_SWEEP[model]
        for system in systems
    ]
    return [
        point_from_metrics(r.config.workload.rps, r.report.scheduler_name, r.report.metrics)
        for r in run_grid(configs)
    ]


@dataclass(frozen=True)
class FigureCheck:
    """A soft shape assertion outcome (recorded in printed output)."""

    description: str
    passed: bool

    def __str__(self) -> str:
        return f"[{'ok' if self.passed else 'MISS'}] {self.description}"


def adaserve_dominates(points: list[SeriesPoint], metric: str, tolerance: float) -> list[FigureCheck]:
    """Per-x checks that AdaServe >= best baseline - tolerance."""
    checks = []
    for x in sorted({p.x for p in points}):
        ada = next((p for p in points if p.x == x and p.system == "AdaServe"), None)
        others = [p for p in points if p.x == x and p.system != "AdaServe"]
        if ada is None or not others:
            continue
        best = max(getattr(p, metric) for p in others)
        ok = getattr(ada, metric) >= best - tolerance
        checks.append(
            FigureCheck(
                f"x={x:g}: AdaServe {metric} {getattr(ada, metric):.3f} vs best baseline {best:.3f}",
                ok,
            )
        )
    return checks
