"""Smoke sweep for the parallel experiment runner (``pytest -m smoke``).

A deliberately small grid — two systems at two RPS points over a
six-second trace — fanned out over two worker processes, then replayed
from the warm cache.  The whole module runs in well under a minute, so
CI (and anyone touching the runner) gets an end-to-end check of the
parallel path without paying for the full figure sweeps.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.common import SEED, benchmark_jobs, run_grid
from repro.analysis.cache import ResultCache
from repro.analysis.export import points_from_cache
from repro.analysis.runner import ExperimentSpec, SweepRunner
from repro.registry import SpecError

pytestmark = pytest.mark.smoke

_SYSTEMS = ("adaserve", "vllm")
_RPS = (1.5, 2.5)


def _grid() -> list[ExperimentSpec]:
    base = ExperimentSpec.create(
        model="llama70b", system="adaserve", rps=1.0, duration_s=6.0, seed=SEED
    )
    # Replica seeding keeps the smoke grid disjoint from the figure caches.
    seed = base.with_replica(0).workload.seed
    return [
        ExperimentSpec.create(
            model="llama70b", system=system, rps=rps, duration_s=6.0, seed=seed
        )
        for rps in _RPS
        for system in _SYSTEMS
    ]


def test_parallel_smoke_sweep(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepRunner(cache=cache, jobs=2)
    results = cold.run(_grid())

    assert cold.executed == len(results) == len(_RPS) * len(_SYSTEMS)
    assert {r.report.scheduler_name for r in results} == {"AdaServe", "vLLM"}
    assert all(r.report.metrics.num_requests > 0 for r in results)

    points = points_from_cache(cache, _grid())
    assert {p.x for p in points} == set(_RPS)

    warm = SweepRunner(cache=cache, jobs=2)
    replay = warm.run(_grid())
    assert warm.executed == 0
    assert all(r.from_cache for r in replay)
    assert [r.report.metrics for r in replay] == [r.report.metrics for r in results]


def test_benchmark_grids_default_to_every_core(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert benchmark_jobs() == (os.cpu_count() or 1)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_grid_rejects_a_non_positive_worker_count(monkeypatch, jobs):
    # Passed on unclamped: the runner refuses it rather than running serially.
    monkeypatch.setenv("REPRO_JOBS", jobs)
    with pytest.raises(SpecError, match="jobs"):
        run_grid([])
