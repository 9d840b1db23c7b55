"""Cluster-scale routing-policy comparison (beyond-the-paper scenario).

A 4-replica fleet serves the diurnal trace at cluster-scale RPS (~4x a
single engine's operating range) under each routing policy.  Expected
shape:

- for an SLO-unaware engine (vLLM continuous batching), affinity routing
  strictly improves urgent-category attainment over round-robin by
  isolating the stringent class on over-provisioned reserved replicas,
  trading fleet goodput for it — routing-level SLO awareness substitutes
  for the missing engine-level mechanism (AdaServe fleets, by contrast,
  handle the mixed-SLO batch in-engine and are router-insensitive until
  overload);
- load-aware policies (least-loaded, p2c) stay within tolerance of
  round-robin on fleet-wide attainment;
- an autoscaled fleet started at half size converges toward the static
  fleet's attainment, paying a warm-up penalty.

Runs through the shared result cache like every other benchmark, and is
``smoke``-marked: the grid is small enough for CI's cached-smoke job.
"""

from __future__ import annotations

import pytest

from benchmarks.common import SEED, run_grid
from repro.analysis.report import point_from_metrics, series_table
from repro.analysis.runner import ExperimentSpec, SweepRunner
from repro.registry import ROUTERS

pytestmark = pytest.mark.smoke

_MODEL = "llama70b"
_REPLICAS = 4
#: Cluster-scale load: ~4x the single-engine Figure 8 operating range.
_RPS = 16.0
_DURATION_S = 18.0


def _cluster_config(
    router: str, system: str = "vllm", autoscale: dict | None = None
) -> ExperimentSpec:
    return ExperimentSpec.create(
        model=_MODEL,
        system=system,
        rps=_RPS,
        duration_s=_DURATION_S,
        seed=SEED,
        trace="diurnal",
        replicas=_REPLICAS,
        router=router,
        autoscale=autoscale,
    )


def _urgent_attainment(report) -> float:
    return report.metrics.per_category["coding"].attainment


def test_cluster_router_comparison(benchmark):
    configs = [_cluster_config(router) for router in ROUTERS.names()]
    results = benchmark.pedantic(run_grid, args=(configs,), rounds=1, iterations=1)
    by_router = dict(zip(ROUTERS.names(), results))

    points = [
        point_from_metrics(_RPS, r.report.scheduler_name, r.report.metrics)
        for r in results
    ]
    print(f"\n=== Cluster ({_MODEL}, {_REPLICAS} replicas, diurnal): attainment ===")
    print(series_table(points, value="attainment", x_label="RPS"))
    print("\nurgent (coding) attainment per router:")
    for router, result in by_router.items():
        print(f"  {router:12s} {_urgent_attainment(result.report):.3f}")

    for result in results:
        assert result.report.metrics.num_requests > 0

    # Affinity isolates the urgent class: strictly better urgent
    # attainment than round-robin under cluster-scale contention.
    assert _urgent_attainment(by_router["affinity"].report) > _urgent_attainment(
        by_router["round-robin"].report
    )
    # Load-aware routing does not lose to blind rotation fleet-wide.
    assert (
        by_router["least-loaded"].report.metrics.attainment
        >= by_router["round-robin"].report.metrics.attainment - 0.03
    )
    assert (
        by_router["p2c"].report.metrics.attainment
        >= by_router["round-robin"].report.metrics.attainment - 0.03
    )


def test_cluster_points_are_deterministic_and_cached(tmp_path):
    """Same fixed-seed grid twice: byte-identical records, zero re-runs."""
    from repro.analysis.cache import ResultCache

    configs = [_cluster_config(router) for router in ("round-robin", "p2c")]
    cache = ResultCache(tmp_path)

    cold = SweepRunner(cache=cache, jobs=1)
    first = cold.run(configs)
    assert cold.executed == len(configs)

    warm = SweepRunner(cache=cache, jobs=1)
    second = warm.run(configs)
    assert warm.executed == 0
    assert all(r.from_cache for r in second)
    for a, b in zip(first, second):
        assert cache.path_for(a.config).read_bytes() == cache.path_for(b.config).read_bytes()
        assert a.report.metrics == b.report.metrics


def test_cluster_autoscaling_converges(benchmark):
    """A half-size fleet with autoscaling approaches the static fleet."""
    static = _cluster_config("least-loaded", system="adaserve")
    scaled = ExperimentSpec.create(
        model=_MODEL,
        system="adaserve",
        rps=_RPS,
        duration_s=_DURATION_S,
        seed=SEED,
        trace="diurnal",
        replicas=_REPLICAS // 2,
        router="least-loaded",
        autoscale={"max_replicas": _REPLICAS, "warmup_s": 2.0},
    )
    results = benchmark.pedantic(run_grid, args=([static, scaled],), rounds=1, iterations=1)
    static_att = results[0].report.metrics.attainment
    scaled_att = results[1].report.metrics.attainment
    print(
        f"\nstatic x{_REPLICAS}: attainment {static_att:.3f}   "
        f"autoscaled {_REPLICAS // 2}->{_REPLICAS}: attainment {scaled_att:.3f}"
    )
    # Warm-up costs something, but scaling must recover most of the gap
    # versus a fleet that was full-size from the start.
    assert scaled_att >= static_att - 0.25
    assert scaled_att > 0.5
