"""Chaos recovery scenario: replica churn, autonomic re-routing, SLOs.

Beyond-the-paper scenario enabled by the fault-injection subsystem
(:mod:`repro.chaos`): replicas crash mid-run (losing their KV and shared
prefix blocks) and restart cold, while the fleet recovers autonomically —
in-flight requests are re-queued and re-routed, sessions are re-homed,
lost prefixes re-prefilled.

What the scenario pins down:

- **no request is dropped**: everything evacuated from a dead replica
  finishes elsewhere (or back on the restarted replica), and the incident
  report's recovery-time / requests-lost metrics say so;
- under churn, prefix-affinity routing with crash re-homing strictly
  beats naive round-robin on goodput *and* p99 urgent TTFT: stickiness
  keeps surviving homes warm, while round-robin re-prefills session
  history all over the fleet;
- fixed-seed chaos runs are byte-identical across repeats (the fault
  timeline is part of the experiment spec).

Runs through the shared result cache and is ``smoke``-marked for CI; the
incident table printed here is the same one ``repro run`` prints for a
point with ``--faults`` (CI puts it in the job summary).
"""

from __future__ import annotations

import pytest

from benchmarks.common import SEED, run_grid
from repro.analysis.runner import ExperimentSpec, SweepRunner
from repro.chaos.report import format_incident_table

pytestmark = pytest.mark.smoke

_MODEL = "llama70b"
_REPLICAS = 4
_RPS = 14.0
_DURATION_S = 20.0
_TRACE = "sessions:turns=5,think_time=2.0"
#: Replica churn: two staggered crashes with cold restarts.
_FAULTS = (
    "crash:at=6,replica=1,restart=4",
    "crash:at=12,replica=2,restart=4",
)
#: The latency-stringent (baseline-relative SLO) category of the paper mix.
_URGENT_CATEGORY = "coding"


def _churn_config(router: str) -> ExperimentSpec:
    return ExperimentSpec.create(
        model=_MODEL,
        system="vllm",
        rps=_RPS,
        duration_s=_DURATION_S,
        seed=SEED,
        trace=_TRACE,
        prefix_cache=True,
        replicas=_REPLICAS,
        router=router,
        faults=_FAULTS,
    )


def test_recovery_under_churn(benchmark):
    """Crashes evacuate cleanly: nothing lost, recovery time bounded."""
    results = benchmark.pedantic(
        run_grid, args=([_churn_config("prefix-affinity")],), rounds=1, iterations=1
    )
    report = results[0].report
    chaos = report.chaos
    assert chaos is not None
    print(f"\n=== Incident report ({_MODEL}, {_REPLICAS} replicas, {_TRACE}) ===")
    print(format_incident_table(chaos))

    assert chaos["num_crashes"] == 2
    # Autonomic recovery: every evacuated request finished somewhere.
    assert chaos["requests_lost"] == 0
    assert report.metrics.requests_lost == 0
    assert report.metrics.requests_disrupted > 0
    for crash in chaos["crashes"]:
        assert crash["requeued"] > 0
        assert crash["recovery_time_s"] is not None
        # Recovered within the run, not merely "by the end of time".
        assert crash["recovery_time_s"] < _DURATION_S
    assert chaos["mean_recovery_time_s"] > 0.0
    # Service during the incident windows stayed useful (not a blackout).
    assert chaos["incident"]["attainment"] > 0.5


def test_affinity_rehoming_beats_round_robin_under_churn(benchmark):
    """Stickiness + re-homing wins goodput and p99 urgent TTFT under churn."""
    routers = ("prefix-affinity", "round-robin")
    configs = [_churn_config(router) for router in routers]
    results = benchmark.pedantic(run_grid, args=(configs,), rounds=1, iterations=1)
    by_router = dict(zip(routers, (r.report for r in results)))

    print(f"\n=== Churn ({_MODEL}, {_REPLICAS} replicas, faults: {', '.join(_FAULTS)}) ===")
    for router, report in by_router.items():
        m = report.metrics
        urgent = m.per_category[_URGENT_CATEGORY]
        print(
            f"  {router:16s} goodput {m.goodput:7.0f}  "
            f"p99 {_URGENT_CATEGORY} TTFT {urgent.p99_ttft_s:.3f}s  "
            f"hit rate {m.prefix_hit_rate:.2f}  disrupted {m.requests_disrupted}  "
            f"mean recovery {report.chaos['mean_recovery_time_s']:.2f}s"
        )

    affinity = by_router["prefix-affinity"].metrics
    naive = by_router["round-robin"].metrics
    # Strict wins: warm homes serve follow-up turns through the churn,
    # while round-robin re-prefills session history all over the fleet.
    assert affinity.goodput > naive.goodput
    assert (
        affinity.per_category[_URGENT_CATEGORY].p99_ttft_s
        < naive.per_category[_URGENT_CATEGORY].p99_ttft_s
    )
    # Neither policy loses work — the recovery guarantee is router-agnostic.
    assert by_router["prefix-affinity"].chaos["requests_lost"] == 0
    assert by_router["round-robin"].chaos["requests_lost"] == 0


def test_chaos_points_deterministic(tmp_path):
    """Fixed-seed chaos runs are byte-identical and cache-stable."""
    from repro.analysis.cache import ResultCache

    configs = [_churn_config("prefix-affinity")]
    cache = ResultCache(tmp_path)

    cold = SweepRunner(cache=cache, jobs=1)
    first = cold.run(configs)
    assert cold.executed == 1

    warm = SweepRunner(cache=cache, jobs=1)
    second = warm.run(configs)
    assert warm.executed == 0
    assert second[0].from_cache
    assert (
        cache.path_for(first[0].config).read_bytes()
        == cache.path_for(second[0].config).read_bytes()
    )
    assert first[0].report.chaos == second[0].report.chaos
