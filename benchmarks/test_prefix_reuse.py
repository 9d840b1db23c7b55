"""Prefix-reuse scenario: session workloads, shared KV, affinity routing.

Beyond-the-paper scenario enabled by the prefix-cache subsystem
(:mod:`repro.prefixcache`): multi-turn chat sessions repeat an
ever-growing prompt prefix, so

- a prefix-sharing KV manager serves most prompt tokens from cache
  (hit rate and prefill-tokens-saved are reported fleet metrics);
- at cluster scale, *where* a turn lands decides whether its prefix is
  resident: the ``prefix-affinity`` router pins sessions to their home
  replica and beats load-only routing (least-loaded) on mean TTFT and
  goodput, because a hit skips nearly the whole prefill;
- everything stays a pure function of the spec: fixed-seed reruns are
  byte-identical, and schema-v4 canonicalization keys defaulted prefix
  knobs identically to plain v4 configs.

Runs through the shared result cache and is ``smoke``-marked for CI.
"""

from __future__ import annotations

import pytest

from benchmarks.common import SEED, run_grid
from repro.analysis.report import point_from_metrics, series_table
from repro.analysis.runner import ExperimentSpec, SweepRunner

pytestmark = pytest.mark.smoke

_MODEL = "llama70b"
_REPLICAS = 4
_RPS = 14.0
_DURATION_S = 20.0
_TRACE = "sessions:turns=5,think_time=2.0"


def _session_config(
    router: str,
    prefix_cache: bool = True,
    replicas: int = _REPLICAS,
    system: str = "vllm",
) -> ExperimentSpec:
    return ExperimentSpec.create(
        model=_MODEL,
        system=system,
        rps=_RPS,
        duration_s=_DURATION_S,
        seed=SEED,
        trace=_TRACE,
        prefix_cache=prefix_cache,
        replicas=replicas,
        router=router,
    )


def test_prefix_cache_serves_session_prefixes(benchmark):
    """Solo engine, sessions trace: hits > 0, prefill work saved, TTFT down."""
    cached = _session_config("round-robin", prefix_cache=True, replicas=1)
    cold = _session_config("round-robin", prefix_cache=False, replicas=1)
    results = benchmark.pedantic(run_grid, args=([cached, cold],), rounds=1, iterations=1)
    hit, miss = (r.report.metrics for r in results)

    print(
        f"\n=== Solo ({_MODEL}, {_TRACE}): prefix cache on vs off ===\n"
        f"  on : hit rate {hit.prefix_hit_rate:.2f}  saved {hit.prefill_tokens_saved} tok  "
        f"mean TTFT {hit.mean_ttft_s:.3f}s  goodput {hit.goodput:.0f}\n"
        f"  off: hit rate {miss.prefix_hit_rate:.2f}  saved {miss.prefill_tokens_saved} tok  "
        f"mean TTFT {miss.mean_ttft_s:.3f}s  goodput {miss.goodput:.0f}"
    )
    assert hit.prefix_hit_rate > 0
    assert hit.prefill_tokens_saved > 0
    assert miss.prefix_hit_rate == 0.0
    assert miss.prefill_tokens_saved == 0
    # Skipped prefill shows up directly as time-to-first-token.
    assert hit.mean_ttft_s < miss.mean_ttft_s


def test_prefix_affinity_beats_least_loaded_on_sessions(benchmark):
    """Fleet: session stickiness beats pure load balancing on TTFT/goodput."""
    routers = ("prefix-affinity", "least-loaded", "round-robin")
    configs = [_session_config(router) for router in routers]
    results = benchmark.pedantic(run_grid, args=(configs,), rounds=1, iterations=1)
    by_router = dict(zip(routers, (r.report.metrics for r in results)))

    points = [
        point_from_metrics(_RPS, r.report.scheduler_name, r.report.metrics)
        for r in results
    ]
    print(f"\n=== Cluster ({_MODEL}, {_REPLICAS} replicas, {_TRACE}) ===")
    print(series_table(points, value="goodput", x_label="RPS"))
    for router, m in by_router.items():
        print(
            f"  {router:16s} mean TTFT {m.mean_ttft_s:.3f}s  "
            f"hit rate {m.prefix_hit_rate:.2f}  saved {m.prefill_tokens_saved} tok  "
            f"attainment {m.attainment:.3f}"
        )

    affinity = by_router["prefix-affinity"]
    least = by_router["least-loaded"]
    # Routing to the prefix-holding replica is a strict TTFT win over
    # routing to the least-loaded one: the hit skips almost all prefill.
    assert affinity.mean_ttft_s < least.mean_ttft_s
    # It also saves strictly more prefill work (follow-up turns land on
    # warm KV instead of recomputing their history elsewhere) and turns
    # that into goodput.
    assert affinity.prefill_tokens_saved > least.prefill_tokens_saved
    assert affinity.goodput > least.goodput


def test_prefix_points_deterministic_and_canonicalized(tmp_path):
    """(c) byte-identical fixed-seed reruns + schema-v4 key canonicalization."""
    from repro.analysis.cache import ResultCache

    configs = [
        _session_config("prefix-affinity"),
        _session_config("round-robin", prefix_cache=False, replicas=1),
    ]
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

    # v4 canonicalization: defaulted prefix knobs (prefix_cache=False,
    # spelled-out trace defaults) share keys with plain v4 configs.
    plain = ExperimentSpec.create(
        model=_MODEL, system="vllm", rps=_RPS, duration_s=_DURATION_S, seed=SEED
    )
    spelled = ExperimentSpec.create(
        model=_MODEL, system="vllm", rps=_RPS, duration_s=_DURATION_S, seed=SEED,
        trace="bursty:burstiness=0.5", prefix_cache=False,
    )
    assert plain == spelled
    assert plain.digest() == spelled.digest()
    sessions_default = ExperimentSpec.create(
        model=_MODEL, system="vllm", rps=_RPS, duration_s=_DURATION_S, seed=SEED,
        trace="sessions:turns=6,system_prompt=256,think_time=4.0",
    )
    assert sessions_default.workload.trace == "sessions"
