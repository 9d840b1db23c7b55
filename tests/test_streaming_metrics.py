"""Both metrics aggregation modes against the conftest oracle.

:func:`~repro.serving.metrics.aggregate_metrics` is one accumulator:
online sums for every mean/counter plus deterministic per-category
reservoirs for percentiles.  The ``metrics`` mode sets the reservoirs'
capacity (``exact``: no cap; ``streaming``: 4096).  The contract tested
here:

- **exact at small n**: while every per-category sample count fits the
  capacity (4096 dwarfs any test run), both modes equal
  ``reference_metrics`` *as a whole dataclass* — sums, counters, and
  percentiles alike;
- **only percentiles move past capacity**: with a deliberately tiny
  reservoir every other field still equals the oracle, and the
  percentile estimate stays within the expected rank-error band;
  ``exact`` mode keeps every sample however many there are;
- **deterministic**: reservoirs are keyed splitmix64 streams — same
  feed, same sample, no global RNG;
- the ``metrics`` spec knob forks cache keys only for ``streaming``
  (``exact`` stays invisible so existing keys and goldens survive).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.spec import ExperimentSpec, SpecError
from repro.serving.metrics import (
    METRICS_MODES,
    MetricsAccumulator,
    Reservoir,
    aggregate_metrics,
)
from tests.conftest import make_request, reference_metrics

_PERCENTILES = ("p50_tpot_s", "p99_tpot_s", "p50_ttft_s", "p99_ttft_s")


def _finished_requests(target_roofline, n_seed: int = 0):
    """A finished workload with per-category samples (one real sim)."""
    from repro.analysis.harness import build_setup, run_once
    from repro.workloads.generator import WorkloadGenerator

    setup = build_setup("llama70b", seed=n_seed)
    gen = WorkloadGenerator(setup.target_roofline, seed=n_seed)
    requests = gen.steady(20.0, 4.0)
    # The harness clones its input; the finished state lives in the
    # report's requests.
    return run_once(setup, "vllm", requests).requests


def _without_percentiles(metrics):
    """``metrics`` with every per-category percentile set to None."""
    blank = dict.fromkeys(_PERCENTILES)
    return replace(
        metrics,
        per_category={k: replace(c, **blank) for k, c in metrics.per_category.items()},
    )


def _many_finished(n: int, category: str = "coding"):
    """``n`` finished requests of one category with distinct latencies."""
    out = []
    for rid in range(n):
        req = make_request(rid=rid, category=category, arrival=rid * 1e-3, max_new_tokens=4)
        req.advance_prefill(req.prompt_len)
        start = req.arrival_time + 0.01 + (rid * 7919 % n) * 1e-6
        req.begin_decode(1, start)
        req.commit_tokens(4, 2, start + 0.02 + (rid * 104729 % n) * 1e-6)
        out.append(req)
    return out


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_streaming_equals_exact_below_capacity(self, target_roofline, seed):
        requests = _finished_requests(target_roofline, seed)
        expected = reference_metrics(requests)
        for mode in METRICS_MODES:
            assert aggregate_metrics(requests, mode) == expected, mode  # whole dataclass

    def test_aggregate_metrics_dispatch(self, target_roofline):
        requests = _finished_requests(target_roofline)
        assert aggregate_metrics(requests) == aggregate_metrics(requests, "exact")
        with pytest.raises(ValueError, match="metrics mode"):
            aggregate_metrics(requests, "approximate")

    def test_empty_run(self):
        for mode in METRICS_MODES:
            assert aggregate_metrics([], mode) == reference_metrics([])

    def test_tiny_capacity_moves_only_percentiles(self, target_roofline):
        requests = _finished_requests(target_roofline)
        acc = MetricsAccumulator(capacity=4)
        for r in requests:
            acc.add(r)
        tiny, expected = acc.finalize(), reference_metrics(requests)
        assert tiny != expected  # the cap binds: some percentile is an estimate
        assert _without_percentiles(tiny) == _without_percentiles(expected)

    def test_exact_mode_keeps_every_sample_past_capacity(self):
        requests = _many_finished(METRICS_MODES["streaming"] + 200)
        expected = reference_metrics(requests)
        assert aggregate_metrics(requests, "exact") == expected
        streaming = aggregate_metrics(requests, "streaming")
        assert _without_percentiles(streaming) == _without_percentiles(expected)

    def test_simulator_streaming_mode_matches_exact(self, target_roofline):
        from repro.analysis.harness import build_setup, run_once
        from repro.workloads.generator import WorkloadGenerator

        setup = build_setup("llama70b", seed=2)
        gen = WorkloadGenerator(setup.target_roofline, seed=2)
        requests = gen.steady(15.0, 4.0)
        exact = run_once(setup, "vllm", requests, metrics_mode="exact")
        streaming = run_once(
            setup, "vllm", [r.fresh_copy() for r in requests], metrics_mode="streaming"
        )
        assert streaming.metrics == exact.metrics
        assert streaming.sim_time_s == exact.sim_time_s


class TestReservoir:
    def test_exact_until_capacity(self):
        res = Reservoir(key=123, capacity=8)
        for v in [5.0, 1.0, 3.0]:
            res.add(v)
        assert res.count <= res.capacity
        assert res.percentiles(50.0) == [sorted([5.0, 1.0, 3.0])[1]]

    def test_uncapped_keeps_every_sample(self):
        res = Reservoir(key=123, capacity=None)
        n = 10_000
        for i in range(n):
            res.add(float(n - i))
        assert res.percentiles(0.0, 50.0, 100.0) == [1.0, n / 2, float(n)]

    def test_deterministic_same_key_same_feed(self):
        a, b = Reservoir(key=7, capacity=16), Reservoir(key=7, capacity=16)
        for i in range(1000):
            a.add(float(i))
            b.add(float(i))
        assert a.count > a.capacity
        assert a.percentiles(99.0) == b.percentiles(99.0)

    def test_bounded_rank_error_beyond_capacity(self):
        # 10k uniform values through a 256-slot reservoir: the p50
        # estimate's rank error concentrates around sqrt(q(1-q)/K)
        # (~3.1% of the range here); 6 sigma gives a deterministic-seed
        # margin without being vacuous.
        res = Reservoir(key=42, capacity=256)
        n = 10_000
        for i in range(n):
            res.add(i / n)
        (estimate,) = res.percentiles(50.0)
        assert abs(estimate - 0.5) < 6 * (0.25 / 256) ** 0.5

    def test_empty_reservoir_has_no_percentile(self):
        res = Reservoir(key=1, capacity=4)
        with pytest.raises(ValueError):
            res.percentiles(50.0)

    def test_default_capacity_is_committed(self):
        assert METRICS_MODES == {"exact": None, "streaming": 4096}


def _spec(**kw):
    kw.setdefault("model", "llama70b")
    kw.setdefault("system", "vllm")
    kw.setdefault("rps", 2.0)
    kw.setdefault("duration_s", 4.0)
    kw.setdefault("seed", 0)
    return ExperimentSpec.create(**kw)


class TestSpecKnob:
    def test_exact_is_invisible_in_cache_key(self):
        base = _spec()
        explicit = _spec(metrics="exact")
        assert "metrics" not in base.to_dict()["system"]
        assert base.digest() == explicit.digest()

    def test_streaming_forks_cache_key(self):
        exact = _spec()
        streaming = _spec(metrics="streaming")
        assert streaming.to_dict()["system"]["metrics"] == "streaming"
        assert streaming.digest() != exact.digest()
        assert streaming.system.metrics == "streaming"

    def test_invalid_mode_rejected(self):
        with pytest.raises(SpecError, match="exact, streaming"):
            _spec(metrics="sometimes")
