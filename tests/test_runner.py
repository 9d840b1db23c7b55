"""Tests for the parallel sweep runner (and its serial/parallel parity)."""

from __future__ import annotations

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.export import points_from_cache, points_to_json
from repro.analysis.runner import (
    ExperimentSpec,
    SweepRunner,
    derive_seed,
    execute_point,
)

#: A small grid: 4 points of a few simulated seconds each.
GRID = tuple(
    ExperimentSpec.create(
        model="llama70b", system=system, rps=rps, duration_s=4.0, seed=3, trace="steady"
    )
    for rps in (1.0, 2.0)
    for system in ("vllm", "sarathi")
)


class TestConfig:
    def test_create_rejects_unknown_trace(self):
        with pytest.raises(ValueError):
            ExperimentSpec.create(
                model="llama70b", system="vllm", rps=1.0, duration_s=4.0, seed=0,
                trace="sinusoidal",
            )

    def test_to_dict_round_trips_mix(self):
        config = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=1.0, duration_s=4.0, seed=0,
            mix={"coding": 0.7, "chatbot": 0.3},
        )
        assert config.to_dict()["workload"]["mix"] == [["chatbot", 0.3], ["coding", 0.7]]
        assert ExperimentSpec.from_dict(config.to_dict()) == config


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1234, "replica", 3) == derive_seed(1234, "replica", 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1234, "replica", 3)
        assert derive_seed(1235, "replica", 3) != base
        assert derive_seed(1234, "warmup", 3) != base
        assert derive_seed(1234, "replica", 4) != base

    def test_non_negative(self):
        for k in range(16):
            assert derive_seed(0, k) >= 0

    def test_with_replica_spreads_seeds(self):
        config = GRID[0]
        seeds = {config.with_replica(k).workload.seed for k in range(8)}
        assert len(seeds) == 8
        assert config.with_replica(2) == config.with_replica(2)


class TestExecutePoint:
    def test_deterministic(self):
        assert execute_point(GRID[0]) == execute_point(GRID[0])

    def test_report_dict_shape(self):
        report = execute_point(GRID[0])
        assert report["scheduler"] == "vLLM"
        assert report["metrics"]["num_requests"] > 0


class TestSweepRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_results_in_input_order(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path), jobs=1)
        results = runner.run(GRID)
        assert [r.config for r in results] == list(GRID)
        assert runner.executed == len(GRID)
        assert not any(r.from_cache for r in results)

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, jobs=1).run(GRID)
        warm = SweepRunner(cache=cache, jobs=1)
        results = warm.run(GRID)
        assert warm.executed == 0
        assert all(r.from_cache for r in results)
        assert "simulations executed: 0" in warm.stats_line()

    def test_interrupted_sweep_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache, jobs=1).run(GRID[:2])
        resumed = SweepRunner(cache=cache, jobs=1)
        resumed.run(GRID)
        assert resumed.executed == len(GRID) - 2

    def test_duplicate_points_simulated_once(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path), jobs=1)
        results = runner.run([GRID[0], GRID[0]])
        assert runner.executed == 1
        assert len(results) == 2
        assert results[0].report.metrics == results[1].report.metrics

    def test_runs_without_cache(self):
        runner = SweepRunner(cache=None, jobs=1)
        results = runner.run(GRID[:1])
        assert runner.executed == 1
        assert "cache: disabled" in runner.stats_line()
        assert results[0].report.metrics.num_requests > 0

    def test_on_result_fires_once_per_point(self, tmp_path):
        seen = []
        SweepRunner(cache=ResultCache(tmp_path), jobs=1).run(
            GRID, on_result=seen.append
        )
        assert sorted(r.key for r in seen) == sorted(c.digest() for c in GRID)


class TestParallelDeterminism:
    def test_two_worker_sweep_byte_identical_to_serial(self, tmp_path):
        serial_cache = ResultCache(tmp_path / "serial")
        parallel_cache = ResultCache(tmp_path / "parallel")
        serial = SweepRunner(cache=serial_cache, jobs=1)
        parallel = SweepRunner(cache=parallel_cache, jobs=2)
        serial_results = serial.run(GRID)
        parallel_results = parallel.run(GRID)
        assert serial.executed == parallel.executed == len(GRID)

        serial_json = points_to_json(points_from_cache(serial_cache, GRID))
        parallel_json = points_to_json(points_from_cache(parallel_cache, GRID))
        assert serial_json.encode() == parallel_json.encode()

        # The on-disk records match bit-for-bit too.
        for config in GRID:
            a = serial_cache.path_for(config).read_bytes()
            b = parallel_cache.path_for(config).read_bytes()
            assert a == b

        for s, p in zip(serial_results, parallel_results):
            assert s.report == p.report
