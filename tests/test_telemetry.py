"""Tests for per-iteration telemetry."""

from __future__ import annotations

import pytest

from repro.core.scheduler import AdaServeScheduler
from repro.serving.server import ServingSimulator
from repro.serving.telemetry import IterationLog, IterationRecord
from tests.conftest import make_request


def _rec(t=0.0, kind="speculative", batch=4, latency=0.03, **kw):
    return IterationRecord(
        time_s=t, kind=kind, batch_size=batch, latency_s=latency, **kw
    )


class TestLog:
    def test_append_and_len(self):
        log = IterationLog()
        log.record(_rec())
        log.record(_rec(t=1.0, kind="prefill"))
        assert len(log) == 2

    def test_of_kind(self):
        log = IterationLog()
        log.record(_rec(kind="prefill"))
        log.record(_rec(kind="speculative"))
        assert len(log.of_kind("speculative")) == 1

    def test_bucketed_mean(self):
        log = IterationLog()
        log.record(_rec(t=0.1, depth=2))
        log.record(_rec(t=0.2, depth=4))
        log.record(_rec(t=1.5, depth=6))
        out = log.bucketed_mean("depth", 1.0)
        assert out == [(0.0, 3.0), (1.0, 6.0)]

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            IterationLog().bucketed_mean("depth", 0)

    def test_empty_bucketed(self):
        assert IterationLog().bucketed_mean("depth", 1.0) == []


class TestEngineIntegration:
    def test_disabled_by_default(self, engine):
        assert engine.telemetry is None

    def test_adaserve_records_iterations(self, engine):
        engine.telemetry = IterationLog()
        reqs = [
            make_request(rid=i, arrival=0.05 * i, prompt_len=20, max_new_tokens=6)
            for i in range(5)
        ]
        ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        log = engine.telemetry
        spec = log.of_kind("speculative")
        assert spec
        for r in spec:
            assert r.batch_size >= 1
            assert r.depth >= 1
            assert r.width >= 1
            assert r.latency_s > 0
            assert r.tokens_committed >= r.batch_size  # >= 1 token/request
            assert 0 <= r.tokens_accepted <= r.tokens_committed

    def test_times_monotone(self, engine):
        engine.telemetry = IterationLog()
        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=12)]
        ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        times = [r.time_s for r in engine.telemetry.records]
        assert times == sorted(times)

    def test_observer_attaches_log(self, engine):
        # The obs layer wires the (formerly manual) IterationLog without
        # the caller touching engine.telemetry.
        from repro.obs.observer import RunObserver

        observer = RunObserver(trace=False, iteration_log=True)
        observer.attach_engine(engine, replica=0)
        assert engine.telemetry is observer.iteration_logs[0]
        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=12)]
        ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        assert len(observer.iteration_logs[0]) > 0
