"""Tests for shared scheduler machinery and the top-level simulator."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis import harness
from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.baselines.vllm import VLLMScheduler
from repro.serving.kv_cache import KVCacheManager
from repro.serving.engine import SimulatedEngine
from repro.serving.request import RequestState
from repro.serving.server import ServingSimulator
from tests.conftest import make_request


class TestPoolMachinery:
    def test_admit_and_has_work(self, engine):
        s = VLLMScheduler(engine)
        assert not s.has_work()
        s.admit(make_request())
        assert s.has_work()

    def test_has_work_ignores_finished(self, engine):
        # Requests enter the pool through admit() (which installs the
        # finish hook keeping has_work O(1)) and finish while running.
        s = VLLMScheduler(engine)
        req = make_request(max_new_tokens=1)
        s.admit(req)
        s.waiting.popleft()
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.0)
        s.running.append(req)
        req.commit_tokens(1, 2, 0.1)
        assert not s.has_work()

    def test_prefill_iteration_moves_to_running(self, engine):
        s = VLLMScheduler(engine)
        s.admit(make_request(rid=1))
        latency = s._prefill_iteration(0.0)
        assert latency is not None
        assert len(s.running) == 1
        assert not s.waiting

    def test_prefill_batch_respects_token_budget(self, engine):
        s = VLLMScheduler(engine, prefill_token_budget=100)
        s.admit(make_request(rid=1, prompt_len=80))
        s.admit(make_request(rid=2, prompt_len=80))
        batch = s._take_prefill_batch()
        assert [r.rid for r, _ in batch] == [1]

    def test_prefill_first_long_prompt_not_starved(self, engine):
        s = VLLMScheduler(engine, prefill_token_budget=100)
        s.admit(make_request(rid=1, prompt_len=5000))
        batch = s._take_prefill_batch()
        assert [r.rid for r, _ in batch] == [1]

    def test_prefill_respects_batch_slots(self, engine):
        s = VLLMScheduler(engine, max_batch_size=2)
        s.running = [make_request(rid=10), make_request(rid=11)]
        s.admit(make_request(rid=1))
        assert s._take_prefill_batch() == []

    def test_retire_finished_frees_kv(self, engine):
        s = VLLMScheduler(engine)
        req = make_request(rid=1, max_new_tokens=1)
        s.admit(req)
        s.waiting.popleft()
        engine.kv.ensure(1, 10)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.0)
        s.running.append(req)
        req.commit_tokens(1, 2, 0.1)
        s._retire_finished()
        assert s.finished == [req]
        assert not engine.kv.holds(1)

    def test_kv_pressure_preempts_newest(self, pair, target_roofline, draft_roofline):
        kv = KVCacheManager(capacity_tokens=160, block_size=16)  # 10 blocks
        engine = SimulatedEngine(pair, target_roofline, draft_roofline, kv)
        s = VLLMScheduler(engine)
        old = make_request(rid=1, arrival=0.0, prompt_len=70)
        new = make_request(rid=2, arrival=1.0, prompt_len=70)
        for r in (old, new):
            r.advance_prefill(r.prompt_len)
            r.begin_decode(1, 1.0)
            engine.kv.ensure(r.rid, r.kv_tokens)
            s.running.append(r)
        # Old request needs more blocks than remain: newest gets evicted.
        survivors = s._ensure_kv_for_decode([old, new], extra_tokens=80)
        assert old in survivors
        assert new not in survivors
        assert new.state == RequestState.PREEMPTED
        assert new in s.waiting
        assert new.prefilled == 0


class TestSimulator:
    def test_scheduler_engine_mismatch(self, engine, pair, target_roofline, draft_roofline):
        other = SimulatedEngine(
            pair, target_roofline, draft_roofline, KVCacheManager(10_000)
        )
        s = VLLMScheduler(other)
        with pytest.raises(ValueError):
            ServingSimulator(engine, s, [])

    def test_all_requests_finish(self, engine):
        reqs = [
            make_request(rid=i, arrival=0.2 * i, prompt_len=20, max_new_tokens=5)
            for i in range(10)
        ]
        sim = ServingSimulator(engine, VLLMScheduler(engine), reqs)
        report = sim.run()
        assert report.metrics.num_finished == 10
        assert report.iterations > 0
        assert report.sim_time_s > 0

    def test_clock_jumps_idle_gaps(self, engine):
        reqs = [
            make_request(rid=0, arrival=0.0, prompt_len=10, max_new_tokens=2),
            make_request(rid=1, arrival=100.0, prompt_len=10, max_new_tokens=2),
        ]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        assert report.sim_time_s > 100.0
        # The span includes the idle gap but iterations stay small.
        assert report.iterations < 20

    def test_horizon_cutoff(self, engine):
        reqs = [make_request(rid=i, prompt_len=400, max_new_tokens=200) for i in range(30)]
        sim = ServingSimulator(engine, VLLMScheduler(engine), reqs, max_sim_time_s=0.5)
        report = sim.run()
        assert report.sim_time_s <= 0.5 + 1.0  # one iteration of slack
        assert report.metrics.num_finished < 30

    def test_horizon_blocks_iterations_after_idle_gap(self, engine):
        # An arrival past the horizon is admitted, but no iteration starts
        # after the horizon: the run ends at that arrival instant.
        reqs = [
            make_request(rid=0, arrival=0.0, prompt_len=10, max_new_tokens=2),
            make_request(rid=1, arrival=100.0, prompt_len=10, max_new_tokens=2),
        ]
        report = ServingSimulator(
            engine, VLLMScheduler(engine), reqs, max_sim_time_s=50.0
        ).run()
        assert report.sim_time_s == 100.0
        late = next(r for r in report.requests if r.rid == 1)
        assert late.prefilled == 0
        assert report.metrics.num_finished == 1

    def test_report_phase_breakdown(self, engine):
        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=3)]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        assert set(report.phase_breakdown) >= {"prefill", "decode"}

    def test_deterministic_repeat(self, target_roofline, draft_roofline):
        from repro.model.pair import ModelPair

        def run():
            pair = ModelPair.build(vocab_size=1000, seed=3)
            kv = KVCacheManager(100_000)
            engine = SimulatedEngine(pair, target_roofline, draft_roofline, kv, seed=3)
            reqs = [
                make_request(rid=i, arrival=0.1 * i, prompt_len=30, max_new_tokens=8)
                for i in range(8)
            ]
            return ServingSimulator(engine, VLLMScheduler(engine), reqs).run()

        a, b = run(), run()
        assert a.sim_time_s == b.sim_time_s
        assert a.metrics.total_tokens == b.metrics.total_tokens


class TestReportsReleaseEngines:
    """A held report must not keep its run's engine, models and memos alive."""

    @pytest.mark.parametrize(
        "replicas, max_sim_time_s",
        [(1, 1800.0), (2, 1800.0), (1, 1.0), (2, 1.0)],  # 1 s cuts requests off
    )
    def test_held_report_pins_no_engine(self, monkeypatch, replicas, max_sim_time_s):
        built: list[weakref.ref] = []
        build_engine = harness.Setup.build_engine

        def tracked_build_engine(setup):
            engine = build_engine(setup)
            built.extend(
                weakref.ref(obj) for obj in (engine, engine.pair.target, engine.pair.draft)
            )
            return engine

        monkeypatch.setattr(harness.Setup, "build_engine", tracked_build_engine)
        report = run_spec(
            ExperimentSpec.create(
                model="llama70b", system="adaserve", rps=4.0, duration_s=3.0, seed=2,
                replicas=replicas, max_sim_time_s=max_sim_time_s,
            )
        )
        gc.collect()
        assert len(built) == 3 * replicas
        assert all(ref() is None for ref in built)
        assert all(req.on_finish is None for req in report.requests)
        if max_sim_time_s < 1800.0:
            assert report.metrics.num_finished < len(report.requests)
