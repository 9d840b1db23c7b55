"""Behavioural tests for the six baseline schedulers."""

from __future__ import annotations

import pytest

from repro.baselines import (
    FastServeScheduler,
    PriorityScheduler,
    SarathiScheduler,
    VLLMScheduler,
    VLLMSpecScheduler,
    VTCScheduler,
)
from repro.serving.server import ServingSimulator
from tests.conftest import make_request


def small_workload(n=8, prompt=30, out=6):
    return [
        make_request(rid=i, arrival=0.05 * i, prompt_len=prompt, max_new_tokens=out)
        for i in range(n)
    ]


def run(engine, scheduler, reqs):
    return ServingSimulator(engine, scheduler, reqs).run()


class TestVLLM:
    def test_completes_workload(self, engine):
        report = run(engine, VLLMScheduler(engine), small_workload())
        assert report.metrics.num_finished == 8

    def test_uniform_latency_across_batch(self, engine):
        # Two concurrent requests with different SLOs see the same
        # per-token latency: the core limitation the paper targets.
        reqs = [
            make_request(rid=0, arrival=0.0, prompt_len=30, max_new_tokens=20, tpot_slo=0.02),
            make_request(rid=1, arrival=0.0, prompt_len=30, max_new_tokens=20, tpot_slo=0.15),
        ]
        report = run(engine, VLLMScheduler(engine), reqs)
        a, b = report.requests[0], report.requests[1]
        assert a.avg_tpot == pytest.approx(b.avg_tpot, rel=0.15)

    def test_prefill_priority(self, engine):
        s = VLLMScheduler(engine)
        s.admit(make_request(rid=0, prompt_len=50))
        s.step(0.0)
        assert len(s.running) == 1  # prefill ran before any decode


class TestSarathi:
    def test_completes_workload(self, engine):
        report = run(engine, SarathiScheduler(engine), small_workload())
        assert report.metrics.num_finished == 8

    def test_invalid_chunk_budget(self, engine):
        with pytest.raises(ValueError):
            SarathiScheduler(engine, chunk_budget=0)

    def test_chunked_prefill_interleaves_decode(self, engine):
        s = SarathiScheduler(engine, chunk_budget=64)
        long_req = make_request(rid=0, prompt_len=600, max_new_tokens=4)
        s.admit(long_req)
        s.step(0.0)  # pure chunk (no decode yet)
        assert 0 < long_req.prefilled < 600
        # A decoding request arrives; subsequent steps must serve it while
        # the long prompt is still prefilling.
        dec = make_request(rid=1, prompt_len=10, max_new_tokens=8)
        dec.advance_prefill(10)
        dec.begin_decode(1, 0.0)
        s.running.append(dec)
        before = dec.n_generated
        s.step(1.0)
        assert dec.n_generated == before + 1
        assert long_req.prefilled > 64

    def test_shorter_stalls_than_vllm(self, pair, target_roofline, draft_roofline):
        # Max inter-token gap for a decoding request while a long prompt
        # arrives should be smaller under chunked prefill.
        from repro.serving.engine import SimulatedEngine
        from repro.serving.kv_cache import KVCacheManager

        def max_gap(scheduler_cls):
            kv = KVCacheManager(200_000)
            engine = SimulatedEngine(pair, target_roofline, draft_roofline, kv, seed=1)
            reqs = [
                make_request(rid=0, arrival=0.0, prompt_len=20, max_new_tokens=40),
                make_request(rid=1, arrival=0.1, prompt_len=2400, max_new_tokens=4),
            ]
            # Plain decode writes token counts lazily, so record the end
            # of every engine step whose decode batch holds request 0.
            times = []

            def recording(step):
                # decode(batch, now, cohort), mixed_step(batch, chunks, now, cohort)
                def wrapper(batch, *args):
                    latency = step(batch, *args)
                    if any(r is reqs[0] for r in batch):
                        times.append(args[-2] + latency)
                    return latency

                return wrapper

            engine.decode = recording(engine.decode)
            engine.mixed_step = recording(engine.mixed_step)
            ServingSimulator(engine, scheduler_cls(engine), reqs).run()
            return max(b - a for a, b in zip(times, times[1:]))

        assert max_gap(SarathiScheduler) < max_gap(VLLMScheduler)


class TestPriority:
    def test_completes_workload(self, engine):
        report = run(engine, PriorityScheduler(engine), small_workload())
        assert report.metrics.num_finished == 8

    def test_urgent_preempts_decode(self, engine):
        s = PriorityScheduler(engine)
        urgent = make_request(rid=0, priority=0, prompt_len=10, max_new_tokens=50)
        lax = make_request(rid=1, priority=1, prompt_len=10, max_new_tokens=50)
        for r in (urgent, lax):
            r.advance_prefill(r.prompt_len)
            r.begin_decode(1, 0.0)
            s.running.append(r)
        s.step(0.0)
        assert urgent.n_generated == 1
        assert lax.n_generated == 0

    def test_urgent_batch_capped(self, engine):
        s = PriorityScheduler(engine, urgent_batch_cap=2)
        urgents = []
        for i in range(5):
            r = make_request(rid=i, priority=0, prompt_len=10, max_new_tokens=50)
            r.advance_prefill(10)
            r.begin_decode(1, 0.0)
            s.running.append(r)
            urgents.append(r)
        s.step(0.0)
        assert sum(r.n_generated for r in urgents) == 2

    def test_urgent_wins_lax_loses(self, engine):
        # The Figure 1 signature: priority nails strict SLOs but degrades
        # the relaxed categories under load.
        reqs = []
        for i in range(12):
            urgent = i % 2 == 0
            reqs.append(
                make_request(
                    rid=i,
                    category="urgent" if urgent else "lax",
                    arrival=0.03 * i,
                    prompt_len=60,
                    max_new_tokens=30,
                    tpot_slo=0.03 if urgent else 0.15,
                    priority=0 if urgent else 1,
                )
            )
        report = run(engine, PriorityScheduler(engine), reqs)
        cats = report.metrics.per_category
        assert cats["urgent"].attainment >= cats["lax"].attainment
        assert cats["urgent"].mean_tpot_s < cats["lax"].mean_tpot_s


class TestFastServe:
    def test_completes_workload(self, engine):
        report = run(engine, FastServeScheduler(engine), small_workload())
        assert report.metrics.num_finished == 8

    def test_invalid_quanta(self, engine):
        with pytest.raises(ValueError):
            FastServeScheduler(engine, quanta=())

    def test_level_by_generated_tokens(self, engine):
        s = FastServeScheduler(engine, quanta=(4, 8))
        r = make_request(rid=0, max_new_tokens=50)
        assert s._level(r) == 0
        r.advance_prefill(r.prompt_len)
        r.begin_decode(1, 0.0)
        r.commit_tokens(5, 1, 0.1)
        assert s._level(r) == 1
        r.commit_tokens(8, 1, 0.2)
        assert s._level(r) == 2

    def test_short_jobs_preempt_long(self, engine):
        s = FastServeScheduler(engine, quanta=(4, 8))
        long_r = make_request(rid=0, prompt_len=10, max_new_tokens=60)
        long_r.advance_prefill(10)
        long_r.begin_decode(1, 0.0)
        long_r.commit_tokens(20, 1, 0.1)  # demoted to bottom queue
        fresh = make_request(rid=1, prompt_len=10, max_new_tokens=60)
        fresh.advance_prefill(10)
        fresh.begin_decode(1, 0.0)
        s.running.extend([long_r, fresh])
        before = long_r.n_generated
        s.step(0.2)
        assert fresh.n_generated == 1
        assert long_r.n_generated == before


class TestVTC:
    def test_completes_workload(self, engine):
        report = run(engine, VTCScheduler(engine), small_workload())
        assert report.metrics.num_finished == 8

    def test_counters_accumulate(self, engine):
        s = VTCScheduler(engine)
        r = make_request(rid=0, category="chat", prompt_len=20, max_new_tokens=10)
        s.admit(r)
        s.step(0.0)  # prefill: counter += 0.5 * 20
        assert s.counters["chat"] == pytest.approx(10.0)
        s.step(0.1)  # decode: counter += 1
        assert s.counters["chat"] == pytest.approx(11.0)

    def test_least_served_category_first(self, engine):
        s = VTCScheduler(engine, max_batch_size=1)
        heavy = make_request(rid=0, category="heavy", prompt_len=10, max_new_tokens=50)
        light = make_request(rid=1, category="light", prompt_len=10, max_new_tokens=50)
        for r in (heavy, light):
            r.advance_prefill(10)
            r.begin_decode(1, 0.0)
            s.running.append(r)
        s.counters["heavy"] = 100.0
        s.counters["light"] = 1.0
        s.step(0.0)
        assert light.n_generated == 1
        assert heavy.n_generated == 0


class TestVLLMSpec:
    def test_invalid_spec_len(self, engine):
        with pytest.raises(ValueError, match="spec_len must be >= 1"):
            VLLMSpecScheduler(engine, spec_len=0)

    def test_name_includes_length(self, engine):
        assert VLLMSpecScheduler(engine, spec_len=6).name == "vLLM-Spec(6)"

    def test_completes_workload(self, engine):
        report = run(engine, VLLMSpecScheduler(engine, spec_len=4), small_workload())
        assert report.metrics.num_finished == 8

    def test_multiple_tokens_per_iteration(self, engine):
        s = VLLMSpecScheduler(engine, spec_len=6)
        r = make_request(rid=0, prompt_len=10, max_new_tokens=60, predictability=0.9)
        r.advance_prefill(10)
        r.begin_decode(engine.root_ctx(r), 0.0)
        s.running.append(r)
        s.step(0.0)
        assert r.verify_steps == 1
        assert 1 <= r.n_generated <= 7

    def test_never_overshoots_max_tokens(self, engine):
        s = VLLMSpecScheduler(engine, spec_len=8)
        r = make_request(rid=0, prompt_len=10, max_new_tokens=2, predictability=0.95)
        r.advance_prefill(10)
        r.begin_decode(engine.root_ctx(r), 0.0)
        s.running.append(r)
        s.step(0.0)
        assert r.n_generated <= 2

    def test_acceptance_tracks_predictability(self, engine):
        def mean_acc(pred):
            reqs = [
                make_request(
                    rid=i, arrival=0.0, prompt_len=10, max_new_tokens=30,
                    predictability=pred,
                )
                for i in range(6)
            ]
            from repro.serving.kv_cache import KVCacheManager
            from repro.serving.engine import SimulatedEngine

            eng = SimulatedEngine(
                engine.pair, engine.target_roofline, engine.draft_roofline,
                KVCacheManager(100_000), seed=9,
            )
            report = run(eng, VLLMSpecScheduler(eng, spec_len=6), reqs)
            return report.metrics.mean_accepted_per_verify

        assert mean_acc(0.9) > mean_acc(0.3) + 0.5

    def test_static_overhead_grows_with_spec_len(self, engine):
        # Same workload, larger n => more verify tokens => longer sim time
        # per generated token at constant acceptance (the paper's critique).
        reqs = small_workload(n=6, out=12)
        t4 = run(engine, VLLMSpecScheduler(engine, spec_len=4), reqs)
        from repro.serving.kv_cache import KVCacheManager
        from repro.serving.engine import SimulatedEngine

        eng8 = SimulatedEngine(
            engine.pair, engine.target_roofline, engine.draft_roofline,
            KVCacheManager(100_000), seed=42,
        )
        reqs8 = small_workload(n=6, out=12)
        t8 = run(eng8, VLLMSpecScheduler(eng8, spec_len=8), reqs8)
        assert t8.metrics.mean_accepted_per_verify >= t4.metrics.mean_accepted_per_verify
