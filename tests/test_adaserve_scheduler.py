"""Tests for the AdaServe scheduler (core contribution, end to end)."""

from __future__ import annotations

import pytest

from repro.core.scheduler import AdaServeScheduler
from repro.baselines.vllm import VLLMScheduler
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request
from repro.serving.server import ServingSimulator
from tests.conftest import make_request


def fresh_engine(pair, target_roofline, draft_roofline, seed=42):
    return SimulatedEngine(
        pair, target_roofline, draft_roofline, KVCacheManager(200_000), seed=seed
    )


def mixed_slo_workload(n=12, strict_slo=0.028, lax_slo=0.15):
    reqs = []
    for i in range(n):
        strict = i % 2 == 0
        reqs.append(
            make_request(
                rid=i,
                category="strict" if strict else "lax",
                arrival=0.05 * i,
                prompt_len=40,
                max_new_tokens=24,
                tpot_slo=strict_slo if strict else lax_slo,
                predictability=0.8 if strict else 0.65,
                priority=0 if strict else 1,
            )
        )
    return reqs


class TestConstruction:
    def test_budgets_profiled_when_omitted(self, engine):
        s = AdaServeScheduler(engine)
        assert s.verify_budget > 1
        assert s.draft_budget > 1

    def test_explicit_budgets(self, engine):
        s = AdaServeScheduler(engine, verify_budget=64, draft_budget=128)
        assert s.verify_budget == 64
        assert s.controller.verify_budget == 64

    def test_invalid_margin(self, engine):
        with pytest.raises(ValueError):
            AdaServeScheduler(engine, slo_margin=0.0)

    def test_invalid_chunk(self, engine):
        with pytest.raises(ValueError):
            AdaServeScheduler(engine, prefill_chunk=0)


class TestIterationBehaviour:
    def test_completes_workload(self, engine):
        reqs = mixed_slo_workload()
        report = ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        assert report.metrics.num_finished == len(reqs)

    def test_multiple_tokens_per_iteration(self, engine):
        s = AdaServeScheduler(engine)
        r = make_request(rid=0, prompt_len=10, max_new_tokens=60, predictability=0.9)
        r.advance_prefill(10)
        r.begin_decode(engine.root_ctx(r), 0.0)
        s.running.append(r)
        s.step(0.0)
        assert r.verify_steps == 1
        assert r.n_generated >= 1

    def test_never_overshoots_output_cap(self, engine):
        s = AdaServeScheduler(engine)
        r = make_request(rid=0, prompt_len=10, max_new_tokens=2, predictability=0.95)
        r.advance_prefill(10)
        r.begin_decode(engine.root_ctx(r), 0.0)
        s.running.append(r)
        s.step(0.0)
        assert r.n_generated <= 2

    def test_scheduling_time_accounted(self, engine):
        reqs = mixed_slo_workload(n=6)
        report = ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        assert 0 < report.phase_breakdown["scheduling"] < 0.05

    def test_chunked_prefill_no_long_stall(
        self, pair, target_roofline, draft_roofline, monkeypatch
    ):
        # A long prompt arriving mid-stream must not stall decoding
        # requests for its full prefill duration.
        engine = fresh_engine(pair, target_roofline, draft_roofline)
        reqs = [
            make_request(rid=0, arrival=0.0, prompt_len=20, max_new_tokens=50),
            make_request(rid=1, arrival=0.1, prompt_len=2400, max_new_tokens=4),
        ]
        # AdaServe commits eagerly: record the time of each commit of
        # request 0 (requests are slotted, so the spy goes on the class).
        times = []
        commit = Request.commit_tokens

        def recording_commit(req, count, ctx, now):
            if req is reqs[0]:
                times.append(now)
            commit(req, count, ctx, now)

        monkeypatch.setattr(Request, "commit_tokens", recording_commit)
        ServingSimulator(engine, AdaServeScheduler(engine), reqs).run()
        max_gap = max(b - a for a, b in zip(times, times[1:]))
        # Full 2400-token prefill would stall ~0.6s; chunks keep gaps short.
        assert max_gap < 0.3

    def test_strict_requests_get_more_slo_tokens(self, engine):
        # Two running requests, one far behind its (strict) SLO: the
        # strict one must receive at least as many speculated tokens.
        s = AdaServeScheduler(engine, verify_budget=16)
        strict = make_request(rid=0, prompt_len=10, max_new_tokens=50, tpot_slo=0.02)
        lax = make_request(rid=1, prompt_len=10, max_new_tokens=50, tpot_slo=0.5)
        for r in (strict, lax):
            r.advance_prefill(10)
            r.begin_decode(engine.root_ctx(r), 0.0)
            s.running.append(r)
        # Simulate elapsed time so the strict request is behind.
        strict.decode_start = -0.5
        lax.decode_start = -0.5
        s.step(0.0)
        assert strict.verify_steps == 1
        # Both got tokens, but strict at least as many accepted+attempted.
        assert strict.n_generated >= lax.n_generated


class TestEndToEndComparison:
    def test_beats_vllm_on_mixed_slos(self, pair, target_roofline, draft_roofline):
        reqs = mixed_slo_workload(n=16)
        e1 = fresh_engine(pair, target_roofline, draft_roofline)
        vllm = ServingSimulator(e1, VLLMScheduler(e1), [r for r in reqs]).run()

        reqs2 = mixed_slo_workload(n=16)
        e2 = fresh_engine(pair, target_roofline, draft_roofline)
        ada = ServingSimulator(e2, AdaServeScheduler(e2), reqs2).run()

        assert ada.metrics.attainment >= vllm.metrics.attainment
        strict_ada = ada.metrics.per_category["strict"].attainment
        strict_vllm = vllm.metrics.per_category["strict"].attainment
        assert strict_ada >= strict_vllm

    def test_deterministic(self, pair, target_roofline, draft_roofline):
        def run():
            engine = fresh_engine(pair, target_roofline, draft_roofline)
            return ServingSimulator(
                engine, AdaServeScheduler(engine), mixed_slo_workload(n=10)
            ).run()

        a, b = run(), run()
        assert a.sim_time_s == b.sim_time_s
        assert a.metrics.total_tokens == b.metrics.total_tokens

    def test_adaptive_shrinks_beam_under_load(self, engine):
        s = AdaServeScheduler(engine)
        d_light, w_light = s.controller.params(2)
        d_heavy, w_heavy = s.controller.params(60)
        assert d_light > d_heavy
        assert w_light >= w_heavy


class TestSLOPressureAdaptation:
    """The scheduler's structural-demand response to tighter SLOs."""

    def _one_step_budget(self, engine, slo: float, n: int = 40):
        """Run one iteration over n identical-SLO requests; return the
        verification tokens actually submitted."""
        s = AdaServeScheduler(engine)
        for i in range(n):
            r = make_request(
                rid=i, prompt_len=10, max_new_tokens=50, tpot_slo=slo,
                predictability=0.8,
            )
            r.advance_prefill(10)
            r.begin_decode(engine.root_ctx(r), 0.0)
            s.running.append(r)
        before = engine.phase_times.verification_s
        s.step(0.0)
        return engine.phase_times.verification_s - before, s

    def test_tight_slos_widen_budget(self, pair, target_roofline, draft_roofline):
        from repro.serving.kv_cache import KVCacheManager
        from repro.serving.engine import SimulatedEngine

        def verify_time(slo):
            engine = SimulatedEngine(
                pair, target_roofline, draft_roofline, KVCacheManager(200_000), seed=1
            )
            t, _ = self._one_step_budget(engine, slo)
            return t

        # A 15 ms SLO demands ~3 tokens/iteration; verification work must
        # grow relative to a relaxed 200 ms SLO batch.
        assert verify_time(0.015) > verify_time(0.200)

    def test_budget_bounded(self, engine):
        # Even absurdly tight SLOs cannot push the budget past 3x profiled.
        s = AdaServeScheduler(engine)
        n = 10
        for i in range(n):
            r = make_request(
                rid=i, prompt_len=10, max_new_tokens=50, tpot_slo=0.0001,
            )
            r.advance_prefill(10)
            r.begin_decode(engine.root_ctx(r), 0.0)
            s.running.append(r)
        s.step(0.0)
        total_verified = sum(r.verify_steps for r in s.running)
        assert total_verified == n  # one verification pass, no blow-up
