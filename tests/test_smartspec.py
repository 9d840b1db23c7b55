"""Tests for the SmartSpec-style adaptive-chain baseline."""

from __future__ import annotations

import pytest

from repro.analysis.harness import build_setup, run_once
from repro.baselines.smartspec import ChainSpecScheduler, SmartSpecScheduler
from repro.serving.request import Request
from repro.serving.server import ServingSimulator
from tests.conftest import make_request, tiny_generator


class TestPolicy:
    def test_invalid_k_max(self, engine):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            SmartSpecScheduler(engine, k_max=0)

    def test_expected_accepted_geometric(self, engine):
        s = SmartSpecScheduler(engine)
        # p=0.5: E = 0.5 + 0.25 + 0.125 = 0.875 for k=3.
        assert s._expected_accepted(3, 0.5) == pytest.approx(0.875)
        assert s._expected_accepted(2, 1.0) == 2.0

    def test_choose_k_bounds(self, engine):
        s = SmartSpecScheduler(engine, k_max=6)
        for n in (1, 8, 64):
            assert 1 <= s.choose_k(n, 0) <= 6

    def test_high_acceptance_longer_chains(self, engine):
        s = SmartSpecScheduler(engine)
        s.acceptance_ema = 0.9
        k_high = s.choose_k(4, 0)
        s.acceptance_ema = 0.15
        k_low = s.choose_k(4, 0)
        assert k_high > k_low

    def test_load_shortens_chains(self, engine):
        # Large batches make per-token verification expensive, so the
        # goodput-optimal k shrinks.
        s = SmartSpecScheduler(engine)
        s.acceptance_ema = 0.7
        assert s.choose_k(200, 0) <= s.choose_k(2, 0)

    def test_ema_update_and_clamp(self, engine):
        s = SmartSpecScheduler(engine)
        start = s.acceptance_ema
        s._observe(0, 10)
        assert s.acceptance_ema < start
        for _ in range(100):
            s._observe(0, 10)
        assert s.acceptance_ema == pytest.approx(0.05)
        for _ in range(200):
            s._observe(10, 10)
        assert s.acceptance_ema == pytest.approx(0.95)

    def test_observe_zero_proposed_noop(self, engine):
        s = SmartSpecScheduler(engine)
        before = s.acceptance_ema
        s._observe(0, 0)
        assert s.acceptance_ema == before


class TestServing:
    def test_completes_workload(self, engine):
        reqs = [
            make_request(rid=i, arrival=0.05 * i, prompt_len=30, max_new_tokens=8)
            for i in range(8)
        ]
        report = ServingSimulator(engine, SmartSpecScheduler(engine), reqs).run()
        assert report.metrics.num_finished == 8
        assert report.metrics.mean_accepted_per_verify >= 0

    def test_never_overshoots_cap(self, engine):
        s = SmartSpecScheduler(engine)
        r = make_request(rid=0, prompt_len=10, max_new_tokens=2, predictability=0.95)
        r.advance_prefill(10)
        r.begin_decode(engine.root_ctx(r), 0.0)
        s.running.append(r)
        s.step(0.0)
        assert r.n_generated <= 2

    def test_acceptance_feedback_loop(self, engine):
        # After serving a predictable workload the EMA should rise above
        # the conservative default.
        reqs = [
            make_request(
                rid=i, arrival=0.02 * i, prompt_len=20, max_new_tokens=30,
                predictability=0.92,
            )
            for i in range(6)
        ]
        s = SmartSpecScheduler(engine)
        ServingSimulator(engine, s, reqs).run()
        assert s.acceptance_ema > 0.7


class TestPolicyIsTheOnlyDifference:
    """SmartSpec with vLLM-Spec's fixed policy serves exactly like vLLM-Spec."""

    K = 5

    def _serve(self, monkeypatch, system: str):
        timeline = []
        commit = Request.commit_tokens

        def recording_commit(req, count, new_ctx, now):
            commit(req, count, new_ctx, now)
            timeline.append((req.rid, req.n_generated, req.ctx, now))

        setup = build_setup("llama70b", seed=4)
        workload = tiny_generator(setup.target_roofline, seed=4).steady(8.0, 3.0)
        with monkeypatch.context() as patch:
            patch.setattr(Request, "commit_tokens", recording_commit)
            report = run_once(setup, system, workload)
        return report, timeline

    def test_fixed_policy_smartspec_matches_vllm_spec(self, monkeypatch):
        k = self.K
        monkeypatch.setattr(SmartSpecScheduler, "choose_k", lambda _sched, n, context: k)
        monkeypatch.setattr(SmartSpecScheduler, "_observe", ChainSpecScheduler._observe)
        smart, smart_timeline = self._serve(monkeypatch, f"smartspec:k_max={self.K}")
        spec, spec_timeline = self._serve(monkeypatch, f"vllm-spec:k={self.K}")
        assert (smart.scheduler_name, spec.scheduler_name) == ("SmartSpec", f"vLLM-Spec({self.K})")
        assert smart_timeline and smart_timeline == spec_timeline
        assert smart.metrics == spec.metrics
        assert (smart.sim_time_s, smart.iterations) == (spec.sim_time_s, spec.iterations)
        assert smart.requests == spec.requests

    def test_adaptive_policy_differs(self, monkeypatch):
        # Guard the test above: unpatched, SmartSpec does not serve like a fixed k.
        smart, smart_timeline = self._serve(monkeypatch, f"smartspec:k_max={self.K}")
        _spec, spec_timeline = self._serve(monkeypatch, f"vllm-spec:k={self.K}")
        assert smart_timeline != spec_timeline
