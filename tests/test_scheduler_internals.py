"""White-box tests for AdaServe scheduler internals and API hygiene."""

from __future__ import annotations

import math

import pytest

from repro.baselines.sarathi import SarathiScheduler
from repro.core.scheduler import AdaServeScheduler
from tests.conftest import make_request


class TestLatencyEstimate:
    def test_monotone_in_batch(self, engine):
        s = AdaServeScheduler(engine)
        small = s._estimate_iteration_latency(2, 4, 2, 0)
        large = s._estimate_iteration_latency(200, 4, 2, 0)
        assert large >= small

    def test_monotone_in_depth(self, engine):
        s = AdaServeScheduler(engine)
        shallow = s._estimate_iteration_latency(8, 1, 2, 0)
        deep = s._estimate_iteration_latency(8, 6, 2, 0)
        assert deep > shallow

    def test_includes_verification_floor(self, engine):
        s = AdaServeScheduler(engine)
        est = s._estimate_iteration_latency(1, 0, 1, 0)
        verify = engine.target_roofline.forward_latency(s.verify_budget, 0)
        assert est >= verify

    def test_context_increases_estimate(self, engine):
        s = AdaServeScheduler(engine)
        assert s._estimate_iteration_latency(8, 3, 2, 100_000) > (
            s._estimate_iteration_latency(8, 3, 2, 0)
        )


class TestMarginRequirement:
    def test_tighter_than_plain(self, engine):
        s = AdaServeScheduler(engine, slo_margin=0.9)
        req = make_request(tpot_slo=0.05, max_new_tokens=10)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.0)
        plain = req.requirement(1.0, 0.04)
        margined = s._margin_requirement(req, 1.0, 0.04)
        assert margined > plain

    def test_margin_one_matches_plain(self, engine):
        s = AdaServeScheduler(engine, slo_margin=1.0)
        req = make_request(tpot_slo=0.05, max_new_tokens=10)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.0)
        assert s._margin_requirement(req, 1.0, 0.04) == pytest.approx(
            req.requirement(1.0, 0.04)
        )


def _decoding(engine, rid: int):
    req = make_request(rid=rid, prompt_len=10, max_new_tokens=40)
    req.advance_prefill(10)
    req.begin_decode(engine.root_ctx(req), 0.0)
    return req


class TestPrefillChunk:
    """The shared head-of-queue chunk take and each chunked policy's call site."""

    def test_no_waiting_no_chunk(self, engine):
        s = AdaServeScheduler(engine)
        assert s._take_head_chunk(s.prefill_chunk) == []

    def test_chunk_capped(self, engine):
        s = AdaServeScheduler(engine, prefill_chunk=64)
        s.admit(make_request(rid=1, prompt_len=500))
        ((req, chunk),) = s._take_head_chunk(s.prefill_chunk)
        assert chunk == 64
        assert req.rid == 1
        assert not s.waiting  # popped; placement puts it back after the pass

    def test_chunk_takes_tail(self, engine):
        s = AdaServeScheduler(engine, prefill_chunk=64)
        r = make_request(rid=1, prompt_len=80)
        r.advance_prefill(40)
        s.waiting.append(r)
        ((_, chunk),) = s._take_head_chunk(s.prefill_chunk)
        assert chunk == 40

    def test_no_chunk_when_batch_full(self, engine):
        s = AdaServeScheduler(engine, max_batch_size=1)
        s.running = [_decoding(engine, 9)]
        queued = make_request(rid=1, prompt_len=500)
        s.admit(queued)
        s.step(0.0)
        assert queued.prefilled == 0
        assert list(s.waiting) == [queued]

    def test_sarathi_chunks_past_full_batch(self, engine):
        s = SarathiScheduler(engine, max_batch_size=1)
        s.running = [_decoding(engine, 9)]
        queued = make_request(rid=1, prompt_len=500)
        s.admit(queued)
        s.step(0.0)
        assert queued.prefilled == s.chunk_budget - 1
        assert list(s.waiting) == [queued]


class TestGeometricDepthSolve:
    """The SLO-pressure depth floor's math, checked in isolation."""

    @staticmethod
    def _chain_expectation(d: int, p: float) -> float:
        return p * (1 - p**d) / (1 - p)

    @pytest.mark.parametrize("demand", [1.2, 1.8, 2.4, 2.55, 3.0])
    def test_floor_is_minimal_sufficient(self, demand):
        p = 0.75
        deficit = (demand - 1.0) * (1 - p) / p
        if deficit >= 1.0:
            return  # infeasible branch, handled by d_max cap
        d_floor = math.ceil(math.log(1.0 - deficit) / math.log(p))
        # Sufficient: the chain expectation at d_floor covers the demand.
        assert 1.0 + self._chain_expectation(d_floor, p) >= demand - 1e-9
        # Minimal: one step shallower does not.
        if d_floor > 1:
            assert 1.0 + self._chain_expectation(d_floor - 1, p) < demand

    def test_infeasible_demand_detected(self):
        p = 0.75
        demand = 1.0 + p / (1 - p) + 0.5  # beyond any finite chain
        deficit = (demand - 1.0) * (1 - p) / p
        assert deficit >= 1.0


class TestAPIHygiene:
    def test_public_modules_documented(self):
        import importlib
        import pkgutil

        import repro

        undocumented = []
        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if mod.name == "repro.__main__":
                continue  # executes the CLI on import
            module = importlib.import_module(mod.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(mod.name)
        assert undocumented == []

    def test_all_exports_resolve(self):
        # The two packages that re-export: the analysis facade and the
        # baselines package whose import registers every scheduler.
        import repro.analysis
        import repro.baselines

        for pkg in (repro.analysis, repro.baselines):
            for name in pkg.__all__:
                assert getattr(pkg, name, None) is not None, f"{pkg.__name__}.{name}"
