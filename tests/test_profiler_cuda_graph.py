"""Tests for budget profiling and the CUDA-graph launch model."""

from __future__ import annotations

import pytest

from repro.hardware.cuda_graph import CudaGraphModel
from repro.hardware.profiler import HardwareProfiler
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS


@pytest.fixture
def rl() -> RooflineModel:
    return RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


class TestProfiler:
    def test_invalid_slack(self, rl):
        with pytest.raises(ValueError):
            HardwareProfiler(rl, slack=0.9)

    def test_budget_latency_within_slack(self, rl):
        prof = HardwareProfiler(rl, slack=1.5).profile()
        assert prof.budget_latency_s <= prof.floor_latency_s * 1.5 + 1e-12

    def test_budget_monotone_in_slack(self, rl):
        b_small = HardwareProfiler(rl, slack=1.2).token_budget()
        b_large = HardwareProfiler(rl, slack=2.0).token_budget()
        assert b_large >= b_small >= 1

    def test_budget_above_saturation(self, rl):
        # With slack > 1 the budget extends past the pure memory-bound knee.
        prof = HardwareProfiler(rl, slack=1.5).profile()
        assert prof.token_budget >= prof.saturation_tokens

    def test_context_raises_absolute_floor(self, rl):
        # KV-resident context raises the floor latency; the slack is
        # relative, so the selected budget never shrinks and the absolute
        # latency at the budget grows.
        p0 = HardwareProfiler(rl, slack=1.5).profile(0)
        p1 = HardwareProfiler(rl, slack=1.5).profile(400_000)
        assert p1.floor_latency_s > p0.floor_latency_s
        assert p1.token_budget >= p0.token_budget
        assert p1.budget_latency_s <= p1.floor_latency_s * 1.5 + 1e-12

    def test_sweep_recorded(self, rl):
        prof = HardwareProfiler(rl).profile()
        assert len(prof.sweep) >= 2
        tokens = [t for t, _ in prof.sweep]
        assert tokens == sorted(tokens)

    def test_latency_ratio(self, rl):
        prof = HardwareProfiler(rl, slack=1.4).profile()
        assert 1.0 <= prof.latency_ratio <= 1.4 + 1e-9

    @pytest.mark.parametrize("slack", [1.2, 1.5])
    def test_scheduler_budgets_come_from_profiler(self, engine, slack):
        from repro.core.scheduler import AdaServeScheduler

        s = AdaServeScheduler(engine, budget_slack=slack)
        assert s.verify_budget == HardwareProfiler(engine.target_roofline, slack=slack).token_budget()
        assert s.draft_budget == HardwareProfiler(engine.draft_roofline, slack=slack).token_budget()

    def test_draft_budget_larger_than_target(self):
        target = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
        draft = RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"])
        assert HardwareProfiler(draft).token_budget() > HardwareProfiler(target).token_budget() / 4


class TestCudaGraph:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CudaGraphModel(eager_launch_s=-1.0)

    def test_first_shape_pays_capture(self):
        g = CudaGraphModel(eager_launch_s=1e-3, capture_cost_s=2e-3, replay_cost_s=1e-5)
        first = g.launch_overhead(32)
        assert first == pytest.approx(3e-3)
        assert g.captures == 1

    def test_warm_shape_replays(self):
        g = CudaGraphModel(eager_launch_s=1e-3, replay_cost_s=1e-5)
        g.launch_overhead(32)
        assert g.launch_overhead(32) == pytest.approx(1e-5)
        assert g.replays == 1

    def test_new_shape_recaptures(self):
        g = CudaGraphModel(eager_launch_s=1e-3)
        g.launch_overhead(32)
        g.launch_overhead(64)
        assert g.captures == 2

    def test_lru_eviction(self):
        g = CudaGraphModel(eager_launch_s=1e-3, cache_shapes=2, replay_cost_s=1e-5)
        g.launch_overhead(1)
        g.launch_overhead(2)
        g.launch_overhead(3)  # evicts shape 1
        assert g.launch_overhead(1) > 1e-5  # re-capture
        assert g.captures == 4

    def test_lru_refresh_on_hit(self):
        g = CudaGraphModel(eager_launch_s=1e-3, cache_shapes=2, replay_cost_s=1e-5)
        g.launch_overhead(1)
        g.launch_overhead(2)
        g.launch_overhead(1)  # refresh 1
        g.launch_overhead(3)  # evicts 2, not 1
        assert g.launch_overhead(1) == pytest.approx(1e-5)

    def test_disabled_always_eager(self):
        g = CudaGraphModel(eager_launch_s=1e-3, enabled=False)
        assert g.launch_overhead(32) == pytest.approx(1e-3)
        assert g.launch_overhead(32) == pytest.approx(1e-3)
        assert g.captures == 0
        assert g.eager_launches == 2

    def test_every_launch_counted_once(self):
        g = CudaGraphModel(eager_launch_s=1e-3, capture_cost_s=2e-3, replay_cost_s=1e-5, cache_shapes=2)
        shapes = [8, 8, 16, 8, 32, 16, 16, 8]
        total = sum(g.launch_overhead(n) for n in shapes)
        assert g.captures + g.replays == len(shapes)
        assert g.eager_launches == 0
        assert (g.captures, g.replays) == (5, 3)
        assert total == pytest.approx(g.captures * 3e-3 + g.replays * 1e-5)
