"""Tests for the roofline latency model."""

from __future__ import annotations

import pytest

from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS, GPU_PRESETS, MODEL_PRESETS, DeploymentSpec


@pytest.fixture
def rl() -> RooflineModel:
    return RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


class TestRooflineShape:
    def test_invalid_efficiency(self):
        dep = DEPLOYMENT_PRESETS["llama70b-4xa100"]
        with pytest.raises(ValueError):
            RooflineModel(dep, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            RooflineModel(dep, bandwidth_efficiency=1.5)

    def test_negative_tokens_rejected(self, rl):
        with pytest.raises(ValueError):
            rl.forward_latency(-1)

    def test_flat_then_linear(self, rl):
        # Below saturation the latency is dominated by the weight roof.
        sat = rl.saturation_tokens()
        lat_small = rl.forward_latency(1)
        lat_half = rl.forward_latency(sat // 2)
        assert lat_half < lat_small * 1.2
        # Far above saturation, latency grows ~linearly with tokens.
        lat_2x = rl.forward_latency(4 * sat)
        lat_4x = rl.forward_latency(8 * sat)
        assert lat_4x / lat_2x == pytest.approx(2.0, rel=0.15)

    def test_monotone_in_tokens(self, rl):
        prev = 0.0
        for t in (1, 8, 64, 128, 512, 2048):
            lat = rl.forward_latency(t)
            assert lat >= prev
            prev = lat

    def test_monotone_in_context(self, rl):
        assert rl.forward_latency(8, 50_000) > rl.forward_latency(8, 0)

    def test_baseline_is_batch_one(self, rl):
        assert rl.baseline_decode_latency == rl.forward_latency(1, 0)

    def test_baseline_plausible_for_70b(self, rl):
        # 70B on 4xA100 decodes at ~20-30ms/token in practice.
        assert 0.015 < rl.baseline_decode_latency < 0.040

    def test_memory_bound_floor_is_weight_roof(self, rl):
        for tokens in (0, 1, 64, 4096):
            assert rl.forward_cost(tokens).weight_time == rl.memory_bound_floor
            assert rl.forward_latency(tokens) >= rl.memory_bound_floor

    def test_compute_seconds_per_token_is_compute_slope(self, rl):
        for tokens in (1, 64, 4096):
            assert rl.forward_cost(tokens).compute_time == pytest.approx(
                tokens * rl.compute_seconds_per_token
            )
        assert rl.saturation_tokens() == int(
            rl.memory_bound_floor / rl.compute_seconds_per_token
        )

    def test_prefill_compute_bound(self, rl):
        # A 2000-token prefill is far above the memory roof.
        cost = rl.forward_cost(2000, 1000)
        assert cost.compute_time > cost.weight_time

    def test_decode_memory_bound(self, rl):
        cost = rl.forward_cost(4, 0)
        assert cost.weight_time > cost.compute_time


class TestScaling:
    def test_tp_reduces_latency(self):
        m = MODEL_PRESETS["qwen2.5-32b"]
        gpu = GPU_PRESETS["a100-80g"]
        one = RooflineModel(DeploymentSpec(m, gpu, 1))
        two = RooflineModel(DeploymentSpec(m, gpu, 2))
        assert two.baseline_decode_latency < one.baseline_decode_latency

    def test_tp_adds_communication(self):
        m = MODEL_PRESETS["qwen2.5-32b"]
        gpu = GPU_PRESETS["a100-80g"]
        one = RooflineModel(DeploymentSpec(m, gpu, 1))
        two = RooflineModel(DeploymentSpec(m, gpu, 2))
        assert one.forward_cost(64).comm_time == 0.0
        assert two.forward_cost(64).comm_time > 0.0

    def test_draft_much_faster_than_target(self):
        target = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
        draft = RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"])
        assert draft.baseline_decode_latency < target.baseline_decode_latency / 5

    def test_h100_faster_than_a100(self):
        m = MODEL_PRESETS["llama-3.1-8b"]
        a = RooflineModel(DeploymentSpec(m, GPU_PRESETS["a100-80g"], 1))
        h = RooflineModel(DeploymentSpec(m, GPU_PRESETS["h100-80g"], 1))
        assert h.baseline_decode_latency < a.baseline_decode_latency

    def test_launch_override(self, rl):
        eager = rl.forward_latency(8)
        replay = rl.forward_latency(8, launch_overhead=1e-6)
        assert replay < eager

    def test_cost_total_is_sum(self, rl):
        cost = rl.forward_cost(100, 5000)
        assert cost.total == pytest.approx(
            max(cost.weight_time, cost.compute_time)
            + cost.kv_time
            + cost.comm_time
            + cost.launch_time
        )

    def test_saturation_matches_roofs(self, rl):
        sat = rl.saturation_tokens()
        below = rl.forward_cost(max(1, sat - 4))
        above = rl.forward_cost(sat + 8)
        assert below.weight_time >= below.compute_time
        assert above.compute_time >= above.weight_time
