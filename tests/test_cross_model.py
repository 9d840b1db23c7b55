"""Cross-setup checks: both Table 1 deployments behave consistently."""

from __future__ import annotations

import pytest

from repro.analysis.harness import MODEL_SETUPS, build_setup, run_once
from repro.hardware.profiler import HardwareProfiler
from tests.conftest import tiny_generator


@pytest.fixture(scope="module", params=sorted(MODEL_SETUPS))
def model_name(request):
    return request.param


@pytest.fixture(scope="module")
def setup(model_name):
    return build_setup(model_name, seed=3)


@pytest.fixture(scope="module")
def workload(setup):
    return tiny_generator(setup.target_roofline, seed=3).steady(6.0, 3.0)


class TestDeployments:
    def test_baseline_in_expected_band(self, setup):
        base = setup.target_roofline.baseline_decode_latency
        assert 0.010 < base < 0.040

    def test_draft_order_of_magnitude_faster(self, setup):
        from repro.hardware.roofline import RooflineModel

        draft = RooflineModel(setup.draft_deployment)
        assert draft.baseline_decode_latency < setup.target_roofline.baseline_decode_latency / 5

    def test_budget_profile_consistent(self, setup):
        prof = HardwareProfiler(setup.target_roofline).profile()
        assert prof.token_budget >= prof.saturation_tokens
        assert prof.latency_ratio <= 1.5 + 1e-9

    def test_coding_slo_tracks_each_baseline(self, setup):
        from repro.workloads.generator import WorkloadGenerator

        gen = WorkloadGenerator(setup.target_roofline, seed=1)
        reqs = gen.steady(30.0, 2.0)
        coding = next(r for r in reqs if r.category == "coding")
        assert coding.tpot_slo == pytest.approx(
            1.2 * setup.target_roofline.baseline_decode_latency
        )


@pytest.mark.parametrize("system", ["adaserve", "vllm", "vllm-spec:k=4", "smartspec"])
class TestEveryCombination:
    def test_runs_and_finishes(self, setup, workload, system):
        report = run_once(
            setup, system, [r.fresh_copy() for r in workload], max_sim_time_s=300.0
        )
        assert report.metrics.num_finished == report.metrics.num_requests

    def test_repeatable(self, setup, workload, system):
        a = run_once(setup, system, [r.fresh_copy() for r in workload], max_sim_time_s=300.0)
        b = run_once(setup, system, [r.fresh_copy() for r in workload], max_sim_time_s=300.0)
        assert a.sim_time_s == b.sim_time_s
        assert a.metrics.total_tokens == b.metrics.total_tokens
        assert a.metrics.num_attained == b.metrics.num_attained
