"""Cross-module integration tests: full serving scenarios.

These exercise the complete stack (workload -> scheduler -> engine ->
metrics) on small but realistic scenarios, asserting the qualitative
relationships the paper's evaluation rests on.
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import build_setup, run_once
from repro.workloads.categories import urgent_mix
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import autoregressive_ctx, tiny_generator


@pytest.fixture(scope="module")
def setup():
    return build_setup("llama70b")


@pytest.fixture(scope="module")
def workload(setup):
    # Real datasets, short trace: enough load to create contention.
    gen = WorkloadGenerator(setup.target_roofline, seed=11)
    return gen.steady(duration_s=25.0, rps=3.5)


class TestLossless:
    """Speculative systems emit exactly the tokens plain decoding would.

    Speculative decoding is lossless: with the same model pair, the final
    context hash of every finished request equals the one token-by-token
    autoregressive decoding reaches from its root context.
    """

    @staticmethod
    def assert_lossless(setup, system: str, seed: int) -> None:
        reqs = tiny_generator(setup.target_roofline, seed=seed).steady(duration_s=4.0, rps=2.0)
        report = run_once(setup, system, reqs)
        engine = setup.build_engine()  # same seed: same pair and root contexts
        finished = [r for r in report.requests if r.is_finished]
        assert finished
        for req in finished:
            # A recompute preemption re-installs the root context, so the
            # oracle only holds for requests that never lost their KV.
            assert req.preempt_count == req.failover_count == 0
            expected = autoregressive_ctx(
                engine.pair, engine.root_ctx(req), req.n_generated, req.predictability
            )
            assert req.ctx == expected, f"{system}: request {req.rid} diverged"

    def test_speculation_is_lossless(self, setup):
        self.assert_lossless(setup, "adaserve", seed=13)

    def test_vllm_spec_is_lossless(self, setup):
        self.assert_lossless(setup, "vllm-spec:k=6", seed=17)

    def test_smartspec_is_lossless(self, setup):
        self.assert_lossless(setup, "smartspec", seed=17)


class TestQualitativeOrdering:
    def test_adaserve_at_least_best_baseline(self, setup, workload):
        ada = run_once(setup, "adaserve", workload)
        spec = run_once(setup, "vllm-spec-6", workload)
        vllm = run_once(setup, "vllm", workload)
        best = max(spec.metrics.attainment, vllm.metrics.attainment)
        assert ada.metrics.attainment >= best - 0.02

    def test_speculation_beats_plain_batching_on_strict(self, setup, workload):
        spec = run_once(setup, "vllm-spec-6", workload)
        vllm = run_once(setup, "vllm", workload)
        assert (
            spec.metrics.per_category["coding"].attainment
            >= vllm.metrics.per_category["coding"].attainment
        )

    def test_all_systems_complete(self, setup, workload):
        for system in ("adaserve", "vllm", "sarathi", "vllm-spec-4", "fastserve", "vtc", "priority"):
            report = run_once(setup, system, workload, max_sim_time_s=600.0)
            assert report.metrics.num_finished == report.metrics.num_requests, system

    def test_goodput_bounded_by_throughput(self, setup, workload):
        for system in ("adaserve", "vllm"):
            m = run_once(setup, system, workload).metrics
            assert m.goodput <= m.throughput + 1e-9


class TestLoadResponse:
    def test_attainment_degrades_with_load(self, setup):
        gen = WorkloadGenerator(setup.target_roofline, seed=21)
        light = run_once(setup, "adaserve", gen.steady(20.0, 1.5))
        heavy = run_once(setup, "adaserve", gen.steady(20.0, 6.0))
        assert light.metrics.attainment >= heavy.metrics.attainment

    def test_acceptance_decreases_with_load(self, setup):
        # Adaptive control shrinks the beam under load, reducing mean
        # accepted tokens per verification (Figure 12's trend).
        gen = WorkloadGenerator(setup.target_roofline, seed=23)
        light = run_once(setup, "adaserve", gen.steady(20.0, 1.5))
        heavy = run_once(setup, "adaserve", gen.steady(20.0, 6.0))
        assert (
            light.metrics.mean_accepted_per_verify
            >= heavy.metrics.mean_accepted_per_verify
        )

    def test_static_spec_acceptance_stable(self, setup):
        gen = WorkloadGenerator(setup.target_roofline, seed=25)
        light = run_once(setup, "vllm-spec-6", gen.steady(20.0, 1.5))
        heavy = run_once(setup, "vllm-spec-6", gen.steady(20.0, 5.0))
        assert light.metrics.mean_accepted_per_verify == pytest.approx(
            heavy.metrics.mean_accepted_per_verify, abs=0.6
        )


class TestUrgentFractionResponse:
    def test_continuous_batching_collapses_with_urgency(self, setup):
        gen = WorkloadGenerator(setup.target_roofline, seed=27)
        lo = run_once(setup, "vllm", gen.steady(20.0, 3.0, mix=urgent_mix(0.3)))
        hi = run_once(setup, "vllm", gen.steady(20.0, 3.0, mix=urgent_mix(0.9)))
        assert hi.metrics.attainment <= lo.metrics.attainment + 0.05

    def test_adaserve_stays_high_with_urgency(self, setup):
        gen = WorkloadGenerator(setup.target_roofline, seed=27)
        hi = run_once(setup, "adaserve", gen.steady(20.0, 3.0, mix=urgent_mix(0.9)))
        assert hi.metrics.attainment > 0.8
