"""Cross-module integration tests: full serving scenarios.

These exercise the complete stack (workload -> scheduler -> engine ->
metrics) on small but realistic scenarios, asserting the qualitative
relationships the paper's evaluation rests on.
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import build_setup, make_scheduler, run_once
from repro.workloads.categories import urgent_mix
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import autoregressive_ctx, make_request, tiny_generator


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


class TestTruncatedIteration:
    """A step capped by ``max_new_tokens`` reads the emissions speculation handed over.

    Truncation fires only when the target accepted past the cap, so the
    token at the cut is the next accepted one: the capped step commits
    the oracle's tokens and samples exactly the target rows the uncapped
    step does.
    """

    @staticmethod
    def _one_step(engine, system, caps):
        """One decode step over requests capped at ``caps``; (requests, target rows)."""
        scheduler = make_scheduler(system, engine)
        reqs = []
        for rid, cap in enumerate(caps):
            req = make_request(rid=rid, prompt_len=10, max_new_tokens=cap, predictability=0.9)
            req.advance_prefill(10)
            req.begin_decode(engine.root_ctx(req), 0.0)
            scheduler.running.append(req)
            reqs.append(req)
        engine.pair.target.clear_cache()
        scheduler.step(0.0)
        return reqs, len(engine.pair.target._cache)

    @pytest.mark.parametrize("system", ["adaserve", "vllm-spec:k=4", "smartspec"])
    def test_capped_step_commits_oracle_tokens_and_samples_no_row(self, engine, system):
        free, free_rows = self._one_step(engine, system, [60] * 8)
        # One token short of the uncapped commit: every request that
        # accepted a draft token is cut inside its accepted path.
        caps = [r.n_generated - 1 if r.n_generated > 1 else 60 for r in free]
        assert any(cap < 60 for cap in caps)
        capped, capped_rows = self._one_step(engine, system, caps)
        assert capped_rows == free_rows
        for req, cap, uncapped in zip(capped, caps, free):
            assert req.n_generated == min(cap, uncapped.n_generated)
            assert req.ctx == autoregressive_ctx(
                engine.pair, engine.root_ctx(req), req.n_generated, req.predictability
            )


class TestQualitativeOrdering:
    def test_adaserve_at_least_best_baseline(self, setup, workload):
        ada = run_once(setup, "adaserve", [r.fresh_copy() for r in workload])
        spec = run_once(setup, "vllm-spec:k=6", [r.fresh_copy() for r in workload])
        vllm = run_once(setup, "vllm", [r.fresh_copy() for r in workload])
        best = max(spec.metrics.attainment, vllm.metrics.attainment)
        assert ada.metrics.attainment >= best - 0.02

    def test_speculation_beats_plain_batching_on_strict(self, setup, workload):
        spec = run_once(setup, "vllm-spec:k=6", [r.fresh_copy() for r in workload])
        vllm = run_once(setup, "vllm", [r.fresh_copy() for r in workload])
        assert (
            spec.metrics.per_category["coding"].attainment
            >= vllm.metrics.per_category["coding"].attainment
        )

    def test_all_systems_complete(self, setup, workload):
        for system in ("adaserve", "vllm", "sarathi", "vllm-spec:k=4", "fastserve", "vtc", "priority"):
            report = run_once(
                setup, system, [r.fresh_copy() for r in workload], max_sim_time_s=600.0
            )
            assert report.metrics.num_finished == report.metrics.num_requests, system

    def test_goodput_bounded_by_throughput(self, setup, workload):
        for system in ("adaserve", "vllm"):
            m = run_once(setup, system, [r.fresh_copy() for r in workload]).metrics
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
        light = run_once(setup, "vllm-spec:k=6", gen.steady(20.0, 1.5))
        heavy = run_once(setup, "vllm-spec:k=6", gen.steady(20.0, 5.0))
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
