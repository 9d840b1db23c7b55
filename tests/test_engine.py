"""Tests for the simulated execution engine."""

from __future__ import annotations

import pytest

from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.model import stochastic_lm
from repro.serving.request import RequestState
from tests.conftest import make_request


def queued(rid=0, prompt=32, out=16, **kw):
    return make_request(rid=rid, prompt_len=prompt, max_new_tokens=out, **kw)


def running(engine, rid=0, prompt=32, out=16, **kw):
    req = queued(rid, prompt, out, **kw)
    engine.prefill([(req, req.prompt_len)], now=0.0)
    return req


class TestPrefill:
    def test_empty_batch_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.prefill([], 0.0)

    def test_full_prefill_starts_decode(self, engine):
        req = queued()
        latency = engine.prefill([(req, 32)], now=1.0)
        assert latency > 0
        assert req.state == RequestState.RUNNING
        assert req.decode_start == pytest.approx(1.0 + latency)
        assert req.ctx == engine.root_ctx(req)

    def test_chunked_prefill_stays_incomplete(self, engine):
        req = queued(prompt=100)
        engine.prefill([(req, 60)], now=0.0)
        assert req.state == RequestState.PREFILLING
        assert req.decode_start is None

    def test_longer_prompts_cost_more(self, engine):
        short = engine.prefill([(queued(0, prompt=64), 64)], 0.0)
        long = engine.prefill([(queued(1, prompt=2048), 2048)], 0.0)
        assert long > short

    def test_phase_accounting(self, engine):
        engine.prefill([(queued(), 32)], 0.0)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.decode_s == 0


class TestDecode:
    def test_decode_commits_one_token_each(self, engine):
        reqs = [running(engine, rid=i) for i in range(3)]
        latency = engine.decode(reqs, now=2.0)
        for r in reqs:
            assert r.n_generated == 1
            assert r.last_token_time == pytest.approx(2.0 + latency)

    def test_plain_decode_leaves_ctx_unchanged(self, engine):
        # Plain decode advances timing and token counts only: nothing
        # downstream reads the identity of a plainly decoded token.
        r1 = running(engine, rid=7)
        r2 = running(engine, rid=8)
        root = engine.root_ctx(r1)
        engine.decode([r1], 0.0)
        engine.mixed_step([r1, r2], [(queued(9, prompt=40), 16)], 1.0)
        assert r1.ctx == root and r1.n_generated == 2
        assert r2.ctx == engine.root_ctx(r2) and r2.n_generated == 1

    def test_empty_decode_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.decode([], 0.0)

    def test_decode_latency_grows_with_batch(self, engine):
        # Far past saturation, bigger batches take longer.
        a = [running(engine, rid=i) for i in range(2)]
        lat_small = engine.decode(a, 0.0)
        b = [running(engine, rid=100 + i) for i in range(150)]
        lat_big = engine.decode(b, 0.0)
        assert lat_big > lat_small


class TestMixedStep:
    def test_mixed_commits_both(self, engine):
        dec = running(engine, rid=1)
        pre = queued(rid=2, prompt=100)
        latency = engine.mixed_step([dec], [(pre, 40)], now=1.0)
        assert dec.n_generated == 1
        assert pre.prefilled == 40
        assert latency > 0

    def test_mixed_completes_prefill(self, engine):
        pre = queued(rid=2, prompt=50)
        engine.mixed_step([], [(pre, 50)], now=0.0)
        assert pre.state == RequestState.RUNNING

    def test_empty_mixed_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.mixed_step([], [], 0.0)

    def test_phase_split(self, engine):
        dec = running(engine, rid=1)
        engine.phase_times.prefill_s = 0.0  # reset after setup prefill
        pre = queued(rid=2, prompt=100)
        engine.mixed_step([dec], [(pre, 40)], now=0.0)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.decode_s > 0


class TestSpecCosts:
    def test_draft_cost_positive(self, engine):
        cost = engine.draft_cost((4, 8, 8))
        assert cost > 0
        assert engine.phase_times.speculation_s == pytest.approx(cost)

    def test_draft_graph_reuse_cheaper(self, engine):
        # Two identical beams: the second replays captured graphs.
        first = engine.draft_cost((4, 8, 8))
        second = engine.draft_cost((4, 8, 8))
        assert second < first

    def test_sequence_draft_cost_steps(self, engine):
        one = engine.sequence_draft_cost(1, 8)
        four = engine.sequence_draft_cost(4, 8)
        assert four > 3 * one * 0.9

    def test_verify_cost_grows_with_tokens(self, engine):
        small = engine.verify_cost(10)
        large = engine.verify_cost(500)
        assert large > small

    def test_verify_prefill_split(self, engine):
        engine.verify_cost(50, extra_prefill_tokens=50)
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.verification_s > 0

    def test_scheduling_accounting(self, engine):
        engine.account_scheduling(0.001)
        assert engine.phase_times.scheduling_s == pytest.approx(0.001)

    def test_breakdown_sums_to_one(self, engine):
        engine.verify_cost(50)
        engine.draft_cost((4,))
        engine.account_scheduling(1e-4)
        bd = engine.phase_times.breakdown()
        assert sum(bd.values()) == pytest.approx(1.0)


class TestLifecycle:
    def test_finish_frees_kv(self, engine):
        req = running(engine, rid=3, out=1)
        engine.kv.ensure(req.rid, req.kv_tokens)
        engine.decode([req], 0.0)
        assert req.is_finished
        engine.finish(req)
        assert not engine.kv.holds(req.rid)

    def test_finish_unfinished_rejected(self, engine):
        req = running(engine, rid=4)
        with pytest.raises(ValueError):
            engine.finish(req)

    def test_preempt_drop_kv(self, engine):
        req = running(engine, rid=5)
        engine.kv.ensure(req.rid, req.kv_tokens)
        engine.preempt(req, drop_kv=True)
        assert not engine.kv.holds(req.rid)
        assert req.prefilled == 0


class TestPlainDecodeComputesNoTokens:
    """Plain-decode runs never generate a next-token distribution."""

    @pytest.mark.parametrize(
        "system, replicas, trace, prefix_cache",
        [
            ("vllm", 2, "sessions:turns=3,think_time=1.0", True),
            ("sarathi", 1, "bursty", False),
        ],
    )
    def test_run_adds_no_memo_entries(self, system, replicas, trace, prefix_cache):
        memos = stochastic_lm._SHARED_CACHES
        for memo in memos.values():
            memo.clear()  # pure memos: clearing only costs refills
        report = run_spec(
            ExperimentSpec.create(
                model="llama70b", system=system, rps=6.0, duration_s=4.0, seed=3,
                trace=trace, prefix_cache=prefix_cache, replicas=replicas,
            )
        )
        assert report.metrics.num_finished > 0
        assert sum(len(memo) for memo in memos.values()) == 0
