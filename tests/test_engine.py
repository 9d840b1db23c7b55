"""Tests for the simulated execution engine."""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.serving.cohort import DecodeCohort
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import RequestState
from tests.conftest import make_request


def queued(rid=0, prompt=32, out=16, **kw):
    return make_request(rid=rid, prompt_len=prompt, max_new_tokens=out, **kw)


def running(engine, rid=0, prompt=32, out=16, **kw):
    req = queued(rid, prompt, out, **kw)
    engine.prefill([(req, req.prompt_len)], now=0.0)
    return req


def cohort_of(reqs):
    """A decode cohort whose batch is ``reqs`` (all joining)."""
    cohort = DecodeCohort()
    cohort.admit(reqs)
    return cohort


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
        latency = engine.decode(reqs, 2.0, cohort_of(reqs))
        for r in reqs:
            assert r.n_generated == 1
            assert r.last_token_time == pytest.approx(2.0 + latency)

    def test_plain_decode_leaves_ctx_unchanged(self, engine):
        # Plain decode advances timing and token counts only: nothing
        # downstream reads the identity of a plainly decoded token.
        r1 = running(engine, rid=7)
        r2 = running(engine, rid=8)
        root = engine.root_ctx(r1)
        cohort = cohort_of([r1])
        engine.decode([r1], 0.0, cohort)
        cohort.admit([r1, r2])
        engine.mixed_step([r1, r2], [(queued(9, prompt=40), 16)], 1.0, cohort)
        assert r1.n_generated == 1  # r1's second token is implied by the cohort
        cohort.materialize_all()
        assert r1.ctx == root and r1.n_generated == 2
        assert r2.ctx == engine.root_ctx(r2) and r2.n_generated == 1

    def test_empty_decode_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.decode([], 0.0, DecodeCohort())

    def test_decode_latency_grows_with_batch(self, engine):
        # Far past saturation, bigger batches take longer.
        a = [running(engine, rid=i) for i in range(2)]
        lat_small = engine.decode(a, 0.0, cohort_of(a))
        b = [running(engine, rid=100 + i) for i in range(150)]
        lat_big = engine.decode(b, 0.0, cohort_of(b))
        assert lat_big > lat_small


class TestMixedStep:
    def test_mixed_commits_both(self, engine):
        dec = running(engine, rid=1)
        pre = queued(rid=2, prompt=100)
        latency = engine.mixed_step([dec], [(pre, 40)], 1.0, cohort_of([dec]))
        assert dec.n_generated == 1
        assert pre.prefilled == 40
        assert latency > 0

    def test_mixed_completes_prefill(self, engine):
        pre = queued(rid=2, prompt=50)
        engine.mixed_step([], [(pre, 50)], 0.0, DecodeCohort())
        assert pre.state == RequestState.RUNNING

    def test_empty_mixed_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.mixed_step([], [], 0.0, DecodeCohort())

    def test_without_chunks_equals_decode(self, pair, target_roofline, draft_roofline):
        # One forward body: a chunkless mixed step is a decode step, bit
        # for bit, in latency and in every phase's busy time.
        runs = []
        for step in ("decode", "mixed"):
            eng = SimulatedEngine(pair, target_roofline, draft_roofline, KVCacheManager(200_000))
            batch = [running(eng, rid=i, prompt=64 + 16 * i) for i in range(5)]
            cohort = cohort_of(batch)
            if step == "decode":
                latency = eng.decode(batch, 1.0, cohort)
            else:
                latency = eng.mixed_step(batch, [], 1.0, cohort)
            runs.append((latency, astuple(eng.phase_times)))
        assert runs[0] == runs[1]

    def test_phase_split(self, engine):
        dec = running(engine, rid=1)
        engine.phase_times.prefill_s = 0.0  # reset after setup prefill
        pre = queued(rid=2, prompt=100)
        engine.mixed_step([dec], [(pre, 40)], 0.0, cohort_of([dec]))
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.decode_s > 0


#: ``speculative_step``'s verdicts and (depth, width, budget_used) shape
#: for a pass that commits nothing.
NO_VERDICTS = ([], (0, 0, 0))


def fresh_engine(pair, target_roofline, draft_roofline) -> SimulatedEngine:
    return SimulatedEngine(pair, target_roofline, draft_roofline, KVCacheManager(200_000))


class TestSpecCosts:
    def test_draft_cost_positive(self, engine):
        # The beam's price only: the pass that runs it books the phase.
        cost = engine.draft_cost((4, 8, 8))
        assert cost > 0
        assert engine.phase_times.speculation_s == 0.0

    def test_draft_graph_reuse_cheaper(self, engine):
        # Two identical beams: the second replays captured graphs.
        first = engine.draft_cost((4, 8, 8))
        second = engine.draft_cost((4, 8, 8))
        assert second < first

    def test_chain_draft_levels_steps(self, engine):
        one = engine.draft_cost((8,))
        four = engine.draft_cost((8,) * 4)
        assert four > 3 * one * 0.9

    def test_speculative_step_grows_with_verified_tokens(self, engine):
        small = engine.speculative_step((), 10, 0, 0.0, *NO_VERDICTS)
        large = engine.speculative_step((), 500, 0, 0.0, *NO_VERDICTS)
        assert large > small

    def test_speculative_step_verify_prefill_split(self, engine):
        pre = queued(rid=2, prompt=100)
        engine.speculative_step((), 50, 0, 0.0, *NO_VERDICTS, [(pre, 50)])
        assert engine.phase_times.prefill_s > 0
        assert engine.phase_times.verification_s > 0
        assert pre.prefilled == 50 and pre.state == RequestState.PREFILLING

    def test_speculative_step_scheduling_accounting(self, engine):
        latency = engine.speculative_step((), 10, 0, 0.0, *NO_VERDICTS, scheduling_s=0.001)
        assert engine.phase_times.scheduling_s == 0.001
        assert latency == pytest.approx(engine.phase_times.total + engine.step_overhead_s)

    def test_breakdown_sums_to_one(self, engine):
        engine.speculative_step((4,), 50, 0, 0.0, *NO_VERDICTS, scheduling_s=1e-4)
        bd = engine.phase_times.breakdown()
        assert sum(bd.values()) == pytest.approx(1.0)

    def test_speculative_step_is_the_fold_of_its_parts(self, pair, target_roofline, draft_roofline):
        # Draft levels, one target pass over verified + chunk tokens, the
        # step overhead and the scheduling time, added in that order; the
        # slow factor scales the two passes and the overhead.
        shipped = fresh_engine(pair, target_roofline, draft_roofline)
        parts = fresh_engine(pair, target_roofline, draft_roofline)
        shipped.slow_factor = 1.5
        chunk = [(queued(rid=3, prompt=40), 40)]
        dec = running(shipped, rid=4)
        latency = shipped.speculative_step(
            (4, 8, 8), 20, 900, 2.0, [(dec, 0, [], 77)], (3, 8, 20), chunk, scheduling_s=3e-5
        )
        draft = parts.draft_cost((4, 8, 8), 900) * 1.5
        expected = draft
        expected += target_roofline.forward_latency(60, 900) * 1.5
        expected += parts.step_overhead_s * 1.5
        expected += 3e-5
        assert latency == expected
        assert shipped.phase_times.speculation_s == draft
        # The chunk completed its prompt, and the verdict committed its
        # correction, at the iteration's end.
        req = chunk[0][0]
        assert req.state == RequestState.RUNNING
        assert req.decode_start == 2.0 + latency
        assert (dec.n_generated, dec.ctx, dec.last_token_time) == (1, 77, 2.0 + latency)
        assert (dec.verify_steps, dec.accepted_draft_tokens) == (1, 0)


class TestStragglerRule:
    """``slow_factor`` scales every GPU pass and the step overhead, not selection time."""

    SCHEDULING_S = 3e-5

    def passes(self, engine) -> list[float]:
        """One pass of each kind, each latency less its scheduling time."""
        decoding = [running(engine, rid=i) for i in range(3)]
        mixing = [running(engine, rid=10 + i) for i in range(2)]
        return [
            engine.prefill([(queued(rid=20, prompt=64), 64)], 0.0),
            engine.decode(decoding, 0.0, cohort_of(decoding)),
            engine.mixed_step(mixing, [(queued(rid=21, prompt=64), 32)], 0.0, cohort_of(mixing)),
            engine.speculative_step(
                (4, 8, 8), 20, 900, 0.0, *NO_VERDICTS, [(queued(rid=22, prompt=40), 40)],
                scheduling_s=self.SCHEDULING_S,
            ) - self.SCHEDULING_S,
        ]

    def test_every_pass_scales_by_the_slow_factor(self, pair, target_roofline, draft_roofline):
        healthy = fresh_engine(pair, target_roofline, draft_roofline)
        slow = fresh_engine(pair, target_roofline, draft_roofline)
        slow.slow_factor = 2.5
        for got, base in zip(self.passes(slow), self.passes(healthy), strict=True):
            assert got == pytest.approx(2.5 * base, rel=1e-12)


class TestLifecycle:
    def test_finish_frees_kv(self, engine):
        req = running(engine, rid=3, out=1)
        engine.kv.ensure(req.rid, req.kv_tokens)
        engine.decode([req], 0.0, cohort_of([req]))
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
    def test_run_adds_no_memo_entries(
        self, generated, system, replicas, trace, prefix_cache
    ):
        report = run_spec(
            ExperimentSpec.create(
                model="llama70b", system=system, rps=6.0, duration_s=4.0, seed=3,
                trace=trace, prefix_cache=prefix_cache, replicas=replicas,
            )
        )
        assert report.metrics.num_finished > 0
        assert generated["target"] == 0
        assert generated["draft"] == 0
