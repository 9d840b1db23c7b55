"""Tests for the request lifecycle and SLO accounting."""

from __future__ import annotations

import pytest

from repro.serving.request import Request, RequestState
from tests.conftest import make_request


class TestValidation:
    def test_invalid_prompt(self):
        with pytest.raises(ValueError):
            make_request(prompt_len=0)

    def test_invalid_output(self):
        with pytest.raises(ValueError):
            make_request(max_new_tokens=0)

    def test_invalid_slo(self):
        with pytest.raises(ValueError):
            make_request(tpot_slo=0.0)


class TestPrefill:
    def test_chunked_progress(self):
        req = make_request(prompt_len=100)
        req.advance_prefill(40)
        assert req.prefilled == 40
        assert req.remaining_prompt == 60
        assert req.state == RequestState.PREFILLING

    def test_overshoot_rejected(self):
        req = make_request(prompt_len=10)
        with pytest.raises(ValueError):
            req.advance_prefill(11)

    def test_zero_chunk_rejected(self):
        req = make_request()
        with pytest.raises(ValueError):
            req.advance_prefill(0)

    def test_prefix_hit_counts_as_prefilled(self):
        req = make_request(prompt_len=100)
        req.note_prefix_hit(64)
        assert (req.prefilled, req.cached_prompt_tokens) == (64, 64)
        assert req.remaining_prompt == 36
        assert req.state == RequestState.PREFILLING

    def test_prefix_hit_bounds(self):
        req = make_request(prompt_len=100)
        for tokens in (0, 100):  # a hit must leave a token to compute
            with pytest.raises(ValueError):
                req.note_prefix_hit(tokens)
        req.advance_prefill(10)
        with pytest.raises(ValueError):
            req.note_prefix_hit(16)  # after prefill started

    def test_rollback_prefix_hit(self):
        req = make_request(prompt_len=100)
        req.note_prefix_hit(64)
        req.rollback_prefix_hit(64)
        assert (req.prefilled, req.cached_prompt_tokens) == (0, 0)
        assert req.state == RequestState.QUEUED
        req.note_prefix_hit(32)  # re-matches later
        req.advance_prefill(8)
        with pytest.raises(ValueError):
            req.rollback_prefix_hit(32)  # the hit is no longer all progress

    def test_begin_decode_requires_complete_prefill(self):
        req = make_request(prompt_len=10)
        req.advance_prefill(5)
        with pytest.raises(ValueError):
            req.begin_decode(123, 1.0)

    def test_begin_decode_stamps_once(self):
        req = make_request(prompt_len=10)
        req.advance_prefill(10)
        req.begin_decode(123, 1.0)
        assert req.state == RequestState.RUNNING
        assert req.decode_start == 1.0
        assert req.ctx == 123


def running_request(**kw) -> Request:
    req = make_request(**kw)
    req.advance_prefill(req.prompt_len)
    req.begin_decode(999, 1.0)
    return req


class TestDecode:
    def test_commit_advances(self):
        req = running_request(max_new_tokens=10)
        req.commit_tokens(3, 1000, 1.1)
        assert req.n_generated == 3
        assert req.ctx == 1000
        assert req.first_token_time == 1.1
        assert req.last_token_time == 1.1

    def test_commit_finishes_at_cap(self):
        req = running_request(max_new_tokens=4)
        req.commit_tokens(4, 1000, 1.2)
        assert req.is_finished
        assert req.finish_time == 1.2

    def test_commit_beyond_cap_rejected(self):
        req = running_request(max_new_tokens=2)
        with pytest.raises(ValueError):
            req.commit_tokens(3, 1000, 1.2)

    def test_commit_while_queued_rejected(self):
        req = make_request()
        with pytest.raises(ValueError):
            req.commit_tokens(1, 1, 1.0)

    def test_kv_tokens(self):
        req = running_request(prompt_len=32, max_new_tokens=10)
        req.commit_tokens(2, 1, 1.5)
        assert req.kv_tokens == 34


class TestPreemption:
    def test_preempt_keep_kv(self):
        req = running_request()
        req.preempt(drop_kv=False)
        assert req.state == RequestState.PREEMPTED
        assert req.prefilled == req.prompt_len
        req.resume()
        assert req.state == RequestState.RUNNING

    def test_preempt_drop_kv_requeues(self):
        req = running_request()
        req.preempt(drop_kv=True)
        assert req.prefilled == 0
        req.resume()
        assert req.state == RequestState.QUEUED

    def test_preempt_queued_rejected(self):
        req = make_request()
        with pytest.raises(ValueError):
            req.preempt(drop_kv=True)

    def test_resume_running_rejected(self):
        req = running_request()
        with pytest.raises(ValueError):
            req.resume()

    def test_preempt_count(self):
        req = running_request()
        req.preempt(drop_kv=False)
        req.resume()
        req.preempt(drop_kv=False)
        assert req.preempt_count == 2


class TestSLOAccounting:
    def test_avg_tpot(self):
        req = running_request(max_new_tokens=10)  # decode_start = 1.0
        req.commit_tokens(4, 1, 1.2)
        assert req.avg_tpot == pytest.approx(0.2 / 4)

    def test_avg_tpot_infinite_before_tokens(self):
        req = running_request()
        assert req.avg_tpot == float("inf")

    def test_attained_requires_finish(self):
        req = running_request(max_new_tokens=4, tpot_slo=0.1)
        req.commit_tokens(2, 1, 1.1)
        assert not req.attained  # not finished yet
        req.commit_tokens(2, 1, 1.2)
        assert req.attained  # 0.2s / 4 tokens = 50ms <= 100ms

    def test_violated_when_slow(self):
        req = running_request(max_new_tokens=2, tpot_slo=0.01)
        req.commit_tokens(2, 1, 2.0)  # 1s for 2 tokens
        assert req.is_finished and not req.attained

    def test_requirement_matches_slo_module(self):
        req = running_request(max_new_tokens=50, tpot_slo=0.05)
        req.commit_tokens(2, 1, 1.3)
        # now=1.3, elapsed=0.3, o=2, t_spec=0.05:
        # A = (0.3+0.05)/0.05 - 2 = 5.0
        assert req.requirement(1.3, 0.05) == pytest.approx(5.0)

    def test_requirement_before_decode_start(self):
        req = make_request(tpot_slo=0.05)
        assert req.requirement(10.0, 0.05) == pytest.approx(1.0)
