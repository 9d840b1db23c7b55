"""Tests for TTFT accounting (extension to the paper's TPOT-only metrics)."""

from __future__ import annotations

import pytest

from repro.serving.metrics import aggregate_metrics
from tests.conftest import make_request


class TestRequestTTFT:
    def test_infinite_before_first_token(self):
        req = make_request()
        assert req.ttft == float("inf")

    def test_ttft_from_arrival(self):
        req = make_request(arrival=2.0, max_new_tokens=5)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 2.5)
        req.commit_tokens(1, 2, 2.8)
        assert req.ttft == pytest.approx(0.8)

    def test_ttft_fixed_after_first_commit(self):
        req = make_request(arrival=0.0, max_new_tokens=5)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.1)
        req.commit_tokens(1, 2, 0.3)
        req.commit_tokens(2, 3, 0.9)
        assert req.ttft == pytest.approx(0.3)


class TestCategoryTTFT:
    def test_aggregated_per_category(self):
        reqs = []
        for i, ttft in enumerate([0.2, 0.4]):
            r = make_request(rid=i, arrival=0.0, max_new_tokens=2, tpot_slo=1.0)
            r.advance_prefill(r.prompt_len)
            r.begin_decode(1, 0.05)
            r.commit_tokens(1, 2, ttft)
            r.commit_tokens(1, 3, ttft + 0.1)
            reqs.append(r)
        m = aggregate_metrics(reqs)
        cm = m.per_category["coding"]
        assert cm.mean_ttft_s == pytest.approx(0.3)
        assert cm.p99_ttft_s == pytest.approx(0.4)

    def test_none_when_no_finishers(self):
        m = aggregate_metrics([make_request()])
        cm = m.per_category["coding"]
        assert cm.mean_ttft_s is None  # no samples, no sentinel

    def test_chunked_prefill_improves_decode_ttft_story(self, engine):
        # Sanity at the system level: TTFT is finite and ordered after a
        # real run (prefill time is part of TTFT).
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        reqs = [
            make_request(rid=i, arrival=0.1 * i, prompt_len=100 * (i + 1), max_new_tokens=4)
            for i in range(3)
        ]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        for r in report.requests:
            assert 0 < r.ttft < float("inf")
