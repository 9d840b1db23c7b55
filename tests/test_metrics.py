"""Tests for serving metrics (attainment, goodput, violation reduction)."""

from __future__ import annotations

import pytest

from repro.serving.metrics import (
    Reservoir,
    _percentile_sorted,
    aggregate_metrics,
    violation_reduction,
)
from tests.conftest import make_request, reference_nearest_rank


def finished_request(rid, category="coding", arrival=0.0, slo=0.05, tokens=10, duration=0.3):
    """A request that finished `tokens` tokens over `duration` seconds."""
    req = make_request(
        rid=rid, category=category, arrival=arrival,
        max_new_tokens=tokens, tpot_slo=slo,
    )
    req.advance_prefill(req.prompt_len)
    start = arrival + 0.1
    req.begin_decode(1, start)
    req.commit_tokens(tokens, 2, start + duration)
    return req


class TestPercentile:
    """Nearest-rank percentiles, as the accumulator's reservoirs read them.

    ``_percentile_sorted`` indexes an ascending list; an uncapped
    :class:`Reservoir` (exact mode) sorts its whole sample once and reads
    several quantiles from it.  Both must match the conftest oracle for
    every quantile, whatever order the samples arrive in.
    """

    @pytest.mark.parametrize(
        "values",
        [
            [0.3],
            [0.5, 0.1],
            [0.9, 0.1, 0.5, 0.5, 0.2],
            [float(i % 7) * 0.01 for i in range(100)],
            [0.25] * 10,  # all ties
        ],
    )
    @pytest.mark.parametrize("q", [0.0, 1.0, 50.0, 90.0, 99.0, 100.0])
    def test_sorted_fast_path_matches(self, values, q):
        assert _percentile_sorted(sorted(values), q) == reference_nearest_rank(values, q)
        res = Reservoir(key=0, capacity=None)
        for v in values:
            res.add(v)
        assert res.percentiles(q) == [reference_nearest_rank(values, q)]

    @pytest.mark.parametrize("q", [0.0, 50.0, 99.0, 100.0])
    def test_percentile_on_presorted_input_unchanged(self, q):
        # Feed order does not matter to an uncapped reservoir.
        values = [0.9, 0.1, 0.4, 0.05, 0.2, 0.1]
        shuffled, ordered = Reservoir(key=0, capacity=None), Reservoir(key=0, capacity=None)
        for v, w in zip(values, sorted(values)):
            shuffled.add(v)
            ordered.add(w)
        assert shuffled.percentiles(q) == ordered.percentiles(q)

    def test_nearest_rank_definition(self):
        values = sorted([0.4, 0.1, 0.2, 0.3])
        # rank = ceil(q/100 * 4): q=50 -> rank 2 -> 0.2; q=99 -> rank 4.
        assert _percentile_sorted(values, 50.0) == 0.2
        assert _percentile_sorted(values, 99.0) == 0.4
        assert _percentile_sorted(values, 0.0) == 0.1  # rank floors at 1

    def test_empty_inputs_raise(self):
        # NaN-on-empty was a strict-JSON (allow_nan=False) landmine and
        # broke dataclass equality; empty samples are a caller bug —
        # callers guard and report None (the CategoryMetrics convention).
        with pytest.raises(ValueError, match="empty sample"):
            Reservoir(key=0, capacity=None).percentiles(50.0)
        with pytest.raises(ValueError, match="empty sample"):
            _percentile_sorted([], 50.0)


class TestComputeMetrics:
    def test_empty(self):
        m = aggregate_metrics([])
        assert m.num_requests == 0
        assert m.attainment == 0.0
        assert m.goodput == 0.0

    def test_all_attained(self):
        # 10 tokens over 0.3s = 30ms/token <= 50ms SLO.
        reqs = [finished_request(i) for i in range(4)]
        m = aggregate_metrics(reqs)
        assert m.attainment == 1.0
        assert m.violation_rate == 0.0
        assert m.num_finished == 4

    def test_mixed_attainment(self):
        ok = [finished_request(i, duration=0.3) for i in range(3)]
        bad = [finished_request(10 + i, duration=1.0) for i in range(1)]
        m = aggregate_metrics(ok + bad)
        assert m.attainment == pytest.approx(0.75)

    def test_unfinished_counts_as_violation(self):
        ok = finished_request(0)
        pending = make_request(rid=1)
        m = aggregate_metrics([ok, pending])
        assert m.num_requests == 2
        assert m.num_attained == 1
        assert m.attainment == pytest.approx(0.5)

    def test_goodput_counts_attained_tokens_only(self):
        ok = finished_request(0, tokens=10, duration=0.3)
        bad = finished_request(1, tokens=20, duration=2.0)
        m = aggregate_metrics([ok, bad])
        # Span: first arrival 0.0 to last finish 0.1 + 2.0.
        assert m.span_s == pytest.approx(2.1)
        assert m.goodput == pytest.approx(10 / 2.1)
        assert m.throughput == pytest.approx(30 / 2.1)

    def test_per_category(self):
        a = finished_request(0, category="coding", duration=0.3)
        b = finished_request(1, category="chatbot", duration=1.0)
        m = aggregate_metrics([a, b])
        assert m.per_category["coding"].attainment == 1.0
        assert m.per_category["chatbot"].attainment == 0.0
        assert m.per_category["chatbot"].mean_tpot_s == pytest.approx(0.1)

    def test_mean_accepted_per_verify(self):
        a = finished_request(0)
        a.verify_steps = 4
        a.accepted_draft_tokens = 10
        b = finished_request(1)
        b.verify_steps = 6
        b.accepted_draft_tokens = 5
        m = aggregate_metrics([a, b])
        assert m.mean_accepted_per_verify == pytest.approx(15 / 10)

    def test_no_verify_steps_zero(self):
        m = aggregate_metrics([finished_request(0)])
        assert m.mean_accepted_per_verify == 0.0


class TestEmptyCategories:
    """Categories with zero completed requests degrade to None/0, never raise."""

    def test_category_with_no_finished_requests(self):
        ok = finished_request(0, category="coding")
        pending = make_request(rid=1, category="chatbot")  # never finishes
        m = aggregate_metrics([ok, pending])
        cm = m.per_category["chatbot"]
        assert cm.num_requests == 1
        assert cm.num_attained == 0
        assert cm.attainment == 0.0
        # None, not NaN: NaN sentinels broke dataclass equality between
        # byte-identical runs and strict-JSON allow_nan=False export —
        # the RunMetrics.mean_ttft_s convention applies everywhere.
        for stat in (
            cm.mean_tpot_s, cm.p50_tpot_s, cm.p99_tpot_s,
            cm.mean_ttft_s, cm.p50_ttft_s, cm.p99_ttft_s,
        ):
            assert stat is None

    def test_empty_category_metrics_compare_equal(self):
        # Regression: with NaN sentinels, two identical runs produced
        # CategoryMetrics that compared unequal (NaN != NaN).
        def metrics():
            return aggregate_metrics(
                [finished_request(0), make_request(rid=1, category="chatbot")]
            )

        assert metrics() == metrics()
        assert metrics().per_category["chatbot"] == metrics().per_category["chatbot"]

    def test_no_finished_requests_at_all(self):
        m = aggregate_metrics([make_request(rid=i) for i in range(3)])
        assert m.num_finished == 0
        assert m.attainment == 0.0
        assert m.goodput == 0.0
        assert m.mean_ttft_s is None
        again = aggregate_metrics([make_request(rid=i) for i in range(3)])
        assert m == again  # full equality, no NaN sentinels anywhere

    def test_empty_category_serializes_to_strict_json(self):
        from repro.analysis.export import metrics_from_dict, metrics_to_dict
        import json

        m = aggregate_metrics([finished_request(0), make_request(rid=1, category="chatbot")])
        text = json.dumps(metrics_to_dict(m), allow_nan=False)  # no NaN tokens
        back = metrics_from_dict(json.loads(text))
        assert back.per_category["chatbot"].mean_tpot_s is None
        assert back.num_requests == m.num_requests
        assert back == m  # None round-trips; NaN could not

    def test_prefix_fields_aggregate_from_requests(self):
        a = finished_request(0)
        a.cached_prompt_tokens = 96
        b = finished_request(1)
        m = aggregate_metrics([a, b])
        assert m.prefix_hit_requests == 1
        assert m.prefill_tokens_saved == 96
        assert m.prefix_hit_rate == 0.5
        assert m.mean_ttft_s == pytest.approx((a.ttft + b.ttft) / 2)

    def test_empty_run_prefix_defaults(self):
        m = aggregate_metrics([])
        assert m.prefix_hit_rate == 0.0
        assert m.prefill_tokens_saved == 0


class TestViolationReduction:
    def test_ratio(self):
        base = aggregate_metrics(
            [*(finished_request(i, duration=2.0) for i in range(2)), finished_request(9, duration=0.3)]
        )  # 2/3 violations
        good = aggregate_metrics(
            [
                *(finished_request(i, duration=2.0) for i in range(1)),
                *[finished_request(8, duration=0.3)] * 1,
                finished_request(7, duration=0.3),
            ]
        )  # 1/3 violations
        assert violation_reduction(base, good) == pytest.approx(2.0)

    def test_zero_improved_violations(self):
        base = aggregate_metrics([finished_request(0, duration=2.0)])
        good = aggregate_metrics([finished_request(0, duration=0.3)])
        assert violation_reduction(base, good) == float("inf")

    def test_both_zero(self):
        good = aggregate_metrics([finished_request(0, duration=0.3)])
        assert violation_reduction(good, good) == 1.0
