"""Tests for categories (Table 2), datasets, traces and the generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.batcharrivals import _sample_lengths
from repro.workloads.categories import (
    CATEGORIES,
    CHATBOT,
    CODING,
    DEFAULT_MIX,
    SUMMARIZATION,
    Category,
    urgent_mix,
)
from repro.workloads.datasets import DATASETS, LengthDistribution
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import (
    bursty_trace,
    diurnal_trace,
    phased_trace,
    trace_frequency,
    uniform_trace,
)


class TestCategories:
    def test_table2_rows(self):
        assert CODING.baseline_multiplier == 1.2
        assert CHATBOT.tpot_slo_s == 0.050
        assert SUMMARIZATION.tpot_slo_s == 0.150

    def test_exactly_one_slo_mode(self):
        with pytest.raises(ValueError):
            Category("x", "app", "tiny", 0.7)
        with pytest.raises(ValueError):
            Category("x", "app", "tiny", 0.7, tpot_slo_s=0.05, baseline_multiplier=1.2)

    def test_resolve_relative(self):
        assert CODING.resolve_slo(0.025) == pytest.approx(0.030)

    def test_resolve_absolute_ignores_baseline(self):
        assert CHATBOT.resolve_slo(0.025) == 0.050
        assert CHATBOT.resolve_slo(0.1) == 0.050

    def test_scale_only_affects_urgent(self):
        assert CODING.resolve_slo(0.025, scale=0.5) == pytest.approx(0.015)
        assert CHATBOT.resolve_slo(0.025, scale=0.5) == 0.050

    def test_urgent_mix(self):
        mix = urgent_mix(0.6)
        assert mix["coding"] == pytest.approx(0.6)
        assert mix["chatbot"] == pytest.approx(0.2)
        assert sum(mix.values()) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            urgent_mix(1.5)

    @pytest.mark.parametrize("name", sorted(CATEGORIES))
    def test_resolve_slos_all_categories(self, target_roofline, name):
        # Every request of a category carries that category's Table 2 SLO
        # against the deployment's baseline, and only urgent ones rank first.
        cat = CATEGORIES[name]
        reqs = WorkloadGenerator(target_roofline, seed=6).steady(30, 2.0, mix={name: 1.0})
        assert reqs
        want = cat.resolve_slo(target_roofline.baseline_decode_latency)
        assert {r.tpot_slo for r in reqs} == {want}
        assert {r.priority for r in reqs} == {0 if cat.is_urgent else 1}

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)


def _lengths(dist, hashes, salt=0):
    """Lengths the columnar substrate draws from ``dist`` for per-row ``hashes``."""
    return _sample_lengths(np.array(hashes, dtype=np.uint64), salt, dist).tolist()


def _dataset_lengths(roofline, name, seed, n):
    """(prompt_len, output_len) of dataset ``name``'s first ``n`` draws, as shipped."""
    gen = WorkloadGenerator(roofline, seed=seed)
    gen.datasets = {key: DATASETS[name] for key in gen.datasets}
    return [(r.prompt_len, r.max_new_tokens) for r in gen.from_arrivals([0.0] * n)]


class TestDatasets:
    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            LengthDistribution(mean=-1, sigma=0.5, lo=1, hi=10)
        with pytest.raises(ValueError):
            LengthDistribution(mean=10, sigma=0.5, lo=5, hi=2)

    def test_sample_within_clip(self):
        dist = LengthDistribution(mean=100, sigma=0.6, lo=50, hi=200)
        assert all(50 <= v <= 200 for v in _lengths(dist, [i * 7 + 1 for i in range(300)]))

    def test_sample_mean_approximate(self):
        dist = LengthDistribution(mean=100, sigma=0.3, lo=1, hi=10_000)
        vals = _lengths(dist, [i * 13 + 5 for i in range(3000)])
        assert abs(sum(vals) / len(vals) - 100) < 10

    def test_dataset_deterministic(self, target_roofline):
        first = _dataset_lengths(target_roofline, "humaneval", 1, 8)
        assert first == _dataset_lengths(target_roofline, "humaneval", 1, 8)
        assert first != _dataset_lengths(target_roofline, "humaneval", 2, 8)

    def test_datasets_distinct(self, target_roofline):
        a = [p for p, _ in _dataset_lengths(target_roofline, "alpaca", 0, 100)]
        c = [p for p, _ in _dataset_lengths(target_roofline, "cnn_dailymail", 0, 100)]
        assert sum(c) > 3 * sum(a)  # news prompts are much longer

    def test_expected_corpora_present(self):
        assert {"humaneval", "alpaca", "cnn_dailymail", "tiny"} <= set(DATASETS)


class TestTraces:
    def test_bursty_rate_matches_target(self):
        arrivals = bursty_trace(duration_s=300, target_rps=4.0, seed=1)
        assert abs(len(arrivals) / 300 - 4.0) < 0.5

    def test_bursty_sorted_and_bounded(self):
        arrivals = bursty_trace(60, 3.0, seed=2)
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 60 for t in arrivals)

    def test_bursty_is_bursty(self):
        arrivals = bursty_trace(600, 4.0, seed=3, burstiness=0.7)
        counts = trace_frequency(arrivals, bin_s=20, duration_s=600)
        mean = sum(counts) / len(counts)
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        # Overdispersed relative to Poisson (variance > mean).
        assert var > 1.5 * mean

    def test_bursty_deterministic(self):
        assert bursty_trace(60, 3.0, seed=4) == bursty_trace(60, 3.0, seed=4)
        assert bursty_trace(60, 3.0, seed=4) != bursty_trace(60, 3.0, seed=5)

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            bursty_trace(0, 1.0)
        with pytest.raises(ValueError):
            bursty_trace(10, 1.0, burstiness=1.0)

    def test_uniform_rate(self):
        arrivals = uniform_trace(400, 2.0, seed=1)
        assert abs(len(arrivals) / 400 - 2.0) < 0.3

    def test_phased_categories_peak_at_different_times(self):
        pairs = phased_trace(300, ["a", "b", "c"], peak_rps=3.0, base_rps=0.1, seed=1)
        def centroid(cat):
            ts = [t for t, c in pairs if c == cat]
            return sum(ts) / len(ts)
        assert centroid("a") < centroid("b") < centroid("c")

    def test_phased_sorted(self):
        pairs = phased_trace(100, ["a", "b"], 2.0, seed=2)
        times = [t for t, _ in pairs]
        assert times == sorted(times)

    def test_phased_validation(self):
        with pytest.raises(ValueError):
            phased_trace(100, [], 2.0)

    def test_diurnal_rate_matches_target(self):
        arrivals = diurnal_trace(600, 2.0, seed=1)
        assert abs(len(arrivals) / 600 - 2.0) < 0.3

    def test_diurnal_peaks_mid_cycle(self):
        arrivals = diurnal_trace(600, 2.0, seed=1, peak_to_trough=6.0)
        counts = trace_frequency(arrivals, bin_s=100.0, duration_s=600)
        # Trough at the window edges, peak in the middle of the cycle.
        assert max(counts[2:4]) > 2 * max(counts[0], counts[5])

    def test_diurnal_deterministic(self):
        assert diurnal_trace(200, 3.0, seed=9) == diurnal_trace(200, 3.0, seed=9)
        assert diurnal_trace(200, 3.0, seed=9) != diurnal_trace(200, 3.0, seed=10)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(0, 2.0)
        with pytest.raises(ValueError):
            diurnal_trace(100, 2.0, peak_to_trough=0.5)
        with pytest.raises(ValueError):
            diurnal_trace(100, 2.0, cycles=0)

    def test_trace_frequency_bins(self):
        counts = trace_frequency([0.5, 1.5, 1.7, 9.9], bin_s=1.0, duration_s=10.0)
        assert len(counts) == 10
        assert counts[0] == 1 and counts[1] == 2 and counts[9] == 1
        assert sum(counts) == 4


class TestGenerator:
    def test_requests_built(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=1)
        reqs = gen.steady(duration_s=30, rps=2.0)
        assert len(reqs) > 20
        assert all(r.tpot_slo > 0 for r in reqs)
        assert all(r.prompt_len >= 1 for r in reqs)

    def test_mix_respected(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=2)
        reqs = gen.steady(duration_s=400, rps=3.0, mix={"coding": 0.8, "chatbot": 0.2})
        frac = sum(1 for r in reqs if r.category == "coding") / len(reqs)
        assert abs(frac - 0.8) < 0.05
        assert not any(r.category == "summarization" for r in reqs)

    def test_unknown_category_rejected(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=1)
        with pytest.raises(KeyError):
            gen.steady(10, 1.0, mix={"nope": 1.0})

    def test_coding_slo_tracks_baseline(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=3)
        reqs = gen.steady(60, 2.0)
        coding = next(r for r in reqs if r.category == "coding")
        assert coding.tpot_slo == pytest.approx(
            1.2 * target_roofline.baseline_decode_latency
        )
        assert coding.priority == 0

    def test_slo_scale_applied(self, target_roofline):
        tight = WorkloadGenerator(target_roofline, seed=3, slo_scale=0.6)
        reqs = tight.steady(60, 2.0)
        coding = next(r for r in reqs if r.category == "coding")
        assert coding.tpot_slo == pytest.approx(
            0.6 * 1.2 * target_roofline.baseline_decode_latency
        )
        chat = next(r for r in reqs if r.category == "chatbot")
        assert chat.tpot_slo == 0.050  # absolute SLOs unscaled

    def test_deterministic(self, target_roofline):
        a = WorkloadGenerator(target_roofline, seed=9).steady(30, 2.0)
        b = WorkloadGenerator(target_roofline, seed=9).steady(30, 2.0)
        assert [(r.prompt_len, r.max_new_tokens, r.category) for r in a] == [
            (r.prompt_len, r.max_new_tokens, r.category) for r in b
        ]

    def test_phased_workload(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=4)
        reqs = gen.phased(duration_s=120, peak_rps=2.0)
        cats = {r.category for r in reqs}
        assert cats == {"coding", "chatbot", "summarization"}

    def test_rids_unique_and_ordered(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=5)
        reqs = gen.bursty(30, 3.0)
        assert [r.rid for r in reqs] == list(range(len(reqs)))
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
