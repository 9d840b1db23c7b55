"""Tests for the model-substrate calibration utilities (``tests/calibration.py``)."""

from __future__ import annotations

import pytest

from tests.calibration import (
    calibrate_alignment,
    measure_acceptance,
    measure_draft_quality,
)
from repro.model.pair import ModelPair


class TestMeasureAcceptance:
    def test_validation(self, pair):
        with pytest.raises(ValueError):
            measure_acceptance(pair, n_contexts=0)

    def test_range(self, pair):
        acc = measure_acceptance(pair, n_contexts=100, depth=4, width=2)
        assert 0.0 <= acc <= 4.0

    def test_monotone_in_alignment(self):
        accs = []
        for alignment in (0.2, 0.6, 1.0):
            p = ModelPair.build(vocab_size=4000, seed=5, alignment=alignment)
            accs.append(measure_acceptance(p, n_contexts=150))
        assert accs[0] < accs[2]
        assert accs[1] <= accs[2] + 0.1

    def test_monotone_in_predictability(self, pair):
        lo = measure_acceptance(pair, n_contexts=150, center=0.3)
        hi = measure_acceptance(pair, n_contexts=150, center=0.9)
        assert hi > lo + 0.5

    def test_deeper_beams_accept_more(self, pair):
        shallow = measure_acceptance(pair, n_contexts=120, depth=1, width=2)
        deep = measure_acceptance(pair, n_contexts=120, depth=6, width=2)
        assert deep > shallow

    def test_deterministic(self, pair):
        assert measure_acceptance(pair, 50) == measure_acceptance(pair, 50)


class TestDraftQuality:
    def test_validation(self, pair):
        with pytest.raises(ValueError):
            measure_draft_quality(pair, n_contexts=1)

    def test_perfect_draft(self, perfect_pair):
        q = measure_draft_quality(perfect_pair, n_contexts=150)
        assert q.top1_agreement == 1.0
        assert abs(q.bias) < 1e-9
        assert q.correlation > 0.99

    def test_noisy_draft_degrades(self):
        strong = ModelPair.build(vocab_size=4000, seed=9, alignment=0.95)
        weak = ModelPair.build(vocab_size=4000, seed=9, alignment=0.2)
        q_strong = measure_draft_quality(strong, n_contexts=200)
        q_weak = measure_draft_quality(weak, n_contexts=200)
        assert q_strong.top1_agreement > q_weak.top1_agreement
        assert q_strong.correlation > q_weak.correlation

    def test_mixture_draft_is_conservative(self, pair):
        # Mixing with noise flattens the top-1 estimate below truth.
        q = measure_draft_quality(pair, n_contexts=200)
        assert q.bias < 0.02


class TestCalibrateAlignment:
    def test_hits_target(self):
        alignment, achieved = calibrate_alignment(
            target_acceptance=1.8, n_contexts=100, tolerance=0.1
        )
        assert 0.0 <= alignment <= 1.0
        assert abs(achieved - 1.8) <= 0.15

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alignment(target_acceptance=10.0, n_contexts=60)
