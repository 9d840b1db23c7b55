"""Tests for the coupled model pair."""

from __future__ import annotations

import pytest

from repro.model.draft import DraftLM
from repro.model.pair import PAIR_PRESETS, ModelPair
from repro.model.stochastic_lm import StochasticLM
from repro.model.vocab import Vocabulary


class TestConstruction:
    def test_build(self):
        pair = ModelPair.build(vocab_size=500, seed=1)
        assert pair.target.vocab.size == 500

    def test_mismatched_draft_rejected(self):
        a = StochasticLM(Vocabulary(500), seed=1)
        b = StochasticLM(Vocabulary(500), seed=2)
        with pytest.raises(ValueError):
            ModelPair(a, DraftLM(b))

    @pytest.mark.parametrize("name", sorted(PAIR_PRESETS))
    def test_presets_build(self, name):
        pair = ModelPair.from_preset(name, seed=0)
        assert pair.target.vocab.size == PAIR_PRESETS[name].vocab_size
        assert pair.draft.alignment == PAIR_PRESETS[name].alignment

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            ModelPair.from_preset("nope")

    def test_preset_predictability_override(self):
        pair = ModelPair.from_preset("toy", predictability=0.5)
        assert pair.target.predictability == 0.5


class TestInterface:
    def test_draft_children_count_and_order(self, pair):
        ctx = pair.context_of([1, 2])
        children = pair.draft_children(ctx, 3)
        assert len(children) == 3
        probs = [p for _, p in children]
        assert probs == sorted(probs, reverse=True)

    def test_target_sample_in_target_support(self, pair):
        ctx = pair.context_of([5])
        assert pair.target_sample(ctx) in pair.target_distribution(ctx).token_ids

    def test_accept_prob_is_target_prob(self, pair):
        ctx = pair.context_of([5])
        dist = pair.target_distribution(ctx)
        for tid, p in zip(dist.token_ids, dist.probs):
            assert pair.accept_prob(ctx, tid) == p

    def test_accept_prob_zero_outside_support(self, pair):
        ctx = pair.context_of([5])
        outside = max(pair.target_distribution(ctx).token_ids) + 1
        assert pair.accept_prob(ctx, outside) == 0.0

    def test_extend_shared(self, pair):
        ctx = pair.context_of([1])
        assert pair.extend(ctx, 2) == pair.context_of([1, 2])

    def test_clear_caches(self, pair):
        pair.draft.distribution(pair.context_of([1]))
        pair.clear_caches()
        assert len(pair.target._cache) == 0
        assert len(pair.draft._cache) == 0

    def test_draft_tracks_acceptance(self, pair):
        # The draft's top-1 estimate should track the true acceptance
        # probability of its pick: close in mean (mixing with noise makes
        # the draft mildly conservative) and positively correlated.
        ests, trues = [], []
        n = 300
        for i in range(n):
            ctx = pair.context_of([i, 2 * i])
            (tok, p), = pair.draft_children(ctx, 1)
            ests.append(p)
            trues.append(pair.accept_prob(ctx, tok))
        mean_e = sum(ests) / n
        mean_t = sum(trues) / n
        assert abs(mean_e - mean_t) < 0.15
        cov = sum((e - mean_e) * (t - mean_t) for e, t in zip(ests, trues)) / n
        var_e = sum((e - mean_e) ** 2 for e in ests) / n
        var_t = sum((t - mean_t) ** 2 for t in trues) / n
        corr = cov / (var_e**0.5 * var_t**0.5)
        assert corr > 0.5
