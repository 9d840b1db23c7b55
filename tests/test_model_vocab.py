"""Tests for the vocabulary abstraction."""

from __future__ import annotations

import pytest

from repro.model.draft import DraftLM
from repro.model.stochastic_lm import StochasticLM
from repro.model.vocab import NUM_SPECIAL_TOKENS, Vocabulary

#: So small that every regular id is drawn many times over 500 contexts.
TINY = Vocabulary(NUM_SPECIAL_TOKENS + 8)


class TestVocabulary:
    def test_default_size(self):
        assert Vocabulary().size == 32_000

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(size=NUM_SPECIAL_TOKENS)

    @pytest.mark.parametrize("size", [-1, 0, NUM_SPECIAL_TOKENS + 1])
    def test_sizes_without_two_regular_ids_rejected(self, size):
        with pytest.raises(ValueError):
            Vocabulary(size=size)

    def test_smallest_vocabulary_accepted(self):
        assert Vocabulary(NUM_SPECIAL_TOKENS + 2).num_regular == 2

    def test_num_regular(self):
        v = Vocabulary(100)
        assert v.num_regular == 100 - NUM_SPECIAL_TOKENS

    def test_special_tokens_distinct(self):
        # The reserved ids are the top of the range, and the target never
        # draws them: every drawn id is regular, and every regular id occurs.
        lm = StochasticLM(TINY, seed=1, branching=4)
        drawn = set()
        for i in range(500):
            ctx = lm.context_of([i])
            drawn.update(lm.distribution(ctx).token_ids)
            drawn.add(lm.sample(ctx))
        assert drawn == set(range(TINY.num_regular))

    def test_regular_not_special(self):
        lm = StochasticLM(TINY, seed=2, branching=4)
        draft = DraftLM(lm, alignment=0.3)
        drawn = set()
        for i in range(500):
            drawn.update(draft.distribution(lm.context_of([i])).token_ids)
        assert drawn == set(range(TINY.num_regular))
