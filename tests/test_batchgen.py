"""Bit-identity of the vectorized batch generator (repro.model.batchgen).

``prefetch`` warms the shared distribution memos with numpy-generated
rows; every cached entry must be *exactly* what the scalar path would
have produced — token ids and IEEE-754 probability bits alike.  Each
test captures the vector-generated distributions, clears the shared
memos, regenerates the same queries through the scalar path, and
compares bit for bit (including the duplicate-draw repair path).
"""

from __future__ import annotations

import pytest

from repro.model.pair import ModelPair
from repro.model.stochastic_lm import StochasticLM, TokenDistribution
from repro.model.vocab import Vocabulary


def _ctxs(lm, tag: int, n: int) -> list[int]:
    return [lm.context_of([tag, i]) for i in range(n)]


def _assert_identical(a: TokenDistribution, b: TokenDistribution) -> None:
    assert a.token_ids == b.token_ids
    assert a.probs == b.probs  # exact float equality


class TestTargetPrefetch:
    @pytest.mark.parametrize("center", [None, 0.62, 0.80])
    def test_matches_scalar(self, center):
        pair = ModelPair.build(seed=1)
        ctxs = _ctxs(pair.target, 11, 64)
        pair.target.prefetch([(c, center) for c in ctxs])
        vec = [pair.target.distribution(c, center) for c in ctxs]
        pair.clear_caches()
        for c, v in zip(ctxs, vec):
            _assert_identical(v, pair.target.distribution(c, center))

    def test_small_batches_are_no_ops(self):
        pair = ModelPair.build(seed=2)
        pair.clear_caches()
        ctxs = _ctxs(pair.target, 3, 4)
        pair.target.prefetch([(c, None) for c in ctxs])
        assert all(c not in pair.target._cache for c in ctxs)


class TestDraftPrefetch:
    @pytest.mark.parametrize("center", [None, 0.7])
    def test_matches_scalar(self, center):
        pair = ModelPair.build(seed=3, alignment=0.85)
        ctxs = _ctxs(pair.target, 17, 80)
        pair.draft.prefetch([(c, center) for c in ctxs])
        vec_draft = [pair.draft.distribution(c, center) for c in ctxs]
        vec_tgt = [pair.target.distribution(c, center) for c in ctxs]
        pair.clear_caches()
        for c, vd, vt in zip(ctxs, vec_draft, vec_tgt):
            _assert_identical(vd, pair.draft.distribution(c, center))
            # The target memo was warmed with identical rows too.
            _assert_identical(vt, pair.target.distribution(c, center))

    def test_perfectly_aligned_draft_shares_target(self):
        pair = ModelPair.build(seed=4, alignment=1.0)
        pair.clear_caches()
        ctxs = _ctxs(pair.target, 23, 32)
        pair.draft.prefetch([(c, None) for c in ctxs])
        for c in ctxs:
            assert pair.draft.distribution(c) is pair.target.distribution(c)

    def test_small_batches_are_no_ops(self):
        pair = ModelPair.build(seed=2)
        pair.clear_caches()
        ctxs = _ctxs(pair.target, 3, 4)
        pair.draft.prefetch([(c, None) for c in ctxs])
        assert all(c not in pair.draft._cache for c in ctxs)
        assert all(c not in pair.target._cache for c in ctxs)

    def test_mixed_centers_in_one_batch(self):
        pair = ModelPair.build(seed=5)
        ctxs = _ctxs(pair.target, 29, 48)
        centers = [None, 0.62, 0.70, 0.80]
        items = [(c, centers[i % 4]) for i, c in enumerate(ctxs)]
        pair.draft.prefetch(items)
        vec = [pair.draft.distribution(c, center) for c, center in items]
        pair.clear_caches()
        for (c, center), v in zip(items, vec):
            _assert_identical(v, pair.draft.distribution(c, center))


class TestDuplicateRepair:
    def test_collided_rows_match_scalar(self):
        # A tiny vocabulary forces id collisions in nearly every row,
        # exercising the scalar repair path inside the vector kernel.
        lm = StochasticLM(Vocabulary(40), seed=6)
        ctxs = [lm.context_of([31, i]) for i in range(64)]
        lm.prefetch([(c, None) for c in ctxs])
        vec = [lm.distribution(c) for c in ctxs]
        lm.clear_cache()
        for c, v in zip(ctxs, vec):
            ref = lm.distribution(c)
            _assert_identical(v, ref)
            assert len(set(v.token_ids)) == len(v.token_ids)


    def test_collided_draft_rows_match_scalar(self):
        # The draft prefetch repairs the target rows it mixes from; both
        # memos must match the scalar path.
        pair = ModelPair.build(vocab_size=40, seed=6)
        pair.clear_caches()
        ctxs = [pair.target.context_of([31, i]) for i in range(64)]
        pair.draft.prefetch([(c, None) for c in ctxs])
        vec_draft = [pair.draft.distribution(c) for c in ctxs]
        vec_tgt = [pair.target.distribution(c) for c in ctxs]
        pair.clear_caches()
        for c, vd, vt in zip(ctxs, vec_draft, vec_tgt):
            _assert_identical(vd, pair.draft.distribution(c))
            _assert_identical(vt, pair.target.distribution(c))
            assert len(set(vt.token_ids)) == len(vt.token_ids)


class TestTokenDistribution:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TokenDistribution((1, 2), (0.5,))

    def test_equality_and_hash(self):
        a = TokenDistribution((1, 2), (0.8, 0.2))
        b = TokenDistribution((1, 2), (0.8, 0.2))
        assert a == b and hash(a) == hash(b)
        assert a != TokenDistribution((1, 3), (0.8, 0.2))
