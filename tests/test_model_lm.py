"""Tests for the synthetic target LM and draft LM."""

from __future__ import annotations

import math

import pytest

from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.core.speculation import draft_chains, speculate_batch
from repro.model import stochastic_lm
from repro.model.acceptance import verify_sequence, verify_tree
from repro.model.draft import DraftLM
from repro.model.pair import ModelPair
from repro.model.stochastic_lm import StochasticLM, TokenDistribution
from repro.model.vocab import Vocabulary


@pytest.fixture
def lm() -> StochasticLM:
    return StochasticLM(Vocabulary(2000), seed=11, predictability=0.7)


class TestTokenDistribution:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TokenDistribution((1, 2), (0.5,))

    def test_prob_of_present_and_absent(self):
        d = TokenDistribution((5, 9), (0.8, 0.2))
        assert d.prob_of(5) == 0.8
        assert d.prob_of(7) == 0.0


class TestStochasticLM:
    def test_invalid_params(self):
        v = Vocabulary(2000)
        with pytest.raises(ValueError):
            StochasticLM(v, branching=1)
        with pytest.raises(ValueError):
            StochasticLM(v, predictability=0.0)
        with pytest.raises(ValueError):
            StochasticLM(v, decay=1.0)

    def test_distribution_normalized(self, lm):
        ctx = lm.context_of([1, 2, 3])
        dist = lm.distribution(ctx)
        assert math.isclose(sum(dist.probs), 1.0, rel_tol=1e-9)

    def test_probs_sorted_descending(self, lm):
        dist = lm.distribution(lm.context_of([4, 5]))
        assert list(dist.probs) == sorted(dist.probs, reverse=True)

    def test_token_ids_distinct(self, lm):
        for seq in ([1], [2, 3], [9, 9, 9]):
            dist = lm.distribution(lm.context_of(seq))
            assert len(set(dist.token_ids)) == len(dist.token_ids)

    def test_deterministic_per_context(self, lm):
        ctx = lm.context_of([7, 8])
        assert lm.distribution(ctx) is lm.distribution(ctx)  # cached
        fresh = StochasticLM(Vocabulary(2000), seed=11, predictability=0.7)
        assert fresh.distribution(ctx).probs == lm.distribution(ctx).probs

    def test_different_contexts_differ(self, lm):
        d1 = lm.distribution(lm.context_of([1]))
        d2 = lm.distribution(lm.context_of([2]))
        assert d1.token_ids != d2.token_ids or d1.probs != d2.probs

    def test_seed_changes_model(self):
        a = StochasticLM(Vocabulary(2000), seed=1)
        b = StochasticLM(Vocabulary(2000), seed=2)
        ctx = [3, 4, 5]
        assert a.distribution(a.context_of(ctx)).probs != b.distribution(b.context_of(ctx)).probs

    def test_top1_tracks_predictability(self):
        v = Vocabulary(2000)
        lo = StochasticLM(v, seed=3, predictability=0.3)
        hi = StochasticLM(v, seed=3, predictability=0.9)
        ctxs = [lo.context_of([i]) for i in range(300)]
        mean_lo = sum(lo.distribution(c).probs[0] for c in ctxs) / 300
        mean_hi = sum(hi.distribution(c).probs[0] for c in ctxs) / 300
        assert mean_hi > mean_lo + 0.3
        assert abs(mean_lo - 0.3) < 0.06
        assert abs(mean_hi - 0.9) < 0.06

    @pytest.mark.parametrize("center, bound", [(0.1, 0.05), (0.95, 0.98)])
    def test_top1_clipped_to_bounds(self, lm, center, bound):
        # center +- spread crosses the clip bound for some contexts; those
        # pin to it and the distribution stays normalized.
        dists = [lm.distribution(lm.context_of([i]), center=center) for i in range(300)]
        top1 = [d.probs[0] for d in dists]
        assert bound in top1
        assert all(0.05 <= p <= 0.98 for p in top1)
        assert all(math.isclose(sum(d.probs), 1.0, rel_tol=1e-9) for d in dists)

    def test_center_override(self, lm):
        ctx = lm.context_of([1, 2])
        low = lm.distribution(ctx, center=0.2)
        high = lm.distribution(ctx, center=0.95)
        assert high.probs[0] > low.probs[0]
        # Same support regardless of center.
        assert set(low.token_ids) == set(high.token_ids)

    def test_sample_in_support(self, lm):
        for i in range(100):
            ctx = lm.context_of([i])
            assert lm.sample(ctx) in lm.distribution(ctx).token_ids

    def test_sample_deterministic(self, lm):
        ctx = lm.context_of([42])
        assert lm.sample(ctx) == lm.sample(ctx)

    def test_sample_frequency_matches_top1(self):
        # Across many contexts, the top token is sampled about top1 of
        # the time (the sample is drawn from the distribution).
        lm = StochasticLM(Vocabulary(2000), seed=5, predictability=0.8, spread=0.05)
        hits = 0
        n = 2000
        for i in range(n):
            ctx = lm.context_of([i, i + 1])
            if lm.sample(ctx) == lm.distribution(ctx).token_ids[0]:
                hits += 1
        assert abs(hits / n - 0.8) < 0.04

    def test_extend_matches_context_of(self, lm):
        assert lm.extend(lm.context_of([1, 2]), 3) == lm.context_of([1, 2, 3])

    def test_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(stochastic_lm, "MEMO_CAP", 100)
        lm = StochasticLM(Vocabulary(2000), seed=1)
        for i in range(250):
            lm.distribution(lm.context_of([i]))
        assert len(lm._cache) <= 101

    def test_clear_cache(self, lm):
        lm.distribution(lm.context_of([1]))
        lm.clear_cache()
        assert len(lm._cache) == 0


class TestDraftLM:
    def test_alignment_validation(self, lm):
        with pytest.raises(ValueError):
            DraftLM(lm, alignment=1.5)

    def test_perfect_alignment_equals_target(self, lm):
        draft = DraftLM(lm, alignment=1.0)
        ctx = lm.context_of([1, 2, 3])
        assert draft.distribution(ctx) is lm.distribution(ctx)

    def test_support_shared_with_target(self, lm):
        draft = DraftLM(lm, alignment=0.5)
        ctx = lm.context_of([4, 4])
        assert set(draft.distribution(ctx).token_ids) == set(
            lm.distribution(ctx).token_ids
        )

    def test_normalized(self, lm):
        draft = DraftLM(lm, alignment=0.5)
        ctx = lm.context_of([8])
        assert math.isclose(sum(draft.distribution(ctx).probs), 1.0, rel_tol=1e-9)

    def test_sorted_descending(self, lm):
        draft = DraftLM(lm, alignment=0.3)
        dist = draft.distribution(lm.context_of([6, 7]))
        assert list(dist.probs) == sorted(dist.probs, reverse=True)

    def test_alignment_controls_agreement(self, lm):
        # Higher alignment => draft top-1 agrees with target top-1 more often.
        strong = DraftLM(lm, alignment=0.95)
        weak = StochasticLM(Vocabulary(2000), seed=11, predictability=0.7)
        weak_draft = DraftLM(weak, alignment=0.1)
        n = 400
        agree_strong = sum(
            strong.distribution(lm.context_of([i])).token_ids[0]
            == lm.distribution(lm.context_of([i])).token_ids[0]
            for i in range(n)
        )
        agree_weak = sum(
            weak_draft.distribution(weak.context_of([i])).token_ids[0]
            == weak.distribution(weak.context_of([i])).token_ids[0]
            for i in range(n)
        )
        assert agree_strong > agree_weak

    def test_top_w(self, lm):
        draft = DraftLM(lm, alignment=0.8)
        ctx = lm.context_of([2])
        top3 = draft.top_w(ctx, 3)
        assert len(top3) == 3
        dist = draft.distribution(ctx)
        assert [t for t, _ in top3] == list(dist.token_ids[:3])

    def test_center_passthrough(self, lm):
        draft = DraftLM(lm, alignment=0.9)
        ctx = lm.context_of([3])
        hi = draft.distribution(ctx, center=0.95)
        lo = draft.distribution(ctx, center=0.2)
        assert hi.probs[0] > lo.probs[0]


def adaserve_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec.create(
        model="llama70b", system="adaserve", rps=4.0, duration_s=3.0, seed=seed
    )


def registry_entries() -> int:
    return sum(len(memo) for memo in stochastic_lm._SHARED_CACHES.values())


class TestMemoLifetime:
    """Memos are shared per (parameters, seed); the registry keeps one pair's."""

    @pytest.fixture(autouse=True)
    def empty_registry(self, monkeypatch):
        monkeypatch.setattr(stochastic_lm, "_SHARED_CACHES", {})

    def test_same_params_and_seed_share_a_memo(self):
        a = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        b = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        assert a.target._cache is b.target._cache
        assert a.draft._cache is b.draft._cache

    def test_seed_or_alignment_separates_memos(self):
        base = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        other_seed = ModelPair.build(vocab_size=1000, seed=6, alignment=0.8)
        assert other_seed.target._cache is not base.target._cache
        assert other_seed.draft._cache is not base.draft._cache
        other_alignment = DraftLM(base.target, alignment=0.6)
        assert other_alignment._cache is not base.draft._cache

    def test_registry_holds_at_most_one_pair(self):
        registry = stochastic_lm._SHARED_CACHES
        pairs = []
        for seed in range(4):
            for alignment in (0.5, 0.9):
                pairs.append(ModelPair.build(vocab_size=1000, seed=seed, alignment=alignment))
                assert len(registry) <= 2
        newest = pairs[-1]
        assert list(registry.values()) == [newest.target._cache, newest.draft._cache]

    def test_lookup_refreshes_a_memo(self):
        first = StochasticLM(Vocabulary(1000), seed=1)
        DraftLM(first, alignment=0.5)
        again = StochasticLM(Vocabulary(1000), seed=1)  # seed 1's memo is newest now
        DraftLM(first, alignment=0.6)  # evicts the 0.5 draft memo, not seed 1's
        assert again._cache is first._cache
        memos = list(stochastic_lm._SHARED_CACHES.values())
        assert any(memo is first._cache for memo in memos)

    def test_evicted_memo_is_kept_by_its_model(self):
        old = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        ctxs = [old.context_of([i]) for i in range(50)]
        speculate_batch(old, [(0, c) for c in ctxs[25:]], depth=2, width=2)
        before = [(old.draft.distribution(c), old.target.sample(c)) for c in ctxs]
        sizes = (len(old.target._cache), len(old.draft._cache))
        assert sizes[0] > 0
        ModelPair.build(vocab_size=1000, seed=6, alignment=0.8)
        memos = stochastic_lm._SHARED_CACHES.values()
        assert all(memo is not old.target._cache for memo in memos)
        assert all(memo is not old.draft._cache for memo in memos)
        assert (len(old.target._cache), len(old.draft._cache)) == sizes
        after = [(old.draft.distribution(c), old.target.sample(c)) for c in ctxs]
        assert after == before
        fresh = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        assert fresh.target._cache is not old.target._cache
        assert [(fresh.draft.distribution(c), fresh.target.sample(c)) for c in ctxs] == before

    def test_pair_registers_its_target_and_draft_memos_only(self):
        # No emission memo: a pair's seed keys exactly two memos.
        a = ModelPair.build(vocab_size=1000, seed=5)
        b = ModelPair.build(vocab_size=1000, seed=5)
        assert a.target._cache is b.target._cache
        assert not hasattr(a.target, "_emissions")
        signatures = list(stochastic_lm._SHARED_CACHES)
        assert [sig[0] for sig in signatures] == ["target", "draft"]
        assert all(sig[-1] == 5 for sig in signatures)

    @pytest.mark.parametrize("kind", ["beam", "chains"])
    def test_speculation_keeps_every_memo_size(self, kind):
        # Each call hands its emissions over with its drafts, so repeated
        # calls write no memo at all (8 roots; a depth-3 width-2 beam
        # drafts 8 + 16 + 16 rows, 5-token chains 8 x 5).  Verifying with
        # the handed emissions equals verifying by scalar sampling.
        pair = ModelPair.build(vocab_size=1000, seed=5)
        memos = list(stochastic_lm._SHARED_CACHES.values())
        assert len(memos) == 2
        for i in range(6):
            ctxs = [pair.context_of([i, j]) for j in range(8)]
            if kind == "beam":
                trees = speculate_batch(pair, [(0, c) for c in ctxs], depth=3, width=2).trees
                assert all(sum(e >= 0 for e in tree.emitted) == 5 for tree in trees)
            else:
                chains = draft_chains(pair, [(c, None) for c in ctxs], 5)
                assert all(len(chain.emitted) == 5 for chain in chains)
            assert [len(memo) for memo in memos] == [0, 0]
        if kind == "beam":
            handed = [verify_tree(pair, tree) for tree in trees]
            for tree in trees:
                tree.emitted = [-1] * tree.size
            sampled = [verify_tree(pair, tree) for tree in trees]
        else:
            handed = [
                verify_sequence(pair, c, chain, None, chain.emitted)
                for c, chain in zip(ctxs, chains)
            ]
            sampled = [verify_sequence(pair, c, chain) for c, chain in zip(ctxs, chains)]
        assert handed == sampled

    def test_distinct_seeds_do_not_pile_up(self, generated):
        for seed in (1, 2, 3):
            run_spec(adaserve_spec(seed))
        generated.clear()
        run_spec(adaserve_spec(4))
        assert generated["target"] > 0
        assert registry_entries() <= generated["target"] + generated["draft"]

    @pytest.mark.parametrize("system", ["adaserve", "vllm-spec:k=4", "smartspec"])
    def test_speculation_memoizes_no_rows(self, monkeypatch, system):
        # Speculation regenerates draft rows per level instead of
        # memoizing them, and memoizes neither target rows nor
        # emissions: the only target rows are those of the contexts
        # verification samples because no call drafted them.
        sampled: set[tuple[int, float | None]] = set()
        sample = StochasticLM.sample

        def recording_sample(lm, ctx, center=None):
            sampled.add((ctx, center))
            return sample(lm, ctx, center)

        monkeypatch.setattr(StochasticLM, "sample", recording_sample)
        spec = ExperimentSpec.create(
            model="llama70b", system=system, rps=4.0, duration_s=3.0, seed=9
        )
        first = run_spec(spec)
        rows = dict.fromkeys(("target", "draft"), 0)
        for signature, memo in stochastic_lm._SHARED_CACHES.items():
            rows[signature[0]] += len(memo)
        assert rows["draft"] == 0
        assert 0 < rows["target"] <= len(sampled)
        assert run_spec(spec).metrics == first.metrics
