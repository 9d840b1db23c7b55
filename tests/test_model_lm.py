"""Tests for the synthetic target LM and draft LM."""

from __future__ import annotations

import math

import pytest

from repro.analysis.runner import run_spec
from repro.analysis.spec import ExperimentSpec
from repro.core.speculation import draft_chains, speculate_batch
from repro.model import batchgen, stochastic_lm
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

    def test_top_token(self):
        assert TokenDistribution((5, 9), (0.8, 0.2)).top_token() == 5


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
            if lm.sample(ctx) == lm.distribution(ctx).top_token():
                hits += 1
        assert abs(hits / n - 0.8) < 0.04

    def test_greedy_is_top(self, lm):
        ctx = lm.context_of([9])
        assert lm.greedy(ctx) == lm.distribution(ctx).top_token()

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
            strong.distribution(lm.context_of([i])).top_token()
            == lm.distribution(lm.context_of([i])).top_token()
            for i in range(n)
        )
        agree_weak = sum(
            weak_draft.distribution(weak.context_of([i])).top_token()
            == weak.distribution(weak.context_of([i])).top_token()
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
                assert len(registry) <= 3
        newest = pairs[-1]
        assert list(registry.values()) == [
            newest.target._cache,
            newest.target._emissions,
            newest.draft._cache,
        ]

    def test_lookup_refreshes_a_memo(self):
        first = StochasticLM(Vocabulary(1000), seed=1)
        DraftLM(first, alignment=0.5)
        again = StochasticLM(Vocabulary(1000), seed=1)  # seed 1's memos are newest now
        DraftLM(first, alignment=0.6)  # evicts the 0.5 draft memo, not seed 1's
        assert again._cache is first._cache
        assert again._emissions is first._emissions
        memos = list(stochastic_lm._SHARED_CACHES.values())
        assert any(memo is first._cache for memo in memos)
        assert any(memo is first._emissions for memo in memos)

    def test_evicted_memo_is_kept_by_its_model(self):
        old = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        ctxs = [old.context_of([i]) for i in range(50)]
        speculate_batch(old, [(0, c) for c in ctxs[25:]], depth=2, width=2)
        before = [(old.draft.distribution(c), old.target.sample(c)) for c in ctxs]
        sizes = (len(old.target._cache), len(old.target._emissions), len(old.draft._cache))
        assert sizes[1] > 0
        ModelPair.build(vocab_size=1000, seed=6, alignment=0.8)
        memos = stochastic_lm._SHARED_CACHES.values()
        assert all(memo is not old.target._cache for memo in memos)
        assert all(memo is not old.target._emissions for memo in memos)
        assert all(memo is not old.draft._cache for memo in memos)
        assert (len(old.target._cache), len(old.target._emissions), len(old.draft._cache)) == sizes
        after = [(old.draft.distribution(c), old.target.sample(c)) for c in ctxs]
        assert after == before
        fresh = ModelPair.build(vocab_size=1000, seed=5, alignment=0.8)
        assert fresh.target._cache is not old.target._cache
        assert fresh.target._emissions is not old.target._emissions
        assert [(fresh.draft.distribution(c), fresh.target.sample(c)) for c in ctxs] == before

    def test_emission_memo_is_keyed_by_seed(self):
        a = ModelPair.build(vocab_size=1000, seed=5)
        b = ModelPair.build(vocab_size=1000, seed=5)
        assert a.target._emissions is b.target._emissions
        assert a.target._emissions is not a.target._cache
        other = ModelPair.build(vocab_size=1000, seed=6)
        assert other.target._emissions is not a.target._emissions
        (signature,) = [
            sig
            for sig, memo in stochastic_lm._SHARED_CACHES.items()
            if memo is other.target._emissions
        ]
        assert signature[0] == "emission" and signature[-1] == 6

    def test_emission_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(batchgen, "MEMO_CAP", 40)
        pair = ModelPair.build(vocab_size=1000, seed=5)
        memo = pair.target._emissions
        sizes = []
        for i in range(6):
            roots = [(0, pair.context_of([i, j])) for j in range(12)]
            speculate_batch(pair, roots, depth=1, width=2)
            sizes.append(len(memo))
        assert max(sizes) <= 40
        assert sizes[:3] == [12, 24, 36] and sizes[3] == 12  # emptied, then refilled
        pair.target.clear_cache()
        assert len(memo) == 0

    @pytest.mark.parametrize("kind", ["beam", "chains"])
    def test_deferred_emission_memo_is_bounded(self, monkeypatch, kind):
        # One call drafts 40 rows over several levels (8 roots; a
        # depth-3 width-2 beam drafts 8 + 16 + 16, 5-token chains 8 x 5)
        # and memoizes them once, after its last level: the memo is
        # emptied at most once per call, before the update.
        monkeypatch.setattr(batchgen, "MEMO_CAP", 100)
        pair = ModelPair.build(vocab_size=1000, seed=5)
        memo = pair.target._emissions
        sizes = []
        first = None  # the first call's emissions, verifications and verifiers
        for i in range(6):
            ctxs = [pair.context_of([i, j]) for j in range(8)]
            if kind == "beam":
                trees = speculate_batch(pair, [(0, c) for c in ctxs], depth=3, width=2).trees
                verify = [lambda tree=tree: verify_tree(pair, tree) for tree in trees]
            else:
                chains = draft_chains(pair, [(c, None) for c in ctxs], 5)
                verify = [
                    lambda c=c, chain=chain: verify_sequence(pair, c, chain)
                    for c, chain in zip(ctxs, chains)
                ]
            sizes.append(len(memo))
            if first is None:
                first = (dict(memo), [check() for check in verify], verify)
        assert max(sizes) <= 100
        assert sizes == [40, 80, 40, 80, 40, 80]
        # The first call's emissions were cleared by the third call;
        # verification falls back to scalar sampling and agrees.
        emissions, verified, verify = first
        assert not any(key in memo for key in emissions)
        assert [check() for check in verify] == verified
        pair.clear_caches()
        assert all(pair.target.sample(ctx) == token for ctx, token in emissions.items())

    def test_distinct_seeds_do_not_pile_up(self, generated):
        for seed in (1, 2, 3):
            run_spec(adaserve_spec(seed))
        generated.clear()
        run_spec(adaserve_spec(4))
        assert generated["target"] > 0
        assert registry_entries() <= generated["target"] + generated["draft"]

    @pytest.mark.parametrize("system", ["adaserve", "vllm-spec:k=4"])
    def test_speculation_memoizes_emissions_only(self, monkeypatch, system):
        # Speculation regenerates draft rows per level instead of
        # memoizing them, and writes no target rows either: it memoizes
        # the emission of each context it drafts, which verification
        # samples.
        queried: set[tuple[int, float | None]] = set()
        targets = set()
        draft_top = batchgen.draft_top

        def recording_draft_top(call, C, centers, w):
            targets.add(call.target)
            keyed = centers.keyed
            flags = [keyed] * len(C) if isinstance(keyed, bool) else keyed.tolist()
            for ctx, center, has_center in zip(
                C.tolist(), centers.effective[:, 0].tolist(), flags
            ):
                queried.add((ctx, center if has_center else None))
            return draft_top(call, C, centers, w)

        monkeypatch.setattr(batchgen, "draft_top", recording_draft_top)
        spec = ExperimentSpec.create(
            model="llama70b", system=system, rps=4.0, duration_s=3.0, seed=9
        )
        first = run_spec(spec)
        (target,) = targets
        rows = dict.fromkeys(("target", "emission", "draft"), 0)
        for signature, memo in stochastic_lm._SHARED_CACHES.items():
            rows[signature[0]] += len(memo)
        assert rows["draft"] == 0
        emissions = dict(target._emissions)
        assert rows["emission"] == len(emissions) > 0
        keys = {ctx if c is None else stochastic_lm.mix(ctx, int(c * 1e6)) for ctx, c in queried}
        assert set(emissions) == keys
        target.clear_cache()
        for ctx, c in queried:
            key = ctx if c is None else stochastic_lm.mix(ctx, int(c * 1e6))
            assert emissions[key] == target.sample(ctx, c)
        assert run_spec(spec).metrics == first.metrics
