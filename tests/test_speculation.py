"""Tests for beam-search candidate-tree construction (§4.3 step 1)."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.optimal import construct_optimal_trees
from repro.core.speculation import draft_chains, speculate_batch
from repro.model import batchgen
from repro.model.pair import ModelPair
from repro.model.stochastic_lm import StochasticLM
from tests.conftest import (
    CENTERS,
    ORACLE_PAIRS,
    assert_same_tree,
    oracle_pair,
    reference_draft_chains,
    reference_speculate,
)

_contexts = st.integers(0, 2**64 - 1)


def _assert_handed_emissions_exact(
    pair: ModelPair, handed: list[tuple[int, float | None, int]]
) -> None:
    """Speculation memoized nothing; each handed ``(ctx, center, emission)`` is scalar ``sample``'s."""
    assert len(pair.draft._cache) == 0
    assert len(pair.target._cache) == 0
    for ctx, c, emitted in handed:
        assert emitted == pair.target.sample(ctx, c)


def _assert_same_trees(result, expected) -> None:
    assert (result.depth, result.width, result.step_tokens) == (
        expected.depth,
        expected.width,
        expected.step_tokens,
    )
    assert len(result.trees) == len(expected.trees)
    for tree, ref in zip(result.trees, expected.trees):
        assert_same_tree(tree, ref)


class TestBeamShape:
    def test_depth_zero_is_root_only(self, pair):
        tree = speculate_batch(pair, [(0, pair.context_of([1]))], depth=0, width=3).trees[0]
        assert tree.size == 1

    def test_invalid_shape(self, pair):
        with pytest.raises(ValueError):
            speculate_batch(pair, [(0, 1)], depth=-1, width=2)
        with pytest.raises(ValueError):
            speculate_batch(pair, [(0, 1)], depth=2, width=0)

    def test_layer_sizes(self, pair):
        # Depth d, width w: every layer except the root has exactly w nodes.
        tree = speculate_batch(pair, [(0, pair.context_of([2]))], depth=4, width=3).trees[0]
        by_depth: dict[int, int] = {}
        for level in tree.level:
            by_depth[level] = by_depth.get(level, 0) + 1
        assert by_depth[0] == 1
        for depth in range(1, 5):
            assert by_depth[depth] == 3
        assert tree.size == 1 + 4 * 3

    def test_width_one_is_greedy_chain(self, pair):
        ctx = pair.context_of([3])
        tree = speculate_batch(pair, [(0, ctx)], depth=4, width=1).trees[0]
        assert tree.size == 5
        # Chain follows the draft's greedy continuations.
        node = 0
        c = ctx
        for _ in range(4):
            (child,) = tree.children(node)
            tok, _ = pair.draft_children(c, 1)[0]
            assert tree.token[child] == tok
            c = pair.extend(c, tok)
            node = child

    def test_beam_keeps_highest_path_probs(self, pair):
        # Every kept node at depth k has path_prob >= any dropped sibling
        # candidate: verify the kept frontier is the top-w of the expanded
        # candidates at each level for a small hand-checked case.
        ctx = pair.context_of([4])
        w = 2
        tree = speculate_batch(pair, [(0, ctx)], depth=2, width=w).trees[0]
        level1 = [n for n in range(tree.size) if tree.level[n] == 1]
        # The top-w children of the root by draft prob must be the level-1 set.
        top = pair.draft_children(ctx, w)
        assert {tree.token[n] for n in level1} == {t for t, _ in top}

    def test_ctx_hashes_consistent(self, pair):
        ctx = pair.context_of([5])
        tree = speculate_batch(pair, [(0, ctx)], depth=3, width=2).trees[0]
        for node in range(1, tree.size):
            assert tree.ctx[node] == pair.extend(tree.ctx[tree.parent[node]], tree.token[node])

    def test_path_probs_decreasing(self, pair):
        tree = speculate_batch(pair, [(0, pair.context_of([6]))], depth=4, width=3).trees[0]
        for node in range(1, tree.size):
            assert tree.path_prob[node] <= tree.path_prob[tree.parent[node]]


class TestBatch:
    def test_step_tokens_shape(self, pair):
        roots = [(0, pair.context_of([i])) for i in range(5)]
        res = speculate_batch(pair, roots, depth=3, width=2)
        assert res.step_tokens == (5, 10, 10)
        assert res.total_draft_tokens == 25
        assert len(res.trees) == 5

    def test_step_tokens_count_the_drafted_frontier(self):
        # Width above the branching factor: the root offers only 8
        # children, so step 2 drafts 8 nodes per tree, not 12.
        pair = ModelPair.build(vocab_size=1000, seed=3, branching=8)
        roots = [(0, pair.context_of([i])) for i in range(3)]
        res = speculate_batch(pair, roots, depth=3, width=12)
        assert res.step_tokens == (3, 24, 36)
        assert [res.trees[0].level.count(level) for level in (1, 2, 3)] == [8, 12, 12]
        assert res.step_tokens == reference_speculate(pair, roots, 3, 12).step_tokens

    def test_depth_zero_no_steps(self, pair):
        res = speculate_batch(pair, [(0, pair.context_of([1]))], depth=0, width=2)
        assert res.step_tokens == ()

    def test_centers_length_validation(self, pair):
        with pytest.raises(ValueError):
            speculate_batch(pair, [(0, 1)], depth=1, width=1, centers=[0.5, 0.5])

    def test_centers_affect_trees(self, pair):
        roots = [(0, pair.context_of([9]))]
        hi = speculate_batch(pair, roots, 2, 2, centers=[0.95]).trees[0]
        lo = speculate_batch(pair, roots, 2, 2, centers=[0.2]).trees[0]
        hi_top = max(hi.path_prob[1:])
        lo_top = max(lo.path_prob[1:])
        assert hi_top > lo_top


class TestTheorem41:
    def test_optimal_tree_covered_by_wide_beam(self, perfect_pair):
        """Theorem 4.1: T_opt (budget B) is a subtree of a depth-D(T_opt),
        width-B beam-search candidate tree.

        With a perfectly aligned draft, beam search scores nodes by the
        same f(v) Algorithm 1 uses, so the candidate tree must contain
        every optimal node.
        """
        pair = perfect_pair
        budget = 12
        ctx = pair.context_of([1, 2, 3])
        result = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget)
        assert not isinstance(result, str)
        opt_tree = result.trees[0]
        d_opt = opt_tree.depth
        cand = speculate_batch(pair, [(0, ctx)], depth=max(d_opt, 1), width=budget).trees[0]
        cand_paths = set(cand.ctx)  # a node's ctx hashes its whole root path
        for node in range(1, opt_tree.size):
            assert opt_tree.ctx[node] in cand_paths

    def test_depth_bound(self, perfect_pair):
        # D_opt <= B - n (loose bound from the paper).
        pair = perfect_pair
        budget = 10
        ctx = pair.context_of([4, 5])
        result = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget)
        assert result.trees[0].depth <= budget - 1


class TestLevelKernelMatchesOracle:
    """The array level kernel reproduces the per-node builder exactly."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_trees_match_per_node_builder(self, data):
        pair = oracle_pair(data.draw(st.sampled_from(ORACLE_PAIRS)))
        n = data.draw(st.integers(0, 20))
        depth = data.draw(st.integers(0, 8))
        width = data.draw(st.integers(1, pair.target.branching + 2))
        roots = data.draw(
            st.lists(st.tuples(st.integers(0, 999), _contexts), min_size=n, max_size=n)
        )
        centers = data.draw(st.lists(CENTERS, min_size=n, max_size=n))
        pair.clear_caches()
        result = speculate_batch(pair, roots, depth, width, centers)
        # Every node of a level the call drafted carries its emission;
        # the deepest level (and a depth-0 root) carries none.
        for tree in result.trees:
            assert [e < 0 for e in tree.emitted] == [lvl == depth for lvl in tree.level]
        _assert_handed_emissions_exact(
            pair,
            [
                (tree.ctx[node], center, tree.emitted[node])
                for tree, center in zip(result.trees, centers)
                for node in range(tree.size)
                if tree.level[node] < depth
            ],
        )
        pair.clear_caches()
        _assert_same_trees(result, reference_speculate(pair, roots, depth, width, centers))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chains_match_per_request_loop(self, data):
        pair = oracle_pair(data.draw(st.sampled_from(ORACLE_PAIRS)))
        n = data.draw(st.integers(0, 20))
        k = data.draw(st.integers(0, 8))
        starts = data.draw(st.lists(st.tuples(_contexts, CENTERS), min_size=n, max_size=n))
        pair.clear_caches()
        chains = draft_chains(pair, starts, k)
        handed = []
        for (ctx, center), chain in zip(starts, chains):
            assert len(chain.emitted) == len(chain)
            assert len(chain.ctxs) == len(chain)
            for tok, emitted, through in zip(chain, chain.emitted, chain.ctxs):
                handed.append((ctx, center, emitted))
                ctx = pair.extend(ctx, tok)
                assert through == ctx
        _assert_handed_emissions_exact(pair, handed)
        pair.clear_caches()
        assert chains == reference_draft_chains(pair, starts, k)

    def test_tiny_vocab_collides(self, monkeypatch):
        # The tiny-vocab pair must exercise the collided-row repair: the
        # kernel re-draws a collided row's ids with the scalar loop.
        pair = oracle_pair("tiny-vocab")
        ctxs = [pair.context_of([i]) for i in range(32)]
        repaired = []
        draw = StochasticLM._draw_token_ids

        def recording_draw(lm, ctx):
            repaired.append(ctx)
            return draw(lm, ctx)

        monkeypatch.setattr(StochasticLM, "_draw_token_ids", recording_draw)
        call = batchgen.DraftCall(pair.target, pair.draft.alignment)
        C = np.array(ctxs, dtype=np.uint64)
        batchgen.draft_top(call, C, batchgen.Centers(call, [None] * 32), 2)
        assert len(repaired) > 16
        assert set(repaired) <= set(ctxs)

    def test_perfect_pair_rows_are_unsorted(self):
        # Some perfectly aligned rows have a tail slot above the top-1
        # slot, so taking the first w slots differs from sorting.
        pair = oracle_pair("perfect")
        rows = [pair.draft.distribution(pair.context_of([i]), 0.3) for i in range(64)]
        assert any(list(d.probs) != sorted(d.probs, reverse=True) for d in rows)
