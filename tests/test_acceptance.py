"""Tests for verification semantics and Theorem 3.1 quantities."""

from __future__ import annotations

import math

import pytest

from repro.core.optimal import construct_optimal_trees
from repro.core.speculation import speculate_batch
from repro.core.static_tree import Topology, instantiate_topology
from repro.core.tree import TokenTree
from repro.model.acceptance import verify_sequence, verify_tree
from tests.calibration import expected_accepted_tokens, true_path_probability
from tests.conftest import object_tree, reference_verify_tree


class TestVerifySequence:
    def test_empty_chain_yields_correction(self, pair):
        ctx = pair.context_of([1])
        n, corr, new_ctx = verify_sequence(pair, ctx, [])
        assert n == 0
        assert corr == pair.target_sample(ctx)
        assert new_ctx == pair.extend(ctx, corr)

    def test_perfect_chain_fully_accepted(self, pair):
        # Build the chain from the target's own emissions: all accepted.
        ctx = pair.context_of([2, 3])
        chain = []
        c = ctx
        for _ in range(5):
            t = pair.target_sample(c)
            chain.append(t)
            c = pair.extend(c, t)
        n, corr, _ = verify_sequence(pair, ctx, chain)
        assert n == 5
        assert corr == pair.target_sample(c)

    def test_mismatch_stops_acceptance(self, pair):
        ctx = pair.context_of([4])
        right = pair.target_sample(ctx)
        wrong = right + 1
        n, corr, new_ctx = verify_sequence(pair, ctx, [wrong, 0, 0])
        assert n == 0
        assert corr == right
        assert new_ctx == pair.extend(ctx, right)

    def test_partial_acceptance(self, pair):
        ctx = pair.context_of([6])
        t1 = pair.target_sample(ctx)
        ctx1 = pair.extend(ctx, t1)
        wrong = pair.target_sample(ctx1) + 1
        n, corr, _ = verify_sequence(pair, ctx, [t1, wrong])
        assert n == 1
        assert corr == pair.target_sample(ctx1)

    def test_center_changes_outcome_statistics(self, pair):
        # With a high predictability center, greedy draft chains are
        # accepted more often than with a low one.
        def mean_accept(center: float) -> float:
            total = 0
            for i in range(150):
                ctx = pair.context_of([i, 7])
                chain = []
                c = ctx
                for _ in range(4):
                    tok, _ = pair.draft_children(c, 1, center)[0]
                    chain.append(tok)
                    c = pair.extend(c, tok)
                n, _, _ = verify_sequence(pair, ctx, chain, center)
                total += n
            return total / 150

        assert mean_accept(0.9) > mean_accept(0.3) + 0.5


class TestVerifyTree:
    def test_single_root_tree(self, pair):
        ctx = pair.context_of([1, 1])
        tree = TokenTree(0, ctx)
        accepted, corr, new_ctx = verify_tree(pair, tree)
        assert accepted == []
        assert corr == pair.target_sample(ctx)
        assert new_ctx == pair.extend(ctx, corr)

    def test_accepts_matching_child(self, pair):
        ctx = pair.context_of([3, 1])
        tree = TokenTree(0, ctx)
        emitted = pair.target_sample(ctx)
        child = tree.add_child(0, emitted, pair.extend(ctx, emitted), 0.9)
        accepted, corr, _ = verify_tree(pair, tree)
        assert accepted[0] == child
        assert corr == pair.target_sample(tree.ctx[child])

    def test_rejects_non_matching_children(self, pair):
        ctx = pair.context_of([3, 2])
        emitted = pair.target_sample(ctx)
        tree = TokenTree(0, ctx)
        tree.add_child(0, emitted + 1, pair.extend(ctx, emitted + 1), 0.5)
        tree.add_child(0, emitted + 2, pair.extend(ctx, emitted + 2), 0.4)
        accepted, corr, _ = verify_tree(pair, tree)
        assert accepted == []
        assert corr == emitted

    def test_accepted_path_is_root_path(self, pair):
        # Accepted nodes must form a parent chain from the root.
        ctx = pair.context_of([9, 9])
        tree = speculate_batch(pair, [(0, ctx)], depth=4, width=3).trees[0]
        accepted, _, _ = verify_tree(pair, tree)
        prev = 0
        for node in accepted:
            assert tree.parent[node] == prev
            prev = node

    @pytest.mark.parametrize("build", ["add_child", "from_columns", "static", "optimal"])
    def test_hand_built_trees_hand_over_no_emissions(self, pair, build):
        # Trees no speculation call drafted carry -1 on every node, and
        # verification samples the target at each, as the oracle does.
        roots = [(0, pair.context_of([7, i])) for i in range(12)]
        if build == "optimal":
            trees = construct_optimal_trees(pair, roots, [2.0] * 12, budget=60).trees
        else:
            trees = []
            for root_token, root_ctx in roots:
                tree = instantiate_topology(
                    pair, root_token, root_ctx, Topology((Topology((Topology(),)), Topology()))
                )
                if build == "add_child":
                    tree.add_child(0, 5, pair.extend(root_ctx, 5), 0.1)
                elif build == "from_columns":
                    tree = TokenTree.from_columns(
                        tree.token, tree.ctx, tree.draft_prob, tree.path_prob, tree.level,
                        tree.parent,
                    )
                trees.append(tree)
        for tree in trees:
            assert tree.size > 1
            assert tree.emitted == [-1] * tree.size
            got_nodes, correction, new_ctx = verify_tree(pair, tree)
            want_nodes, want_correction, want_ctx = reference_verify_tree(
                pair, object_tree(tree).root
            )
            assert [tree.ctx[i] for i in got_nodes] == [n.ctx_hash for n in want_nodes]
            assert (correction, new_ctx) == (want_correction, want_ctx)

    def test_tree_vs_sequence_consistency(self, pair):
        # A chain-shaped tree verifies identically to verify_sequence.
        ctx = pair.context_of([5, 5])
        tokens = []
        c = ctx
        tree = TokenTree(0, ctx)
        node = 0
        for _ in range(3):
            tok, p = pair.draft_children(c, 1)[0]
            tokens.append(tok)
            c = pair.extend(c, tok)
            node = tree.add_child(node, tok, c, p)
        n_seq, corr_seq, ctx_seq = verify_sequence(pair, ctx, tokens)
        accepted, corr_tree, ctx_tree = verify_tree(pair, tree)
        assert len(accepted) == n_seq
        assert corr_tree == corr_seq
        assert ctx_tree == ctx_seq


class TestTheorem31:
    def test_true_path_probability_product(self, pair):
        ctx = pair.context_of([1, 2, 3])
        d0 = pair.target_distribution(ctx)
        t0 = d0.token_ids[0]
        ctx1 = pair.extend(ctx, t0)
        d1 = pair.target_distribution(ctx1)
        t1 = d1.token_ids[1]
        expected = d0.probs[0] * d1.probs[1]
        assert math.isclose(true_path_probability(pair, ctx, [t0, t1]), expected)

    def test_zero_for_unsupported_token(self, pair):
        ctx = pair.context_of([1])
        outside = max(pair.target_distribution(ctx).token_ids) + 1
        assert true_path_probability(pair, ctx, [outside, 0]) == 0.0

    def test_expectation_decomposition_monte_carlo(self, pair):
        # E[acc(T)] computed by Theorem 3.1 must match the empirical mean
        # of accepted counts across an ensemble of contexts.
        total_expected = 0.0
        total_actual = 0
        n = 400
        for i in range(n):
            ctx = pair.context_of([i, 13])
            tree = speculate_batch(pair, [(0, ctx)], depth=3, width=2).trees[0]
            total_expected += expected_accepted_tokens(pair, tree)
            accepted, _, _ = verify_tree(pair, tree)
            total_actual += len(accepted)
        assert abs(total_expected / n - total_actual / n) < 0.12

    def test_expectation_additive_in_nodes(self, pair):
        # Adding a node increases E[acc] by exactly its true path prob.
        ctx = pair.context_of([2, 2])
        tree = TokenTree(0, ctx)
        before = expected_accepted_tokens(pair, tree)
        tok = pair.target_distribution(ctx).token_ids[0]
        tree.add_child(0, tok, pair.extend(ctx, tok), 0.5)
        after = expected_accepted_tokens(pair, tree)
        assert math.isclose(after - before, true_path_probability(pair, ctx, [tok]))

    def test_sibling_acceptance_probs_sum_to_one(self, pair):
        # Appendix A: children of one node have acceptance probs summing
        # to 1 when the full support is enumerated.
        ctx = pair.context_of([8])
        dist = pair.target_distribution(ctx)
        assert math.isclose(sum(pair.accept_prob(ctx, t) for t in dist.token_ids), 1.0)
