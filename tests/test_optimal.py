"""Tests for Algorithm 1 (optimal token-tree construction)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.optimal import INVALID, construct_optimal_trees
from tests.calibration import expected_accepted_tokens
from tests.conftest import object_tree


class TestBasics:
    def test_budget_below_roots_invalid(self, perfect_pair):
        roots = [(0, perfect_pair.context_of([i])) for i in range(3)]
        assert construct_optimal_trees(perfect_pair, roots, [0.0] * 3, budget=2) == INVALID

    def test_requirements_length_checked(self, perfect_pair):
        with pytest.raises(ValueError):
            construct_optimal_trees(perfect_pair, [(0, 1)], [1.0, 2.0], budget=5)

    def test_zero_requirements_spend_all_budget(self, perfect_pair):
        roots = [(0, perfect_pair.context_of([1]))]
        res = construct_optimal_trees(perfect_pair, roots, [0.0], budget=8)
        assert res.budget_used == 8
        assert res.trees[0].num_speculated == 7

    def test_nacc_starts_at_one(self, perfect_pair):
        roots = [(0, perfect_pair.context_of([2]))]
        res = construct_optimal_trees(perfect_pair, roots, [1.0], budget=1)
        # Requirement 1.0 is met by the root's guaranteed token alone.
        assert not isinstance(res, str)
        assert res.expected_accepted[0] == 1.0
        assert res.budget_used == 1

    def test_infeasible_requirement_invalid(self, perfect_pair):
        # d+1-style caps don't exist here, but a requirement larger than
        # the achievable sum within budget must return INVALID.
        roots = [(0, perfect_pair.context_of([3]))]
        assert (
            construct_optimal_trees(perfect_pair, roots, [6.0], budget=4) == INVALID
        )

    def test_trees_marked_selected_and_connected(self, perfect_pair):
        roots = [(0, perfect_pair.context_of([4]))]
        res = construct_optimal_trees(perfect_pair, roots, [1.5], budget=10)
        tree = res.trees[0]
        assert all(tree.selected[1:])
        assert object_tree(tree).is_selection_connected()

    def test_expected_accepted_matches_true_f(self, perfect_pair):
        pair = perfect_pair
        roots = [(0, pair.context_of([5]))]
        res = construct_optimal_trees(pair, roots, [0.0], budget=6)
        tree = res.trees[0]
        total = 1.0 + expected_accepted_tokens(pair, tree)  # sum of true f(v)
        assert res.expected_accepted[0] == pytest.approx(total)


def brute_force_best(pair, ctx, budget_nodes: int) -> float:
    """Exhaustively find the max sum of f(v) over valid trees of size k.

    Valid trees = connected subsets containing the root.  Enumerate top-4
    children per node to depth 5, then prune to the top-15 candidates by
    f(v) — safe because f strictly decreases along paths, so every node of
    an optimal k<=4-node tree (and all its ancestors) lies among the
    highest-f candidates.
    """
    candidates: list[tuple[tuple[int, ...], float]] = []

    def expand(prefix: tuple[int, ...], c, prob: float, depth: int):
        if depth == 0:
            return
        dist = pair.target_distribution(c)
        for tok, p in list(zip(dist.token_ids, dist.probs))[:4]:
            f = prob * p
            candidates.append(((*prefix, tok), f))
            expand((*prefix, tok), pair.extend(c, tok), f, depth - 1)

    expand((), ctx, 1.0, 5)
    candidates.sort(key=lambda cf: cf[1], reverse=True)
    candidates = candidates[:15]
    best = 0.0
    for subset in itertools.combinations(range(len(candidates)), budget_nodes):
        paths = {candidates[i][0] for i in subset}
        # Connectivity: every non-length-1 path's parent must be present.
        if all(len(p) == 1 or p[:-1] in paths for p in paths):
            best = max(best, sum(candidates[i][1] for i in subset))
    return best


class TestOptimality:
    @pytest.mark.parametrize("budget_nodes", [1, 2, 3, 4])
    def test_matches_brute_force_single_request(self, perfect_pair, budget_nodes):
        pair = perfect_pair
        ctx = pair.context_of([9, 9])
        res = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget=1 + budget_nodes)
        greedy_value = res.expected_accepted[0] - 1.0
        brute = brute_force_best(pair, ctx, budget_nodes)
        assert greedy_value == pytest.approx(brute, rel=1e-9)

    def test_two_request_allocation_beats_even_split(self, perfect_pair):
        # Construct contexts with different predictability; the optimal
        # allocation should weakly dominate an even split's objective.
        pair = perfect_pair
        ctxs = [pair.context_of([1, 1]), pair.context_of([2, 2])]
        roots = [(0, c) for c in ctxs]
        res = construct_optimal_trees(pair, roots, [0.0, 0.0], budget=2 + 6, centers=[0.9, 0.3])
        # Even split: 3 nodes each by per-tree greedy.
        even_total = 0.0
        for c, center in zip(ctxs, [0.9, 0.3]):
            r = construct_optimal_trees(pair, [(0, c)], [0.0], budget=1 + 3, centers=[center])
            even_total += r.expected_accepted[0]
        assert res.total_expected >= even_total - 1e-9

    def test_invalid_implies_infeasible_sum(self, perfect_pair):
        # When INVALID is returned with budget B, even the greedy-best
        # B-node allocation cannot satisfy the requirements (Part 1 of the
        # Appendix C proof, spot-checked).
        pair = perfect_pair
        ctx = pair.context_of([8])
        requirement = 5.0
        budget = 6
        out = construct_optimal_trees(pair, [(0, ctx)], [requirement], budget)
        if out == INVALID:
            unconstrained = construct_optimal_trees(pair, [(0, ctx)], [0.0], budget)
            assert unconstrained.expected_accepted[0] < requirement
        else:
            assert out.expected_accepted[0] >= requirement


class TestDecouplingCost:
    def test_interleaved_decode_steps_grow_with_budget(self, perfect_pair):
        # Algorithm 1 needs one draft decode per inserted node (B - n
        # steps); this is the overhead §4.2 Challenge 2 identifies.
        pair = perfect_pair
        roots = [(0, pair.context_of([1]))]
        small = construct_optimal_trees(pair, roots, [0.0], budget=5)
        large = construct_optimal_trees(pair, roots, [0.0], budget=17)
        assert small.draft_decode_steps == 4
        assert large.draft_decode_steps == 16
