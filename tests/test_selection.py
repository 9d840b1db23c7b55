"""Tests for the SLO-customized and throughput-optimized selection phases."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.core.tree import TokenTree
from repro.model.acceptance import verify_tree
from tests.conftest import (
    CENTERS,
    ORACLE_PAIRS,
    assert_same_tree,
    object_tree,
    oracle_pair,
    reference_select_tokens,
    reference_verify_tree,
)

CONTEXTS = st.integers(0, 2**64 - 1)


def build_manual_tree(spec: dict) -> TokenTree:
    """Tree from {token: (prob, {children})} nested dicts."""
    tree = TokenTree(0, 1000)

    def add(parent: int, sub: dict, ctx: int):
        for tok, (prob, children) in sub.items():
            node = tree.add_child(parent, tok, ctx * 31 + tok, prob)
            add(node, children, ctx * 31 + tok)

    add(0, spec, 1000)
    return tree


@pytest.fixture
def trees(pair):
    roots = [(0, pair.context_of([i, i])) for i in range(4)]
    return speculate_batch(pair, roots, depth=4, width=3).trees


class TestBudget:
    def test_budget_never_exceeded(self, trees):
        res = select_tokens(trees, [2.0, 2.0, 2.0, 2.0], budget=10)
        assert res.budget_used <= 10
        total_selected = sum(sum(t.selected[1:]) for t in trees)
        assert res.budget_used == len(trees) + total_selected

    def test_roots_must_fit(self, trees):
        with pytest.raises(ValueError):
            select_tokens(trees, [0.0] * 4, budget=3)

    def test_budget_fully_spent_when_candidates_remain(self, trees):
        res = select_tokens(trees, [0.0] * 4, budget=12)
        assert res.budget_used == res.budget

    def test_budget_underspent_when_candidates_exhausted(self, trees):
        # Candidate trees have 4*12=48 non-root nodes total; budget 100
        # cannot be filled.
        res = select_tokens(trees, [0.0] * 4, budget=100)
        assert res.budget_used == 4 + 48

    def test_requirements_length_checked(self, trees):
        with pytest.raises(ValueError):
            select_tokens(trees, [1.0], budget=10)


class TestSLOPhase:
    def test_satisfied_requests_marked(self, trees):
        res = select_tokens(trees, [1.2] * 4, budget=30)
        assert all(s.slo_satisfied for s in res.selections)
        for s in res.selections:
            assert s.expected_accepted >= min(s.requirement, 1.0)

    def test_zero_requirement_needs_no_slo_tokens(self, trees):
        res = select_tokens(trees, [0.0] * 4, budget=20)
        assert all(s.slo_tokens == 0 for s in res.selections)
        assert all(s.slo_satisfied for s in res.selections)

    def test_n_max_cap(self, trees):
        res = select_tokens(trees, [100.0] * 4, budget=40, n_max=2)
        assert all(s.slo_tokens <= 2 for s in res.selections)

    def test_descending_requirement_priority(self, pair):
        # With a budget only large enough for one request's needs, the
        # request with the larger A(r) gets the SLO tokens.
        roots = [(0, pair.context_of([7])), (0, pair.context_of([8]))]
        trees = speculate_batch(pair, roots, depth=3, width=2).trees
        res = select_tokens(trees, [1.2, 3.0], budget=2 + 3, n_max=8)
        hungry = res.selections[1]
        modest = res.selections[0]
        assert hungry.slo_tokens >= modest.slo_tokens

    def test_requirement_capped_at_depth_plus_one(self, trees):
        res = select_tokens(trees, [100.0] * 4, budget=60, depth=4)
        assert all(s.capped_requirement == 5.0 for s in res.selections)


class TestThroughputPhase:
    def test_greedy_invariant_across_trees(self, pair):
        # Global-greedy invariant: every selected node's path probability
        # is >= every *selectable-but-unselected* node's (a node is
        # selectable when its parent is selected or the root).
        roots = [(0, pair.context_of([1])), (0, pair.context_of([2]))]
        trees = speculate_batch(
            pair, roots, depth=3, width=3, centers=[0.95, 0.15]
        ).trees
        select_tokens(trees, [0.0, 0.0], budget=2 + 6)
        selected = [
            t.path_prob[n] for t in trees for n in range(1, t.size) if t.selected[n]
        ]
        frontier_unselected = [
            t.path_prob[n]
            for t in trees
            for n in range(1, t.size)
            if not t.selected[n] and (t.parent[n] == 0 or t.selected[t.parent[n]])
        ]
        assert len(selected) == 6
        assert min(selected) >= max(frontier_unselected)

    def test_global_greedy_selects_max_prob_order(self):
        # Manual trees with known probabilities: the selected set must be
        # the top-k path probabilities among *selectable* (frontier) nodes.
        t1 = build_manual_tree({1: (0.9, {2: (0.8, {})}), 3: (0.2, {})})
        t2 = build_manual_tree({1: (0.6, {2: (0.5, {})}), 3: (0.3, {})})
        res = select_tokens([t1, t2], [0.0, 0.0], budget=2 + 3)
        sel1 = {t1.token[n] for n in range(1, t1.size) if t1.selected[n]}
        sel2 = {t2.token[n] for n in range(1, t2.size) if t2.selected[n]}
        # Top-3 path probs: 0.9, 0.72 (=0.9*0.8), 0.6.
        assert sel1 == {1, 2}
        assert sel2 == {1}


class TestValidity:
    def test_selection_connected(self, trees):
        select_tokens(trees, [2.0] * 4, budget=20)
        assert all(object_tree(t).is_selection_connected() for t in trees)

    def test_extractable(self, trees):
        # Walking selected children from the root reaches every selected
        # node: the mask is a valid draft tree for verification.
        select_tokens(trees, [1.5] * 4, budget=16)
        for t in trees:
            reached = 0
            stack = [0]
            while stack:
                for c in t.children(stack.pop()):
                    if t.selected[c]:
                        reached += 1
                        stack.append(c)
            assert reached == sum(t.selected[1:])

    def test_reselection_resets(self, trees):
        select_tokens(trees, [3.0] * 4, budget=30)
        first = [sum(t.selected[1:]) for t in trees]
        res = select_tokens(trees, [0.0] * 4, budget=4)
        assert all(sum(t.selected[1:]) == 0 for t in trees)
        assert res.budget_used == 4

    def test_expected_accepted_consistent(self, trees):
        res = select_tokens(trees, [2.0] * 4, budget=24)
        for sel, tree in zip(res.selections, trees):
            assert sel.expected_accepted == pytest.approx(
                1.0 + sum(p for p, s in zip(tree.path_prob[1:], tree.selected[1:]) if s)
            )

    def test_candidates_scanned_counted(self, trees):
        res = select_tokens(trees, [2.0] * 4, budget=24)
        assert res.candidates_scanned == sum(sum(t.selected[1:]) for t in trees)


def _manual_tree(data, pair, root_ctx: int, center) -> TokenTree:
    """A random tree whose draft probs are powers of two: path-prob ties abound.

    Half the children carry the target's emission at their parent, so
    verification accepts along some paths; siblings may repeat tokens.
    """
    tree = TokenTree(0, root_ctx)
    for node in range(1, data.draw(st.integers(0, 14)) + 1):
        parent = data.draw(st.integers(0, node - 1))
        ctx = tree.ctx[parent]
        if data.draw(st.booleans()):
            token = pair.target_sample(ctx, center)
        else:
            token = data.draw(st.integers(0, 5))
        prob = data.draw(st.sampled_from([0.5, 0.25, 0.75]))
        tree.add_child(parent, token, pair.extend(ctx, token), prob)
    return tree


class TestMatchesObjectReference:
    """Index-based selection and verification equal the object-per-node path."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_selection_and_verification_match_reference(self, data):
        pair = oracle_pair(data.draw(st.sampled_from(ORACLE_PAIRS)))
        n = data.draw(st.integers(1, 8))
        roots = [(0, ctx) for ctx in data.draw(st.lists(CONTEXTS, min_size=n, max_size=n))]
        centers = data.draw(st.lists(CENTERS, min_size=n, max_size=n))
        depth = data.draw(st.integers(0, 5))
        if data.draw(st.booleans()):
            width = data.draw(st.integers(1, pair.target.branching + 2))
            trees = speculate_batch(pair, roots, depth, width, centers).trees
        else:
            trees = [_manual_tree(data, pair, ctx, c) for (_, ctx), c in zip(roots, centers)]
        requirements = data.draw(
            st.lists(st.sampled_from([-1.0, 0.0, 1.0, 1.5, 2.25, 3.0, 8.0]), min_size=n, max_size=n)
        )
        budget = n + data.draw(st.integers(0, 40))
        n_max = data.draw(st.integers(0, 20))
        cap_depth = data.draw(st.one_of(st.none(), st.just(depth)))

        refs = [object_tree(t) for t in trees]
        result = select_tokens(trees, requirements, budget, n_max=n_max, depth=cap_depth)
        ref = reference_select_tokens(refs, requirements, budget, n_max, depth=cap_depth)

        assert (result.budget, result.budget_used, result.candidates_scanned) == (
            ref.budget,
            ref.budget_used,
            ref.candidates_scanned,
        )
        for sel, want in zip(result.selections, ref.selections):
            assert sel.requirement == want.requirement
            assert sel.capped_requirement == want.capped_requirement
            assert sel.expected_accepted == want.expected_accepted  # bit-equal floats
            assert sel.slo_tokens == want.slo_tokens
            assert sel.throughput_tokens == want.throughput_tokens
            assert sel.slo_satisfied == want.slo_satisfied
        for tree, ref_tree, center in zip(trees, refs, centers):
            assert_same_tree(tree, ref_tree)  # the selected set included
            accepted, correction, new_ctx = verify_tree(pair, tree, center, mask=tree.selected)
            want_nodes, want_correction, want_ctx = reference_verify_tree(
                pair, ref_tree.extract_selected().root, center
            )
            assert [tree.token[i] for i in accepted] == [n.token_id for n in want_nodes]
            assert [tree.ctx[i] for i in accepted] == [n.ctx_hash for n in want_nodes]
            assert all(tree.selected[i] for i in accepted)
            assert (correction, new_ctx) == (want_correction, want_ctx)

    def test_forced_ties_break_in_push_order(self):
        # Two equal-probability siblings, then a grandchild tying with
        # the remaining sibling: the earlier push wins each tie.
        tree = TokenTree(0, 1)
        a = tree.add_child(0, 1, 2, 0.5)
        b = tree.add_child(0, 2, 3, 0.5)
        c = tree.add_child(a, 3, 4, 1.0)
        ref = object_tree(tree)
        select_tokens([tree], [0.0], budget=3)
        reference_select_tokens([ref], [0.0], 3, n_max=16)
        assert tree.selected == [False, True, True, False]
        assert_same_tree(tree, ref)
        select_tokens([tree], [2.0], budget=3, n_max=2)
        assert [tree.selected[i] for i in (a, b, c)] == [True, True, False]
        select_tokens([tree], [0.0], budget=2)
        assert [tree.selected[i] for i in (a, b, c)] == [True, False, False]
