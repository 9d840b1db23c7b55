"""Tests for the Sequoia-style static-topology extension."""

from __future__ import annotations

import itertools

import pytest

from repro.core.static_tree import (
    Topology,
    estimate_rank_probs,
    instantiate_topology,
    optimal_static_topology,
)


def _depth(topo: Topology) -> int:
    """Depth of the subtree below ``topo``'s root."""
    return max((1 + _depth(c) for c in topo.children), default=0)


class TestTopology:
    def test_size_and_depth(self):
        chain = Topology((Topology((Topology(),)),))
        assert chain.size == 2
        assert _depth(chain) == 2
        star = Topology((Topology(), Topology(), Topology()))
        assert star.size == 3
        assert _depth(star) == 1

    def test_empty(self):
        assert Topology().size == 0
        assert _depth(Topology()) == 0


class TestRankProbs:
    def test_validation(self, pair):
        with pytest.raises(ValueError):
            estimate_rank_probs(pair, [], 3)
        with pytest.raises(ValueError):
            estimate_rank_probs(pair, [1], 0)

    def test_monotone_decreasing(self, pair):
        ctxs = [pair.context_of([i, 4]) for i in range(50)]
        probs = estimate_rank_probs(pair, ctxs, 4)
        assert len(probs) == 4
        assert all(probs[i] >= probs[i + 1] for i in range(3))
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_rank1_tracks_predictability(self, pair):
        ctxs = [pair.context_of([i, 9]) for i in range(50)]
        hi = estimate_rank_probs(pair, ctxs, 2, center=0.9)
        lo = estimate_rank_probs(pair, ctxs, 2, center=0.3)
        assert hi[0] > lo[0]


class TestDP:
    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_static_topology((), 3)
        with pytest.raises(ValueError):
            optimal_static_topology((1.5,), 3)
        with pytest.raises(ValueError):
            optimal_static_topology((0.5,), -1)

    def test_zero_budget(self):
        topo, value = optimal_static_topology((0.7, 0.2), 0)
        assert topo.size == 0
        assert value == 0.0

    def test_single_node_takes_rank_one(self):
        topo, value = optimal_static_topology((0.7, 0.2), 1)
        assert topo.size == 1
        assert value == pytest.approx(0.7)
        assert len(topo.children) == 1

    def test_chain_when_top_rank_dominates(self):
        # q = (0.9, 0.01): deep chains beat wide trees.
        topo, value = optimal_static_topology((0.9, 0.01), 4)
        assert _depth(topo) == 4
        assert value == pytest.approx(0.9 + 0.81 + 0.729 + 0.6561)

    def test_wide_when_ranks_flat(self):
        # q = (0.4, 0.39, 0.38): siblings beat grandchildren
        # (0.4*0.4=0.16 < 0.38).
        topo, value = optimal_static_topology((0.4, 0.39, 0.38), 3)
        assert _depth(topo) == 1
        assert value == pytest.approx(0.4 + 0.39 + 0.38)

    def test_uses_at_most_budget(self):
        for n in range(0, 12):
            topo, _ = optimal_static_topology((0.6, 0.2, 0.1), n)
            assert topo.size <= n

    def _brute_force(self, qs, n):
        """Enumerate all topologies of exactly <= n nodes, return max value."""
        def enum(budget):
            yield Topology()
            if budget == 0:
                return
            # Assign m_i >= 0 nodes to each rank (child i exists iff m_i >= 1).
            k = len(qs)
            for alloc in itertools.product(range(budget + 1), repeat=k):
                if sum(alloc) > budget or sum(alloc) == 0:
                    continue
                child_options = []
                for m in alloc:
                    if m == 0:
                        child_options.append([None])
                    else:
                        child_options.append(list(enum(m - 1)))
                for combo in itertools.product(*child_options):
                    kids = tuple(c for c in combo if c is not None)
                    # Enforce node-count consistency.
                    t = Topology(kids)
                    if t.size <= budget:
                        yield t

        def value(topo, weight=1.0):
            total = 0.0
            for i, child in enumerate(topo.children):
                w = weight * qs[i]
                total += w + value(child, w)
            return total

        return max(value(t) for t in enum(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        qs = (0.65, 0.2, 0.08)
        _, dp_value = optimal_static_topology(qs, n)
        assert dp_value == pytest.approx(self._brute_force(qs, n), rel=1e-9)

    def test_value_monotone_in_budget(self):
        qs = (0.7, 0.2, 0.05)
        values = [optimal_static_topology(qs, n)[1] for n in range(8)]
        assert values == sorted(values)


class TestInstantiation:
    def test_tokens_follow_draft_ranks(self, pair):
        ctx = pair.context_of([3, 3])
        topo, _ = optimal_static_topology((0.7, 0.2), 5)
        tree = instantiate_topology(pair, 0, ctx, topo)
        assert tree.num_speculated == topo.size
        # Root's first child is the draft's top token.
        top_tok, _ = pair.draft_children(ctx, 1)[0]
        assert tree.token[tree.children(0)[0]] == top_tok

    def test_ctx_hashes_consistent(self, pair):
        ctx = pair.context_of([5])
        topo, _ = optimal_static_topology((0.6, 0.3, 0.1), 7)
        tree = instantiate_topology(pair, 0, ctx, topo)
        for node in range(1, tree.size):
            assert tree.ctx[node] == pair.extend(tree.ctx[tree.parent[node]], tree.token[node])

    def test_verifiable(self, pair):
        from repro.model.acceptance import verify_tree

        ctx = pair.context_of([8, 1])
        topo, _ = optimal_static_topology((0.7, 0.2), 6)
        tree = instantiate_topology(pair, 0, ctx, topo)
        accepted, corr, _ = verify_tree(pair, tree)
        assert len(accepted) <= tree.depth
