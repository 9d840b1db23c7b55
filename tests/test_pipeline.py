"""Tests for the speculate-select-verify pipeline (one iteration) and the
commit that tree and chain speculation share."""

from __future__ import annotations

import pytest

from repro.core.pipeline import BatchItem, run_iteration
from repro.core.speculation import draft_chains
from repro.model.acceptance import verify_sequence
from tests.conftest import make_request


def items_for(pair, n: int, requirement: float = 1.5, **kw) -> list[BatchItem]:
    return [
        BatchItem(
            root_token=0,
            root_ctx=pair.context_of([i, 100 + i]),
            requirement=requirement,
            **kw,
        )
        for i in range(n)
    ]


class TestIteration:
    def test_empty_batch_rejected(self, pair):
        with pytest.raises(ValueError):
            run_iteration(pair, [], depth=2, width=2, budget=4)

    def test_outcomes_align_with_items(self, pair):
        items = items_for(pair, 3)
        result = run_iteration(pair, items, depth=3, width=2, budget=12)
        assert len(result.outcomes) == 3
        for item, out in zip(items, result.outcomes):
            # Committed context = root extended by accepted + correction.
            ctx = item.root_ctx
            for tok in out.accepted_tokens:
                ctx = pair.extend(ctx, tok)
            ctx = pair.extend(ctx, out.correction_token)
            assert ctx == out.new_ctx

    def test_always_generates_at_least_one(self, pair):
        result = run_iteration(pair, items_for(pair, 4), depth=2, width=2, budget=8)
        assert all(o.tokens_generated >= 1 for o in result.outcomes)

    def test_accepted_bounded_by_depth(self, pair):
        result = run_iteration(pair, items_for(pair, 2), depth=3, width=2, budget=10)
        assert all(len(o.accepted_tokens) <= 3 for o in result.outcomes)

    def test_verify_tokens_matches_selection(self, pair):
        result = run_iteration(pair, items_for(pair, 3), depth=3, width=2, budget=12)
        assert result.verify_tokens == result.selection.budget_used - 3  # minus roots
        assert result.verify_tokens <= 12 - 3  # budget minus roots

    def test_totals(self, pair):
        result = run_iteration(pair, items_for(pair, 3), depth=3, width=2, budget=12)
        assert result.total_accepted == sum(len(o.accepted_tokens) for o in result.outcomes)

    def test_path_ctx_follows_accepted_tokens(self, pair):
        items = items_for(pair, 3, requirement=5.0)
        result = run_iteration(pair, items, depth=4, width=2, budget=20)
        for item, out in zip(items, result.outcomes):
            ctx, path = item.root_ctx, []
            for tok in out.accepted_tokens:
                ctx = pair.extend(ctx, tok)
                path.append(ctx)
            assert out.path_ctx == path

    def test_deterministic(self, pair):
        items = items_for(pair, 3)
        r1 = run_iteration(pair, items, depth=3, width=2, budget=12)
        r2 = run_iteration(pair, items, depth=3, width=2, budget=12)
        assert [o.accepted_tokens for o in r1.outcomes] == [
            o.accepted_tokens for o in r2.outcomes
        ]
        assert r1.verify_tokens == r2.verify_tokens

    def test_center_passed_through(self, pair):
        hi = run_iteration(
            pair, items_for(pair, 6, requirement=4.0, center=0.95), 4, 2, budget=40
        )
        lo = run_iteration(
            pair, items_for(pair, 6, requirement=4.0, center=0.2), 4, 2, budget=40
        )
        assert hi.total_accepted > lo.total_accepted

    def test_higher_requirement_more_selected(self, pair):
        # SLO-customized selection responds to requirements; with a large
        # budget the request with the higher A(r) gets at least as many
        # SLO-phase tokens.
        lo = run_iteration(pair, items_for(pair, 2, requirement=0.0), 3, 2, budget=6)
        hi = run_iteration(pair, items_for(pair, 2, requirement=3.0), 3, 2, budget=6)
        lo_slo = sum(s.slo_tokens for s in lo.selection.selections)
        hi_slo = sum(s.slo_tokens for s in hi.selection.selections)
        assert hi_slo > lo_slo


def decoding(max_new_tokens: int, ctx: int):
    """A request in decode at ``ctx`` with ``max_new_tokens`` to generate."""
    req = make_request(max_new_tokens=max_new_tokens, prompt_len=4, predictability=0.95)
    req.advance_prefill(4)
    req.begin_decode(ctx, 0.0)
    return req


def committed_state(req) -> tuple:
    return req.n_generated, req.ctx, req.verify_steps, req.accepted_draft_tokens


class TestSharedCommit:
    """Tree and chain speculation commit through ``Request.commit_verified``."""

    DEPTH = 4

    @pytest.fixture
    def long_accept(self, pair):
        # A start whose width-1 tree accepts at least three draft tokens,
        # so a cap can cut inside the accepted prefix.
        for i in range(200):
            ctx = pair.context_of([i, 7])
            [out] = self.tree_path(pair, ctx).outcomes
            if len(out.accepted_tokens) >= 3:
                return ctx, len(out.accepted_tokens)
        pytest.fail("no start accepts three draft tokens")

    def tree_path(self, pair, ctx):
        item = BatchItem(root_token=0, root_ctx=ctx, requirement=5.0, center=0.95)
        return run_iteration(pair, [item], depth=self.DEPTH, width=1, budget=1 + self.DEPTH)

    def commit_tree(self, pair, req) -> int:
        [out] = self.tree_path(pair, req.ctx).outcomes
        return req.commit_verified(len(out.accepted_tokens), out.path_ctx, out.new_ctx, 1.0)

    def commit_chain(self, pair, req) -> int:
        [chain] = draft_chains(pair, [(req.ctx, req.predictability)], self.DEPTH)
        accepted, _correction, new_ctx = verify_sequence(
            pair, req.ctx, chain, req.predictability, chain.emitted
        )
        return req.commit_verified(accepted, chain.ctxs, new_ctx, 1.0)

    @pytest.mark.parametrize("cap", ["inside the prefix", "one token", "uncapped"])
    def test_tree_and_chain_agree(self, pair, long_accept, cap):
        ctx, accepted = long_accept
        remaining = {"inside the prefix": accepted - 1, "one token": 1, "uncapped": 100}[cap]
        tree_req, chain_req = decoding(remaining, ctx), decoding(remaining, ctx)
        assert self.commit_tree(pair, tree_req) == self.commit_chain(pair, chain_req)
        assert committed_state(tree_req) == committed_state(chain_req)
        commit = min(accepted + 1, remaining)
        assert tree_req.n_generated == commit
        assert tree_req.accepted_draft_tokens == commit - 1
        assert tree_req.verify_steps == 1
        assert tree_req.is_finished == (commit == remaining)
        # A cut inside the prefix commits the target's own emissions there:
        # the accepted drafts up to the cut.
        [out] = self.tree_path(pair, ctx).outcomes
        tokens = [*out.accepted_tokens, out.correction_token][:commit]
        for tok in tokens:
            ctx = pair.extend(ctx, tok)
        assert tree_req.ctx == ctx
