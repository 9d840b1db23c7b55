"""Bit-identity of the vectorized batch generator (repro.model.batchgen).

The level kernel ``draft_top`` is the module's one row function: its
top-w rows, child contexts and the emissions ``DraftCall.emit`` returns,
and the memo entries ``prefetch`` warms from it, must be *exactly* what
the scalar path produces — token ids and IEEE-754 probability bits alike.  Each test
captures the vector-generated values, clears the shared memos,
regenerates the same queries through the scalar path, and compares bit
for bit (including the duplicate-draw repair path).
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.model import batchgen
from repro.model.pair import ModelPair
from repro.model.stochastic_lm import StochasticLM, TokenDistribution
from repro.model.vocab import Vocabulary
from tests.conftest import CENTERS, ORACLE_PAIRS, oracle_pair


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


def _draft_top(pair, ctxs, centers, w):
    """One kernel call; returns ``(ids, probs, children)`` and the call."""
    call = batchgen.DraftCall(pair.target, pair.draft.alignment)
    C = np.array(ctxs, dtype=np.uint64)
    return batchgen.draft_top(call, C, batchgen.Centers(call, centers), w), call


class TestLevelKernel:
    """``draft_top`` rows are the scalar draft rows, children ``extend``'s."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_and_children_match_scalar(self, data):
        pair = oracle_pair(data.draw(st.sampled_from(ORACLE_PAIRS)))
        n = data.draw(st.integers(1, 30))
        w = data.draw(st.integers(1, pair.target.branching + 2))
        ctxs = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
        centers = data.draw(st.lists(CENTERS, min_size=n, max_size=n))
        (ids, probs, children), _ = _draft_top(pair, ctxs, centers, w)
        pair.clear_caches()
        for ctx, c, row_ids, row_probs, row_children in zip(
            ctxs, centers, ids.tolist(), probs.tolist(), children.tolist()
        ):
            dist = pair.draft.distribution(ctx, c)
            assert row_ids == list(dist.token_ids[:w])
            assert row_probs == list(dist.probs[:w])
            assert row_children == [pair.extend(ctx, tok) for tok in row_ids]

    def test_argmax_is_the_first_of_the_stable_descending_order(self):
        # The w = 1 leg takes argmax where wider levels take the first w
        # of a stable descending argsort: ties go to the lowest slot.
        rows = np.array([[0.25, 0.5, 0.5, 0.25], [0.4, 0.4, 0.1, 0.1], [0.1, 0.2, 0.3, 0.3]])
        first = np.argsort(-rows, axis=1, kind="stable")[:, :1]
        assert rows.argmax(axis=1, keepdims=True).tolist() == first.tolist() == [[1], [0], [2]]


class TestEmissions:
    """The kernel's emission column is ``StochasticLM.sample``, row by row."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_emit_matches_scalar_sample(self, data):
        # Several levels in one call, with and without centers: emit
        # returns every row's emission in drafting order and empties the
        # stash, writing no memo.
        pair = oracle_pair(data.draw(st.sampled_from(ORACLE_PAIRS)))
        levels = data.draw(
            st.lists(
                st.lists(st.tuples(st.integers(0, 2**64 - 1), CENTERS), min_size=1, max_size=20),
                min_size=1,
                max_size=3,
            )
        )
        pair.clear_caches()
        call = batchgen.DraftCall(pair.target, pair.draft.alignment)
        for rows in levels:
            C = np.array([ctx for ctx, _ in rows], dtype=np.uint64)
            batchgen.draft_top(call, C, batchgen.Centers(call, [c for _, c in rows]), 2)
        emitted = call.emit().tolist()
        assert call.rows == []
        assert len(pair.target._cache) == len(pair.draft._cache) == 0
        assert emitted == [pair.target.sample(ctx, c) for rows in levels for ctx, c in rows]

    def test_collided_rows_emit_repaired_ids(self):
        pair = oracle_pair("tiny-vocab")
        ctxs = [pair.context_of([i]) for i in range(64)]
        pair.clear_caches()
        _, call = _draft_top(pair, ctxs, [None] * 64, 2)
        ((_P, ids, _bits),) = call.rows
        assert all(len(set(row)) == len(row) for row in ids.tolist())
        emitted = call.emit().tolist()
        assert len(pair.target._cache) == len(pair.draft._cache) == 0
        assert emitted == [pair.target.sample(ctx) for ctx in ctxs]

    def test_slot_edges_match_the_scalar_loop(self):
        # Uniforms exactly on a running sum, and past a total below 1.
        P = np.array([[0.25, 0.25, 0.25, 0.125], [0.5, 0.25, 0.125, 0.0625]])
        ids = np.array([[10, 11, 12, 13], [20, 21, 22, 23]], dtype=np.uint64)
        for u_bits in (0, 2**51, 2**52, 2**52 + 2**51, 2**53 - 1):
            u = u_bits * 2.0**-53
            want = []
            for row_p, row_ids in zip(P.tolist(), ids.tolist()):
                acc = 0.0
                for tid, p in zip(row_ids, row_p):
                    acc += p
                    if u < acc:
                        want.append(tid)
                        break
                else:
                    want.append(row_ids[-1])
            assert batchgen._emissions(P, ids, np.full(2, u)).tolist() == want

    def test_running_sums_fold_left_to_right(self):
        # Wide rows whose pairwise sum (np.sum) differs from the
        # sequential one; a uniform between the two tells them apart.
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(200):
            P = rng.random((1, 12))
            P /= P.cumsum(axis=1)[:, -1:]
            ids = np.arange(12, dtype=np.uint64)[None, :]
            sequential = P.cumsum(axis=1)[0]
            for j in range(11):
                pairwise = P[0, : j + 1].sum()
                if pairwise == sequential[j]:
                    continue
                u = min(pairwise, sequential[j])
                want = next((t for t, acc in enumerate(sequential) if u < acc), 11)
                assert batchgen._emissions(P, ids, np.array([u])).tolist() == [want]
                checked += 1
        assert checked > 20
