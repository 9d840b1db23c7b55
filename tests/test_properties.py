"""Property-based tests (hypothesis) on core invariants.

Covers: hashing/uniform ranges, token-tree construction, selection
(budget/connectivity/greedy dominance), Algorithm 1 consistency, the
roofline's monotonicity, and both KV managers (with the prefix
manager's chain lifecycle, replayed on the per-block oracle) via stateful
machines.
"""

from __future__ import annotations

from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro._rng import hash_seed, mix, uniform
from repro.check.invariants import InvariantChecker
from repro.core.selection import select_tokens
from repro.core.speculation import speculate_batch
from repro.core.tree import TokenTree
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model.pair import ModelPair
from repro.prefixcache.manager import PrefixCacheManager
from repro.prefixcache.tokens import request_block_keys
from repro.serving.kv_cache import KVCacheManager, OutOfKVCache
from tests.conftest import (
    ReferencePrefixCacheManager,
    block_identities,
    object_tree,
    reference_block_keys,
    uniforms,
)

_PAIR = ModelPair.build(vocab_size=1000, seed=99, alignment=0.85, predictability=0.7)
_ROOFLINE = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 2**32))
    def test_uniform_in_unit_interval(self, h, salt):
        assert 0.0 <= uniform(h, salt) < 1.0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(1, 64))
    def test_uniforms_count_and_range(self, h, salt, n):
        out = uniforms(h, salt, n)
        assert len(out) == n
        assert all(0.0 <= u < 1.0 for u in out)

    @given(st.lists(st.integers(0, 2**32), min_size=1, max_size=8))
    def test_hash_seed_deterministic(self, parts):
        assert hash_seed(*parts) == hash_seed(*parts)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_mix_distinguishes_tokens(self, h, a, b):
        if a != b:
            assert mix(h, a) != mix(h, b)


class TestTreeProperties:
    @given(
        st.integers(0, 50),  # context token
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_beam_tree_shape_invariants(self, tok, depth, width):
        ctx = _PAIR.context_of([tok, tok + 1])
        tree = speculate_batch(_PAIR, [(0, ctx)], depth, width).trees[0]
        assert tree.size <= 1 + depth * width
        assert tree.depth <= depth
        for node in range(1, tree.size):
            parent = tree.parent[node]
            assert 0.0 <= tree.path_prob[node] <= tree.path_prob[parent]
            assert tree.ctx[node] == _PAIR.extend(tree.ctx[parent], tree.token[node])

    @given(st.lists(st.floats(0.01, 0.98), min_size=1, max_size=12))
    def test_chain_path_prob_is_product(self, probs):
        tree = TokenTree(0, 1)
        node = 0
        expected = 1.0
        for i, p in enumerate(probs):
            node = tree.add_child(node, i, i + 2, p)
            expected *= p
        assert abs(tree.path_prob[node] - expected) < 1e-9


class TestSelectionProperties:
    @given(
        st.integers(1, 5),  # number of requests
        st.integers(0, 4),  # depth
        st.integers(1, 3),  # width
        st.integers(0, 30),  # extra budget beyond roots
        st.lists(st.floats(-2.0, 8.0), min_size=5, max_size=5),
        st.integers(0, 6),  # n_max
    )
    @settings(max_examples=60, deadline=None)
    def test_selection_invariants(self, n, depth, width, extra, reqs, n_max):
        roots = [(0, _PAIR.context_of([i, 7])) for i in range(n)]
        trees = speculate_batch(_PAIR, roots, depth, width).trees
        budget = n + extra
        res = select_tokens(trees, reqs[:n], budget=budget, n_max=n_max, depth=depth)
        # Budget: roots + selected nodes never exceed B.
        total_selected = sum(sum(t.selected[1:]) for t in trees)
        assert res.budget_used == n + total_selected <= budget
        # Connectivity and extractability.
        for t in trees:
            object_tree(t).extract_selected()  # raises unless connected
        # n_max only bounds the SLO phase.
        for s in res.selections:
            assert s.slo_tokens <= n_max
        # Expected accepted consistent with marked trees.
        for s, t in zip(res.selections, trees):
            selected = sum(p for p, sel in zip(t.path_prob[1:], t.selected[1:]) if sel)
            assert abs(s.expected_accepted - 1.0 - selected) < 1e-9

    @given(st.integers(1, 4), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_greedy_dominance(self, n, extra):
        # Every selected node's path_prob >= any unselected frontier node's.
        roots = [(0, _PAIR.context_of([i, 3])) for i in range(n)]
        trees = speculate_batch(_PAIR, roots, 3, 2).trees
        select_tokens(trees, [0.0] * n, budget=n + extra)
        selected = [
            t.path_prob[x] for t in trees for x in range(1, t.size) if t.selected[x]
        ]
        frontier = [
            t.path_prob[x]
            for t in trees
            for x in range(1, t.size)
            if not t.selected[x] and (t.parent[x] == 0 or t.selected[t.parent[x]])
        ]
        if selected and frontier:
            assert min(selected) >= max(frontier) - 1e-12


class TestRooflineProperties:
    @given(st.integers(0, 4096), st.integers(0, 4096))
    @settings(max_examples=60, deadline=None)
    def test_latency_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert _ROOFLINE.forward_latency(lo) <= _ROOFLINE.forward_latency(hi) + 1e-15

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_context_only_adds(self, ctx):
        assert _ROOFLINE.forward_latency(8, ctx) >= _ROOFLINE.forward_latency(8, 0)


#: Segment layouts: a first segment of namespace 11 that every layout
#: shares for at least 24 tokens, then up to two segments over three
#: namespaces with lengths off and on the 16-token block edge.  So the
#: layouts drawn for different rids often share streams and often
#: diverge mid-block; zero lengths exercise skipped segments.
_LAYOUT = st.builds(
    lambda head, tail: (head, *tail),
    st.sampled_from([(11, 40), (11, 24)]),
    st.lists(
        st.tuples(st.sampled_from([11, 12, 13]), st.sampled_from([0, 8, 16, 40])),
        max_size=2,
    ),
)


def prefix_state(kv, key_of=None) -> tuple:
    """Per-key refcounts, held chains and the LRU order of unreferenced
    blocks, read alike from the run manager and the per-block oracle.

    ``key_of`` maps the run manager's (stream, depth) block identities to
    the oracle's keys.
    """
    if isinstance(kv, ReferencePrefixCacheManager):
        refcounts = {key: b.refcount for key, b in kv._shared.items()}
        stamps = {key: b.touch for key, b in kv._shared.items() if b.refcount == 0}
        refs = {rid: list(chain) for rid, chain in kv._refs.items()}
        return refcounts, refs, sorted(stamps, key=stamps.__getitem__)
    refcounts, stamps = {}, {}
    for stream, runs in kv._streams.items():
        for run in runs:
            for depth in range(run.start, run.end):
                key = key_of[stream, depth]
                refcounts[key] = run.refcount
                if run.refcount == 0:
                    stamps[key] = run.touch + run.end - 1 - depth
    refs = {}
    for rid, (run, depth) in kv._refs.items():
        chain = [None] * depth
        while run is not None:
            for d in range(run.start, run.end):
                chain[d] = key_of[run.stream, d]
            run = run.parent
        refs[rid] = chain
    return refcounts, refs, sorted(stamps, key=stamps.__getitem__)


class KVCacheMachine(RuleBasedStateMachine):
    """Stateful test: the KV manager never over-allocates or loses blocks,
    and ``covered`` stays a lower bound that makes ``ensure`` a no-op."""

    manager = KVCacheManager

    def __init__(self):
        super().__init__()
        self.kv = self.manager(capacity_tokens=64 * 16, block_size=16)
        #: rid -> most tokens ensured since the request's last release.
        self.tokens: dict[int, int] = {}

    def call(self, name: str, *args):
        """Apply one manager operation."""
        return getattr(self.kv, name)(*args)

    def held(self, rid: int) -> int:
        """Blocks covering ``rid``: private ones plus shared references."""
        refs = self.kv._refs.get(rid, (None, 0))[1] if self.kv.prefix_caching else 0
        return self.kv._allocated.get(rid, 0) + refs

    def snapshot(self):
        """Every counter, allocation and shared run (not ``covered``)."""
        kv = self.kv
        if not kv.prefix_caching:
            return dict(kv._allocated), kv._used
        runs = [
            (r.stream, r.start, r.end, r.refcount, r.children, r.touch)
            for runs in kv._streams.values()
            for r in runs
        ]
        return dict(kv._allocated), kv._used, runs, kv._refs.copy(), kv.prefix_stats()

    def grow(self, rid: int, tokens: int) -> None:
        try:
            self.call("ensure", rid, tokens)
            self.tokens[rid] = max(self.tokens.get(rid, 0), tokens)
        except OutOfKVCache:
            pass  # state must be unchanged; checked by invariants

    @rule(rid=st.integers(0, 9), tokens=st.integers(0, 400))
    def ensure(self, rid, tokens):
        self.grow(rid, tokens)

    @precondition(lambda self: bool(self.kv.covered))
    @rule(data=st.data())
    def ensure_within_bound(self, data):
        rid = data.draw(st.sampled_from(sorted(self.kv.covered)))
        bound = self.kv.covered[rid]
        tokens = data.draw(st.integers(0, bound))
        before = self.snapshot()
        self.call("ensure", rid, tokens)
        assert self.snapshot() == before
        assert self.kv.covered[rid] >= bound

    @precondition(lambda self: bool(self.tokens))
    @rule(data=st.data())
    def free(self, data):
        rid = data.draw(st.sampled_from(sorted(self.tokens)))
        held = self.held(rid)
        freed = self.call("free", rid)
        assert freed == held
        if not self.kv.prefix_caching:
            assert freed == self.kv.blocks_for(self.tokens[rid])
        del self.tokens[rid]
        assert rid not in self.kv.covered

    @rule()
    def invalidate_all(self):
        self.call("invalidate_all")
        self.tokens.clear()
        assert not self.kv.covered

    @invariant()
    def used_matches_model(self):
        if not self.kv.prefix_caching:
            expected = sum(self.kv.blocks_for(t) for t in self.tokens.values())
            assert self.kv.used_blocks == expected

    @invariant()
    def never_exceeds_capacity(self):
        assert 0 <= self.kv.used_blocks <= self.kv.total_blocks

    @invariant()
    def covered_is_a_lower_bound(self):
        kv = self.kv
        for rid, tokens in self.tokens.items():
            assert kv.covered.get(rid, 0) >= tokens
        for rid, tokens in kv.covered.items():
            assert kv.holds(rid)
            assert tokens <= self.held(rid) * kv.block_size
        InvariantChecker().check_kv(kv, "machine")


class PrefixCacheMachine(KVCacheMachine):
    """The same machine over the run-granular prefix manager, plus its
    chain lifecycle, with every operation replayed on the per-block
    oracle: the manager gets each request's ``request_block_keys`` chain
    and the oracle the ``reference_block_keys`` of the same segments."""

    manager = PrefixCacheManager

    def __init__(self):
        super().__init__()
        self.ref = ReferencePrefixCacheManager(capacity_tokens=64 * 16, block_size=16)
        #: Three prompt layouts (drawn once per machine); request ``rid``
        #: rides layout ``rid % 3``.
        self.layouts: tuple = ()
        #: (stream, depth) -> oracle key, for every block chained so far.
        self.key_of: dict[tuple[int, int], int] = {}

    @initialize(layouts=st.lists(_LAYOUT, min_size=3, max_size=3))
    def draw_layouts(self, layouts):
        self.layouts = tuple(SimpleNamespace(prompt_segments=layout) for layout in layouts)

    def call(self, name: str, *args, ref_args=None):
        """Apply one operation to both managers; outcomes must agree.

        ``ref_args`` replaces ``args`` for the oracle."""
        outcomes = []
        for kv, kv_args in ((self.ref, ref_args or args), (self.kv, args)):
            try:
                outcomes.append((getattr(kv, name)(*kv_args), None))
            except (OutOfKVCache, ValueError) as exc:
                outcomes.append((None, exc))
        (want, want_exc), (got, got_exc) = outcomes
        assert got == want
        assert repr(got_exc) == repr(want_exc)
        if got_exc is not None:
            raise got_exc
        return got

    def call_chain(self, name: str, rid: int, layout: int, n_blocks: int):
        """Apply ``name`` to layout ``layout``'s first ``n_blocks`` blocks
        as request ``rid``: a chain for the manager, keys for the oracle."""
        req, n_tokens = self.layouts[layout % 3], n_blocks * 16
        chain = request_block_keys(req, n_tokens, 16)
        keys = reference_block_keys(req, n_tokens, 16)
        identities = block_identities(chain)
        assert len(identities) == len(keys) == n_blocks
        for identity, key in zip(identities, keys):
            assert self.key_of.setdefault(identity, key) == key
        return self.call(name, rid, chain, ref_args=(rid, keys))

    @rule(rid=st.integers(0, 9), n_blocks=st.integers(0, 24))
    def lock_keys(self, rid, n_blocks):
        self.call_chain("lock_keys", rid, rid, n_blocks)
        if self.kv.holds(rid):
            self.tokens.setdefault(rid, 0)

    @precondition(lambda self: bool(self.tokens))
    @rule(data=st.data())
    def commit_keys(self, data):
        # Only blocks the request already covers: each new block then
        # reclassifies one of its private blocks, as in the engine.  A
        # neighbouring layout may diverge from the locked prefix.
        rid = data.draw(st.sampled_from(sorted(self.tokens)))
        layout = data.draw(st.sampled_from([rid, rid, rid + 1]))
        held = self.held(rid)
        n_blocks = data.draw(st.integers(self.kv._refs.get(rid, (None, 0))[1], held))
        try:
            self.call_chain("commit_keys", rid, layout, n_blocks)
        except ValueError:
            pass  # diverged from the held prefix; both managers refused
        assert self.held(rid) == held

    @precondition(lambda self: bool(self.tokens))
    @rule(data=st.data())
    def release_prefix(self, data):
        rid = data.draw(st.sampled_from(sorted(self.tokens)))
        self.call("release_prefix", rid)
        assert rid not in self.kv.covered
        if self.kv.holds(rid):
            self.tokens[rid] = 0
        else:
            del self.tokens[rid]

    @rule(rid=st.integers(0, 9), extra=st.integers(1, 8))
    def evict(self, rid, extra):
        """Grow ``rid`` past the free pool, so cached blocks must go."""
        need = self.held(rid) + self.kv.free_blocks + extra
        self.grow(rid, need * self.kv.block_size)

    @rule(rid=st.integers(0, 9), n_blocks=st.integers(1, 24), extra=st.integers(1, 8))
    def cache_then_evict(self, rid, n_blocks, extra):
        """Publish and release a chain as a fresh request, then grow the
        next rid past the free pool, so the chain competes for eviction
        with whatever else is cached."""
        if rid in self.tokens:
            return
        self.lock_keys(rid, n_blocks)
        self.grow(rid, n_blocks * self.kv.block_size)
        if rid in self.tokens and self.held(rid) >= n_blocks:
            self.call_chain("commit_keys", rid, rid, n_blocks)
        if rid in self.tokens:
            self.call("free", rid)
            del self.tokens[rid]
        self.evict((rid + 1) % 10, extra)

    @invariant()
    def matches_oracle(self):
        ref, kv = self.ref, self.kv
        assert kv.prefix_stats() == ref.prefix_stats()
        assert (kv.used_blocks, kv._allocated, kv.covered) == (
            ref.used_blocks,
            ref._allocated,
            ref.covered,
        )
        assert prefix_state(kv, self.key_of) == prefix_state(ref)


TestKVCacheStateful = KVCacheMachine.TestCase
TestPrefixCacheStateful = PrefixCacheMachine.TestCase
