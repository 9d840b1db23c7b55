"""Tests for the prefix-cache subsystem (repro.prefixcache).

Covers the structural block chains (including the equivalence of their
(stream, depth) identities with per-token content hashing, and their
cost), the run table's shape, the refcounted shared-block manager
(including the KV edge cases: block rounding at boundaries, an
exactly-full pool, double-``free`` idempotence, and the refcounted
eviction paths), and the engine/scheduler integration hooks.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.invariants import InvariantChecker
from repro.prefixcache import tokens
from repro.prefixcache.manager import PrefixCacheManager
from repro.prefixcache.tokens import request_block_keys
from repro.serving.kv_cache import DEFAULT_BLOCK_SIZE, KVCacheManager, OutOfKVCache
from repro.serving.request import Request
from tests.conftest import block_identities, content_block_keys, reference_block_keys


def session_request(rid, prompt_len, session=0, out=16, sys_ns=901):
    """A request riding shareable streams: 48 system-prompt tokens, then
    the session stream for the rest of the prompt."""
    sess_ns = 7000 + session
    segments = ((sys_ns, 48), (sess_ns, prompt_len - 48))
    return Request(
        rid=rid, category="chatbot", arrival_time=0.0, prompt_len=prompt_len,
        max_new_tokens=out, tpot_slo=0.05, session_id=session,
        prompt_segments=segments,
    )


def cold_request(rid, prompt_len=64, out=8, private_stream=True):
    """A one-shot request over its own private namespace (or, without
    ``private_stream``, with no segments at all)."""
    segments = ((0xC01D0000 + rid, prompt_len),) if private_stream else None
    return Request(
        rid=rid, category="chatbot", arrival_time=0.0, prompt_len=prompt_len,
        max_new_tokens=out, tpot_slo=0.05, prompt_segments=segments,
    )


def segment_request(segments, rid=0):
    prompt_len = sum(length for _, length in segments)
    return Request(
        rid=rid, category="c", arrival_time=0.0, prompt_len=prompt_len,
        max_new_tokens=1, tpot_slo=0.05, prompt_segments=tuple(segments),
    )


def keys(req, n_tokens, block_size=16):
    return request_block_keys(req, n_tokens, block_size)


def lock(kv, req, n_tokens):
    return kv.lock_keys(req.rid, keys(req, n_tokens, kv.block_size))


def commit(kv, req, n_tokens):
    return kv.commit_keys(req.rid, keys(req, n_tokens, kv.block_size))


def cached_len(kv, req, n_tokens, probe_rid=-1):
    """Cached length of the request's first ``n_tokens`` (a throwaway
    request locks the chain, then frees it)."""
    cached = kv.lock_keys(probe_rid, keys(req, n_tokens, kv.block_size))
    kv.free(probe_rid)
    return cached


def ids(req, n_tokens, block_size=16):
    """(stream, depth) identity of each full block of the first ``n_tokens``."""
    return block_identities(keys(req, n_tokens, block_size))


class TestTokenStreams:
    """Block chains derived from ``(namespace, length)`` segments."""

    def test_cold_requests_have_disjoint_streams(self):
        a, b = cold_request(1), cold_request(2)
        assert len(ids(a, 32)) == 2
        assert set(ids(a, 32)).isdisjoint(ids(b, 32))

    def test_chain_is_streams_and_their_block_ends(self):
        req = segment_request(((11, 40), (22, 20)))
        (first, two), (second, three) = keys(req, 60)
        assert (two, three) == (2, 3)  # blocks 0-1 end in segment 0, block 2 in 1
        assert first != second
        assert keys(req, 60, block_size=64) == []  # no full block, no stream
        # A segment that holds no block end gets no pair.
        assert [end for _, end in keys(segment_request(((11, 4), (22, 60))), 64)] == [4]

    def test_segments_compose_and_extend(self):
        req = segment_request(((11, 40), (22, 20)), rid=5)
        full = ids(req, 70, block_size=1)  # prompt + 10 generated
        assert len(full) == 70
        assert full[:40] == ids(req, 40, block_size=1)
        # Generated tokens continue the *final* segment's stream.
        longer = segment_request(((11, 40), (22, 30)), rid=6)
        assert ids(longer, 70, block_size=1) == full

    def test_block_keys_chain_full_blocks_only(self):
        req = segment_request(((11, 40), (22, 20)))
        base = ids(req, 60)
        assert len(base) == 3  # 60 tokens -> 3 full blocks, partial tail unkeyed
        assert ids(req, 48) == base
        assert ids(req, 47) == base[:2]
        # A changed namespace or length changes the identity of every
        # block covering the change, and of every later block (a stream
        # key commits to the whole prefix); earlier blocks keep theirs.
        for segments, first_changed in [
            (((12, 40), (22, 20)), 0),  # first namespace
            (((11, 39), (22, 21)), 2),  # boundary moves into block 2
            (((11, 40), (23, 20)), 2),  # final namespace
        ]:
            changed = ids(segment_request(segments), 60)
            assert changed[:first_changed] == base[:first_changed]
            assert all(
                x != y for x, y in zip(changed[first_changed:], base[first_changed:])
            )


#: Few namespaces and short segments, so random layouts often share
#: content (same namespace in several segments or requests) as well as
#: diverge; zero lengths exercise the skipped empty segments.
_segments = st.lists(
    st.tuples(st.sampled_from([11, 12, 13]), st.integers(0, 20)),
    min_size=1, max_size=4,
).filter(lambda segments: sum(length for _, length in segments) > 0)


class TestKeyEquivalence:
    """Two requests share a block's (stream, depth) identity exactly when
    per-token content hashing says they share the block, and the oracle
    manager's per-block keys are one-to-one with those identities."""

    @settings(max_examples=150, deadline=None)
    @given(
        layouts=st.lists(_segments, min_size=2, max_size=4),
        block_size=st.sampled_from([1, 7, 16]),
        extra=st.integers(0, 20),
    )
    @example(  # same namespace twice, empty middle segment, block-edge boundary
        layouts=[[(11, 7), (12, 0), (11, 7)], [(11, 7), (11, 7)], [(11, 14)]],
        block_size=7, extra=9,
    )
    @example(  # shared system prompt, then distinct namespaces off a block edge
        layouts=[[(11, 16), (12, 5)], [(11, 16), (13, 5)], [(11, 16)]],
        block_size=16, extra=20,
    )
    @example(  # later turns of one session: the history grows by a turn
        layouts=[[(11, 16), (12, 9)], [(11, 16), (12, 30)], [(11, 16), (12, 47)]],
        block_size=7, extra=12,
    )
    @example(  # zero-length last segment: the unbounded stream starts empty
        layouts=[[(11, 14), (12, 0)], [(11, 14), (12, 9)], [(11, 14)]],
        block_size=7, extra=14,
    )
    def test_identities_match_content_oracle(self, layouts, block_size, extra):
        requests = [segment_request(layout) for layout in layouts]
        n_tokens = max(req.prompt_len for req in requests) + extra
        structural: dict[int, tuple[int, int]] = {}  # oracle key -> identity
        reference: dict[tuple[int, int], int] = {}  # identity -> oracle manager key
        for req in requests:
            ours = ids(req, n_tokens, block_size)
            oracle = content_block_keys(req.prompt_segments, n_tokens, block_size)
            assert len(ours) == len(oracle) == n_tokens // block_size
            assert [depth for _, depth in ours] == list(range(len(ours)))
            for mine, ref in zip(ours, oracle):
                assert structural.setdefault(ref, mine) == mine
            for mine, key in zip(ours, reference_block_keys(req, n_tokens, block_size)):
                assert reference.setdefault(mine, key) == key
            # The chain at n is a prefix of the chain at any m > n.
            for n in range(0, n_tokens, max(1, n_tokens // 5)):
                assert ids(req, n, block_size) == ours[: n // block_size]
        # Equal oracle keys map to one identity (checked above); distinct
        # oracle keys map to distinct identities.  Together: for every
        # pair of requests and every block, identities are equal exactly
        # when the content-hash keys are.  The same holds for the oracle
        # manager's keys.
        assert len(set(structural.values())) == len(structural)
        assert len(set(reference.values())) == len(reference) == len(structural)


def _sessions_spec():
    """A short multi-turn sessions run under prefix caching (vllm, one replica)."""
    from repro.analysis.spec import ExperimentSpec

    return ExperimentSpec.create(
        model="llama70b", system="vllm", rps=6.0, duration_s=4.0, seed=3,
        trace="sessions:turns=3,think_time=1.0", prefix_cache=True,
    )


class TestChainShape:
    """A chain lists each stream once, with strictly growing block ends
    that stop at the last full block, and the oracle manager keys exactly
    its blocks."""

    @settings(max_examples=200, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.just(0) | st.integers(1, 120)),
            min_size=1,
            max_size=5,
        ).filter(lambda segments: sum(length for _, length in segments) > 0),
        block_size=st.sampled_from([1, 3, 7, 16, 32]),
        data=st.data(),
    )
    @example(  # zero-length middle segment; prefix ends on a segment boundary
        segments=[(5, 32), (6, 0), (7, 16)], block_size=16, data=None
    )
    def test_streams_and_ends(self, segments, block_size, data):
        req = segment_request(segments)
        boundaries = list(itertools.accumulate(length for _, length in segments))
        if data is None:
            candidates = [0, block_size - 1, *boundaries, boundaries[-1] + 40]
        else:
            candidates = [
                data.draw(st.integers(0, block_size - 1)),  # below one block
                data.draw(st.sampled_from(boundaries)),  # ends on a boundary
                data.draw(st.integers(0, boundaries[-1] + 3 * block_size)),
            ]
        for n_tokens in candidates:
            chain = request_block_keys(req, n_tokens, block_size)
            streams = [stream for stream, _ in chain]
            ends = [end for _, end in chain]
            assert len(set(streams)) == len(streams)
            assert all(type(stream) is int for stream in streams)
            assert ends == sorted(set(ends)) and 0 not in ends
            assert (ends[-1] if ends else 0) == n_tokens // block_size
            assert len(reference_block_keys(req, n_tokens, block_size)) == n_tokens // block_size


class TestKeyCost:
    """A chain costs two scalar hashes per segment whatever its length,
    is derived once per lock or commit, and no memo grows between calls;
    decode grows KV once per block."""

    def test_mix_calls_bounded_by_segments(self, monkeypatch):
        calls = 0
        real_mix = tokens.mix

        def counting_mix(h, v):
            nonlocal calls
            calls += 1
            return real_mix(h, v)

        monkeypatch.setattr(tokens, "mix", counting_mix)
        req = segment_request(((0x5E55_0001, 50_000), (0x5E55_0002, 50_000)))
        out = keys(req, 100_000, block_size=16)
        assert [end for _, end in out] == [3_125, 6_250]
        assert calls <= 2 * len(req.prompt_segments)

    def test_sessions_run_grows_no_module_state(self):
        from repro.analysis.runner import run_spec

        def container_sizes():
            return {
                name: len(value)
                for name, value in vars(tokens).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")
            }

        before = container_sizes()
        report = run_spec(_sessions_spec())
        assert report.metrics.prefix_hit_requests > 0
        assert container_sizes() == before

    def test_sessions_run_derives_one_chain_per_hook_and_grows_kv_per_block(
        self, monkeypatch
    ):
        """Each lock or commit derives its request's chain once, and
        decode reaches ``ensure`` about once per block, not per step."""
        from repro.analysis.runner import run_spec
        from repro.serving import engine, scheduler_base

        calls = {"keys": 0, "hooks": 0, "ensure": 0}

        def counting_keys(*args):
            calls["keys"] += 1
            return request_block_keys(*args)

        def counting(method, name):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        for module in (engine, scheduler_base):
            monkeypatch.setattr(module, "request_block_keys", counting_keys)
        for name in ("lock_keys", "commit_keys"):
            method = getattr(PrefixCacheManager, name)
            monkeypatch.setattr(PrefixCacheManager, name, counting(method, "hooks"))
        monkeypatch.setattr(
            PrefixCacheManager, "ensure", counting(PrefixCacheManager.ensure, "ensure")
        )
        report = run_spec(_sessions_spec())
        requests = len(report.requests)
        decoded = report.metrics.total_tokens
        assert report.metrics.prefix_hit_requests > 0
        assert 0 < calls["keys"] == calls["hooks"]
        assert calls["ensure"] <= 2 * requests + decoded / DEFAULT_BLOCK_SIZE


class TestTableShape:
    """The table holds runs, not blocks, and requests cache no keys."""

    def test_request_has_no_prefix_keys_slot(self):
        assert "prefix_keys" not in Request.__slots__
        assert not hasattr(Request, "block_keys")

    def test_evicting_sessions_run_holds_runs_not_blocks(
        self, pair, target_roofline, draft_roofline
    ):
        from repro.analysis.harness import make_scheduler
        from repro.serving.engine import SimulatedEngine
        from repro.serving.server import ServingSimulator
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.sessions import SessionGenerator

        gen = WorkloadGenerator(target_roofline, seed=3)
        requests = SessionGenerator(gen, turns=4, think_time_s=1.0).generate(
            duration_s=30.0, rps=4.0
        )
        kv = PrefixCacheManager(16_000)  # 1,000 blocks: the table fills and evicts
        engine = SimulatedEngine(pair, target_roofline, draft_roofline, kv, seed=42)
        ServingSimulator(engine, make_scheduler("vllm", engine), requests).run()
        stats = kv.prefix_stats()
        runs = [run for stream_runs in kv._streams.values() for run in stream_runs]
        assert stats.evicted_blocks > 0 and stats.hits > 0
        assert stats.cached_blocks == sum(run.end - run.start for run in runs)
        assert stats.cached_blocks >= 10 * len(runs)
        InvariantChecker().check_kv(kv, "end")
        # No per-block Python object: the table is one list per stream.
        assert len(kv._streams) <= len(runs)
        assert all(type(runs) is list for runs in kv._streams.values())


class TestBlockRounding:
    """Block-boundary edge cases on both manager variants."""

    @pytest.mark.parametrize("manager", [KVCacheManager, PrefixCacheManager])
    def test_blocks_for_boundaries(self, manager):
        kv = manager(1600, block_size=16)
        assert kv.blocks_for(0) == 0
        assert kv.blocks_for(15) == 1
        assert kv.blocks_for(16) == 1
        assert kv.blocks_for(17) == 2
        assert kv.blocks_for(160) == 10
        with pytest.raises(ValueError):
            kv.blocks_for(-1)

    @pytest.mark.parametrize("manager", [KVCacheManager, PrefixCacheManager])
    def test_can_fit_exactly_full(self, manager):
        kv = manager(160, block_size=16)
        kv.ensure(1, 160)
        assert kv.free_blocks == 0
        # Growing the same request to its own footprint still fits; any
        # fresh allocation (even one token) does not.
        kv.ensure(1, 160)
        assert kv.covered[1] == 160
        with pytest.raises(OutOfKVCache):
            kv.ensure(2, 1)
        assert not kv.holds(2) and 2 not in kv.covered

    @pytest.mark.parametrize("manager", [KVCacheManager, PrefixCacheManager])
    def test_double_free_is_idempotent(self, manager):
        kv = manager(160, block_size=16)
        kv.ensure(1, 100)
        first = kv.free(1)
        assert first == kv.blocks_for(100)
        assert kv.free(1) == 0
        assert kv.used_blocks == 0
        assert not kv.holds(1)

    def test_match_rounds_down_to_full_blocks(self):
        kv = PrefixCacheManager(1600, block_size=16)
        req = cold_request(1, prompt_len=70)
        lock(kv, req, 70)
        kv.ensure(1, 70)
        commit(kv, req, 70)
        kv.free(1)
        # 70 tokens -> 4 full blocks cached; matching yields 64, never 70.
        assert cached_len(kv, req, 70) == 64
        assert cached_len(kv, req, 63) == 48


class TestPrefixSharing:
    def test_second_turn_matches_previous_context(self):
        kv = PrefixCacheManager(1600, block_size=16)
        t1 = session_request(1, prompt_len=80, out=20)
        assert lock(kv, t1, 80) == 0
        kv.ensure(1, 100)
        commit(kv, t1, 100)  # prompt + generated
        kv.free(1)
        t2 = session_request(2, prompt_len=120)
        cached = lock(kv, t2, 120)
        assert cached == 96  # floor(100 / 16) blocks
        stats = kv.prefix_stats()
        assert stats.hits == 1 and stats.hit_tokens == 96

    def test_shared_blocks_counted_once(self):
        kv = PrefixCacheManager(1600, block_size=16)
        t1 = session_request(1, prompt_len=80)
        lock(kv, t1, 80)
        kv.ensure(1, 80)
        commit(kv, t1, 80)
        used_before = kv.used_blocks
        # A second request over the identical prompt adds only its
        # private tail, not another copy of the shared blocks.
        t2 = session_request(2, prompt_len=80)
        assert lock(kv, t2, 80) == 80
        kv.ensure(2, 80)
        assert kv.used_blocks == used_before
        kv.free(1)
        # Blocks referenced by request 2 survive request 1's free.
        assert cached_len(kv, t2, 80) == 80

    def test_commit_deduplicates_concurrent_identical_chains(self):
        kv = PrefixCacheManager(1600, block_size=16)
        a = session_request(1, prompt_len=64)
        b = session_request(2, prompt_len=64)
        for req in (a, b):  # both allocated before either commits
            lock(kv, req, 64)
            kv.ensure(req.rid, 64)
        assert kv.used_blocks == 8
        commit(kv, a, 64)
        assert kv.used_blocks == 8  # reclassified, not copied
        commit(kv, b, 64)
        assert kv.used_blocks == 4  # b's private copies deduplicated away
        kv.free(1)
        kv.free(2)
        assert kv.used_blocks == 4  # cached, unreferenced

    def test_lock_is_idempotent_per_request(self):
        kv = PrefixCacheManager(1600, block_size=16)
        seeded = cold_request(1, prompt_len=64)
        lock(kv, seeded, 64)
        kv.ensure(1, 64)
        commit(kv, seeded, 64)
        kv.free(1)
        again = cold_request(2, prompt_len=64)
        again.prompt_segments = seeded.prompt_segments  # force same stream
        first = lock(kv, again, 64)
        assert first == 64
        assert lock(kv, again, 64) == first
        assert kv.prefix_stats().lookups == 2  # retry not double-counted


class TestRefcountedEviction:
    def test_unreferenced_blocks_evicted_under_pressure(self):
        kv = PrefixCacheManager(320, block_size=16)  # 20 blocks
        for rid in range(3):
            req = cold_request(rid, prompt_len=64)
            lock(kv, req, 64)
            kv.ensure(rid, 64)
            commit(kv, req, 64)
            kv.free(rid)
        assert kv.prefix_stats().cached_blocks == 12
        # A fresh 16-block allocation forces LRU eviction of cached blocks.
        kv.ensure(99, 256)
        stats = kv.prefix_stats()
        assert stats.evicted_blocks >= 8
        assert kv.used_blocks <= kv.total_blocks
        InvariantChecker().check_kv(kv, "evict")  # emptied runs left the table

    def test_referenced_blocks_are_never_evicted(self):
        kv = PrefixCacheManager(320, block_size=16)
        pinned = cold_request(1, prompt_len=64)
        lock(kv, pinned, 64)
        kv.ensure(1, 64)
        commit(kv, pinned, 64)  # 4 shared blocks, still referenced by rid 1
        with pytest.raises(OutOfKVCache):
            kv.ensure(2, 320)  # would need the pinned blocks
        assert cached_len(kv, pinned, 64) == 64

    def test_eviction_is_lru(self):
        kv = PrefixCacheManager(320, block_size=16)
        old = cold_request(1, prompt_len=64)
        new = cold_request(2, prompt_len=64)
        for req in (old, new):
            lock(kv, req, 64)
            kv.ensure(req.rid, 64)
            commit(kv, req, 64)
            kv.free(req.rid)
        kv.ensure(99, 256)  # 16 blocks; 20 total, 8 cached -> evict 4
        assert cached_len(kv, old, 64) == 0  # oldest chain gone
        assert cached_len(kv, new, 64) == 64  # newest kept
        assert list(kv._streams) == [s for s, _ in keys(new, 64)]  # old's stream left

    def test_free_releases_references_not_cache(self):
        kv = PrefixCacheManager(320, block_size=16)
        req = cold_request(1, prompt_len=64)
        lock(kv, req, 64)
        kv.ensure(1, 64)
        commit(kv, req, 64)
        released = kv.free(1)
        assert released == 4  # all four blocks were shared by then
        assert kv.free(1) == 0  # idempotent with references too
        stats = kv.prefix_stats()
        assert stats.cached_blocks == 4
        assert stats.unreferenced_blocks == 4


class TestInertness:
    """On prefix-free workloads, enabling the cache cannot change results."""

    @pytest.mark.parametrize("system", ["vllm", "sarathi", "adaserve"])
    def test_cold_trace_results_identical(self, system, tiny_workload):
        from repro.analysis.harness import build_setup, run_once

        reports = []
        for prefix_cache in (False, True):
            setup = build_setup("llama70b", seed=5, prefix_cache=prefix_cache)
            reports.append(
                run_once(
                    setup,
                    system,
                    [r.fresh_copy() for r in tiny_workload],
                    max_sim_time_s=300.0,
                )
            )
        off, on = reports
        assert on.metrics == off.metrics
        assert on.sim_time_s == off.sim_time_s
        assert on.iterations == off.iterations
        assert on.metrics.prefix_hit_requests == 0


class TestEngineIntegration:
    def _engine(self, pair, target_roofline, draft_roofline, capacity=200_000):
        from repro.serving.engine import SimulatedEngine

        kv = PrefixCacheManager(capacity)
        return SimulatedEngine(pair, target_roofline, draft_roofline, kv, seed=42)

    def test_prefill_charges_only_uncached_suffix(
        self, pair, target_roofline, draft_roofline
    ):
        from repro.baselines.vllm import VLLMScheduler

        engine = self._engine(pair, target_roofline, draft_roofline)
        scheduler = VLLMScheduler(engine)
        first = session_request(0, prompt_len=512, out=4)
        scheduler.admit(first)
        assert first.cached_prompt_tokens == 0
        cold_latency = scheduler.step(0.0)
        while not first.is_finished:
            scheduler.step(1.0)
        scheduler.finalize()
        # Same stream, longer turn: the prompt prefix is now cached.
        second = session_request(1, prompt_len=560, out=4)
        second.prompt_segments = (
            (first.prompt_segments[0][0], 48),
            (first.prompt_segments[1][0], 512),
        )
        scheduler.admit(second)
        assert second.cached_prompt_tokens == 0  # matched at batch entry, not admission
        warm_latency = scheduler.step(10.0)
        assert second.cached_prompt_tokens > 0
        assert warm_latency < cold_latency

    def test_preempt_with_drop_rematches_its_own_blocks(
        self, pair, target_roofline, draft_roofline
    ):
        from repro.baselines.vllm import VLLMScheduler

        engine = self._engine(pair, target_roofline, draft_roofline)
        scheduler = VLLMScheduler(engine)
        req = session_request(0, prompt_len=512, out=8)
        scheduler.admit(req)
        scheduler.step(0.0)  # prefill completes -> prompt blocks committed
        assert req.prefilled == req.prompt_len
        engine.preempt(req, drop_kv=True)  # refs dropped, prefilled reset
        if req in scheduler.running:
            scheduler.running.remove(req)
        assert req.prefilled == 0
        scheduler.waiting.appendleft(req)
        before = req.cached_prompt_tokens
        scheduler.step(1.0)  # prefill batch re-locks against its own blocks
        assert req.cached_prompt_tokens > before
        assert req.prefilled == req.prompt_len  # only the suffix was recomputed

    def test_queued_requests_pin_nothing(
        self, pair, target_roofline, draft_roofline
    ):
        """A request that cannot enter its prefill batch rolls its lock back.

        This is the no-regression guarantee: enabling the prefix cache
        must never pin blocks for waiting requests, so no allocation
        fails that would have succeeded with the plain manager.
        """
        from repro.baselines.vllm import VLLMScheduler

        # Room for the cached chain, then a hog takes every free block.
        engine = self._engine(pair, target_roofline, draft_roofline, capacity=1024)
        scheduler = VLLMScheduler(engine)
        seeder = session_request(0, prompt_len=512, out=4)
        scheduler.admit(seeder)
        while scheduler.has_work():
            scheduler.step(0.0)
        scheduler.finalize()  # 512-token chain cached, unreferenced
        engine.kv.ensure(99, 512)  # hog: zero truly-free blocks remain
        blocked = session_request(1, prompt_len=512, out=4)
        blocked.prompt_segments = seeder.prompt_segments
        scheduler.admit(blocked)
        # Batch entry matches the prefix but the private tail cannot be
        # allocated -> the fresh lock is rolled back in full.
        assert scheduler._take_prefill_batch() == []
        assert blocked.prefilled == 0
        assert blocked.cached_prompt_tokens == 0
        assert not engine.kv.holds(blocked.rid)
        # Nothing stays pinned: the hog can still grow over the cached
        # chain, exactly as it could with the plain manager.
        engine.kv.ensure(99, 1024)
        assert engine.kv.used_blocks == engine.kv.total_blocks
        assert engine.kv.prefix_stats().cached_blocks == 0

    def test_segmentless_requests_bypass_the_cache(
        self, pair, target_roofline, draft_roofline
    ):
        from repro.baselines.vllm import VLLMScheduler

        engine = self._engine(pair, target_roofline, draft_roofline)
        scheduler = VLLMScheduler(engine)
        req = cold_request(0, prompt_len=128, out=4, private_stream=False)
        scheduler.admit(req)
        while scheduler.has_work():
            scheduler.step(0.0)
        scheduler.finalize()
        stats = engine.kv.prefix_stats()
        # Segmentless prompts are unmatchable: no lookups, nothing committed.
        assert stats.lookups == 0
        assert stats.cached_blocks == 0

    def test_whole_prompt_cached_still_prefills_one_token(
        self, pair, target_roofline, draft_roofline
    ):
        from repro.baselines.vllm import VLLMScheduler

        engine = self._engine(pair, target_roofline, draft_roofline)
        scheduler = VLLMScheduler(engine)
        first = session_request(0, prompt_len=128, out=4)
        scheduler.admit(first)
        while scheduler.has_work():
            scheduler.step(0.0)
        scheduler.finalize()
        clone = session_request(1, prompt_len=128, out=4)
        clone.prompt_segments = first.prompt_segments
        scheduler.admit(clone)
        scheduler.step(10.0)  # the batch-entry match runs here
        # Block-aligned full match is capped: at least one prompt token
        # remains for the context-installing prefill iteration (which
        # this step then executed, completing the prompt).
        assert clone.cached_prompt_tokens == 127
        assert clone.prefilled == clone.prompt_len

    @pytest.mark.parametrize("system", ["sarathi", "adaserve"])
    def test_co_batched_prompt_publishes_at_completion(
        self, system, pair, target_roofline, draft_roofline
    ):
        """A prompt chunked into a decode pass publishes its blocks when
        its prefill completes, not when the request finishes."""
        from repro.baselines.sarathi import SarathiScheduler
        from repro.core.scheduler import AdaServeScheduler

        engine = self._engine(pair, target_roofline, draft_roofline)
        scheduler = {"sarathi": SarathiScheduler, "adaserve": AdaServeScheduler}[system](engine)
        cold = cold_request(1, prompt_len=64, out=64)
        scheduler.admit(cold)
        scheduler.step(0.0)
        assert scheduler.running == [cold]
        before = engine.kv.prefix_stats().cached_blocks
        warm = session_request(2, prompt_len=96)
        scheduler.admit(warm)
        scheduler.step(1.0)  # one pass: cold decodes, warm's whole prompt rides along
        assert scheduler.running == [cold, warm]
        assert not cold.is_finished and not warm.is_finished
        assert engine.kv.prefix_stats().cached_blocks >= before + 96 // DEFAULT_BLOCK_SIZE


class _NeverCovered(dict):
    """A coverage record that never keeps an entry."""

    def __setitem__(self, rid, tokens):
        pass


class _EveryStepManager(PrefixCacheManager):
    """Oracle: its coverage bound never hits, so decode admission calls
    ``ensure`` for every request on every step, as it did before the
    bound existed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.covered = _NeverCovered()


class TestDecodeAdmissionDifferential:
    """Skipping covered ``ensure`` calls changes nothing under KV pressure.

    No golden or benchmark workload preempts, so this pits a small
    prefix cache against session-shaped traffic (a shared system prompt,
    growing per-session histories) until decode growth forces
    preemptions, then compares the run against the every-step oracle.
    """

    @staticmethod
    def _requests():
        out = []
        for turn in range(3):
            for session in range(4):
                prompt = 167 + 96 * turn + 16 * session
                out.append(Request(
                    rid=len(out), category="coding",
                    arrival_time=0.4 * turn + 0.05 * session, prompt_len=prompt,
                    max_new_tokens=96, tpot_slo=0.05, predictability=0.75,
                    session_id=session, turn_index=turn,
                    prompt_segments=((0x5157, 64), (0x5E55 + session, prompt - 64)),
                ))
        return out

    def _run(self, system, manager, pair, target_roofline, draft_roofline):
        import hashlib

        from repro.analysis.export import report_to_json
        from repro.analysis.harness import make_scheduler
        from repro.serving.engine import SimulatedEngine
        from repro.serving.server import ServingSimulator

        engine = SimulatedEngine(
            pair, target_roofline, draft_roofline, manager(2048), seed=42
        )
        ensure_calls = 0
        real_ensure = engine.kv.ensure

        def counting_ensure(rid, tokens):
            nonlocal ensure_calls
            ensure_calls += 1
            real_ensure(rid, tokens)

        engine.kv.ensure = counting_ensure
        requests = self._requests()
        report = ServingSimulator(engine, make_scheduler(system, engine), requests).run()
        digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
        return digest, [r.preempt_count for r in requests], ensure_calls, report

    @pytest.mark.parametrize("system", ["vllm", "sarathi", "vllm-spec:k=4"])
    def test_matches_every_step_oracle(self, system, pair, target_roofline, draft_roofline):
        args = (pair, target_roofline, draft_roofline)
        digest, preempts, calls, report = self._run(system, PrefixCacheManager, *args)
        want_digest, want_preempts, oracle_calls, _ = self._run(system, _EveryStepManager, *args)
        assert sum(preempts) >= 1
        assert report.metrics.prefix_hit_requests > 0
        assert preempts == want_preempts
        assert digest == want_digest
        assert calls < oracle_calls
