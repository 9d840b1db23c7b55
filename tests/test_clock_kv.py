"""Tests for the simulation clock, arrival stream and KV-cache manager."""

from __future__ import annotations

import pytest

from repro.serving.clock import ArrivalStream, SimClock
from repro.serving.kv_cache import KVCacheManager, OutOfKVCache
from tests.conftest import make_request


class TestClock:
    def test_advance_to(self):
        c = SimClock(10.0)
        c.advance_to(12.0)
        assert c.now == 12.0

    def test_advance_to_past_rejected(self):
        c = SimClock(10.0)
        with pytest.raises(ValueError):
            c.advance_to(9.0)


class TestArrivalStream:
    def test_sorted_release(self):
        reqs = [make_request(rid=i, arrival=t) for i, t in enumerate([3.0, 1.0, 2.0])]
        stream = ArrivalStream(reqs)
        assert [r.arrival_time for r in stream.release_until(2.5)] == [1.0, 2.0]
        assert stream.next_arrival == 3.0
        assert len(stream) == 1

    def test_exhaustion(self):
        stream = ArrivalStream([make_request(arrival=1.0)])
        stream.release_until(5.0)
        assert stream.exhausted
        assert stream.next_arrival is None

    def test_release_boundary_inclusive(self):
        stream = ArrivalStream([make_request(arrival=1.0)])
        assert len(stream.release_until(1.0)) == 1

    def test_empty(self):
        stream = ArrivalStream([])
        assert stream.exhausted
        assert stream.release_until(100.0) == []


class TestKVCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KVCacheManager(capacity_tokens=4, block_size=16)

    def test_blocks_for_ceil(self):
        kv = KVCacheManager(1600, block_size=16)
        assert kv.blocks_for(0) == 0
        assert kv.blocks_for(1) == 1
        assert kv.blocks_for(16) == 1
        assert kv.blocks_for(17) == 2

    def test_ensure_grows_monotonically(self):
        kv = KVCacheManager(1600, block_size=16)
        kv.ensure(1, 20)
        assert kv._allocated.get(1, 0) == 2
        kv.ensure(1, 10)  # shrink request: no-op
        assert kv._allocated.get(1, 0) == 2
        kv.ensure(1, 40)
        assert kv._allocated.get(1, 0) == 3

    def test_used_blocks_tracked(self):
        kv = KVCacheManager(1600, block_size=16)
        kv.ensure(1, 32)
        kv.ensure(2, 16)
        assert kv.used_blocks == 3
        assert kv.free_blocks == 100 - 3

    def test_out_of_capacity(self):
        kv = KVCacheManager(160, block_size=16)  # 10 blocks
        kv.ensure(1, 150)
        with pytest.raises(OutOfKVCache):
            kv.ensure(2, 32)
        # Failed allocation must not change state.
        assert kv._allocated.get(2, 0) == 0
        assert kv.used_blocks == 10

    def test_free_returns_blocks(self):
        kv = KVCacheManager(1600, block_size=16)
        kv.ensure(1, 64)
        assert kv.free(1) == 4
        assert kv.used_blocks == 0
        assert kv.free(1) == 0  # double free is harmless

    def test_can_fit(self):
        kv = KVCacheManager(160, block_size=16)
        kv.ensure(1, 80)
        with pytest.raises(OutOfKVCache):
            kv.ensure(2, 160)
        kv.ensure(2, 80)  # exactly the free remainder
        assert kv.free_blocks == 0
        kv.free(2)
        kv.ensure(1, 160)  # growing own allocation into the freed space
        assert kv._allocated.get(1, 0) == 10

    def test_invalidate_all(self):
        kv = KVCacheManager(1600, block_size=16)
        kv.ensure(1, 40)
        kv.ensure(2, 16)
        kv.invalidate_all()
        assert kv.used_blocks == 0 and kv.free_blocks == 100
        assert not kv.holds(1) and not kv.holds(2)
        assert kv.free(1) == 0  # nothing left to release
        kv.ensure(3, 1600)  # full capacity usable again
        assert kv.free_blocks == 0

    def test_holds(self):
        kv = KVCacheManager(1600)
        assert not kv.holds(5)
        kv.ensure(5, 1)
        assert kv.holds(5)
