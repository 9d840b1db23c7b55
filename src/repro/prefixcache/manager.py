"""Prefix-sharing KV-cache manager (vLLM automatic-prefix-caching style).

Extends the block-granular :class:`~repro.serving.kv_cache.KVCacheManager`
with a table of **shared blocks** addressed by prefix identity.  Physical
capacity is one pool: every resident block is either *private* to a
request (partial tail block, in-flight generation) or *shared* (a full
block whose key identifies its entire token prefix — see
:func:`~repro.prefixcache.tokens.request_block_keys`).  Shared blocks are
refcounted by the live requests matching them and stay resident after
their last reference drops, forming a reuse cache evicted LRU,
leaf-first, only under allocation pressure — so enabling prefix caching
never makes an allocation fail that would have succeeded without it.

Lifecycle (driven by the engine/scheduler hooks, all over block keys):

- :meth:`lock_keys` at prefill-batch entry — match the prompt's keys
  against the shared table and take references; the hit length counts as
  already prefilled.  :meth:`release_prefix` rolls an unused hit back.
- :meth:`commit_keys` when prefill completes (prompt blocks) and again
  when the request finishes (prompt + generated tokens) — full private
  blocks are reclassified as shared, deduplicating against any identical
  chain already resident.
- :meth:`free` — private blocks return to the pool; shared references
  drop, leaving reusable blocks behind.

:meth:`prefix_stats` reports hit/evict counters.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.serving.kv_cache import (
    DEFAULT_BLOCK_SIZE,
    KVCacheManager,
    KVStats,
    OutOfKVCache,
)


@dataclass
class _Block:
    """One shared (prefix-addressed) KV block."""

    parent: int | None  # key of the previous block in the chain
    refcount: int = 0  # live requests referencing this block
    children: int = 0  # resident blocks chained after this one
    touch: int = 0  # LRU stamp (monotonic tick at last use)


@dataclass(frozen=True)
class PrefixStats:
    """Hit/evict counters for one manager instance."""

    lookups: int = 0
    hits: int = 0  # lookups that matched at least one block
    hit_tokens: int = 0  # prefill tokens served from cache
    committed_blocks: int = 0  # private blocks reclassified as shared
    evicted_blocks: int = 0  # shared blocks dropped under pressure
    cached_blocks: int = 0  # shared blocks currently resident
    unreferenced_blocks: int = 0  # resident shared blocks with refcount 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched a cached prefix."""
        return self.hits / self.lookups if self.lookups else 0.0


class PrefixCacheManager(KVCacheManager):
    """Block-level prefix sharing over the base capacity accounting.

    The base-class interface (``ensure``/``free``/``covered``) keeps its
    meaning — ``ensure(rid, tokens)`` guarantees ``tokens`` resident for
    the request — but a request's shared references satisfy part of the
    need (and count toward ``covered``), and unreferenced shared blocks
    are evicted on demand before an allocation is refused.  Locking and
    committing keys only ever add coverage, so they leave ``covered``
    alone; :meth:`release_prefix` drops it.
    """

    prefix_caching = True

    def __init__(self, capacity_tokens: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(capacity_tokens, block_size)
        self._shared: dict[int, _Block] = {}
        self._refs: dict[int, list[int]] = {}  # rid -> chain of shared keys
        self._unreferenced = 0
        self._tick = 0
        self._evictable: list[tuple[int, int]] = []  # (touch, key) lazy heap
        #: Requests whose miss has been counted this prefill pass, so the
        #: per-iteration lock retries of a queued request do not inflate
        #: the lookup counter (cleared by :meth:`free`).
        self._miss_counted: set[int] = set()
        self._lookups = 0
        self._hits = 0
        self._hit_tokens = 0
        self._committed = 0
        self._evicted = 0

    # ------------------------------------------------------------------
    # Occupancy (shared blocks occupy the same physical pool)
    # ------------------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        """Physical blocks in use: private allocations + shared blocks."""
        return self._used + len(self._shared)

    @property
    def free_blocks(self) -> int:
        """Blocks immediately available (excludes evictable shared blocks)."""
        return self.total_blocks - self._used - len(self._shared)

    def holds(self, rid: int) -> bool:
        """Whether the request has any allocation or shared reference."""
        return rid in self._allocated or rid in self._refs

    def stats(self) -> KVStats:
        """Occupancy snapshot (shared blocks count as used)."""
        return KVStats(
            total_blocks=self.total_blocks,
            used_blocks=self.used_blocks,
            num_requests=len(self._allocated.keys() | self._refs.keys()),
        )

    def prefix_stats(self) -> PrefixStats:
        """Hit/evict counter snapshot."""
        return PrefixStats(
            lookups=self._lookups,
            hits=self._hits,
            hit_tokens=self._hit_tokens,
            committed_blocks=self._committed,
            evicted_blocks=self._evicted,
            cached_blocks=len(self._shared),
            unreferenced_blocks=self._unreferenced,
        )

    # ------------------------------------------------------------------
    # Matching and reference lifecycle
    # ------------------------------------------------------------------
    def lock_keys(self, rid: int, keys: Sequence[int]) -> int:
        """Match block ``keys`` and reference the hit chain for ``rid``.

        Returns the cached length in tokens.  References pin blocks
        against eviction until :meth:`free`.  A request that already
        holds references keeps them (a retry returns the locked length);
        a request whose earlier attempts matched nothing retries the
        match, so a prefix committed after its arrival is still found.
        Stats are per (request, prefill pass): a queued request retrying
        its match every iteration counts one lookup, not one per retry;
        a hit is counted on the attempt that matches.
        """
        held = self._refs.get(rid)
        if held:
            return len(held) * self.block_size
        chain: list[int] = []
        for key in keys:
            block = self._shared.get(key)
            if block is None:
                break
            self._ref(key, block)
            chain.append(key)
        if chain:
            self._refs[rid] = chain
            if rid not in self._miss_counted:
                self._lookups += 1
            self._miss_counted.discard(rid)
            self._hits += 1
            self._hit_tokens += len(chain) * self.block_size
        elif rid not in self._miss_counted:
            self._miss_counted.add(rid)
            self._lookups += 1
        return len(chain) * self.block_size

    def release_prefix(self, rid: int) -> int:
        """Drop ``rid``'s shared references (private blocks untouched).

        The rollback half of :meth:`lock_keys`, used when a freshly
        locked request fails to enter its prefill batch: the hit's stats
        are reverted and the blocks become evictable again (unless other
        requests still reference them).  Returns the references dropped.
        """
        chain = self._refs.pop(rid, [])
        self.covered.pop(rid, None)
        for key in reversed(chain):
            self._unref(key)
        if chain:
            self._hits -= 1
            self._hit_tokens -= len(chain) * self.block_size
            self._lookups -= 1
        return len(chain)

    def commit_keys(self, rid: int, keys: Sequence[int]) -> int:
        """Publish the blocks keyed by ``keys`` as shared, owned by ``rid``.

        Blocks the request already references are skipped; the rest are
        reclassified from its private allocation (or deduplicated against
        an identical resident chain).  Returns the number of blocks newly
        attributed to the shared table for this request.
        """
        keys = list(keys)
        chain = self._refs.setdefault(rid, [])
        if keys[: len(chain)] != chain:
            raise ValueError(f"request {rid}: commit diverges from its locked prefix")
        added = 0
        for key in keys[len(chain) :]:
            block = self._shared.get(key)
            if block is None:
                parent = chain[-1] if chain else None
                block = _Block(parent=parent, refcount=0, children=0, touch=self._tick)
                if parent is not None:
                    self._shared[parent].children += 1
                self._shared[key] = block
                self._unreferenced += 1  # transient; _ref below claims it
            self._ref(key, block)
            chain.append(key)
            # The physical block was covered by the request's private
            # allocation; hand it to the shared table (net occupancy 0
            # for a new block, -1 for a deduplicated one).
            if self._allocated.get(rid, 0) > 0:
                self._allocated[rid] -= 1
                self._used -= 1
            self._committed += 1
            added += 1
        return added

    def _ref(self, key: int, block: _Block) -> None:
        if block.refcount == 0:
            self._unreferenced -= 1
        block.refcount += 1
        self._tick += 1
        block.touch = self._tick

    def _unref(self, key: int) -> None:
        block = self._shared[key]
        block.refcount -= 1
        if block.refcount == 0:
            self._unreferenced += 1
            self._tick += 1
            block.touch = self._tick
            heapq.heappush(self._evictable, (block.touch, key))

    # ------------------------------------------------------------------
    # Allocation (base interface, prefix-aware)
    # ------------------------------------------------------------------
    def ensure(self, rid: int, tokens: int) -> None:
        """Grow ``rid``'s allocation to cover ``tokens`` resident tokens.

        Shared references satisfy their part of the need; unreferenced
        shared blocks are evicted (LRU, leaf-first) to make room before
        :class:`OutOfKVCache` is raised.
        """
        refs = len(self._refs.get(rid, ()))
        target = self.blocks_for(tokens) - refs
        have = self._allocated.get(rid, 0)
        if target > have:
            need = target - have
            self._reclaim(need)
            if need > self.free_blocks:
                raise OutOfKVCache(
                    f"request {rid} needs {need} blocks, only {self.free_blocks} free"
                )
            self._allocated[rid] = have = target
            self._used += need
        if have or refs:
            self.covered[rid] = (have + refs) * self.block_size

    def free(self, rid: int) -> int:
        """Release the request's blocks; returns how many it gave up.

        Private blocks return to the free pool immediately; shared
        references drop, leaving the blocks cached (evictable once no
        other request references them).  Idempotent.
        """
        released = super().free(rid)
        chain = self._refs.pop(rid, [])
        for key in reversed(chain):
            self._unref(key)
        self._miss_counted.discard(rid)  # a re-admission is a fresh pass
        return released + len(chain)

    def invalidate_all(self) -> None:
        """Drop every allocation, reference, and shared block at once.

        Models a replica crash (see :mod:`repro.chaos`): the device
        memory backing both private allocations *and* the shared prefix
        table is gone, so sessions homed here re-prefill from scratch.
        Cumulative hit/evict counters are deliberately kept — they count
        work that genuinely happened before the crash.
        """
        super().invalidate_all()
        self._shared.clear()
        self._refs.clear()
        self._unreferenced = 0
        self._evictable = []
        self._miss_counted.clear()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _reclaim(self, need: int) -> None:
        """Evict unreferenced leaf blocks (LRU) until ``need`` fit or none left."""
        while self.free_blocks < need and self._evictable:
            touch, key = heapq.heappop(self._evictable)
            block = self._shared.get(key)
            if (
                block is None
                or block.touch != touch
                or block.refcount != 0
                or block.children != 0
            ):
                continue  # stale heap entry
            del self._shared[key]
            self._unreferenced -= 1
            self._evicted += 1
            if block.parent is not None:
                parent = self._shared[block.parent]
                parent.children -= 1
                if parent.refcount == 0 and parent.children == 0:
                    heapq.heappush(self._evictable, (parent.touch, block.parent))
