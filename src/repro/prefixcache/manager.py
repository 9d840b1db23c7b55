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

Shared blocks form a tree of **runs**: a run is a stretch of chained
blocks that every holder holds as a whole, so it carries one refcount,
one child-run count and one LRU stamp.  A request's references are
always a root prefix of its keys ending on a run's tail, so locking,
committing and freeing visit the few runs on that path, not its blocks.
A resident key implies resident ancestors (eviction is leaf-first), so
the longest match is a binary search over the request's keys.

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
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.serving.kv_cache import (
    DEFAULT_BLOCK_SIZE,
    KVCacheManager,
    KVStats,
    OutOfKVCache,
)


@dataclass(eq=False, slots=True)
class _Run:
    """A stretch of chained shared blocks that every holder holds whole.

    Child runs hang from the tail block.  Once unreferenced, the blocks
    are stamped deepest first: block ``i`` has LRU stamp ``touch +
    len(keys) - 1 - i``, so ``touch`` is the tail's.
    """

    keys: list[int]  # block keys, root-most first
    start: int  # depth of keys[0] (its index in every holder's chain)
    parent: _Run | None  # run whose tail precedes keys[0]
    refcount: int = 0  # live requests holding the run
    children: int = 0  # resident runs hanging from the tail
    touch: int = 0  # LRU stamp of the tail block (meaningful at refcount 0)


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
        self._blocks: dict[int, _Run] = {}  # shared key -> run holding it
        self._refs: dict[int, list[int]] = {}  # rid -> chain of shared keys
        self._unreferenced = 0
        self._tick = 0
        #: Lazy heap of ``(touch, seq, run)`` over unreferenced leaf runs.
        self._evictable: list[tuple[int, int, _Run]] = []
        self._seq = itertools.count()
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
        return self._used + len(self._blocks)

    @property
    def free_blocks(self) -> int:
        """Blocks immediately available (excludes evictable shared blocks)."""
        return self.total_blocks - self._used - len(self._blocks)

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
            cached_blocks=len(self._blocks),
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
        hit = self._resident_prefix(keys, 0)
        if hit:
            self._refs[rid] = list(keys[:hit])
            self._ref_path(self._split(keys[hit - 1], hit), None)
            if rid not in self._miss_counted:
                self._lookups += 1
            self._miss_counted.discard(rid)
            self._hits += 1
            self._hit_tokens += hit * self.block_size
        elif rid not in self._miss_counted:
            self._miss_counted.add(rid)
            self._lookups += 1
        return hit * self.block_size

    def release_prefix(self, rid: int) -> int:
        """Drop ``rid``'s shared references (private blocks untouched).

        The rollback half of :meth:`lock_keys`, used when a freshly
        locked request fails to enter its prefill batch: the hit's stats
        are reverted and the blocks become evictable again (unless other
        requests still reference them).  Returns the references dropped.
        """
        chain = self._refs.pop(rid, None)
        self.covered.pop(rid, None)
        if not chain:
            return 0
        self._unref_path(self._blocks[chain[-1]])
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
        held = len(chain)
        if keys[:held] != chain:
            raise ValueError(f"request {rid}: commit diverges from its locked prefix")
        added = len(keys) - held
        if added <= 0:
            return 0
        blocks = self._blocks
        tip = blocks[chain[-1]] if held else None
        # Keys another request already published: reference their runs.
        resident = self._resident_prefix(keys, held)
        if resident > held:
            run = self._split(keys[resident - 1], resident)
            self._ref_path(run, tip)
            tip = run
        fresh = keys[resident:]
        if fresh:
            if tip is not None and tip.refcount == 1 and not tip.children:
                tip.keys += fresh  # sole holder of a leaf run: extend it
            else:
                run = _Run(fresh, resident, tip, refcount=1)
                if tip is not None:
                    tip.children += 1
                tip = run
            blocks.update(dict.fromkeys(fresh, tip))
        self._refs[rid] = keys
        # The physical blocks were covered by the request's private
        # allocation; hand them to the shared table (net occupancy 0 for
        # a new block, -1 for a deduplicated one).
        have = self._allocated.get(rid, 0)
        if have > 0:
            moved = min(have, added)
            self._allocated[rid] = have - moved
            self._used -= moved
        self._committed += added
        return added

    def _resident_prefix(self, keys: Sequence[int], lo: int) -> int:
        """Length of the longest resident prefix of ``keys``, at least ``lo``.

        Binary search: a resident key implies resident ancestors.
        """
        blocks = self._blocks
        hi = len(keys)
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if keys[mid - 1] in blocks:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _split(self, key: int, depth: int) -> _Run:
        """The run ending at ``key`` (at ``depth - 1``), split off if mid-run.

        The run keeps its tail part, so its heap entries stay valid; a
        new run takes the head and becomes the tail part's parent.
        """
        run = self._blocks[key]
        cut = depth - run.start
        if cut == len(run.keys):
            return run
        head = _Run(
            run.keys[:cut],
            run.start,
            run.parent,
            refcount=run.refcount,
            children=1,
            touch=run.touch + len(run.keys) - cut,
        )
        del run.keys[:cut]
        run.start = depth
        run.parent = head
        self._blocks.update(dict.fromkeys(head.keys, head))
        return head

    def _ref_path(self, run: _Run | None, stop: _Run | None) -> None:
        """Reference each run from ``run`` up to, not including, ``stop``."""
        while run is not stop:
            if run.refcount == 0:
                self._unreferenced -= len(run.keys)
            run.refcount += 1
            run = run.parent

    def _unref_path(self, run: _Run | None) -> None:
        """Drop one reference from ``run`` and each of its ancestors.

        A run reaching refcount 0 stamps its blocks deepest first, after
        any deeper run released by the same call — the order the blocks'
        last references drop in — and enters the heap if it is a leaf.
        """
        while run is not None:
            run.refcount -= 1
            if run.refcount == 0:
                n = len(run.keys)
                self._unreferenced += n
                run.touch = self._tick + 1
                self._tick += n
                if not run.children:
                    heapq.heappush(self._evictable, (run.touch, next(self._seq), run))
            run = run.parent

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
        chain = self._refs.pop(rid, None)
        self._miss_counted.discard(rid)  # a re-admission is a fresh pass
        if not chain:
            return released
        self._unref_path(self._blocks[chain[-1]])
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
        self._blocks.clear()
        self._refs.clear()
        self._unreferenced = 0
        self._evictable = []
        self._miss_counted.clear()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _reclaim(self, need: int) -> None:
        """Evict unreferenced leaf blocks (LRU) until ``need`` fit or none left.

        The LRU leaf block is the tail of the unreferenced leaf run with
        the smallest stamp; dropping it leaves the next block up as that
        run's tail, one stamp later.
        """
        heap = self._evictable
        while self.free_blocks < need and heap:
            touch, _, run = heapq.heappop(heap)
            if run.touch != touch or run.refcount or run.children or not run.keys:
                continue  # stale heap entry
            del self._blocks[run.keys.pop()]
            self._unreferenced -= 1
            self._evicted += 1
            if run.keys:
                run.touch += 1
                heapq.heappush(heap, (run.touch, next(self._seq), run))
            elif run.parent is not None:
                parent = run.parent
                parent.children -= 1
                if parent.refcount == 0 and parent.children == 0:
                    heapq.heappush(heap, (parent.touch, next(self._seq), parent))
