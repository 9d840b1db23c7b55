"""Prefix-sharing KV-cache manager (vLLM automatic-prefix-caching style).

Extends the block-granular :class:`~repro.serving.kv_cache.KVCacheManager`
with a table of **shared blocks** addressed by prefix identity.  Physical
capacity is one pool: every resident block is either *private* to a
request (partial tail block, in-flight generation) or *shared* (a full
block whose (stream, depth) identity fixes its entire token prefix — see
:func:`~repro.prefixcache.tokens.request_block_keys`).  Shared blocks are
refcounted by the live requests matching them and stay resident after
their last reference drops, forming a reuse cache evicted LRU,
leaf-first, only under allocation pressure — so enabling prefix caching
never makes an allocation fail that would have succeeded without it.

The table stores **runs**, not blocks.  A run is a depth range of one
stream's blocks that every holder holds as a whole, so it carries one
refcount, one child-run count and one LRU stamp; the table maps each
stream key to its runs, and no block has an object of its own.  A
resident block implies resident ancestors (eviction is leaf-first), so a
stream's resident blocks are one depth range from its first block, and
the longest match costs one lookup per stream of the request's chain.  A
request's references are always a root prefix of its chain ending on a
run's tail, so locking, committing and freeing visit the few runs on
that path.

Lifecycle (driven by the engine/scheduler hooks, all over block chains):

- :meth:`lock_keys` at prefill-batch entry — match the prompt's chain
  against the shared table and take references; the hit length counts
  as already prefilled.  :meth:`release_prefix` rolls an unused hit back.
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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.serving.kv_cache import (
    DEFAULT_BLOCK_SIZE,
    KVCacheManager,
    OutOfKVCache,
)


@dataclass(eq=False, slots=True)
class _Run:
    """Blocks ``[start, end)`` of one stream that every holder holds whole.

    Child runs hang from the tail block: the stream's next run, or the
    first run of a later stream.  Once unreferenced, the blocks are
    stamped deepest first: depth ``d`` has LRU stamp ``touch + end - 1 -
    d``, so ``touch`` is the tail's.
    """

    stream: int  # stream key (see repro.prefixcache.tokens)
    start: int  # depth of the first block
    end: int  # depth after the tail block
    parent: _Run | None  # run whose tail precedes the first block
    refcount: int = 0  # live requests holding the run
    children: int = 0  # resident runs hanging from the tail
    touch: int = 0  # LRU stamp of the tail block (meaningful at refcount 0)


_END = attrgetter("end")

#: ``_refs`` entry of a request holding no shared block.
_EMPTY: tuple[_Run | None, int] = (None, 0)


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


def _stream_at(chain: Sequence[tuple[int, int]], depth: int) -> int | None:
    """Stream key of the chain's block at ``depth`` (None past its end)."""
    for stream, end in chain:
        if depth < end:
            return stream
    return None


class PrefixCacheManager(KVCacheManager):
    """Block-level prefix sharing over the base capacity accounting.

    The base-class interface (``ensure``/``free``/``covered``) keeps its
    meaning — ``ensure(rid, tokens)`` guarantees ``tokens`` resident for
    the request — but a request's shared references satisfy part of the
    need (and count toward ``covered``), and unreferenced shared blocks
    are evicted on demand before an allocation is refused.  Locking and
    committing chains only ever add coverage, so they leave ``covered``
    alone; :meth:`release_prefix` drops it.
    """

    prefix_caching = True

    def __init__(self, capacity_tokens: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(capacity_tokens, block_size)
        #: stream key -> its resident runs, by depth; each run after the
        #: first hangs from the one before it.
        self._streams: dict[int, list[_Run]] = {}
        #: rid -> (tail run, depth): the request holds the run path from
        #: its tail run up to the root, ``depth`` blocks in all.
        self._refs: dict[int, tuple[_Run | None, int]] = {}
        self._cached = 0
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
        return self._used + self._cached

    @property
    def free_blocks(self) -> int:
        """Blocks immediately available (excludes evictable shared blocks)."""
        return self.total_blocks - self._used - self._cached

    def holds(self, rid: int) -> bool:
        """Whether the request has any allocation or shared reference."""
        return rid in self._allocated or rid in self._refs

    def prefix_stats(self) -> PrefixStats:
        """Hit/evict counter snapshot."""
        return PrefixStats(
            lookups=self._lookups,
            hits=self._hits,
            hit_tokens=self._hit_tokens,
            committed_blocks=self._committed,
            evicted_blocks=self._evicted,
            cached_blocks=self._cached,
            unreferenced_blocks=self._unreferenced,
        )

    # ------------------------------------------------------------------
    # Matching and reference lifecycle
    # ------------------------------------------------------------------
    def lock_keys(self, rid: int, chain: Sequence[tuple[int, int]]) -> int:
        """Match the block ``chain`` and reference the hit for ``rid``.

        ``chain`` is :func:`~repro.prefixcache.tokens.request_block_keys`'
        ``(stream, end)`` pairs.  Returns the cached length in tokens.
        References pin blocks against eviction until :meth:`free`.  A
        request that already holds references keeps them (a retry returns
        the locked length); a request whose earlier attempts matched
        nothing retries the match, so a prefix committed after its
        arrival is still found.  Stats are per (request, prefill pass): a
        queued request retrying its match every iteration counts one
        lookup, not one per retry; a hit is counted on the attempt that
        matches.
        """
        held = self._refs.get(rid, _EMPTY)[1]
        if held:
            return held * self.block_size
        stream, hit = self._resident_prefix(chain)
        if hit:
            tail = self._split(stream, hit)
            self._refs[rid] = (tail, hit)
            self._ref_path(tail, None)
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
        tail, held = self._refs.pop(rid, _EMPTY)
        self.covered.pop(rid, None)
        if not held:
            return 0
        self._unref_path(tail)
        self._hits -= 1
        self._hit_tokens -= held * self.block_size
        self._lookups -= 1
        return held

    def commit_keys(self, rid: int, chain: Sequence[tuple[int, int]]) -> int:
        """Publish the blocks of ``chain`` as shared, owned by ``rid``.

        Blocks the request already references are skipped; the rest are
        reclassified from its private allocation (or deduplicated against
        an identical resident chain).  Returns the number of blocks newly
        attributed to the shared table for this request.
        """
        tip, held = self._refs.setdefault(rid, _EMPTY)
        total = chain[-1][1] if chain else 0
        if held and _stream_at(chain, held - 1) != tip.stream:
            raise ValueError(f"request {rid}: commit diverges from its locked prefix")
        added = total - held
        if added <= 0:
            return 0
        # Blocks another request already published: reference their runs.
        stream, resident = self._resident_prefix(chain)
        if resident > held:
            run = self._split(stream, resident)
            self._ref_path(run, tip)
            tip = run
        depth = resident
        for stream, end in chain:
            if end <= depth:
                continue
            if tip is not None and tip.stream == stream and tip.refcount == 1 and not tip.children:
                tip.end = end  # sole holder of its stream's last run: extend it
            else:
                run = _Run(stream, depth, end, tip, refcount=1)
                if tip is not None:
                    tip.children += 1
                self._streams.setdefault(stream, []).append(run)
                tip = run
            depth = end
        self._cached += total - resident
        self._refs[rid] = (tip, total)
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

    def _resident_prefix(self, chain: Sequence[tuple[int, int]]) -> tuple[int, int]:
        """``(stream, depth)``: the chain's longest resident prefix ends
        at ``depth``, with its last block in ``stream``.

        One lookup per stream: a resident block implies resident
        ancestors, so a stream's resident blocks run from its first
        block to its last run's tail.
        """
        streams = self._streams
        found = (0, 0)
        for stream, end in chain:
            runs = streams.get(stream)
            if runs is None:
                break
            top = runs[-1].end
            if top < end:
                return stream, top
            found = (stream, end)
        return found

    def _split(self, stream: int, depth: int) -> _Run:
        """The stream's run whose tail is block ``depth - 1``, split off
        if that block is mid-run.

        The run keeps its tail part, so its heap entries stay valid; a
        new run takes the head and becomes the tail part's parent.  Both
        callers reference the head at once, so it needs no LRU stamp
        until its next release.
        """
        runs = self._streams[stream]
        i = bisect_left(runs, depth, key=_END)
        run = runs[i]
        if run.end == depth:
            return run
        head = _Run(stream, run.start, depth, run.parent, refcount=run.refcount, children=1)
        run.start = depth
        run.parent = head
        runs.insert(i, head)
        return head

    def _ref_path(self, run: _Run | None, stop: _Run | None) -> None:
        """Reference each run from ``run`` up to, not including, ``stop``."""
        while run is not stop:
            if run.refcount == 0:
                self._unreferenced -= run.end - run.start
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
                n = run.end - run.start
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
        refs = self._refs.get(rid, _EMPTY)[1]
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
        tail, held = self._refs.pop(rid, _EMPTY)
        self._miss_counted.discard(rid)  # a re-admission is a fresh pass
        if not held:
            return released
        self._unref_path(tail)
        return released + held

    def invalidate_all(self) -> None:
        """Drop every allocation, reference, and shared block at once.

        Models a replica crash (see :mod:`repro.chaos`): the device
        memory backing both private allocations *and* the shared prefix
        table is gone, so sessions homed here re-prefill from scratch.
        Cumulative hit/evict counters are deliberately kept — they count
        work that genuinely happened before the crash.
        """
        super().invalidate_all()
        self._streams.clear()
        self._refs.clear()
        self._cached = 0
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
        run's tail, one stamp later.  A leaf run is its stream's last, so
        an emptied run leaves its stream's list from the end.
        """
        heap = self._evictable
        while self.free_blocks < need and heap:
            touch, _, run = heapq.heappop(heap)
            if run.touch != touch or run.refcount or run.children or run.end == run.start:
                continue  # stale heap entry
            run.end -= 1
            self._cached -= 1
            self._unreferenced -= 1
            self._evicted += 1
            if run.end > run.start:
                run.touch += 1
                heapq.heappush(heap, (run.touch, next(self._seq), run))
                continue
            runs = self._streams[run.stream]
            runs.pop()
            if not runs:
                del self._streams[run.stream]
            parent = run.parent
            if parent is not None:
                parent.children -= 1
                if parent.refcount == 0 and parent.children == 0:
                    heapq.heappush(heap, (parent.touch, next(self._seq), parent))
