"""Paged KV-cache manager (vLLM-style block allocation).

KV memory is organized in fixed-size blocks; each request owns enough
blocks to cover its resident tokens (prompt + generated + transient
speculative tokens).  Schedulers grow a request's allocation before
running it and free everything when it finishes or is preempted with KV
dropped.

The manager enforces the capacity invariant (never over-allocates) and
exposes occupancy for admission-control decisions.  Capacity defaults come
from the deployment spec: device memory minus weights and reserve.
"""

from __future__ import annotations

DEFAULT_BLOCK_SIZE = 16


class OutOfKVCache(Exception):
    """Raised when an allocation cannot be satisfied."""


class KVCacheManager:
    """Block-granular KV-cache accounting.

    Parameters
    ----------
    capacity_tokens:
        Total tokens the cache can hold (from
        ``DeploymentSpec.kv_capacity_tokens``).
    block_size:
        Tokens per block.
    """

    #: Whether this manager shares prefix blocks across requests; engine
    #: and scheduler prefix hooks are no-ops when False.  The sharing
    #: implementation lives in :class:`repro.prefixcache.manager.PrefixCacheManager`.
    prefix_caching = False

    def __init__(self, capacity_tokens: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if capacity_tokens < block_size:
            raise ValueError("capacity smaller than one block")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.total_blocks = capacity_tokens // block_size
        self._allocated: dict[int, int] = {}  # rid -> blocks
        self._used = 0
        #: rid -> tokens the request's last :meth:`ensure` left resident
        #: (whole blocks).  Only ``ensure`` raises it and every release
        #: drops it, so it is a lower bound on the current coverage: a
        #: caller whose need fits under it may skip ``ensure``, which
        #: would return without effect.
        self.covered: dict[int, int] = {}

    # ------------------------------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens``."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        return -(-tokens // self.block_size)  # ceil division

    @property
    def used_blocks(self) -> int:
        """Blocks currently allocated."""
        return self._used

    @property
    def free_blocks(self) -> int:
        """Blocks available."""
        return self.total_blocks - self._used

    def holds(self, rid: int) -> bool:
        """Whether the request has any allocation."""
        return rid in self._allocated

    # ------------------------------------------------------------------
    def ensure(self, rid: int, tokens: int) -> None:
        """Grow ``rid``'s allocation to cover ``tokens`` resident tokens.

        Raises :class:`OutOfKVCache` when capacity is insufficient; the
        caller decides whether to queue or preempt.
        """
        target = self.blocks_for(tokens)
        have = self._allocated.get(rid, 0)
        if target > have:
            need = target - have
            if need > self.free_blocks:
                raise OutOfKVCache(
                    f"request {rid} needs {need} blocks, only {self.free_blocks} free"
                )
            self._allocated[rid] = have = target
            self._used += need
        if have:
            self.covered[rid] = have * self.block_size

    def free(self, rid: int) -> int:
        """Release all blocks held by ``rid``; returns the count freed."""
        blocks = self._allocated.pop(rid, 0)
        self._used -= blocks
        self.covered.pop(rid, None)
        return blocks

    def invalidate_all(self) -> None:
        """Drop every allocation — the device's memory is gone.

        Models a replica crash (see :mod:`repro.chaos`): unlike
        :meth:`free`, which releases one request in an orderly fashion,
        this wipes the whole cache at once.  The manager stays usable
        (capacity unchanged) for defensive callers, though a crashed
        replica normally swaps in a fresh engine + manager afterwards.
        """
        self._allocated.clear()
        self._used = 0
        self.covered.clear()
