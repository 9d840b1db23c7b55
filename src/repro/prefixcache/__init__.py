"""Prefix-cache subsystem: shared-prefix KV reuse across requests.

Multi-turn sessions, agent loops, and RAG-over-a-shared-system-prompt
traffic repeat long prompt prefixes; serving them from cached KV instead
of recomputing prefill is the mechanism behind vLLM's automatic prefix
caching and SGLang-style radix reuse.  This package provides

- :mod:`repro.prefixcache.tokens` — prefix identity: a block is
  identified by (stream, depth), where the stream key hash-chains the
  ``(namespace, length)`` prompt segments up to the one the block ends
  in; a request's chain is its few streams and their block ranges, two
  hash calls per segment and no key per block;
- :mod:`repro.prefixcache.manager` — :class:`PrefixCacheManager`, the
  refcounted, LRU-evicted shared-block extension of the KV manager,
  matched and committed over those chains (``lock_keys``/``commit_keys``).
  Its table stores runs, not blocks: each stream key maps to depth
  ranges of blocks held together, each with one refcount, so the table
  grows with streams and runs, not with resident blocks.

Enable it per experiment with ``ExperimentSpec.create(...,
prefix_cache=True)`` or ``repro run/sweep/cluster --prefix-cache``; pair
it with the ``sessions``/``agentic`` traces
(:mod:`repro.workloads.sessions`) and the ``prefix-affinity`` router
(:mod:`repro.cluster.router`) for the full reuse scenario.
"""
