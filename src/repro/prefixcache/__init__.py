"""Prefix-cache subsystem: shared-prefix KV reuse across requests.

Multi-turn sessions, agent loops, and RAG-over-a-shared-system-prompt
traffic repeat long prompt prefixes; serving them from cached KV instead
of recomputing prefill is the mechanism behind vLLM's automatic prefix
caching and SGLang-style radix reuse.  This package provides

- :mod:`repro.prefixcache.tokens` — prefix identity: block keys derived
  from a request's ``(namespace, length)`` prompt segments, one vector
  hash call per segment;
- :mod:`repro.prefixcache.manager` — :class:`PrefixCacheManager`, the
  refcounted, LRU-evicted shared-block extension of the KV manager,
  matched and committed over those keys (``lock_keys``/``commit_keys``)
  and refcounted per run of blocks held together, not per block.

Enable it per experiment with ``ExperimentSpec.create(...,
prefix_cache=True)`` or ``repro run/sweep/cluster --prefix-cache``; pair
it with the ``sessions``/``agentic`` traces
(:mod:`repro.workloads.sessions`) and the ``prefix-affinity`` router
(:mod:`repro.cluster.router`) for the full reuse scenario.
"""
