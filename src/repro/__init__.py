"""AdaServe reproduction: SLO-customized LLM serving with fine-grained
speculative decoding, as a faithful discrete-event simulation.

Subpackages
-----------
- ``repro.core`` — the paper's contribution: token trees, Algorithm 1,
  the speculate-select-verify pipeline (Algorithm 2), adaptive beam
  control, and the AdaServe scheduler.
- ``repro.model`` — synthetic draft/target model pair (seeded stochastic
  process standing in for real LLM weights).
- ``repro.hardware`` — roofline GPU cost model, budget profiling, CUDA
  graph launch model.
- ``repro.serving`` — serving simulator: requests, engine, KV cache,
  metrics.
- ``repro.baselines`` — vLLM, Sarathi-Serve, vLLM-Spec(n), vLLM+Priority,
  FastServe, VTC.
- ``repro.workloads`` — Table 2 categories, synthetic datasets, traces,
  multi-turn session workloads.
- ``repro.prefixcache`` — shared-prefix KV reuse: deterministic token
  streams, refcounted block sharing with LRU eviction.
- ``repro.cluster`` — multi-replica fleets: routers (including
  prefix-affinity session stickiness), autoscaler.
- ``repro.registry`` — typed component registries (systems, routers,
  traces, model setups) and the ``name:key=val`` spec-string grammar.
- ``repro.analysis`` — declarative experiment specs, harness, parallel
  runner, result cache, tables.

Import each name from the module that defines it.  Subpackage
``__init__`` files re-export nothing, so a run loads only the modules it
executes; ``repro.analysis`` (the facade the quickstart uses) and
``repro.baselines`` (whose import registers the baseline schedulers)
are the exceptions.

Quickstart
----------
>>> from repro.analysis import ExperimentSpec, SweepRunner
>>> spec = ExperimentSpec.create(
...     model="llama70b", system="adaserve", rps=3.0,
...     duration_s=20.0, seed=0, trace="steady",
... )
>>> result = SweepRunner(cache=None).run([spec])[0]
>>> 0.0 <= result.report.metrics.attainment <= 1.0
True

Systems, routers, and traces are referenced by registry spec strings
(``vllm-spec:k=8``, ``affinity:reserve=0.4``, ``diurnal:peak_to_trough=6``);
``python -m repro list systems`` enumerates them with their schemas.
"""

__version__ = "0.1.0"
