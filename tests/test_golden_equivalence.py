"""Golden-equivalence digests for the optimized simulation loops.

PR 5 rewrote the hot simulation paths (fleet event heap, memoized cost
model, incremental scheduler bookkeeping, single-sort metrics) under a
hard constraint: **every fixed-seed run stays byte-identical** to the
unoptimized implementation.  These tests pin that guarantee.

Each scenario below was executed on the pre-optimization code and its
strict-JSON report export (``report_to_json`` — sorted keys, no NaN
tokens, every aggregate and per-category statistic) hashed with SHA-256.
The digests are committed; the optimized loops must reproduce them
byte-for-byte.  A digest mismatch means an "optimization" changed
simulation semantics — floats included — and must not ship.

A second table, :data:`PERF_SCENARIOS`, pins five multi-spec scenarios
that together cover the speculation pipeline, the fleet loop and
routing, the prefix cache on sessions, chaos recovery and a 12-point
four-system sweep.  Each carries two digests: SHA-256 over every spec's
``report_to_json`` joined by ``b"\0"`` (*what* the simulator produced),
and SHA-256 over the first spec's latency-attribution export (*where the
time went*, which also pins the trace grammar).

The digests hold on every supported Python version.  From 3.12 the
builtin ``sum()`` compensates float rounding, so float totals fold left
to right through ``repro._rng.fold_sum``;
:func:`test_digests_hold_under_compensated_sum` recomputes every digest
with a 3.12-style ``sum()`` patched in.

If simulator *semantics* change intentionally in a future PR, recompute
the digests with ``python -m tests.test_golden_equivalence`` (this module
is runnable) and say so in the PR description.
"""

from __future__ import annotations

import builtins
import hashlib
import math
from dataclasses import replace

import pytest

from repro.analysis.export import report_to_json
from repro.analysis.runner import run_spec, run_traced
from repro.analysis.spec import ExperimentSpec
from repro.model import stochastic_lm
from repro.obs.attrib import attribution_to_dict, attribution_to_json, decompose
from repro.obs.spec import ObsSpec


def _digest(spec: ExperimentSpec) -> str:
    """SHA-256 of the run's strict-JSON export (fresh engines, no cache)."""
    report = run_spec(spec)
    return hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()


def _spec(**kw) -> ExperimentSpec:
    kw.setdefault("model", "llama70b")
    kw.setdefault("seed", 0)
    return ExperimentSpec.create(**kw)


#: (scenario name, spec kwargs, digest of the unoptimized implementation).
GOLDEN = [
    (
        "solo-vllm",
        dict(system="vllm", rps=5.0, duration_s=12.0, trace="bursty"),
        "68c346f1c37abee76316f77bbfbb2da8c0c443047176863d7551b24664e65fb2",
    ),
    (
        "solo-adaserve",
        dict(system="adaserve", rps=4.0, duration_s=10.0, trace="bursty"),
        "4c349363b08ce596295f6fddcb981a0fcc2bcc13ebda511186d9d5d66e217239",
    ),
    (
        "solo-sarathi-qwen",
        dict(model="qwen32b", system="sarathi", rps=4.0, duration_s=10.0, trace="steady", seed=3),
        "97eb0d3af954ad1deff1888a834a61bf0e16d329bec336763e4750f6e9fcaf31",
    ),
    (
        "solo-vllm-spec",
        dict(system="vllm-spec:k=4", rps=4.0, duration_s=10.0, trace="phased", seed=1),
        "630583d5d16bf6bb907b774de287292928e9797528386bf63e992ba536ef5033",
    ),
    # Adaptive chain speculation: the chain length changes per iteration,
    # so chains of several lengths are drafted and verified.
    (
        "solo-smartspec",
        dict(system="smartspec", rps=4.0, duration_s=10.0, trace="bursty", seed=2),
        "f3ace0b1ce413d5362064029f046ae908ad661eb5925b38afd512875944e8395",
    ),
    (
        "fleet-least-loaded",
        dict(system="vllm", rps=12.0, duration_s=12.0, trace="diurnal", replicas=3, router="least-loaded"),
        "36675868d05cd8155e22e1678ddb97106b30179fb248ae49b24ae272d3def100",
    ),
    (
        "fleet-autoscale-p2c",
        dict(
            system="vllm",
            rps=14.0,
            duration_s=12.0,
            trace="bursty",
            replicas=2,
            router="p2c",
            autoscale={"max_replicas": 4, "warmup_s": 2.0},
            seed=2,
        ),
        "80297b2bdc85fc63fada7bf54796337cecc033d93881112784de808c2079cc20",
    ),
    (
        "sessions-prefix-cache",
        dict(system="vllm", rps=6.0, duration_s=12.0, trace="sessions", prefix_cache=True),
        "2fb5b5cb4cb4c12ef29ed4ab739624feb829fd94093f5663c0692b6126d55c57",
    ),
    # AdaServe co-batches prompt chunks into verification; a chunk that
    # completes its prompt publishes the prompt's blocks at once, so a
    # later turn can hit them while the earlier one still decodes.
    (
        "sessions-prefix-cache-adaserve",
        dict(
            system="adaserve", rps=12.0, duration_s=12.0, trace="sessions", prefix_cache=True, seed=5
        ),
        "b10695b301c4fd034e9236bda28aacce3a2a1777546e3fce34713d1a95a7d28c",
    ),
    (
        "sessions-prefix-affinity-fleet",
        dict(
            system="vllm",
            rps=8.0,
            duration_s=12.0,
            trace="sessions:turns=4,think_time=2.0",
            prefix_cache=True,
            replicas=2,
            router="prefix-affinity",
            seed=1,
        ),
        "3e2f2183135a5f34d2c6346760f0b85d0ebe3a572b2fa657f3024bb7c5075917",
    ),
    # A long sessions run whose prefix table fills the pool: about 12k of
    # 28k shared blocks are evicted, so the LRU, leaf-first eviction
    # order is part of the digest.
    (
        "sessions-prefix-evict",
        dict(system="vllm", rps=8.0, duration_s=300.0, trace="sessions", prefix_cache=True),
        "0dab6698f3732c5dc8f1ba66d60afa5b73198cd047ab8bedff95b45ee5cd4d41",
    ),
    # Chaos scenarios (PR 6): fixed-seed fault injection must be exactly
    # as reproducible as every other run — the whole fault timeline
    # (including auto-placed draws) is a pure function of the spec.
    (
        "chaos-crash-straggler-fleet",
        dict(
            system="vllm",
            rps=9.0,
            duration_s=12.0,
            trace="sessions",
            prefix_cache=True,
            replicas=3,
            router="prefix-affinity",
            faults=("crash:at=4,replica=1,restart=3", "straggler:at=2,replica=0,slow=1.5,duration=5"),
        ),
        "6584468208605d6b340d54df304e2987775a399294d5bb21b143a5395ae9da9c",
    ),
    (
        "chaos-auto-faults",
        dict(
            system="vllm",
            rps=10.0,
            duration_s=12.0,
            trace="bursty",
            replicas=3,
            router="least-loaded",
            faults=("crash", "straggler:slow=2.0"),
            seed=4,
        ),
        "42690dc163aae93c63cddd7111a01180ceddd1757a8c929a755f6a47fa18b48b",
    ),
    # A one-replica speculative fleet: a fault makes the point a cluster,
    # so replica 0's engine seed is derived per replica, not the run
    # seed.  Plain decode never reads the engine seed, so only a
    # speculative system can tell the two apart.
    (
        "fleet-1r-adaserve-straggler",
        dict(
            system="adaserve",
            rps=4.0,
            duration_s=8.0,
            trace="bursty",
            faults=("straggler:at=2,replica=0,slow=1.5,duration=3",),
        ),
        "0ab0bd7bf83c8a6143098be5c363ae438fdbe353251e65cacfa46030cf9d87cc",
    ),
    # Chain speculation under a straggler on an autoscaled fleet whose
    # scale-ups pay a scale-delay's extra warm-up: without the delay,
    # attainment reads 0.529 rather than 0.432.
    (
        "fleet-autoscale-smartspec-straggler-delay",
        dict(
            system="smartspec",
            rps=12.0,
            duration_s=12.0,
            trace="bursty",
            seed=5,
            replicas=2,
            autoscale={"max_replicas": 4},
            faults=("straggler:at=4,replica=0,slow=1.5,duration=6", "scale-delay:at=2,extra=3"),
        ),
        "bbc5e7bfffafb50fcbe73ada371a5924bb08c18dbdae6fdfee0942f861f83e7c",
    ),
    # Saturated plain-decode points: at 20 rps the running set reaches the
    # 64-slot ``max_batch_size`` (66 for sarathi, whose chunked prefill
    # appends past the cut), so the batch cut and each policy's batch
    # choice are exercised every step.
    (
        "solo-priority-saturated",
        dict(system="priority", rps=20.0, duration_s=12.0, trace="bursty", seed=5),
        "ce774bdcdfe8f2749f75489594e1d2198f501a5183ae9fb4b58c1e6d09c32509",
    ),
    (
        "solo-fastserve-saturated",
        dict(system="fastserve", rps=20.0, duration_s=12.0, trace="bursty", seed=5),
        "0418eaba630b3ad6734c89a0f7e57d5abf00048898084da8f2e8ef8dfd256f52",
    ),
    (
        "solo-vtc-saturated",
        dict(system="vtc", rps=20.0, duration_s=12.0, trace="bursty", seed=5),
        "a0cb9a3c13cb2d988e36e1152dca280c47e954117feead27cd505f5a68584f48",
    ),
    (
        "solo-sarathi-saturated",
        dict(system="sarathi", rps=20.0, duration_s=12.0, trace="bursty", seed=5),
        "835beaaf02f64817ab9263889be323a1184a96fd8959316669060458722f72f8",
    ),
]


def _scenario_digest(specs: list[ExperimentSpec]) -> str:
    """SHA-256 over each spec's strict-JSON export, joined by ``b"\0"``."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(report_to_json(run_spec(spec)).encode("utf-8"))
        digest.update(b"\0")
    return f"sha256:{digest.hexdigest()}"


def _attrib_digest(spec: ExperimentSpec) -> str:
    """SHA-256 over the spec's latency-attribution export.

    Traced rerun of one spec (obs on; the spec's cache key and report
    are unchanged — observation is passive), digesting the strict-JSON
    attribution payload.  Pins the trace grammar and the decomposition:
    a prefill span that moves, a preemption that stops being emitted, or
    a component that drifts all change this digest while the report
    digest stays put.
    """
    report, observer = run_traced(replace(spec, obs=ObsSpec(trace=True)))
    attribs = decompose(observer.collector, report.requests, report.sim_time_s)
    payload = attribution_to_dict(attribs, report.sim_time_s, chaos=report.chaos)
    digest = hashlib.sha256(attribution_to_json(payload).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


#: The 12-point sweep scenario: four systems x three rates, 4 s points.
_SWEEP_12PT = tuple(
    dict(system=system, rps=rps, duration_s=4.0, trace="bursty")
    for system in ("vllm", "sarathi", "vllm-spec:k=4", "adaserve")
    for rps in (2.6, 3.4, 4.2)
)

#: (scenario name, spec kwargs per run, report digest, attribution
#: digest of the first run).  Seed 0 on llama70b (see ``_spec``).
PERF_SCENARIOS = [
    (
        "solo-adaserve",
        (dict(system="adaserve", rps=4.0, duration_s=8.0, trace="bursty"),),
        "sha256:11da2447cf519b6a76993ff9ade8168e64adcc254ee6aadff4faf0e8f712dc10",
        "sha256:13932283f8ddcbec58cf79d89a6268d25e398fc1d53c3b776642549aacd88f65",
    ),
    (
        "fleet-4r",
        (
            dict(
                system="vllm",
                rps=12.0,
                duration_s=8.0,
                trace="diurnal",
                replicas=4,
                router="least-loaded",
            ),
        ),
        "sha256:282e2e4b7116e830dcf575aabd4d3359711f6dd691f7d2a63e5b37db58985323",
        "sha256:93ba78382926ff4fa3ee96a479c39ea97492ad7f454337b183b4d035db5319e4",
    ),
    (
        "sessions-prefix",
        (dict(system="vllm", rps=6.0, duration_s=8.0, trace="sessions", prefix_cache=True),),
        "sha256:b2d1df3c7fd1e2e6cc3654373d7ffb05cd330bccd5df7f31c5c13aba3e62bd85",
        "sha256:9432cd0dfb33029ed03a0f8df715700192f9dfdc22cc9c0baf923a736099b3d5",
    ),
    (
        "chaos-churn",
        (
            dict(
                system="vllm",
                rps=9.0,
                duration_s=8.0,
                trace="sessions",
                prefix_cache=True,
                replicas=3,
                router="affinity",
                faults=(
                    "crash:at=3,replica=1,restart=2",
                    "straggler:at=1,replica=0,slow=1.5,duration=4",
                ),
            ),
        ),
        "sha256:1fa89da74cf77c6a8c021da557c07fda71b45537f8a30dd47455447a489cfa8b",
        "sha256:ae9d2fbc916668638081fc30f69aff7a1d53704cbb8591c8e653f761ba635f8a",
    ),
    (
        "sweep-12pt",
        _SWEEP_12PT,
        "sha256:e5f1e399e0a00ecbe434651e9a7c355787fff98839497958778d84ba4b1c6420",
        "sha256:d8e1e2995e187c53283fe7784f1c4f12ef1f175cc1ce074dae2c79686357fc87",
    ),
]

_PERF_IDS = [name for name, *_ in PERF_SCENARIOS]


@pytest.mark.parametrize(
    "name,kwargs,expected", GOLDEN, ids=[name for name, _, _ in GOLDEN]
)
def test_golden_digest(name: str, kwargs: dict, expected: str) -> None:
    """The optimized loops reproduce the unoptimized export, byte for byte."""
    assert _digest(_spec(**kwargs)) == expected, (
        f"scenario {name!r} diverged from the pre-optimization golden digest; "
        "a performance change altered simulation semantics"
    )


@pytest.mark.parametrize(
    "name,runs,report_digest,attrib_digest", PERF_SCENARIOS, ids=_PERF_IDS
)
def test_perf_scenario_digest(name, runs, report_digest, attrib_digest) -> None:
    """Every run of the scenario reproduces its committed export."""
    assert _scenario_digest([_spec(**kw) for kw in runs]) == report_digest, (
        f"scenario {name!r} report digest diverged; fixed-seed simulation "
        "output changed"
    )


@pytest.mark.parametrize(
    "name,runs,report_digest,attrib_digest", PERF_SCENARIOS, ids=_PERF_IDS
)
def test_perf_scenario_attrib_digest(name, runs, report_digest, attrib_digest) -> None:
    """The first run's latency attribution reproduces its committed export."""
    assert _attrib_digest(_spec(**runs[0])) == attrib_digest, (
        f"scenario {name!r} attribution digest diverged; fixed-seed "
        "trace/attribution output changed"
    )


def _compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython >= 3.12 computes it: Neumaier-compensated floats."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            if c:
                total, c = total + c, 0.0
            total = total + x
    return total + c if c and math.isfinite(c) else total


def test_digests_hold_under_compensated_sum(monkeypatch) -> None:
    """Every committed digest reproduces with Python 3.12's float ``sum()``.

    The shared distribution memo is swapped for an empty one, so every
    model rebuilds its distributions under the patched ``sum()``.
    """
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    monkeypatch.setattr(stochastic_lm, "_SHARED_CACHES", {})
    assert sum([0.1] * 10) == 1.0  # the patch compensates; a left fold gives 0.9999999999999999
    diverged = [name for name, kwargs, expected in GOLDEN if _digest(_spec(**kwargs)) != expected]
    for name, runs, report_digest, attrib_digest in PERF_SCENARIOS:
        specs = [_spec(**kw) for kw in runs]
        if _scenario_digest(specs) != report_digest:
            diverged.append(f"{name} report")
        if _attrib_digest(specs[0]) != attrib_digest:
            diverged.append(f"{name} attribution")
    assert not diverged, f"digests that depend on the Python version's sum(): {diverged}"


def _main() -> None:  # pragma: no cover - digest (re)generation helper
    for name, kwargs, _ in GOLDEN:
        print(f'    "{_digest(_spec(**kwargs))}",  # {name}')
    for name, runs, _, _ in PERF_SCENARIOS:
        specs = [_spec(**kw) for kw in runs]
        print(f'    "{_scenario_digest(specs)}",  # {name} report')
        print(f'    "{_attrib_digest(specs[0])}",  # {name} attribution')


if __name__ == "__main__":  # pragma: no cover
    _main()
