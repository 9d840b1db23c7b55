"""The determinism rule registry (RPD = RePro Determinism).

Every guarantee the simulator sells — byte-identical fixed-seed runs,
cache keys that never fork on cosmetic knobs, strictly passive
observability — rests on a handful of source-level conventions.  Each
rule below names one convention, the hazard it guards against, and an
example violation; :mod:`repro.check.linter` enforces them over the AST.

Intentional exceptions carry a suppression comment on the offending
line::

    t0 = time.perf_counter()  # repro: allow[RPD002] reason: measures real CPU time

The linter inventories every suppression it honors (they are part of the
lint report, see ``repro check lint --json``) and flags suppressions
that no longer match a finding (RPD000), so the exception list can never
silently rot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One determinism rule: identity, rationale, and a violating example."""

    id: str
    title: str
    rationale: str
    example: str


#: ``*Spec`` dataclass fields deliberately missing from their class's
#: canonical ``to_dict`` payload (RPD005).  Every entry needs a reason:
#: an undocumented omission is exactly the cache-key-incompleteness bug
#: the rule exists to catch.
RPD005_EXCLUSIONS: dict[str, str] = {
    # Observation is strictly passive (see repro.obs.spec): an obs knob
    # must never fork a cache key, so the section is excluded by design.
    "ExperimentSpec.obs": "observability is passive and never forks results",
}

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="RPD000",
            title="unused suppression",
            rationale=(
                "A `# repro: allow[...]` comment that matches no finding is "
                "dead: either the violation it excused was fixed (delete the "
                "comment) or the comment drifted off the offending line (it "
                "is silently excusing nothing).  Flagging unused suppressions "
                "keeps the exception inventory honest."
            ),
            example="x = 1  # repro: allow[RPD002] reason: stale",
        ),
        Rule(
            id="RPD001",
            title="raw RNG outside repro._rng",
            rationale=(
                "All randomness must flow through repro._rng (splitmix64 + "
                "derive_seed), whose streams are pure functions of the run "
                "seed and stable across Python/numpy versions.  `random` and "
                "`numpy.random` draw from global or platform-dependent "
                "state, so one stray import forks fixed-seed runs."
            ),
            example="import random; jitter = random.random()",
        ),
        Rule(
            id="RPD002",
            title="wall clock in simulation code",
            rationale=(
                "Simulated time is SimClock; real time (time.time, "
                "time.monotonic, time.perf_counter, datetime.now) differs "
                "every run, so any value derived from it breaks "
                "byte-identical replay.  Harnesses that time the simulator "
                "live outside the package (the population benchmark in "
                "tests/, simbench/); a measurement inside sim code needs an "
                "explicit allow with proof the value never reaches a result."
            ),
            example="latency += time.perf_counter() - t0",
        ),
        Rule(
            id="RPD003",
            title="unordered iteration in sim paths",
            rationale=(
                "Iterating a set/frozenset or os.listdir output visits "
                "elements in hash/filesystem order, which varies across "
                "processes (PYTHONHASHSEED, platform).  In simulation code "
                "that order leaks into float-summation and event ordering, "
                "silently forking fixed-seed runs.  Wrap the iterable in "
                "sorted(...) or use an order-preserving container."
            ),
            example="for rid in set(pending): total += cost[rid]",
        ),
        Rule(
            id="RPD004",
            title="unguarded obs/trace call site",
            rationale=(
                "Observability is strictly passive: obs-off runs must not "
                "even pay an attribute lookup chain, and obs-on runs must "
                "be byte-identical.  Every call on an observer/tracer/"
                "sampler handle must sit under an `if <handle> is not None` "
                "guard so disabled runs execute one cheap check and nothing "
                "else."
            ),
            example="self._obs.event(now, 'crash', replica=idx)  # no guard",
        ),
        Rule(
            id="RPD005",
            title="Spec field missing from to_dict",
            rationale=(
                "ExperimentSpec sections are content-addressed: the cache "
                "key hashes to_dict().  A dataclass field that can change a "
                "result but is missing from to_dict makes two different "
                "experiments collide on one cache record.  Fields excluded "
                "on purpose (e.g. the passive ObsSpec section) must be "
                "listed in RPD005_EXCLUSIONS with a reason."
            ),
            example="@dataclass class FooSpec: knob: int = 0  # to_dict omits 'knob'",
        ),
        Rule(
            id="RPD006",
            title="numeric Param without bounds",
            rationale=(
                "Registry components expose `name:key=val` spec-grammar "
                "parameters; an int/float Param without minimum/maximum "
                "bounds accepts nonsense (negative rates, zero capacities) "
                "that surfaces as NaNs or hangs deep inside a run instead "
                "of a parse-time error."
            ),
            example='Param("slow", kind="float")  # no minimum/maximum',
        ),
    )
}


#: Runtime invariants of ``--check-invariants`` (repro.check.invariants)
#: that ``repro list checks`` names beside the static rules: name ->
#: what a violation means.
RUNTIME_CHECKS: dict[str, str] = {
    "lazy-decode": (
        "at each plain-decode admission, the lazy decode counters (context "
        "sum, pending tokens, finish and block-crossing steps, outstanding "
        "load) equal a from-scratch recount"
    ),
}


class _RuleIndex:
    """``repro list checks`` adapter with the Registry.describe() shape."""

    kind = "check"

    def describe(self) -> list[dict]:
        rows = []
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            params = [f"rationale: {rule.rationale}", f"example: {rule.example}"]
            if rule.id == "RPD005":
                params += [
                    f"excluded: {name} ({why})"
                    for name, why in sorted(RPD005_EXCLUSIONS.items())
                ]
            rows.append(
                {
                    "name": rule.id,
                    "summary": rule.title,
                    "params": params,
                }
            )
        for name, summary in RUNTIME_CHECKS.items():
            rows.append(
                {"name": name, "summary": summary, "params": ["runtime: --check-invariants"]}
            )
        return rows


#: Registry-shaped index of the determinism rules (``repro list checks``).
CHECKS = _RuleIndex()
