"""Tests for latency attribution and diffing (:mod:`repro.obs.attrib`).

The attribution contract:

- **exact**: per-request components sum to end-to-end latency within
  1e-9, on hand-built traces and on every golden scenario (chaos
  included) — the decomposition tiles the request's lifetime, and the
  straggler/prefix carve-outs only relabel time;
- **deterministic**: same-seed runs export byte-identical attribution
  JSON;
- **classified**: every SLO-violated request gets a dominant component,
  ties broken by the canonical ``COMPONENTS`` order.
"""

from __future__ import annotations

import json
from typing import ClassVar

import pytest

from repro.analysis.runner import run_traced
from repro.analysis.spec import ExperimentSpec
from repro.obs.attrib import (
    COMPONENTS,
    SUM_TOLERANCE,
    attribution_to_dict,
    attribution_to_json,
    decompose,
    fleet_efficiency,
    format_attribution,
    root_causes,
)
from repro.obs.diff import diff_attributions, format_diff_table
from repro.obs.export import format_slowest_table
from repro.obs.sampler import Sample
from repro.obs.spec import ObsSpec
from repro.obs.trace import TraceCollector
from tests.conftest import make_request


def _spec(**kw) -> ExperimentSpec:
    kw.setdefault("model", "llama70b")
    kw.setdefault("seed", 0)
    return ExperimentSpec.create(**kw)


def _req(rid=0, arrival=0.0, prompt_len=10, tokens=4, slo=0.05,
         session_id=None, turn_index=0, **kw):
    req = make_request(
        rid=rid, arrival=arrival, prompt_len=prompt_len, max_new_tokens=tokens,
        tpot_slo=slo, **kw,
    )
    req.session_id = session_id
    req.turn_index = turn_index
    return req


def _finish(req, decode_start, finish, replica_ctx=1):
    """Drive a request through prefill-complete -> finished."""
    if req.prefilled < req.prompt_len:
        req.advance_prefill(req.remaining_prompt)
    req.begin_decode(replica_ctx, decode_start)
    req.commit_tokens(req.max_new_tokens, replica_ctx + 1, finish)
    return req


def _assert_exact(attrib):
    assert abs(sum(attrib.components.values()) - attrib.e2e_s) <= SUM_TOLERANCE
    for comp, value in attrib.components.items():
        assert value >= -SUM_TOLERANCE, (comp, value)


class TestDecomposeBasics:
    def test_queue_prefill_decode_tiling(self):
        """arrival 0 | queue 2s | prefill 1s | decode 2s | finish at 5."""
        req = _req()
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=0)
        req.advance_prefill(req.prompt_len)
        collector.event(
            2.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": req.prompt_len, "prefilled": req.prompt_len},
        )
        req.begin_decode(1, 3.0)
        req.commit_tokens(req.max_new_tokens, 2, 5.0)
        collector.event(3.0, "decode", replica=0, rid=0, dur=2.0)
        collector.event(5.0, "finish", replica=0, rid=0)

        [a] = decompose(collector, [req], sim_end=5.0)
        assert a.e2e_s == pytest.approx(5.0)
        assert a.components["queue_wait"] == pytest.approx(2.0)
        assert a.components["prefill_compute"] == pytest.approx(1.0)
        assert a.components["decode_compute"] == pytest.approx(2.0)
        assert a.replica == 0
        _assert_exact(a)

    def test_chunked_prefill_gap_is_queue_wait(self):
        """Two chunks with a 1s scheduling gap between them."""
        req = _req()
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=0)
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 5, "prefilled": 5},
        )
        collector.event(
            3.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 5, "prefilled": 10},
        )
        _finish(req, 4.0, 6.0)
        collector.event(6.0, "finish", replica=0, rid=0)

        [a] = decompose(collector, [req], sim_end=6.0)
        assert a.components["queue_wait"] == pytest.approx(2.0)  # 0-1 and 2-3
        assert a.components["prefill_compute"] == pytest.approx(2.0)
        assert a.components["decode_compute"] == pytest.approx(2.0)
        _assert_exact(a)

    def test_unfinished_request_ends_at_sim_end(self):
        req = _req(arrival=1.0)
        collector = TraceCollector()
        collector.event(1.0, "enqueue", replica=0, rid=0)

        [a] = decompose(collector, [req], sim_end=9.0)
        assert not a.finished
        assert a.violated  # unfinished counts as a violation
        assert a.e2e_s == pytest.approx(8.0)
        assert a.components["queue_wait"] == pytest.approx(8.0)
        _assert_exact(a)

    def test_no_events_at_all(self):
        req = _req(arrival=2.0)
        [a] = decompose(TraceCollector(), [req], sim_end=5.0)
        assert a.replica == -1
        assert a.components["queue_wait"] == pytest.approx(3.0)
        _assert_exact(a)


class TestPreempt:
    def _preempted_trace(self):
        """Decode interrupted at t=4; 1s stall; 1s re-prefill; decode on."""
        req = _req(prompt_len=10, tokens=6)
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=0)
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        collector.event(4.0, "preempt", replica=0, rid=0, data={"drop_kv": True})
        collector.event(
            5.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 2.0, 8.0)
        req.preempt_count = 1
        collector.event(8.0, "finish", replica=0, rid=0)
        return collector, req

    def test_stall_and_redo_bucket_to_preempt(self):
        collector, req = self._preempted_trace()
        [a] = decompose(collector, [req], sim_end=8.0)
        # decode 2-4 (2s), stall 4-5 (1s) + redo prefill 5-6 (1s), decode 6-8.
        assert a.components["prefill_compute"] == pytest.approx(1.0)
        assert a.components["preempt_stall"] == pytest.approx(2.0)
        assert a.components["decode_compute"] == pytest.approx(4.0)
        assert a.components["queue_wait"] == pytest.approx(1.0)
        _assert_exact(a)


class TestFailover:
    def test_crash_redo_buckets_to_failover(self):
        """Crash at t=3 mid-decode; re-routed; re-prefilled on replica 1."""
        req = _req(prompt_len=10, tokens=6)
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=0)
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        collector.event(3.0, "failover", replica=0, rid=0)
        collector.event(3.0, "enqueue", replica=1, rid=0, data={"failover_count": 1})
        collector.event(
            4.5, "prefill", replica=1, rid=0, dur=0.5,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 2.0, 7.0)
        req.failover_count = 1
        collector.event(7.0, "finish", replica=1, rid=0)

        [a] = decompose(collector, [req], sim_end=7.0)
        # queue 0-1, prefill 1-2, decode 2-3, failover stall 3-4.5 + redo
        # 4.5-5.0, decode 5-7.
        assert a.components["queue_wait"] == pytest.approx(1.0)
        assert a.components["prefill_compute"] == pytest.approx(1.0)
        assert a.components["failover_redo"] == pytest.approx(2.0)
        assert a.components["decode_compute"] == pytest.approx(3.0)
        assert a.replica == 1  # last computing replica
        _assert_exact(a)

    def test_marker_behind_cursor_is_clamped(self):
        """A fleet-clock marker slightly before the replica span's end
        must not break the tiling (cross-replica clock skew)."""
        req = _req(prompt_len=10, tokens=6)
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=0)
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        collector.event(1.5, "failover", replica=0, rid=0)  # < span end 2.0
        collector.event(
            3.0, "prefill", replica=1, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 2.0, 6.0)
        collector.event(6.0, "finish", replica=1, rid=0)

        [a] = decompose(collector, [req], sim_end=6.0)
        _assert_exact(a)
        assert a.components["failover_redo"] == pytest.approx(2.0)  # 2-3 + 3-4


class TestStraggler:
    def _trace(self, window_events):
        req = _req(prompt_len=10, tokens=4)
        collector = TraceCollector()
        for args in window_events:
            collector.event(*args[:-1], **args[-1])
        collector.event(0.0, "enqueue", replica=0, rid=0)
        collector.event(
            2.0, "prefill", replica=0, rid=0, dur=2.0,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 4.0, 8.0)
        collector.event(8.0, "finish", replica=0, rid=0)
        return collector, req

    def test_slowdown_share_carved_from_overlap(self):
        """slow=2 window covering the whole request: half of every
        compute second is inflation."""
        collector, req = self._trace(
            [(0.0, "straggler", dict(replica=0, data={"slow": 2.0, "duration_s": 10.0}))]
        )
        [a] = decompose(collector, [req], sim_end=10.0)
        # prefill 2s + decode 4s, all inside the window: carve (1-1/2).
        assert a.components["straggler_inflation"] == pytest.approx(3.0)
        assert a.components["prefill_compute"] == pytest.approx(1.0)
        assert a.components["decode_compute"] == pytest.approx(2.0)
        assert a.components["queue_wait"] == pytest.approx(2.0)  # waits not carved
        _assert_exact(a)

    def test_window_closed_by_straggler_end(self):
        collector, req = self._trace(
            [
                (0.0, "straggler", dict(replica=0, data={"slow": 2.0, "duration_s": 3.0})),
                (3.0, "straggler-end", dict(replica=0, data={"slow": 2.0})),
            ]
        )
        [a] = decompose(collector, [req], sim_end=10.0)
        # Only prefill's 2.0-3.0 second overlaps: carve 0.5s.
        assert a.components["straggler_inflation"] == pytest.approx(0.5)
        _assert_exact(a)

    def test_crash_closes_window(self):
        collector, req = self._trace(
            [
                (0.0, "straggler", dict(replica=0, data={"slow": 2.0, "duration_s": 9.0})),
                (3.0, "crash", dict(replica=0, data={"restart_at_s": 5.0, "evacuated": 0})),
            ]
        )
        [a] = decompose(collector, [req], sim_end=10.0)
        assert a.components["straggler_inflation"] == pytest.approx(0.5)
        _assert_exact(a)

    def test_other_replica_not_carved(self):
        collector, req = self._trace(
            [(0.0, "straggler", dict(replica=1, data={"slow": 2.0, "duration_s": 10.0}))]
        )
        [a] = decompose(collector, [req], sim_end=10.0)
        assert a.components["straggler_inflation"] == 0.0
        _assert_exact(a)


class TestPrefixMiss:
    def _session_pair(self, miss: bool, turn: int = 1):
        prev = _req(rid=0, prompt_len=10, tokens=5, session_id=7)
        _finish(prev, 1.0, 2.0)
        req = _req(
            rid=1, arrival=4.0, prompt_len=30, tokens=4,
            session_id=7, turn_index=turn,
        )
        collector = TraceCollector()
        collector.event(4.0, "enqueue", replica=0, rid=1)
        if miss:
            collector.event(5.0, "prefix-miss", replica=0, rid=1)
        else:
            collector.event(5.0, "prefix-hit", replica=0, rid=1, data={"tokens": 15})
        collector.event(
            5.0, "prefill", replica=0, rid=1, dur=3.0,
            data={"tokens": 30, "prefilled": 30},
        )
        _finish(req, 8.0, 10.0)
        collector.event(10.0, "finish", replica=0, rid=1)
        return collector, [prev, req]

    def test_miss_penalty_is_cacheable_fraction(self):
        collector, reqs = self._session_pair(miss=True)
        attribs = decompose(collector, reqs, sim_end=10.0)
        a = attribs[1]
        # Previous turn contributed 10 prompt + 5 generated = 15 tokens;
        # 15/30 of the 3s prefill was avoidable re-compute.
        assert a.components["prefix_miss_penalty"] == pytest.approx(1.5)
        assert a.components["prefill_compute"] == pytest.approx(1.5)
        _assert_exact(a)

    def test_hit_no_penalty(self):
        collector, reqs = self._session_pair(miss=False)
        a = decompose(collector, reqs, sim_end=10.0)[1]
        assert a.components["prefix_miss_penalty"] == 0.0
        _assert_exact(a)

    def test_turn_zero_miss_ineligible(self):
        """A first turn has nothing cacheable — no penalty by design."""
        req = _req(rid=1, arrival=4.0, prompt_len=30, tokens=4, session_id=7)
        collector = TraceCollector()
        collector.event(5.0, "prefix-miss", replica=0, rid=1)
        collector.event(
            5.0, "prefill", replica=0, rid=1, dur=3.0,
            data={"tokens": 30, "prefilled": 30},
        )
        _finish(req, 8.0, 10.0)
        collector.event(10.0, "finish", replica=0, rid=1)
        a = decompose(collector, [req], sim_end=10.0)[0]
        assert a.components["prefix_miss_penalty"] == 0.0
        _assert_exact(a)

    def test_straggler_then_miss_carves_compose_exactly(self):
        """Both carve-outs on the same span still tile exactly."""
        collector, reqs = self._session_pair(miss=True)
        collector.event(
            0.0, "straggler", replica=0, data={"slow": 2.0, "duration_s": 20.0}
        )
        a = decompose(collector, reqs, sim_end=10.0)[1]
        # 3s prefill: 1.5 to inflation, then 15/30 of the remaining 1.5.
        assert a.components["straggler_inflation"] == pytest.approx(1.5 + 1.0)
        assert a.components["prefix_miss_penalty"] == pytest.approx(0.75)
        assert a.components["prefill_compute"] == pytest.approx(0.75)
        _assert_exact(a)


class TestClassifier:
    def test_dominant_is_argmax(self):
        req = _req()
        collector = TraceCollector()
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 2.0, 9.0)
        collector.event(9.0, "finish", replica=0, rid=0)
        [a] = decompose(collector, [req], sim_end=9.0)
        assert a.dominant == "decode_compute"

    def test_tie_breaks_in_component_order(self):
        """queue_wait == prefill_compute exactly -> queue_wait wins."""
        req = _req(tokens=1)
        collector = TraceCollector()
        collector.event(
            1.0, "prefill", replica=0, rid=0, dur=1.0,
            data={"tokens": 10, "prefilled": 10},
        )
        _finish(req, 2.0, 2.0)  # zero decode time
        collector.event(2.0, "finish", replica=0, rid=0)
        [a] = decompose(collector, [req], sim_end=2.0)
        assert a.components["queue_wait"] == a.components["prefill_compute"] == 1.0
        assert a.dominant == "queue_wait"
        assert COMPONENTS.index("queue_wait") < COMPONENTS.index("prefill_compute")

    def test_root_causes_count_only_violations(self):
        slow = _req(rid=0, slo=0.001)  # will violate
        fast = _req(rid=1, slo=10.0)  # will attain
        collector = TraceCollector()
        for rid in (0, 1):
            collector.event(
                0.5, "prefill", replica=0, rid=rid, dur=0.5,
                data={"tokens": 10, "prefilled": 10},
            )
            collector.event(4.0, "finish", replica=0, rid=rid)
        _finish(slow, 1.0, 4.0)
        _finish(fast, 1.0, 4.0)
        attribs = decompose(collector, [slow, fast], sim_end=4.0)
        causes = root_causes(attribs)
        assert sum(causes.values()) == 1
        assert set(causes) == set(COMPONENTS)  # stable payload shape


class TestAggregation:
    def _attribs(self):
        reqs = []
        collector = TraceCollector()
        for rid in range(4):
            req = _req(rid=rid, arrival=float(rid),
                       category="coding" if rid % 2 else "chatbot",
                       slo=0.001 if rid < 2 else 10.0)
            collector.event(float(rid), "enqueue", replica=rid % 2, rid=rid)
            collector.event(
                rid + 1.0, "prefill", replica=rid % 2, rid=rid, dur=1.0,
                data={"tokens": 10, "prefilled": 10},
            )
            _finish(req, rid + 2.0, rid + 4.0)
            collector.event(rid + 4.0, "finish", replica=rid % 2, rid=rid)
            reqs.append(req)
        return decompose(collector, reqs, sim_end=10.0)

    def test_payload_structure(self):
        payload = attribution_to_dict(self._attribs(), sim_time_s=10.0)
        assert payload["num_requests"] == 4
        assert payload["num_violated"] == 2
        assert set(payload["per_category"]) == {"chatbot", "coding"}
        assert set(payload["per_replica"]) == {"0", "1"}
        for stats in payload["per_category"].values():
            for comp in COMPONENTS:
                assert {"total_s", "mean_s", "p50_s", "p99_s"} <= set(
                    stats["components"][comp]
                )
        assert [v["rid"] for v in payload["violations"]] == [0, 1]
        total = sum(payload["totals"].values())
        assert total == pytest.approx(payload["e2e_total_s"])

    def test_json_is_strict_and_deterministic(self):
        a = attribution_to_json(attribution_to_dict(self._attribs(), 10.0))
        b = attribution_to_json(attribution_to_dict(self._attribs(), 10.0))
        assert a == b
        json.loads(a)  # valid strict JSON (allow_nan=False on dumps)

    def test_format_plain_and_markdown(self):
        payload = attribution_to_dict(self._attribs(), 10.0)
        plain = format_attribution(payload)
        assert "category" in plain and "root cause" in plain
        md = format_attribution(payload, markdown=True)
        assert md.startswith("| category |")

    def test_incident_window_slice(self):
        payload = attribution_to_dict(
            self._attribs(), 10.0, chaos={"incident_windows": [[0.5, 1.5]]}
        )
        assert payload["incident"]["num_requests"] == 1  # only rid=1 arrives inside
        assert set(payload["incident"]["root_causes"]) == set(COMPONENTS)


class TestFleetEfficiency:
    def _sampler(self, samples):
        class _Stub:
            period_s = 0.5

        stub = _Stub()
        stub.samples = samples
        return stub

    def _row(self, idx, state="live", waiting=0, running=0):
        return (idx, state, waiting, running, 4, 8, 0)

    def test_busy_fraction_and_hist(self):
        samples = [
            Sample(t=0.0, fleet=(2, 0, 0, 0, 2),
                   replicas=(self._row(0, running=3), self._row(1, running=0))),
            Sample(t=0.5, fleet=(2, 0, 0, 0, 2),
                   replicas=(self._row(0, running=3), self._row(1, running=2))),
        ]
        fleet = fleet_efficiency(self._sampler(samples))
        assert fleet["replicas"]["0"]["busy_fraction"] == 1.0
        assert fleet["replicas"]["1"]["busy_fraction"] == 0.5
        assert fleet["replicas"]["0"]["batch_size_hist"] == {"3": 2}

    def test_bubble_requires_other_backlog(self):
        idle = self._row(1, running=0, waiting=0)
        busy_backlog = self._row(0, running=2, waiting=5)
        busy_clear = self._row(0, running=2, waiting=0)
        samples = [
            Sample(t=0.0, fleet=(2, 0, 0, 0, 2), replicas=(busy_backlog, idle)),
            Sample(t=0.5, fleet=(2, 0, 0, 0, 2), replicas=(busy_clear, idle)),
        ]
        fleet = fleet_efficiency(self._sampler(samples))
        assert fleet["replicas"]["1"]["bubble_samples"] == 1  # only t=0.0
        assert fleet["bubble_windows"] == [[0.0, 0.5]]

    def test_dead_replicas_excluded(self):
        samples = [
            Sample(t=0.0, fleet=(1, 0, 0, 1, 2),
                   replicas=(self._row(0, running=1), self._row(1, state="failed"))),
        ]
        fleet = fleet_efficiency(self._sampler(samples))
        assert fleet["replicas"]["1"]["live_samples"] == 0
        assert fleet["replicas"]["1"]["busy_fraction"] == 0.0

    def test_none_without_sampler(self):
        assert fleet_efficiency(None) is None
        assert fleet_efficiency(self._sampler([])) is None


def _payload(totals, violated=0):
    return {"totals": dict(totals), "num_violated": violated}


class TestDiff:
    def test_regression_requires_both_thresholds(self):
        base = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 10.0})
        # +0.04s: above 0.3% rel? no — below abs threshold 0.05.
        cur = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 10.04})
        assert diff_attributions(base, cur)["regressions"] == []
        # +1.0s on a 100s base: above abs, below 5% rel.
        base = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 100.0})
        cur = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 101.0})
        assert diff_attributions(base, cur)["regressions"] == []
        # +10s on 100s: both thresholds tripped.
        cur = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 110.0})
        assert diff_attributions(base, cur)["regressions"] == ["decode_compute"]

    def test_improvement_is_symmetric(self):
        base = _payload({c: 0.0 for c in COMPONENTS} | {"queue_wait": 100.0})
        cur = _payload({c: 0.0 for c in COMPONENTS} | {"queue_wait": 80.0})
        diff = diff_attributions(base, cur)
        assert diff["improvements"] == ["queue_wait"]
        assert diff["regressions"] == []

    def test_any_violation_increase_regresses(self):
        base = _payload(dict.fromkeys(COMPONENTS, 1.0), violated=5)
        cur = _payload(dict.fromkeys(COMPONENTS, 1.0), violated=6)
        diff = diff_attributions(base, cur)
        assert diff["regressions"] == ["num_violated"]

    def test_zero_diff_on_identical_payloads(self):
        payload = _payload(dict.fromkeys(COMPONENTS, 3.0), violated=2)
        diff = diff_attributions(payload, payload, rel_threshold=0.0, abs_threshold_s=0.0)
        assert diff["regressions"] == [] and diff["improvements"] == []

    def test_table_verdict_lines(self):
        base = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 100.0})
        cur = _payload({c: 0.0 for c in COMPONENTS} | {"decode_compute": 120.0})
        text = format_diff_table(diff_attributions(base, cur))
        assert "REGRESSION: decode_compute" in text
        md = format_diff_table(diff_attributions(base, cur), markdown=True)
        assert md.startswith("| component |")


#: Golden scenarios for the end-to-end exactness property; the chaos one
#: exercises failover, straggler carving, and fleet-clock markers.
_SCENARIOS = {
    "solo-adaserve": dict(system="adaserve", rps=4.0, duration_s=8.0, trace="bursty"),
    "sessions-prefix": dict(
        system="vllm", rps=8.0, duration_s=10.0,
        trace="sessions:turns=4,think_time=2.0", prefix_cache=True,
        replicas=2, router="prefix-affinity",
    ),
    "chaos-crash-straggler": dict(
        system="vllm", rps=14.0, duration_s=12.0, trace="bursty",
        replicas=3, router="affinity",
        faults=(
            "crash:at=4,replica=1,restart=3",
            "straggler:at=2,replica=0,slow=1.8,duration=5",
        ),
    ),
}


class TestEndToEndExactness:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_components_sum_to_e2e(self, name):
        spec = _spec(**_SCENARIOS[name], obs=ObsSpec(trace=True))
        report, observer = run_traced(spec)
        attribs = decompose(observer.collector, report.requests, report.sim_time_s)
        assert attribs, "scenario produced no requests"
        for a in attribs:
            _assert_exact(a)
        # The classifier agrees with the metrics layer on who violated.
        assert sum(1 for a in attribs if a.violated) == (
            report.metrics.num_requests - report.metrics.num_attained
        )

    def test_export_byte_identical_across_reruns(self):
        texts = []
        for _ in range(2):
            spec = _spec(**_SCENARIOS["chaos-crash-straggler"], obs=ObsSpec(trace=True))
            report, observer = run_traced(spec)
            attribs = decompose(observer.collector, report.requests, report.sim_time_s)
            payload = attribution_to_dict(
                attribs, report.sim_time_s, sampler=observer.sampler, chaos=report.chaos
            )
            texts.append(attribution_to_json(payload))
        assert texts[0] == texts[1]
        payload = json.loads(texts[0])
        assert payload["incident"]["num_requests"] > 0
        assert payload["totals"]["failover_redo"] > 0
        assert payload["totals"]["straggler_inflation"] > 0


class TestCollectorIndexes:
    def test_interleaved_append_and_query(self):
        collector = TraceCollector()
        collector.event(0.0, "enqueue", replica=0, rid=1)
        assert [e.kind for e in collector.for_request(1)] == ["enqueue"]
        # Appends after a query must be visible to the next query.
        collector.event(1.0, "prefill", replica=0, rid=1, dur=0.5)
        collector.event(2.0, "crash", replica=0)
        assert [e.kind for e in collector.for_request(1)] == ["enqueue", "prefill"]
        assert collector.for_request(99) == []

    def test_index_matches_linear_scan(self):
        collector = TraceCollector()
        for i in range(50):
            collector.event(float(i), "k" + str(i % 3), replica=0, rid=i % 5)
        for rid in range(5):
            assert collector.for_request(rid) == [
                e for e in collector.events if e.rid == rid
            ]


class TestSlowestTableAttribution:
    def _finished(self, rid, arrival, finish):
        return _finish(_req(rid=rid, arrival=arrival), arrival + 0.5, finish)

    def test_column_present_and_filled(self):
        reqs = [self._finished(0, 0.0, 5.0), self._finished(1, 0.0, 2.0)]
        table = format_slowest_table(
            reqs, attributions={0: "decode_compute"}
        )
        lines = table.splitlines()
        assert lines[0].rstrip().endswith("attribution")
        assert "decode_compute" in table
        assert "-" in lines[3]  # rid 1 has no attribution -> placeholder
        md = format_slowest_table(reqs, markdown=True, attributions={0: "decode_compute"})
        assert md.splitlines()[0].endswith("attribution |")

    def test_without_attributions_unchanged(self):
        table = format_slowest_table([self._finished(0, 0.0, 5.0)])
        assert "attribution" not in table


class TestExplainCLI:
    ARGS: ClassVar[list[str]] = [
        "explain",
        "--replicas", "2",
        "--faults", "crash:at=4,replica=1,restart=2",
        "--duration", "10",
        "--rps", "14",
        "--system", "vllm",
        "--seed", "0",
    ]

    def test_end_to_end_and_self_baseline(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "attrib.json"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "root cause" in stdout
        payload = json.loads(out.read_text())
        assert payload["schema_version"] >= 1
        assert payload["totals"]["failover_redo"] > 0

        # Same-seed rerun against its own export: zero diff, exit 0 even
        # with zero thresholds (the CI gate).
        assert main(
            [
                *self.ARGS,
                "--baseline", str(out),
                "--rel-threshold", "0",
                "--abs-threshold", "0",
            ]
        ) == 0
        assert "no significant attribution change" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "attrib.json"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        capsys.readouterr()
        doctored = json.loads(out.read_text())
        doctored["totals"]["decode_compute"] *= 0.5  # current looks 2x worse
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doctored))
        assert main([*self.ARGS, "--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.fixture
    def no_traced_run(self, monkeypatch):
        from repro.analysis import runner

        def refuse(*args, **kwargs):
            raise AssertionError("the traced run started before the baseline was read")

        monkeypatch.setattr(runner, "run_traced", refuse)

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys, no_traced_run):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main([*self.ARGS, "--baseline", str(missing)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["null", "[]", '{"x": 1}', '{"totals": 3}'])
    def test_baseline_that_is_not_an_export_exits_2(self, text, tmp_path, capsys, no_traced_run):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(text)
        assert main([*self.ARGS, "--baseline", str(baseline)]) == 2
        assert "not an attribution export" in capsys.readouterr().err

    def test_markdown_tables_on_stdout(self, tmp_path, capsys):
        from repro.cli import main

        assert main([*self.ARGS, "--markdown"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.lstrip().startswith("| category |")
