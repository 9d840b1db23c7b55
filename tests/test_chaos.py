"""Tests for the deterministic chaos subsystem (repro.chaos).

Covers the fault grammar and seeded materialization, the ChaosSpec
config section, crash/evacuation mechanics at the replica level, the
fleet's autonomic recovery (re-queue, re-route, re-home, restart), the
router re-homing edge cases from the issue (mid-prefill crash, draining
crash, double crash), and the incident report.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.cache import config_key
from repro.analysis.export import report_to_dict
from repro.analysis.harness import make_scheduler
from repro.analysis.spec import ChaosSpec, ExperimentSpec
from repro.chaos import ChaosLog, FaultEvent, FaultSchedule, build_chaos_report
from repro.chaos.report import format_incident_table
from repro.cluster.fleet import FleetSimulator
from repro.cluster.replica import Replica
from repro.cluster.router import PrefixAffinityRouter, RoundRobinRouter
from repro.registry import FAULTS, SpecError
from repro.serving.request import RequestState
from tests.conftest import make_request
from tests.test_cluster import fleet_workload, small_engine, vllm_factory


def spec_events(specs, seed=0, window_s=100.0, num_replicas=3):
    return FaultSchedule.from_specs(
        specs, seed=seed, window_s=window_s, num_replicas=num_replicas
    ).events


# ----------------------------------------------------------------------
# Fault grammar + schedule materialization
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_explicit_crash(self):
        (event,) = spec_events(["crash:at=120,replica=1,restart=5"])
        assert event == FaultEvent(at_s=120.0, kind="crash", replica=1, restart_s=5.0)

    def test_explicit_straggler(self):
        (event,) = spec_events(["straggler:slow=2.5,at=30,replica=0,duration=40"])
        assert event.kind == "straggler"
        assert event.slow == 2.5
        assert event.duration_s == 40.0

    def test_scale_delay(self):
        (event,) = spec_events(["scale-delay:extra=7"])
        assert event == FaultEvent(at_s=0.0, kind="scale-delay", extra_s=7.0)

    def test_auto_draws_are_deterministic(self):
        a = spec_events(["crash", "straggler"], seed=11)
        b = spec_events(["crash", "straggler"], seed=11)
        assert a == b
        c = spec_events(["crash", "straggler"], seed=12)
        assert a != c

    def test_auto_time_inside_busy_middle(self):
        for seed in range(20):
            (event,) = spec_events(["crash"], seed=seed, window_s=100.0)
            assert 15.0 <= event.at_s <= 75.0

    def test_auto_replica_in_range(self):
        for seed in range(20):
            (event,) = spec_events(["crash"], seed=seed, num_replicas=4)
            assert 0 <= event.replica < 4

    def test_later_declaration_never_perturbs_earlier_draws(self):
        (alone,) = spec_events(["crash"], seed=3)
        first, _ = spec_events(["crash", "straggler"], seed=3)
        assert alone == first

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule(events=(FaultEvent(at_s=1.0, kind="crash", replica=0),))

    def test_canonicalization_drops_defaults(self):
        assert FAULTS.canonical("crash:restart=20") == "crash"
        assert FAULTS.canonical("straggler:slow=2.0") == "straggler"
        assert FAULTS.canonical("crash:at=120,replica=1") == "crash:at=120.0,replica=1"

    def test_invalid_spec_rejected(self):
        with pytest.raises(SpecError):
            spec_events(["crash:restart=-1"])
        with pytest.raises(SpecError):
            spec_events(["straggler:slow=0.5"])
        with pytest.raises(KeyError):
            spec_events(["meteor-strike"])


# ----------------------------------------------------------------------
# ChaosSpec config section
# ----------------------------------------------------------------------
class TestChaosSpec:
    def base(self, **kw):
        kw.setdefault("model", "llama70b")
        kw.setdefault("seed", 0)
        kw.setdefault("system", "vllm")
        kw.setdefault("rps", 2.0)
        kw.setdefault("duration_s", 4.0)
        return ExperimentSpec.create(**kw)

    def test_str_becomes_one_tuple(self):
        assert ChaosSpec(faults="crash").faults == ("crash",)
        assert ChaosSpec(faults=None).faults == ()

    def test_enabled(self):
        assert not ChaosSpec().enabled
        assert ChaosSpec(faults=("crash",)).enabled

    def test_chaos_forces_cluster_path(self):
        spec = self.base(faults=("crash",))
        assert spec.cluster.replicas == 1
        assert spec.is_cluster

    def test_to_dict_omits_section_when_disabled(self):
        assert "chaos" not in self.base().to_dict()
        assert self.base(faults=("crash",)).to_dict()["chaos"] == {"faults": ["crash"]}

    def test_round_trip(self):
        spec = self.base(replicas=2, faults=("crash:at=120.0,replica=1", "straggler"))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_cache_key_canonicalizes_defaulted_knobs(self):
        # An explicitly defaulted knob and the bare name are one key; a
        # chaos section changes the key vs a chaos-free config.
        assert config_key(self.base(faults=("crash:restart=20",))) == config_key(
            self.base(faults=("crash",))
        )
        assert config_key(self.base(faults=("crash",))) != config_key(self.base())

    @pytest.mark.parametrize(
        "fault", ["crash:at=1,replica=2", "straggler:at=1,replica=5,slow=2.0"]
    )
    def test_replica_outside_fleet_rejected(self, fault):
        with pytest.raises(SpecError, match=r"replicas 0\.\.1"):
            self.base(replicas=2, faults=(fault,))

    def test_autoscale_ceiling_bounds_replica(self):
        # The autoscaler's ceiling (2x the initial fleet by default), not
        # the initial fleet, bounds which replicas can ever be hit.
        spec = self.base(replicas=2, autoscale={}, faults=("straggler:replica=3",))
        assert spec.cluster.max_replicas == 4
        with pytest.raises(SpecError, match=r"replicas 0\.\.3"):
            self.base(replicas=2, autoscale={}, faults=("crash:replica=4",))

    def test_cli_exits_nonzero_on_unreachable_fault(self, capsys):
        from repro.cli import main

        argv = ["cluster", "--replicas", "2", "--no-cache",
                "--faults", "crash:at=1,replica=5"]
        assert main(argv) == 2
        assert "replicas 0..1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fleet recovery (integration)
# ----------------------------------------------------------------------
def chaos_fleet(requests, schedule, router=None, replicas=3):
    return FleetSimulator(
        vllm_factory,
        requests,
        router if router is not None else RoundRobinRouter(),
        replicas,
        fault_schedule=schedule,
    )


class TestFleetRecovery:
    def test_crash_requeues_and_recovers(self):
        requests = fleet_workload(n=30, duration_s=8.0, rps=6.0)
        schedule = FaultSchedule.from_specs(
            ["crash:at=2,replica=1,restart=3"], seed=0, window_s=8.0, num_replicas=3
        )
        report = chaos_fleet(requests, schedule).run()
        chaos = report.chaos
        assert chaos is not None
        assert chaos["num_crashes"] == 1
        (crash,) = chaos["crashes"]
        assert crash["replica"] == 1
        assert crash["restart_at_s"] == 5.0
        assert crash["requests_lost"] == 0
        assert chaos["requests_lost"] == 0
        # Every in-flight request on the dead replica was re-queued and
        # finished elsewhere (or back on the restarted replica).
        assert all(r.is_finished for r in report.summary.requests)
        disrupted = [r for r in report.summary.requests if r.failover_count > 0]
        assert len(disrupted) == crash["requeued"] > 0
        assert {e["kind"] for e in chaos["events"]} == {"crash", "restart"}

    def test_fixed_seed_chaos_run_is_byte_identical(self):
        def run_once():
            requests = fleet_workload(n=30, duration_s=8.0, rps=6.0)
            schedule = FaultSchedule.from_specs(
                ["crash:at=2,replica=1,restart=3", "straggler:at=1,replica=0,slow=1.5"],
                seed=7,
                window_s=8.0,
                num_replicas=3,
            )
            report = chaos_fleet(requests, schedule).run()
            return json.dumps(report_to_dict(report.summary), sort_keys=True)

        assert run_once() == run_once()

    def test_empty_schedule_bit_identical_to_none(self):
        def run_with(schedule):
            requests = fleet_workload(n=30, duration_s=8.0, rps=6.0)
            report = chaos_fleet(requests, schedule).run()
            return json.dumps(report_to_dict(report.summary), sort_keys=True)

        assert run_with(None) == run_with(FaultSchedule())

    def test_straggler_degrades_then_restores(self):
        requests = fleet_workload(n=30, duration_s=8.0, rps=6.0)
        schedule = FaultSchedule.from_specs(
            ["straggler:at=1,replica=0,slow=3.0,duration=4"],
            seed=0,
            window_s=8.0,
            num_replicas=3,
        )
        fleet = chaos_fleet(requests, schedule)
        report = fleet.run()
        chaos = report.chaos
        kinds = [e["kind"] for e in chaos["events"]]
        assert kinds == ["straggler", "straggler-end"]
        assert chaos["num_stragglers"] == 1
        # The degradation window closed: the engine is healthy again.
        assert fleet.replicas[0].engine.slow_factor == 1.0
        assert all(r.is_finished for r in report.summary.requests)

    def test_unbounded_straggler_slows_run(self):
        requests = fleet_workload(n=30, duration_s=8.0, rps=6.0)

        def sim_time(specs):
            schedule = (
                FaultSchedule.from_specs(specs, seed=0, window_s=8.0, num_replicas=3)
                if specs
                else None
            )
            reqs = [r.fresh_copy() for r in requests]
            return chaos_fleet(reqs, schedule).run().summary.sim_time_s

        assert sim_time(["straggler:at=0,replica=0,slow=4.0"]) > sim_time(None)

    def test_crash_on_single_replica_fleet_queues_until_restart(self):
        # Degenerate but must not drop requests: the only replica dies,
        # arrivals queue on it, and everything completes after restart.
        requests = fleet_workload(n=10, duration_s=6.0, rps=2.0)
        schedule = FaultSchedule.from_specs(
            ["crash:at=1,replica=0,restart=2"], seed=0, window_s=6.0, num_replicas=1
        )
        report = chaos_fleet(requests, schedule, replicas=1).run()
        assert all(r.is_finished for r in report.summary.requests)
        assert report.chaos["requests_lost"] == 0

    def test_prefix_affinity_rehomes_after_crash(self):
        router = PrefixAffinityRouter()
        requests = fleet_workload(n=24, duration_s=8.0, rps=4.0)
        for i, req in enumerate(requests):
            req.session_id = i % 4
        schedule = FaultSchedule.from_specs(
            ["crash:at=2,replica=0,restart=4"], seed=0, window_s=8.0, num_replicas=3
        )
        report = chaos_fleet(requests, schedule, router=router).run()
        assert all(r.is_finished for r in report.summary.requests)
        # No session can still be homed on the crashed replica at the
        # crash instant; homes seen afterwards are legitimate re-homes.
        assert report.chaos["num_crashes"] == 1


# ----------------------------------------------------------------------
# Edge cases from the issue (unit level)
# ----------------------------------------------------------------------
def make_replica(index=0, system="vllm", seed=42):
    engine = small_engine(seed=seed)
    return Replica(index, engine, make_scheduler(system, engine))


class TestCrashEdgeCases:
    def test_crash_mid_prefill_resets_and_requeues(self):
        # Sarathi chunks prefill (256-token budget), so one step leaves a
        # long prompt genuinely mid-prefill — the issue's "crash while a
        # session's turn is mid-prefill".
        replica = make_replica(system="sarathi")
        req = make_request(rid=1, prompt_len=1024, max_new_tokens=8)
        req.session_id = 9
        replica.admit(req, 0.0)
        replica.step()
        assert 0 < req.prefilled < req.prompt_len  # mid-prefill
        engine = small_engine(seed=43)
        victims = replica.crash(engine, make_scheduler("sarathi", engine))
        assert victims == [req]
        req.fail_over()  # what the fleet does to every victim
        assert req.state is RequestState.QUEUED
        assert req.prefilled == 0 and req.ctx == 0
        assert req.failover_count == 1
        # The fresh engine starts with an empty KV (all blocks were lost).
        assert replica.engine.kv.used_blocks == 0
        # The request is re-servable from scratch on any replica.
        other = make_replica(index=1, seed=44)
        other.admit(req, replica.local_now)
        while other.has_work():
            other.step()
        assert req.is_finished

    def test_crash_of_draining_replica_retires_immediately(self):
        requests = fleet_workload(n=12, duration_s=6.0, rps=3.0)
        fleet = chaos_fleet(requests, FaultSchedule(), replicas=3)
        fleet._chaos_log = ChaosLog()  # unit test: drive faults by hand
        victim = fleet.replicas[1]
        fleet._drain(victim)
        assert victim.draining
        fleet._apply_crash(
            FaultEvent(at_s=1.0, kind="crash", replica=1, restart_s=5.0), 1.0
        )
        # Drain + crash = immediate retirement: no restart is scheduled
        # and the replica never rejoins.
        assert victim.retired and not victim.draining and not victim.failed
        assert not any(e.kind == "restart" for e in fleet._chaos_events)
        (record,) = fleet._chaos_log.records
        assert record["was_draining"] is True
        assert record["restart_at_s"] is None

    def test_double_crash_same_replica_after_restart(self):
        requests = fleet_workload(n=40, duration_s=10.0, rps=6.0)
        schedule = FaultSchedule.from_specs(
            ["crash:at=1,replica=1,restart=2", "crash:at=5,replica=1,restart=2"],
            seed=0,
            window_s=10.0,
            num_replicas=3,
        )
        report = chaos_fleet(requests, schedule).run()
        chaos = report.chaos
        assert chaos["num_crashes"] == 2
        assert [c["replica"] for c in chaos["crashes"]] == [1, 1]
        kinds = [e["kind"] for e in chaos["events"]]
        assert kinds.count("restart") == 2
        assert all(r.is_finished for r in report.summary.requests)

    def test_crash_while_down_is_skipped(self):
        requests = fleet_workload(n=20, duration_s=8.0, rps=4.0)
        schedule = FaultSchedule.from_specs(
            # Second crash lands inside the first one's outage window.
            ["crash:at=1,replica=1,restart=6", "crash:at=3,replica=1,restart=6"],
            seed=0,
            window_s=8.0,
            num_replicas=3,
        )
        report = chaos_fleet(requests, schedule).run()
        chaos = report.chaos
        assert chaos["num_crashes"] == 1
        skipped = [e for e in chaos["events"] if e["kind"] == "crash-skipped"]
        assert len(skipped) == 1 and skipped[0]["reason"] == "already down"

    def test_crash_of_unknown_replica_is_skipped(self):
        requests = fleet_workload(n=10, duration_s=6.0, rps=2.0)
        schedule = FaultSchedule.from_specs(
            ["crash:at=1,replica=7"], seed=0, window_s=6.0, num_replicas=3
        )
        report = chaos_fleet(requests, schedule).run()
        assert report.chaos["num_crashes"] == 0
        (event,) = report.chaos["events"]
        assert event["kind"] == "crash-skipped"

    def test_crash_mid_straggler_does_not_unslow_fresh_engine(self):
        requests = fleet_workload(n=12, duration_s=6.0, rps=3.0)
        fleet = chaos_fleet(requests, FaultSchedule(), replicas=2)
        fleet._chaos_log = ChaosLog()  # unit test: drive faults by hand
        fleet._apply_fault(
            FaultEvent(at_s=1.0, kind="straggler", replica=0, slow=2.0, duration_s=5.0),
            1.0,
        )
        assert fleet.replicas[0].engine.slow_factor == 2.0
        fleet._apply_crash(
            FaultEvent(at_s=2.0, kind="crash", replica=0, restart_s=1.0), 2.0
        )
        # The crash swapped in a fresh, healthy engine.
        assert fleet.replicas[0].engine.slow_factor == 1.0
        # The stale straggler-end must not touch it (and logs nothing).
        before = len(fleet._chaos_log.records)
        fleet._apply_fault(
            FaultEvent(at_s=6.0, kind="straggler-end", replica=0, slow=2.0), 6.0
        )
        assert fleet.replicas[0].engine.slow_factor == 1.0
        assert len(fleet._chaos_log.records) == before

    def test_failed_replica_not_routable(self):
        replica = make_replica()
        assert replica.routable(now=0.0)
        replica.failed = True
        assert not replica.routable(now=0.0)


# ----------------------------------------------------------------------
# Incident report
# ----------------------------------------------------------------------
class TestIncidentReport:
    def crash_log(self, requeued=(1,)):
        log = ChaosLog()
        log.note(2.0, "crash", replica=0, restart_at_s=4.0, was_draining=False,
                 requeued=list(requeued))
        return log

    def finished(self, rid, arrival=2.5, finish=5.0, attained=True):
        req = make_request(rid=rid, arrival=arrival)
        req.state = RequestState.FINISHED
        req.finish_time = finish
        req.n_generated = req.max_new_tokens
        req.decode_start = arrival
        req.last_token_time = finish
        req.tpot_slo = 1e9 if attained else 0.0  # avg_tpot is finite > 0
        req.failover_count = 1
        return req

    def test_recovery_time_is_last_evacuee_finish(self):
        report = build_chaos_report(
            self.crash_log(requeued=(1, 2)),
            [self.finished(1, finish=5.0), self.finished(2, finish=7.5)],
            sim_time_s=10.0,
        )
        (crash,) = report["crashes"]
        assert crash["recovered_at_s"] == 7.5
        assert crash["recovery_time_s"] == 5.5
        assert report["mean_recovery_time_s"] == 5.5
        assert report["incident_windows"] == [[2.0, 7.5]]

    def test_lost_request_means_no_recovery(self):
        lost = make_request(rid=1, arrival=2.5)
        lost.failover_count = 1
        report = build_chaos_report(self.crash_log(), [lost], sim_time_s=10.0)
        (crash,) = report["crashes"]
        assert crash["requests_lost"] == 1
        assert crash["recovered_at_s"] is None
        assert crash["recovery_time_s"] is None
        assert report["requests_lost"] == 1
        # The incident window extends to end of run when never recovered.
        assert report["incident_windows"] == [[2.0, 10.0]]

    def test_incident_window_attainment_counts_arrivals_inside(self):
        inside_ok = self.finished(1, arrival=3.0)
        inside_bad = self.finished(2, arrival=4.0, attained=False)
        outside = self.finished(3, arrival=9.0)
        report = build_chaos_report(
            self.crash_log(requeued=(1,)),
            [inside_ok, inside_bad, outside],
            sim_time_s=10.0,
        )
        incident = report["incident"]
        assert incident["num_requests"] == 2
        assert incident["num_attained"] == 1
        assert incident["attainment"] == 0.5

    def test_overlapping_windows_merge(self):
        log = ChaosLog()
        log.note(2.0, "crash", replica=0, restart_at_s=3.0, was_draining=False,
                 requeued=[1])
        log.note(4.0, "crash", replica=1, restart_at_s=5.0, was_draining=False,
                 requeued=[2])
        report = build_chaos_report(
            log,
            [self.finished(1, finish=5.0), self.finished(2, arrival=4.5, finish=6.0)],
            sim_time_s=10.0,
        )
        assert report["incident_windows"] == [[2.0, 6.0]]

    def test_report_is_strict_json(self):
        lost = make_request(rid=1, arrival=2.5)
        lost.failover_count = 1
        report = build_chaos_report(self.crash_log(), [lost], sim_time_s=10.0)
        json.dumps(report, allow_nan=False)  # no NaN anywhere

    def test_markdown_table_renders(self):
        report = build_chaos_report(
            self.crash_log(), [self.finished(1)], sim_time_s=10.0
        )
        text = format_incident_table(report, markdown=True)
        assert text.startswith("| t (s) | event | replica | detail |")
        assert "- crashes: 1" in text
        plain = format_incident_table(report)
        assert "crash" in plain and "|" not in plain.splitlines()[0]
