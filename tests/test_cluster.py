"""Tests for the cluster layer: replicas, routers, autoscaler, fleet."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import report_to_dict
from repro.analysis.spec import ExperimentSpec
from repro.chaos.faults import FaultSchedule
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.fleet import FleetSimulator
from repro.cluster.replica import Replica
from repro.cluster.router import (
    AffinityRouter,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    make_router,
)
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model.pair import ModelPair
from repro.registry import ROUTERS, SpecError
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from tests.conftest import make_request, reference_metrics, tiny_generator


def small_engine(seed: int = 42) -> SimulatedEngine:
    """A fresh small engine (the conftest ``engine`` fixture, per call)."""
    pair = ModelPair.build(vocab_size=1000, seed=seed, alignment=0.85, predictability=0.7)
    target = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
    draft = RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"])
    return SimulatedEngine(pair, target, draft, KVCacheManager(200_000), seed=seed)


def vllm_factory(index: int):
    from repro.baselines.vllm import VLLMScheduler

    engine = small_engine(seed=100 + index)
    return engine, VLLMScheduler(engine)


def fleet_workload(n: int = 40, duration_s: float = 10.0, rps: float = 6.0):
    roofline = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
    return tiny_generator(roofline).steady(duration_s=duration_s, rps=rps)[:n]


def make_fleet(requests, router, replicas=3, **kwargs) -> FleetSimulator:
    return FleetSimulator(vllm_factory, requests, router, replicas, **kwargs)


class FakeReplica:
    """Stand-in with fixed load for router unit tests."""

    def __init__(self, index: int, queued_tokens: int = 0):
        self.index = index
        self.queued_tokens = queued_tokens


class TestRouters:
    def test_registry(self):
        for name in ROUTERS.names():
            assert make_router(name, seed=1).name == name
        with pytest.raises(KeyError):
            make_router("random")

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        replicas = [FakeReplica(i) for i in range(3)]
        picks = [router.route(make_request(rid=i), replicas).index for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_min_tokens(self):
        router = LeastLoadedRouter()
        replicas = [FakeReplica(0, 50), FakeReplica(1, 10), FakeReplica(2, 30)]
        assert router.route(make_request(), replicas).index == 1

    def test_least_loaded_tie_breaks_by_index(self):
        replicas = [FakeReplica(0, 10), FakeReplica(1, 10)]
        assert LeastLoadedRouter().route(make_request(), replicas).index == 0

    def test_p2c_considers_two_distinct(self):
        router = PowerOfTwoRouter(seed=7)
        replicas = [FakeReplica(i, queued_tokens=100 * i) for i in range(4)]
        # Whatever the sampled pair, the pick can never be the single
        # worst replica unless both samples landed on it — impossible
        # since samples are distinct.
        for rid in range(50):
            pick = router.route(make_request(rid=rid), replicas)
            assert pick.index != 3 or pick.queued_tokens < 300

    def test_p2c_deterministic_per_rid(self):
        replicas = [FakeReplica(i, queued_tokens=i) for i in range(5)]
        a = [PowerOfTwoRouter(seed=3).route(make_request(rid=r), replicas).index for r in range(20)]
        b = [PowerOfTwoRouter(seed=3).route(make_request(rid=r), replicas).index for r in range(20)]
        assert a == b
        c = [PowerOfTwoRouter(seed=4).route(make_request(rid=r), replicas).index for r in range(20)]
        assert a != c  # different seed, different stream

    def test_affinity_partitions_by_priority(self):
        router = AffinityRouter(reserved_fraction=0.5)
        replicas = [FakeReplica(i) for i in range(4)]
        urgent = make_request(rid=0, priority=0)
        relaxed = make_request(rid=1, priority=1)
        assert router.route(urgent, replicas).index in (0, 1)
        assert router.route(relaxed, replicas).index in (2, 3)

    def test_affinity_single_replica_serves_all(self):
        router = AffinityRouter()
        only = [FakeReplica(0)]
        assert router.route(make_request(priority=0), only).index == 0
        assert router.route(make_request(priority=1), only).index == 0

    def test_affinity_adaptive_reservation_tracks_urgent_share(self):
        router = AffinityRouter()
        # All-urgent traffic pushes the reservation to the ceiling (n-1).
        replicas = [FakeReplica(i) for i in range(4)]
        for rid in range(20):
            router.route(make_request(rid=rid, priority=0), replicas)
        assert router._num_reserved(4) == 3
        # Mostly-relaxed traffic shrinks it back down.
        for rid in range(200):
            router.route(make_request(rid=100 + rid, priority=1), replicas)
        assert router._num_reserved(4) == 1

    def test_affinity_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            AffinityRouter(reserved_fraction=1.0)


class TestAutoscaler:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_queue=1.0, scale_down_queue=2.0)

    @pytest.mark.parametrize("knob", ["warmup_s", "check_interval_s", "scale_up_queue"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, knob, value):
        with pytest.raises(SpecError, match=f"{knob} must be finite"):
            AutoscalerConfig(**{knob: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_warmup(self, value):
        with pytest.raises(SpecError, match="warmup_s must be finite"):
            ExperimentSpec.create(
                model="llama70b", system="vllm", rps=30.0, duration_s=20.0, seed=1,
                replicas=2, autoscale={"warmup_s": value, "max_replicas": 4},
            )

    def test_resolve_rejects_unknown_and_coerces_counts(self):
        config = AutoscalerConfig.resolve({"max_replicas": 6.0, "warmup_s": 1.5}, 2)
        assert config.max_replicas == 6 and type(config.max_replicas) is int
        assert config.warmup_s == 1.5
        with pytest.raises(KeyError):
            AutoscalerConfig.resolve({"bogus": 1}, 2)

    def _replica(self, index, queued, available_at=0.0):
        engine, scheduler = vllm_factory(index)
        replica = Replica(index, engine, scheduler, available_at=available_at)
        for rid in range(queued):
            replica.admit(make_request(rid=index * 100 + rid), 0.0)
        return replica

    def test_scales_up_on_deep_queues(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_queue=2.0, max_replicas=4))
        replicas = [self._replica(0, queued=5)]
        assert scaler.decide(0.0, replicas) == 1

    def test_scales_down_when_idle(self):
        scaler = Autoscaler(AutoscalerConfig(min_replicas=1, scale_down_queue=1.0))
        replicas = [self._replica(0, queued=0), self._replica(1, queued=0)]
        assert scaler.decide(0.0, replicas) == -1

    def test_respects_min_replicas(self):
        scaler = Autoscaler(AutoscalerConfig(min_replicas=1))
        assert scaler.decide(0.0, [self._replica(0, queued=0)]) == 0

    def test_throttled_by_check_interval(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_queue=2.0, check_interval_s=10.0))
        replicas = [self._replica(0, queued=5)]
        assert scaler.decide(0.0, replicas) == 1
        assert scaler.decide(5.0, replicas) == 0  # inside the interval
        assert scaler.decide(10.0, replicas) == 1

    def test_warming_replicas_dampen_scale_up(self):
        config = AutoscalerConfig(scale_up_queue=3.0, max_replicas=4)
        # Queue of 5 on one warm replica: mean depth 5 > 3 -> scale up.
        replicas = [self._replica(0, queued=5)]
        assert Autoscaler(config).decide(0.0, replicas) == 1
        # Same queue with capacity already warming: mean 5/2 < 3 -> hold.
        replicas.append(self._replica(1, 0, available_at=99.0))
        assert Autoscaler(config).decide(0.0, replicas) == 0

    def test_drain_victim_least_loaded_newest_first(self):
        scaler = Autoscaler(AutoscalerConfig(min_replicas=1))
        replicas = [FakeReplica(0, 10), FakeReplica(1, 30), FakeReplica(2, 10)]
        for r in replicas:
            r.retired = r.draining = r.failed = False
        # Replicas 0 and 2 tie on load; the autoscaled addition retires first.
        assert scaler.pick_drain_victim(replicas).index == 2
        replicas[2].draining = True
        assert scaler.pick_drain_victim(replicas).index == 0

    def test_drain_victim_keeps_min_replicas(self):
        scaler = Autoscaler(AutoscalerConfig(min_replicas=2))
        replicas = [FakeReplica(0, 10), FakeReplica(1, 30), FakeReplica(2, 10)]
        for r in replicas:
            r.retired = r.draining = r.failed = False
        replicas[0].failed = True  # two healthy replicas left: none may go
        assert scaler.pick_drain_victim(replicas) is None

    def test_resolve_defaults_ceiling_and_validates(self):
        config = AutoscalerConfig.resolve({}, initial_replicas=3)
        assert config.max_replicas == 6
        explicit = AutoscalerConfig.resolve({"max_replicas": 6}, initial_replicas=3)
        assert explicit == config
        with pytest.raises(ValueError, match="below"):
            AutoscalerConfig.resolve({"max_replicas": 2}, initial_replicas=3)


class TestFleetSimulator:
    def test_metrics_merge_equals_union_of_replica_requests(self):
        """Fleet RunMetrics == the metrics oracle over the union (property)."""
        fleet = make_fleet(fleet_workload(), RoundRobinRouter(), replicas=3)
        report = fleet.run()
        per_replica = [replica.requests() for replica in fleet.replicas]
        union = [req for requests in per_replica for req in requests]
        assert len(union) == report.metrics.num_requests
        assert reference_metrics(union) == report.metrics
        # Per-replica request sets are internally consistent with the merge.
        assert sum(len(requests) for requests in per_replica) == len(report.requests)
        assert sum(req.is_finished for req in union) == report.metrics.num_finished

    def test_summary_spans_the_last_iteration(self):
        fleet = make_fleet(fleet_workload(), RoundRobinRouter(), replicas=2)
        report = fleet.run()
        finishes = [
            req.finish_time
            for replica in fleet.replicas
            for req in replica.requests()
            if req.finish_time is not None
        ]
        assert report.sim_time_s >= max(finishes)

    def test_every_request_routed_exactly_once(self):
        requests = fleet_workload()
        fleet = make_fleet(requests, LeastLoadedRouter(), replicas=3)
        fleet.run()
        routed = sorted(
            req.rid for replica in fleet.replicas for req in replica.requests()
        )
        assert routed == sorted(r.rid for r in requests)

    @pytest.mark.parametrize("router_name", ROUTERS.names())
    def test_fixed_seed_runs_are_byte_identical(self, router_name):
        def run_once():
            report = make_fleet(
                fleet_workload(), make_router(router_name, seed=11), replicas=3
            ).run()
            return json.dumps(report_to_dict(report), sort_keys=True)

        assert run_once() == run_once()

    def test_single_replica_fleet_matches_serving_simulator(self):
        """A 1-replica fleet's report equals ``ServingSimulator.run``'s.

        Both run the same plain fleet, so every field matches exactly.
        """
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        requests = fleet_workload()
        fleet_report = make_fleet(requests, RoundRobinRouter(), replicas=1).run()

        engine = small_engine(seed=100)  # vllm_factory's replica-0 seed
        solo = ServingSimulator(
            engine, VLLMScheduler(engine), fleet_workload()
        ).run()
        assert fleet_report.metrics == solo.metrics
        assert fleet_report.iterations == solo.iterations
        assert fleet_report.sim_time_s == solo.sim_time_s
        assert fleet_report.phase_breakdown == solo.phase_breakdown

    def test_horizon_cutoff_matches_serving_simulator(self):
        """Under a horizon, a 1-replica fleet's report equals ``ServingSimulator.run``'s."""
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        horizon = 6.0
        fleet_report = make_fleet(
            fleet_workload(n=60, rps=12.0),
            RoundRobinRouter(),
            replicas=1,
            max_sim_time_s=horizon,
        ).run()
        engine = small_engine(seed=100)  # vllm_factory's replica-0 seed
        solo = ServingSimulator(
            engine,
            VLLMScheduler(engine),
            fleet_workload(n=60, rps=12.0),
            max_sim_time_s=horizon,
        ).run()
        assert solo.metrics.num_finished < 60  # the cap actually bites
        assert fleet_report.iterations == solo.iterations
        assert fleet_report.metrics == solo.metrics

    def test_pending_arrivals_reach_idle_replicas_at_horizon(self):
        """A capped replica must not end the run while an idle one can serve.

        R0's single giant prefill iteration crosses the horizon; the
        relaxed request arriving before the horizon must still be routed
        to idle R1 and counted (not silently dropped from metrics).
        """
        urgent = make_request(
            rid=0, priority=0, arrival=0.0,
            prompt_len=20000, max_new_tokens=100, tpot_slo=0.02,
        )
        relaxed = make_request(
            rid=1, priority=1, arrival=0.4,
            prompt_len=32, max_new_tokens=4, tpot_slo=1.0,
        )
        report = FleetSimulator(
            vllm_factory,
            [urgent, relaxed],
            AffinityRouter(reserved_fraction=0.5),
            2,
            max_sim_time_s=0.5,
        ).run()
        m = report.metrics
        assert m.num_requests == 2
        assert m.num_finished == 1  # relaxed served by R1; urgent capped

    def test_more_replicas_do_not_hurt_attainment(self):
        requests = fleet_workload(n=60, rps=12.0)
        one = make_fleet(fleet_workload(n=60, rps=12.0), RoundRobinRouter(), replicas=1).run()
        four = make_fleet(requests, RoundRobinRouter(), replicas=4).run()
        assert four.attainment >= one.attainment

    def test_routable_fallback_prefers_warming_over_draining(self):
        fleet = make_fleet(fleet_workload(n=5), RoundRobinRouter(), replicas=2)
        draining, warming = fleet.replicas
        # Drive the transitions through the fleet's bookkeeping (the
        # routable pool is maintained incrementally): drain replica 0,
        # and re-home replica 1 as a pending warm-up — the state _spawn
        # puts autoscaled additions in.
        fleet._drain(draining)
        warming.available_at = warming.local_now = 50.0
        fleet._pool.clear()
        fleet._warming.append(warming)
        assert fleet._routable(10.0) == [warming]
        # Only drainers left: still never drop a request.
        fleet._drain(warming)
        assert fleet._routable(10.0) == [draining, warming]

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            make_fleet([], RoundRobinRouter(), replicas=0)

    def test_autoscaler_adds_warm_up_delayed_replicas(self):
        config = AutoscalerConfig(
            min_replicas=1,
            max_replicas=3,
            check_interval_s=0.5,
            scale_up_queue=1.5,
            warmup_s=2.0,
        )
        fleet = make_fleet(
            fleet_workload(n=60, rps=20.0),
            LeastLoadedRouter(),
            replicas=1,
            autoscaler_config=config,
        )
        report = fleet.run()
        ups = [e for e in fleet.scale_events if e.action == "up"]
        assert ups, "deep queues at rps=20 on one replica must trigger scale-up"
        assert fleet.peak_live > 1
        # Peak counts concurrently live replicas and respects the ceiling
        # even if scale-down/scale-up cycles created more over the run.
        assert fleet.peak_live <= 3
        assert f"x{fleet.peak_live} " in report.scheduler_name
        # Scaled-up replicas only start serving after their warm-up.
        for event, replica in zip(ups, fleet.replicas[1:]):
            finished = [r for r in replica.requests() if r.first_token_time is not None]
            for req in finished:
                assert req.first_token_time >= event.time_s + config.warmup_s

    def test_cluster_config_fields_change_the_cache_key(self):
        from repro.analysis.runner import ExperimentSpec

        base = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0
        )
        cluster = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            replicas=2, router="p2c",
        )
        autoscaled = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            replicas=2, router="p2c", autoscale={"max_replicas": 4},
        )
        digests = {base.digest(), cluster.digest(), autoscaled.digest()}
        assert len(digests) == 3
        assert not base.is_cluster
        assert cluster.is_cluster and autoscaled.is_cluster

    def test_solo_config_canonicalizes_inert_router(self):
        from repro.analysis.runner import ExperimentSpec

        solo = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            router="p2c",  # no replicas/autoscale: router never consulted
        )
        default = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0
        )
        assert solo.cluster.router == "round-robin"
        assert solo.digest() == default.digest()

    def test_autoscale_defaults_canonicalized_in_cache_key(self):
        from repro.analysis.runner import ExperimentSpec

        implicit = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            replicas=2, autoscale={},
        )
        explicit = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            replicas=2, autoscale={"max_replicas": 4, "warmup_s": 5.0},
        )
        assert implicit.digest() == explicit.digest()
        assert implicit.is_cluster  # empty mapping still means "on"
        non_default = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
            replicas=2, autoscale={"max_replicas": 6},
        )
        assert non_default.digest() != implicit.digest()
        # Invalid ceilings fail at config construction, not mid-sweep.
        with pytest.raises(ValueError, match="below"):
            ExperimentSpec.create(
                model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=0,
                replicas=4, autoscale={"max_replicas": 2},
            )

    def test_config_rejects_unknown_router_and_bad_replicas(self):
        from repro.analysis.runner import ExperimentSpec

        with pytest.raises(ValueError):
            ExperimentSpec.create(
                model="llama70b", system="vllm", rps=2.0, duration_s=4.0,
                seed=0, router="dns",
            )
        with pytest.raises(ValueError):
            ExperimentSpec.create(
                model="llama70b", system="vllm", rps=2.0, duration_s=4.0,
                seed=0, replicas=0,
            )

    def test_run_cluster_rejects_ceiling_below_initial_fleet(self):
        from repro.analysis.harness import build_setup, run_once

        setup = build_setup("llama70b", seed=0)
        with pytest.raises(ValueError, match="below"):
            run_once(
                setup, "vllm", fleet_workload(n=5),
                replicas=4, autoscale={"max_replicas": 2},
            )

    def test_execute_point_dispatches_to_cluster(self):
        from repro.analysis.runner import ExperimentSpec, execute_point

        config = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=3.0, duration_s=4.0, seed=0,
            trace="steady", replicas=2, router="least-loaded",
        )
        record = execute_point(config)
        assert record["scheduler"] == "vLLM x2 [least-loaded]"
        assert record["metrics"]["num_requests"] > 0
        # Two invocations are identical (the cache round-trip contract).
        assert execute_point(config) == record

    def test_draining_replica_finishes_its_work(self):
        config = AutoscalerConfig(
            min_replicas=1,
            max_replicas=2,
            check_interval_s=0.5,
            scale_up_queue=2.0,
            scale_down_queue=1.0,
            warmup_s=0.5,
        )
        # Burst then silence: the fleet scales up, then drains back down.
        requests = fleet_workload(n=50, duration_s=4.0, rps=14.0)
        fleet = make_fleet(
            requests, LeastLoadedRouter(), replicas=1, autoscaler_config=config
        )
        report = fleet.run()
        routed = sorted(
            req.rid for replica in fleet.replicas for req in replica.requests()
        )
        assert routed == sorted(r.rid for r in requests)
        assert report.metrics.num_finished == len(requests)


def _straggled_fleet(requests):
    schedule = FaultSchedule.from_specs(
        ["straggler:at=1,replica=0,slow=2.0"], seed=0, window_s=10.0, num_replicas=1
    )
    return make_fleet(requests, RoundRobinRouter(), replicas=1, fault_schedule=schedule)


_SCALING = AutoscalerConfig(max_replicas=2, check_interval_s=0.5, warmup_s=1.0)

#: name -> (fleet builder, whether the fleet is plain)
REPORT_SHAPES = {
    "plain": (lambda reqs: make_fleet(reqs, RoundRobinRouter(), replicas=1), True),
    "empty-faults": (
        lambda reqs: make_fleet(
            reqs, RoundRobinRouter(), replicas=1, fault_schedule=FaultSchedule()
        ),
        True,
    ),
    "autoscaled": (
        lambda reqs: make_fleet(
            reqs, LeastLoadedRouter(), replicas=1, autoscaler_config=_SCALING
        ),
        False,
    ),
    "straggler": (_straggled_fleet, False),
    "three-replicas": (lambda reqs: make_fleet(reqs, RoundRobinRouter()), False),
}


class TestReportShape:
    """A plain fleet reports like its scheduler; any other like a cluster."""

    @pytest.mark.parametrize("shape", REPORT_SHAPES)
    def test_label_and_request_order(self, shape):
        build, plain = REPORT_SHAPES[shape]
        fleet = build(fleet_workload())
        report = fleet.run()
        rids = [req.rid for req in report.requests]
        if plain:
            assert report.scheduler_name == "vLLM"
            (replica,) = fleet.replicas
            assert rids == [req.rid for req in replica.requests()]
            # Scheduler order is finish order first, not rid order.
            assert rids != sorted(rids)
        else:
            assert report.scheduler_name == (
                f"vLLM x{fleet.peak_live} [{fleet.router.name}]"
            )
            assert rids == sorted(
                req.rid for replica in fleet.replicas for req in replica.requests()
            )
        assert (report.chaos is not None) == (shape == "straggler")
        assert report.metrics == reference_metrics(report.requests)

    def test_metrics_are_aggregated_once_per_run(self, monkeypatch):
        import repro.cluster.fleet as fleet_module
        import repro.cluster.replica as replica_module

        calls = []
        for module in (fleet_module, replica_module):
            original = module.aggregate_metrics

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "aggregate_metrics", counting)
        make_fleet(fleet_workload(), RoundRobinRouter(), replicas=3).run()
        assert len(calls) == 1
