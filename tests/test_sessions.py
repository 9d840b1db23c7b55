"""Tests for multi-turn session workloads and prefix-affinity routing."""

from __future__ import annotations

import pytest

from repro.analysis.spec import ExperimentSpec, apply_axis
from repro.cluster.router import PrefixAffinityRouter
from repro.prefixcache.tokens import request_block_keys
from repro.registry import TRACES, SpecError
from repro.workloads.sessions import SessionGenerator
from tests.conftest import block_identities, make_request, tiny_generator


@pytest.fixture
def session_requests(target_roofline):
    gen = tiny_generator(target_roofline, seed=11)
    return SessionGenerator(
        gen, turns=4, system_prompt=64, think_time_s=1.0
    ).generate(duration_s=30.0, rps=4.0)


class TestSessionGenerator:
    def test_deterministic(self, target_roofline, session_requests):
        again = SessionGenerator(
            tiny_generator(target_roofline, seed=11),
            turns=4, system_prompt=64, think_time_s=1.0,
        ).generate(duration_s=30.0, rps=4.0)
        assert [
            (r.rid, r.arrival_time, r.prompt_len, r.session_id, r.prompt_segments)
            for r in session_requests
        ] == [
            (r.rid, r.arrival_time, r.prompt_len, r.session_id, r.prompt_segments)
            for r in again
        ]

    def test_rids_follow_arrival_order(self, session_requests):
        arrivals = [r.arrival_time for r in session_requests]
        assert arrivals == sorted(arrivals)
        assert [r.rid for r in session_requests] == list(range(len(session_requests)))
        assert all(r.arrival_time < 30.0 for r in session_requests)

    def test_sessions_are_multi_turn_and_growing(self, session_requests):
        by_session: dict[int, list] = {}
        for r in session_requests:
            by_session.setdefault(r.session_id, []).append(r)
        multi = [s for s in by_session.values() if len(s) > 1]
        assert multi, "expected at least one multi-turn session in the window"
        for turns in multi:
            turns.sort(key=lambda r: r.turn_index)
            for a, b in zip(turns, turns[1:]):
                assert b.turn_index == a.turn_index + 1
                assert b.arrival_time > a.arrival_time
                # History grows by last turn's user message + answer.
                assert b.prompt_len > a.prompt_len

    def test_turn_prompt_extends_previous_context(self, session_requests):
        """The prefix-reuse invariant: turn k+1's token stream starts with
        turn k's full prompt + generated answer, so its block chain over
        that context equals turn k's."""
        by_session: dict[int, list] = {}
        for r in session_requests:
            by_session.setdefault(r.session_id, []).append(r)
        checked = 0
        for turns in by_session.values():
            turns.sort(key=lambda r: r.turn_index)
            for a, b in zip(turns, turns[1:]):
                context = a.prompt_len + a.max_new_tokens
                for block_size in (1, 16):
                    assert request_block_keys(b, context, block_size) == (
                        request_block_keys(a, context, block_size)
                    )
                checked += 1
        assert checked > 0

    def test_system_prompt_shared_across_sessions(self, session_requests):
        firsts = [r for r in session_requests if r.turn_index == 0]
        assert len({r.session_id for r in firsts}) > 1
        a, b = firsts[0], firsts[1]
        ids_a = block_identities(request_block_keys(a, 80, 16))
        ids_b = block_identities(request_block_keys(b, 80, 16))
        assert ids_a[:4] == ids_b[:4]  # the system prompt's 64 tokens
        assert ids_a[4] != ids_b[4]  # then they diverge

    def test_categories_constant_within_session(self, session_requests):
        by_session: dict[int, set] = {}
        for r in session_requests:
            by_session.setdefault(r.session_id, set()).add(r.category)
        assert all(len(cats) == 1 for cats in by_session.values())

    def test_parameter_validation(self, target_roofline):
        gen = tiny_generator(target_roofline)
        with pytest.raises(ValueError):
            SessionGenerator(gen, turns=0)
        with pytest.raises(ValueError):
            SessionGenerator(gen, system_prompt=-1)
        with pytest.raises(ValueError):
            SessionGenerator(gen, think_time_s=-0.1)
        with pytest.raises(KeyError):
            SessionGenerator(gen).generate(10.0, 2.0, mix={"nope": 1.0})


class TestTraceRegistration:
    def test_sessions_and_agentic_registered(self):
        names = TRACES.names()
        assert "sessions" in names and "agentic" in names

    def test_canonicalization_drops_defaults(self):
        assert TRACES.canonical("sessions") == "sessions"
        assert (
            TRACES.canonical("sessions:turns=6,system_prompt=256,think_time=4.0")
            == "sessions"
        )
        assert TRACES.canonical("agentic:turns=10") == "agentic"
        assert TRACES.canonical("sessions:turns=3") == "sessions:turns=3"

    def test_factory_produces_session_requests(self, target_roofline):
        gen = tiny_generator(target_roofline, seed=2)
        reqs = TRACES.create("agentic", gen, 12.0, 4.0, turns=3, system_prompt=32)
        assert reqs
        assert all(r.session_id is not None for r in reqs)
        assert all(r.prompt_segments for r in reqs)

    def test_grid_axis_over_trace_params(self):
        base = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0,
            trace="sessions",
        )
        cell = apply_axis(base, "trace.turns", "3")
        assert cell.workload.trace == "sessions:turns=3"
        with pytest.raises(SpecError):
            apply_axis(base, "trace.nope", "3")

    def test_invalid_params_fail_at_parse_time(self):
        with pytest.raises(SpecError):
            TRACES.canonical("sessions:turns=0")
        with pytest.raises(SpecError):
            TRACES.canonical("sessions:think_time=-1")


class TestPrefixCacheSpec:
    def test_defaulted_prefix_knobs_share_keys(self):
        """Schema-v4 canonicalization: an explicit default equals omission."""
        implicit = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0
        )
        explicit = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0,
            prefix_cache=False,
        )
        assert implicit == explicit
        assert implicit.digest() == explicit.digest()

    def test_prefix_cache_forks_the_key(self):
        base = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0
        )
        cached = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0,
            prefix_cache=True,
        )
        assert base.digest() != cached.digest()
        assert cached.system.prefix_cache and not base.system.prefix_cache

    def test_round_trips_through_dict(self):
        spec = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0,
            trace="sessions:turns=3", prefix_cache=True,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_grid_axis_system_prefix_cache(self):
        base = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=4.0, duration_s=10.0, seed=0
        )
        on = apply_axis(base, "system.prefix_cache", "true")
        assert on.system.prefix_cache
        assert apply_axis(on, "system.prefix_cache", "false") == base
        with pytest.raises(SpecError):
            apply_axis(base, "system.prefix_cache", "maybe")


class _FakeReplica:
    def __init__(self, index, queued_tokens=0):
        self.index = index
        self.queued_tokens = queued_tokens


class TestPrefixAffinityRouter:
    def test_follow_up_turns_stick_to_home(self):
        router = PrefixAffinityRouter()
        replicas = [_FakeReplica(0, 50), _FakeReplica(1, 10), _FakeReplica(2, 99)]
        first = make_request(rid=1)
        first.session_id = 7
        assert router.route(first, replicas).index == 1  # least loaded
        replicas[1].queued_tokens = 1_000_000  # home became the busiest
        follow = make_request(rid=2)
        follow.session_id = 7
        assert router.route(follow, replicas).index == 1  # still sticky

    def test_sessionless_requests_route_least_loaded(self):
        router = PrefixAffinityRouter()
        replicas = [_FakeReplica(0, 50), _FakeReplica(1, 10)]
        assert router.route(make_request(rid=1), replicas).index == 1
        assert not router._home

    def test_unroutable_home_falls_back_and_rehomes(self):
        router = PrefixAffinityRouter()
        replicas = [_FakeReplica(0, 50), _FakeReplica(1, 10)]
        first = make_request(rid=1)
        first.session_id = 3
        assert router.route(first, replicas).index == 1
        # Replica 1 drained out of the routable set.
        survivors = [_FakeReplica(0, 50), _FakeReplica(2, 80)]
        follow = make_request(rid=2)
        follow.session_id = 3
        assert router.route(follow, survivors).index == 0
        assert router._home[3] == 0  # re-homed for the rest of the session

    def test_forget_replica_unhomes_its_sessions(self):
        router = PrefixAffinityRouter()
        replicas = [_FakeReplica(0, 10), _FakeReplica(1, 50)]
        for sid, rid in ((1, 1), (2, 2)):
            req = make_request(rid=rid)
            req.session_id = sid
            router.route(req, replicas)
            replicas[0].queued_tokens = 100  # the second session homes on 1
        assert router._home == {1: 0, 2: 1}
        router.forget_replica(0)  # replica 0 crashed
        assert router._home == {2: 1}
