"""A run owns the requests it is given: one object per simulated request.

``run_once`` and ``ServingSimulator`` advance the requests they are
handed in place, without copying, and refuse a request that has already
run; a caller that reruns a workload hands each run ``fresh_copy()``s.
``Request`` is slotted, so every construction path must set every slot.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import fields

import pytest

import repro.analysis.runner as runner
from repro.analysis.export import report_to_json
from repro.analysis.harness import build_setup, make_scheduler, run_once
from repro.analysis.spec import ExperimentSpec
from repro.cluster.fleet import FleetSimulator
from repro.serving.request import _PRISTINE, Request, RequestState
from repro.serving.server import ServingSimulator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.sessions import SessionGenerator
from repro.workloads.trace import uniform_trace
from tests.conftest import make_request, tiny_generator

_NAMES = [f.name for f in fields(Request)]
#: The fields a run advances: every field from ``state`` on; the fields
#: before ``state`` are the workload item.
RUNTIME_FIELDS = _NAMES[_NAMES.index("state"):]


def _live_requests() -> int:
    gc.collect()
    return sum(isinstance(obj, Request) for obj in gc.get_objects())


def _tiny(setup) -> list[Request]:
    return tiny_generator(setup.target_roofline).steady(4.0, 2.0)


class TestOneCopy:
    def test_run_spec_holds_one_object_per_request(self, monkeypatch):
        spec = ExperimentSpec.create(
            model="llama70b", system="vllm", rps=8.0, duration_s=6.0, seed=3,
            trace="sessions", prefix_cache=True, metrics="streaming",
            replicas=2, router="prefix-affinity",
        )
        seen = []
        run = FleetSimulator.run

        def counting_run(fleet):
            seen.append((_live_requests(), len(fleet.requests)))
            return run(fleet)

        monkeypatch.setattr(FleetSimulator, "run", counting_run)
        before = _live_requests()
        report = runner.run_spec(spec)
        [(live, workload)] = seen
        assert workload == len(report.requests) > 0
        assert live - before == workload

    def test_report_returns_the_handed_requests(self):
        setup = build_setup("llama70b")
        requests = _tiny(setup)
        report = run_once(setup, "vllm", requests, replicas=2)
        assert sorted(map(id, report.requests)) == sorted(map(id, requests))


class TestFinishedRequestsAreRefused:
    def test_run_once_refuses_a_finished_request(self):
        setup = build_setup("llama70b")
        requests = _tiny(setup)
        first = run_once(setup, "adaserve", requests)
        with pytest.raises(ValueError, match=r"request \d+ has already run.*fresh_copy"):
            run_once(setup, "adaserve", requests)
        again = run_once(setup, "adaserve", [r.fresh_copy() for r in requests])
        assert report_to_json(again) == report_to_json(first)
        assert again.requests == first.requests

    def test_serving_simulator_refuses_a_finished_request(self):
        setup = build_setup("llama70b")
        requests = _tiny(setup)

        def simulate(reqs):
            engine = setup.build_engine()
            return ServingSimulator(engine, make_scheduler("vllm", engine), reqs).run()

        first = simulate(requests)
        with pytest.raises(ValueError, match=r"request \d+ has already run.*fresh_copy"):
            simulate(requests)
        again = simulate([r.fresh_copy() for r in requests])
        assert report_to_json(again) == report_to_json(first)
        assert again.requests == first.requests

    def test_names_the_first_request_that_ran(self):
        setup = build_setup("llama70b")
        requests = [make_request(rid=i, arrival=0.1 * i) for i in range(3)]
        requests[1].preempt_count = 1
        with pytest.raises(ValueError, match="request 1 has already run"):
            run_once(setup, "vllm", requests)

    @pytest.mark.parametrize("name", RUNTIME_FIELDS)
    def test_any_runtime_field_off_its_default_has_run(self, name):
        req = make_request()
        assert not req.has_run
        value = getattr(req, name)
        if name == "state":
            setattr(req, name, RequestState.RUNNING)
        elif name == "on_finish":
            setattr(req, name, print)
        else:
            setattr(req, name, 1 if value is not None else 0.5)
        assert req.has_run
        assert not req.fresh_copy().has_run

    def test_has_run_reads_every_runtime_field(self):
        # No field from ``state`` on is a cache outside run state.
        assert len(RUNTIME_FIELDS) == len(_PRISTINE)


class TestSlots:
    def test_requests_have_no_instance_dict(self):
        req = make_request()
        assert not hasattr(req, "__dict__")
        with pytest.raises(AttributeError):
            req.commit_tokens = None

    @pytest.mark.parametrize("trace", ["steady", "sessions"])
    def test_every_construction_path_sets_every_slot(self, target_roofline, trace):
        gen = WorkloadGenerator(target_roofline, seed=4)
        if trace == "sessions":
            work = SessionGenerator(gen, turns=3).columnar(20.0, 3.0)
        else:
            work = gen.columnar_from_arrivals(uniform_trace(20.0, 3.0, seed=gen.seed))
        built = work.materialize()
        assert built
        for req in built + [r.fresh_copy() for r in built] + [make_request()]:
            for name in _NAMES:
                getattr(req, name)  # an unset slot raises AttributeError
            assert not req.has_run

    def test_session_prompts_share_the_system_segment(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=4)
        built = SessionGenerator(gen, turns=3).columnar(20.0, 3.0).materialize()
        heads = {id(r.prompt_segments[0]) for r in built if len(r.prompt_segments) == 2}
        assert len(heads) == 1

    def test_pickle_round_trip(self):
        setup = build_setup("llama70b")
        requests = _tiny(setup)
        run_once(setup, "vllm", requests)
        for req in requests + [make_request()]:
            clone = pickle.loads(pickle.dumps(req))
            assert clone == req
            assert [getattr(clone, name) for name in _NAMES] == [
                getattr(req, name) for name in _NAMES
            ]
