"""Bit-identity of the columnar workload substrate (repro.workloads.batcharrivals).

The columnar substrate is the one workload-generation path: every trace,
at every size, is built on numpy columns.  Its contract is the scalar
recipe, kept as the oracle in ``tests/conftest.py`` (one request and one
thinning candidate at a time through :mod:`repro._rng`): same seeds,
byte-for-byte the same requests.  Every test compares each schedulable
field with exact (IEEE-754 bit) equality.  The tiny-dataset cases pin
the dataset-name seeding rule: length draws hash the *distribution's own*
name, not the registry key it sits under (tests remap every key to one
tiny dataset).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import uniform
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.registry import TRACES
from repro.workloads.categories import CATEGORIES
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.sessions import SessionGenerator
from repro.workloads.trace import bursty_trace

from tests.conftest import (
    reference_bursty_trace,
    reference_from_arrivals,
    reference_sessions,
    reference_trace,
    tiny_generator,
)

ROOFLINE = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])


def _fields(r):
    """Every field generation controls, floats compared bit-exactly."""
    return (
        r.rid,
        r.category,
        r.arrival_time,
        r.prompt_len,
        r.max_new_tokens,
        r.tpot_slo,
        r.predictability,
        r.priority,
        r.session_id,
        r.turn_index,
        r.prompt_segments,
    )


def _assert_workloads_identical(shipped, oracle):
    assert [_fields(r) for r in shipped] == [_fields(r) for r in oracle]


#: Each trace kind's registered parameters, drawn across their ranges.
TRACE_PARAMS = {
    "bursty": st.fixed_dictionaries({"burstiness": st.floats(0.0, 0.99)}),
    "steady": st.just({}),
    "diurnal": st.fixed_dictionaries({"peak_to_trough": st.floats(1.0, 12.0)}),
    "phased": st.fixed_dictionaries({"base_rps": st.floats(0.01, 2.0)}),
    **{
        kind: st.fixed_dictionaries(
            {
                "turns": st.integers(1, 8),
                "system_prompt": st.sampled_from([0, 64, 512]),
                "think_time": st.floats(0.0, 8.0),
            }
        )
        for kind in ("sessions", "agentic")
    },
}

#: ``None`` (the default mix) or a custom mix over a subset of categories.
MIXES = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(sorted(CATEGORIES)), st.floats(0.05, 1.0), min_size=1
    ),
)


@st.composite
def trace_specs(draw):
    kind = draw(st.sampled_from(TRACES.names()))
    return TRACES.with_params(kind, **draw(TRACE_PARAMS[kind]))


class TestOnePath:
    def test_every_trace_kind_has_drawn_params(self):
        assert set(TRACE_PARAMS) == set(TRACES.names())

    @settings(max_examples=200, deadline=None)
    @given(
        spec=trace_specs(),
        seed=st.integers(0, 2**16),
        size=st.integers(0, 200),
        duration_s=st.floats(1.0, 40.0),
        mix=MIXES,
        tiny=st.booleans(),
    )
    def test_trace_matches_oracle_at_every_size(self, spec, seed, size, duration_s, mix, tiny):
        # ``size`` sets the expected request count, 0-200 across the old
        # 64-request threshold below which a scalar path used to run.
        rps = max(size, 0.05) / duration_s
        gen = tiny_generator(ROOFLINE, seed) if tiny else WorkloadGenerator(ROOFLINE, seed=seed)
        shipped = TRACES.create(spec, gen, duration_s, rps, mix=mix)
        _assert_workloads_identical(shipped, reference_trace(spec, gen, duration_s, rps, mix))
        if mix is not None and not spec.startswith("phased"):
            assert {r.category for r in shipped} <= set(mix)

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 200])
    def test_from_arrivals_matches_oracle_at_exact_sizes(self, n):
        gen = WorkloadGenerator(ROOFLINE, seed=n)
        arrivals = [uniform(n, i) * 100.0 for i in range(n)]  # unsorted
        _assert_workloads_identical(
            gen.from_arrivals(arrivals), reference_from_arrivals(gen, arrivals)
        )


class TestByteIdentity:
    @pytest.mark.parametrize("kind", TRACES.names())
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_trace_kind_matches_scalar(self, target_roofline, kind, seed):
        gen = WorkloadGenerator(target_roofline, seed=seed)
        _assert_workloads_identical(
            TRACES.create(kind, gen, 60.0, 4.0), reference_trace(kind, gen, 60.0, 4.0)
        )

    @pytest.mark.parametrize("kind", ["steady", "sessions"])
    def test_tiny_dataset_remap_matches_scalar(self, target_roofline, kind):
        # Every registry key mapped to one shared dataset: the length
        # hash prefix must follow the dataset's own name ("tiny").
        gen = tiny_generator(target_roofline)
        _assert_workloads_identical(
            TRACES.create(kind, gen, 30.0, 5.0), reference_trace(kind, gen, 30.0, 5.0)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        duration_s=st.floats(0.5, 400.0),
        rps=st.floats(0.01, 12.0),
        burstiness=st.floats(0.0, 0.99, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(duration_s=60.0, rps=4.0, burstiness=0.0, seed=0)
    def test_bursty_trace_matches_scalar(self, duration_s, rps, burstiness, seed):
        # The 512-point normalization grid (mean and max) and the
        # thinning rate: one vector shape, the scalar oracle's bits.
        assert bursty_trace(duration_s, rps, seed=seed, burstiness=burstiness) == (
            reference_bursty_trace(duration_s, rps, seed, burstiness)
        )

    def test_custom_mix_matches_scalar(self, target_roofline):
        mix = {"coding": 0.6, "chatbot": 0.4}
        gen = WorkloadGenerator(target_roofline, seed=3)
        shipped = gen.steady(40.0, 4.0, mix=mix)
        _assert_workloads_identical(
            shipped, reference_trace("steady", gen, 40.0, 4.0, mix=mix)
        )
        assert {r.category for r in shipped} <= set(mix)

    def test_session_prompt_segments_match_scalar(self, target_roofline):
        sgen = SessionGenerator(
            WorkloadGenerator(target_roofline, seed=11),
            turns=4,
            system_prompt=128,
            think_time_s=2.0,
        )
        shipped = sgen.generate(45.0, 4.0)
        _assert_workloads_identical(shipped, reference_sessions(sgen, 45.0, 4.0))
        # Both the shared-system-prompt and session segments survived.
        assert any(len(r.prompt_segments) == 2 for r in shipped)


class TestFromArrivalsOrdering:
    def test_unsorted_arrivals_are_sorted(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=0)
        reqs = gen.from_arrivals([3.0, 1.0, 2.0])
        assert [r.arrival_time for r in reqs] == [1.0, 2.0, 3.0]

    def test_ascending_input_order_is_pinned(self, target_roofline):
        # The ascending fast path (no re-sort) must hand identical
        # requests to the shuffled slow path: rid i belongs to the
        # i-th *sorted* arrival either way.
        arrivals = [0.5, 1.0, 1.0, 2.25, 4.0]
        asc = WorkloadGenerator(target_roofline, seed=5).from_arrivals(arrivals)
        shuffled = WorkloadGenerator(target_roofline, seed=5).from_arrivals(
            [1.0, 4.0, 0.5, 2.25, 1.0]
        )
        assert [_fields(a) for a in asc] == [_fields(b) for b in shuffled]
        assert [r.rid for r in asc] == [0, 1, 2, 3, 4]

    def test_ascending_detector(self):
        from repro.workloads.generator import _is_ascending

        assert _is_ascending([])
        assert _is_ascending([1.0])
        assert _is_ascending([1.0, 1.0, 2.0])
        assert not _is_ascending([2.0, 1.0])


class TestColumnarWorkload:
    def _work(self, target_roofline):
        from repro.workloads.trace import uniform_trace

        gen = WorkloadGenerator(target_roofline, seed=2)
        return gen.columnar_from_arrivals(uniform_trace(60.0, 4.0, seed=gen.seed))

    def test_materialize_slices_concatenate(self, target_roofline):
        work = self._work(target_roofline)
        full = work.materialize()
        split = work.materialize(0, 10) + work.materialize(10, len(work))
        assert [_fields(a) for a in full] == [_fields(b) for b in split]

    def test_column_store_bytes_per_request(self, target_roofline):
        # One-shot traces: 4 int64/float64 columns.  Session traces add
        # the 4 session columns (id, turn, namespace, segment tokens).
        work = self._work(target_roofline)
        assert work.nbytes == 32 * len(work)
        sessions = SessionGenerator(
            WorkloadGenerator(target_roofline, seed=2), turns=3
        ).columnar(30.0, 4.0)
        assert sessions.nbytes == 64 * len(sessions)

    def test_columnar_from_arrivals_rejects_bad_mix(self, target_roofline):
        gen = WorkloadGenerator(target_roofline, seed=0)
        with pytest.raises(KeyError):
            gen.columnar_from_arrivals([1.0, 2.0], mix={"nope": 1.0})
