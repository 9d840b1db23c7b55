"""Bit-identity of the columnar workload substrate (repro.workloads.batcharrivals).

Every trace factory switches to the vectorized path when the batch is
large enough; the contract is that the
switch is *invisible* — same seeds, byte-for-byte the same requests.
Each test generates a workload with the vector path enabled, flips
``batcharrivals.DISABLED``, regenerates through the scalar path, and
compares every schedulable field with exact (IEEE-754 bit) equality.
The tiny-dataset cases pin the dataset-name seeding rule: length draws
hash the *distribution's own* name, not the registry key it sits under
(tests remap every key to one tiny dataset).
"""

from __future__ import annotations

import pytest

from repro.registry import TRACES
from repro.workloads import batcharrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.sessions import SessionGenerator

from tests.conftest import tiny_generator

@pytest.fixture
def scalar_toggle():
    """Restore the module toggle no matter how the test exits."""
    saved = batcharrivals.DISABLED
    yield
    batcharrivals.DISABLED = saved


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


def _assert_workloads_identical(vec, scalar):
    assert len(vec) == len(scalar)
    for v, s in zip(vec, scalar):
        assert _fields(v) == _fields(s)


def _both_paths(make):
    """(vector, scalar) workloads from a zero-arg factory."""
    batcharrivals.DISABLED = False
    vec = make()
    batcharrivals.DISABLED = True
    scalar = make()
    return vec, scalar


class TestByteIdentity:
    @pytest.mark.parametrize("kind", TRACES.names())
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_trace_kind_matches_scalar(
        self, target_roofline, scalar_toggle, kind, seed
    ):
        def make():
            gen = WorkloadGenerator(target_roofline, seed=seed)
            return TRACES.create(kind, gen, 60.0, 4.0)

        vec, scalar = _both_paths(make)
        assert len(vec) >= batcharrivals.MIN_BATCH  # the gate actually opened
        _assert_workloads_identical(vec, scalar)

    @pytest.mark.parametrize("kind", ["steady", "sessions"])
    def test_tiny_dataset_remap_matches_scalar(
        self, target_roofline, scalar_toggle, kind
    ):
        # Every registry key mapped to one shared dataset: the length
        # hash prefix must follow the dataset's own name ("tiny").
        def make():
            return TRACES.create(kind, tiny_generator(target_roofline), 30.0, 5.0)

        _assert_workloads_identical(*_both_paths(make))

    def test_custom_mix_matches_scalar(self, target_roofline, scalar_toggle):
        mix = {"coding": 0.6, "chatbot": 0.4}

        def make():
            gen = WorkloadGenerator(target_roofline, seed=3)
            return gen.steady(40.0, 4.0, mix=mix)

        vec, scalar = _both_paths(make)
        _assert_workloads_identical(vec, scalar)
        assert {r.category for r in vec} <= set(mix)

    def test_session_prompt_segments_match_scalar(
        self, target_roofline, scalar_toggle
    ):
        def make():
            gen = WorkloadGenerator(target_roofline, seed=11)
            return SessionGenerator(
                gen, turns=4, system_prompt=128, think_time_s=2.0
            ).generate(45.0, 4.0)

        vec, scalar = _both_paths(make)
        _assert_workloads_identical(vec, scalar)
        # Both the shared-system-prompt and session segments survived.
        assert any(len(r.prompt_segments) == 2 for r in vec)


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
