"""Lazy plain-decode counters against the eager per-request oracle.

Plain-decode schedulers keep token counts in a
:class:`~repro.serving.cohort.DecodeCohort` and write them to requests
only when something needs them.  These tests drive every plain-decode
system through KV pressure (a tiny cache), the ``max_batch_size`` cut,
the prefix cache, a crash evacuation and a horizon that leaves requests
unfinished, and require the run to match
:func:`tests.conftest.eager_plain_decode` bit for bit: every request
field, retirement order, KV coverage, phase times, every ``kv.ensure``
call and the router load after every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FastServeScheduler,
    PriorityScheduler,
    SarathiScheduler,
    VLLMScheduler,
    VTCScheduler,
)
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model.pair import ModelPair
from repro.prefixcache.manager import PrefixCacheManager
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request
from tests.conftest import eager_plain_decode, make_request

BLOCK = 16

_COMPARED = [f.name for f in fields(Request) if f.compare]


@cache
def _models():
    return (
        ModelPair.build(vocab_size=1000, seed=42, alignment=0.85, predictability=0.7),
        RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"]),
        RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"]),
    )


def _scheduler(system: str, engine: SimulatedEngine, batch: int, knob: int):
    if system == "vllm":
        return VLLMScheduler(engine, max_batch_size=batch)
    if system == "sarathi":
        return SarathiScheduler(engine, max_batch_size=batch, chunk_budget=16 * knob)
    if system == "priority":
        return PriorityScheduler(engine, max_batch_size=batch, urgent_batch_cap=knob)
    if system == "fastserve":
        return FastServeScheduler(engine, max_batch_size=batch, quanta=(knob, 2 * knob))
    return VTCScheduler(engine, max_batch_size=batch)


def _requests(shapes, prefix: bool) -> list[Request]:
    out = []
    for rid, (arrival, prompt, out_len, priority, session) in enumerate(shapes):
        req = make_request(
            rid=rid,
            category="abc"[session],
            arrival=arrival,
            prompt_len=prompt,
            max_new_tokens=out_len,
            priority=priority,
        )
        if prefix:
            shared = max(1, prompt // 2)
            req.session_id = session
            req.prompt_segments = ((0x51, shared), (0x60 + session, prompt - shared))
        out.append(req)
    return out


def _drive(point, lazy: bool):
    """Run one drawn point; return everything the oracle must match."""
    system, batch, knob, blocks, prefix, shapes, evacuate_at, steps = point
    pair, target, draft = _models()
    manager = PrefixCacheManager if prefix else KVCacheManager
    engine = SimulatedEngine(pair, target, draft, manager(blocks * BLOCK, BLOCK), seed=3)
    ensures = []
    ensure = engine.kv.ensure

    def recording_ensure(rid, tokens):
        ensures.append((rid, tokens))
        ensure(rid, tokens)

    engine.kv.ensure = recording_ensure
    scheduler = _scheduler(system, engine, batch, knob)
    if lazy:
        InvariantChecker().attach(engine, scheduler)
    pending = deque(sorted(_requests(shapes, prefix), key=lambda r: r.arrival_time))
    now = 0.0
    trace = []
    for i in range(steps):
        while pending and pending[0].arrival_time <= now:
            scheduler.admit(pending.popleft())
        if i == evacuate_at:
            for victim in scheduler.evacuate():
                victim.fail_over()
                scheduler.admit(victim)
        if not scheduler.has_work():
            if not pending:
                break
            now = pending[0].arrival_time
            continue
        latency = scheduler.step(now)
        trace.append((latency, scheduler.outstanding()))
        now += latency
    scheduler.finalize()
    requests = sorted(scheduler.all_requests(), key=lambda r: r.rid)
    return {
        "requests": [[getattr(r, name) for name in _COMPARED] for r in requests],
        "finished": [r.rid for r in scheduler.finished],
        "running": [r.rid for r in scheduler.running],
        "waiting": [r.rid for r in scheduler.waiting],
        "covered": dict(engine.kv.covered),
        "phase_times": engine.phase_times,
        "ensures": ensures,
        "trace": trace,
    }


SHAPES = st.lists(
    st.tuples(
        st.floats(0.0, 0.4, allow_nan=False),  # arrival
        st.integers(8, 100),  # prompt
        st.integers(1, 40),  # output
        st.integers(0, 1),  # priority
        st.integers(0, 2),  # session / category
    ),
    min_size=1,
    max_size=12,
)

POINTS = st.tuples(
    st.sampled_from(["vllm", "sarathi", "priority", "fastserve", "vtc"]),
    st.integers(1, 6),  # max_batch_size
    st.integers(1, 4),  # sarathi chunk / priority cap / fastserve quantum
    st.integers(10, 24),  # KV blocks: 10 fit any one request
    st.booleans(),  # prefix cache
    SHAPES,
    st.one_of(st.none(), st.integers(0, 60)),  # evacuate before this step
    st.integers(1, 400),  # horizon in steps
)


@settings(max_examples=150, deadline=None)
@given(POINTS)
def test_lazy_decode_matches_eager_oracle(point):
    with eager_plain_decode():
        want = _drive(point, lazy=False)
    assert _drive(point, lazy=True) == want


@pytest.mark.parametrize("system", ["vllm", "sarathi", "priority", "fastserve", "vtc"])
def test_oracle_points_exercise_pressure_and_the_cut(system):
    """A fixed point that preempts, cuts the batch and leaves work unfinished."""
    shapes = [(0.01 * i, 60 + 7 * i, 30 + i, i % 2, i % 3) for i in range(10)]
    point = (system, 3, 2, 12, True, shapes, 40, 150)
    got = _drive(point, lazy=True)
    with eager_plain_decode():
        assert got == _drive(point, lazy=False)
    preempted = sum(row[_COMPARED.index("preempt_count")] for row in got["requests"])
    assert preempted > 0
    assert got["running"] or got["waiting"]  # the horizon cut the run short


def test_decode_touches_only_joiners_and_finishers(engine, monkeypatch):
    """Between joining and finishing, a member's counters are not written."""
    s = VLLMScheduler(engine)
    reqs = [make_request(rid=i, prompt_len=16, max_new_tokens=20) for i in range(4)]
    for r in reqs:
        s.admit(r)
    now = s.step(0.0)  # prefill
    commits = []
    commit = Request.commit_tokens

    # Requests are slotted, so the spy goes on the class.
    def counting(req, count, ctx, t):
        commits.append(count)
        commit(req, count, ctx, t)

    monkeypatch.setattr(Request, "commit_tokens", counting)
    for _ in range(10):
        now += s.step(now)
    assert commits == [1, 1, 1, 1]  # the joining step, nothing since
    assert [r.n_generated for r in reqs] == [1] * 4
    assert [s._cohort.generated(r) for r in reqs] == [10] * 4
    all_requests = s.all_requests()
    assert [r.n_generated for r in all_requests] == [10] * 4
    assert commits == [1, 1, 1, 1, 9, 9, 9, 9]


class TestInvariantRule:
    def _decoding(self, engine):
        s = VLLMScheduler(engine)
        InvariantChecker().attach(engine, s)
        for i in range(3):
            s.admit(make_request(rid=i, prompt_len=16, max_new_tokens=30))
        now = s.step(0.0)
        for _ in range(5):
            now += s.step(now)
        return s

    def test_consistent_cohort_passes(self, engine):
        s = self._decoding(engine)
        before = s.inv.checker.checks
        s.inv.decode(s)
        assert s.inv.checker.checks == before + 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda c: setattr(c, "context", c.context + 1),
            lambda c: setattr(c, "_mark_sum", c._mark_sum + 1),
            lambda c: setattr(next(iter(c._members.values())), "mark", c.step - 2),
            lambda c: c._finish_at.clear(),
            lambda c: c._cross_at.clear(),
            lambda c: c.batch.pop(),
        ],
        ids=["context", "pending-total", "member-mark", "finish-bucket", "cross-bucket", "batch"],
    )
    def test_fires_on_desynchronized_cohort(self, engine, corrupt):
        s = self._decoding(engine)
        corrupt(s._cohort)
        with pytest.raises(InvariantViolation) as info:
            s.inv.decode(s)
        assert info.value.invariant == "lazy-decode"
