"""Closed-form pass pricing and the pricing loops that reuse a shape's float.

The roofline prices every forward pass in closed form and keeps nothing
per shape.  The three loops that ask for one shape more than once (a
draft beam's levels, AdaServe's replayed levels, SmartSpec's draft pass
across candidate chain lengths) price it once and add the same float in
the same order; each is compared here, bit for bit, with the left fold
of one ``forward_latency`` call per level.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.smartspec import SmartSpecScheduler
from repro.core.scheduler import AdaServeScheduler
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS
from repro.model.pair import ModelPair
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager

#: A TP=1 and a TP=4 deployment (the latter prices communication).
DEPLOYMENTS = ("llama1b-1xa100", "llama70b-4xa100")

_PAIR = ModelPair.build(vocab_size=1000, seed=42, alignment=0.85, predictability=0.7)


def _engine(slow_factor: float = 1.0, graphs: bool = True) -> SimulatedEngine:
    engine = SimulatedEngine(
        _PAIR,
        RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"]),
        RooflineModel(DEPLOYMENT_PRESETS["llama1b-1xa100"]),
        KVCacheManager(capacity_tokens=200_000),
        seed=42,
    )
    engine.slow_factor = slow_factor
    engine.draft_graphs.enabled = graphs
    return engine


def _graph_counters(engine: SimulatedEngine) -> tuple[int, int, int]:
    g = engine.draft_graphs
    return g.captures, g.replays, g.eager_launches


def _folded_draft_cost(engine: SimulatedEngine, step_tokens, context: int) -> float:
    """``draft_cost`` as one roofline call per level."""
    total = 0.0
    for i, tokens in enumerate(step_tokens):
        if tokens <= 0:
            continue
        overhead = None if i == 0 else engine.draft_graphs.launch_overhead(tokens)
        total += engine.draft_roofline.forward_latency(tokens, context, launch_overhead=overhead)
    return total


class TestClosedForm:
    def test_pricing_retains_no_memory(self):
        rl = RooflineModel(DEPLOYMENT_PRESETS["llama70b-4xa100"])
        rl.forward_latency(1, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                rl.forward_latency(i + 1, 3 * i + 7)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1024, retained

    @pytest.mark.parametrize("preset", DEPLOYMENTS)
    def test_latency_is_the_cost_total(self, preset):
        rl = RooflineModel(DEPLOYMENT_PRESETS[preset])
        for batch in (0, 1, 7, 64, 513, 4096):
            for context in (0, 1, 999, 50_000):
                for launch in (None, 0.0, 1.0e-5, 2.0e-3):
                    assert rl.forward_latency(batch, context, launch) == (
                        rl.forward_cost(batch, context, launch).total
                    )


#: Beams with repeated, zero and fresh level widths, so levels both
#: reuse the level before and re-price; a run of beams warms the graphs.
BEAMS = st.lists(
    st.lists(st.sampled_from([0, 1, 4, 8, 8, 16, 64]), min_size=0, max_size=8).map(tuple),
    min_size=1,
    max_size=6,
)


class TestLoopReuse:
    @settings(max_examples=60, deadline=None)
    @given(
        beams=BEAMS,
        context=st.integers(0, 60_000),
        slow_factor=st.sampled_from([1.0, 2.5]),
        graphs=st.booleans(),
    )
    def test_draft_cost_is_the_per_level_fold(self, beams, context, slow_factor, graphs):
        # The healthy price at any slow factor: the pass running the beam slows it.
        shipped, folded = _engine(slow_factor, graphs), _engine(1.0, graphs)
        for beam in beams:
            assert shipped.draft_cost(beam, context) == _folded_draft_cost(folded, beam, context)
            assert _graph_counters(shipped) == _graph_counters(folded)

    def test_chain_step_counts_every_draft_level(self):
        shipped, folded = _engine(), _engine()
        for steps in (1, 4, 4, 8):
            expected = _folded_draft_cost(folded, (8,) * steps, 500)
            expected += folded.target_roofline.forward_latency(8 * steps, 500)
            expected += folded.step_overhead_s
            latency = shipped.speculative_step((8,) * steps, 8 * steps, 500, 0.0, [], (steps, 1, 0))
            assert latency == expected
            assert _graph_counters(shipped) == _graph_counters(folded)
        # One capture (the first graph-eligible level of width 8), then
        # every later level replays it: 2 + 3 + 7.
        assert _graph_counters(shipped) == (1, 12, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 256),
        d=st.integers(0, 8),
        w=st.integers(1, 6),
        context=st.integers(0, 200_000),
    )
    def test_adaserve_estimate_is_the_per_level_fold(self, n, d, w, context):
        engine = _engine()
        s = AdaServeScheduler(engine)
        draft = engine.draft_roofline
        t = 0.0
        if d > 0:
            t += draft.forward_latency(n, context)
        for _ in range(d - 1):
            t += draft.forward_latency(
                n * w, context, launch_overhead=engine.draft_graphs.replay_cost_s
            )
        t += engine.target_roofline.forward_latency(s.verify_budget, context)
        assert s._estimate_iteration_latency(n, d, w, context) == t + engine.step_overhead_s

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 256),
        context=st.integers(0, 200_000),
        ema=st.floats(0.05, 0.95),
        k_max=st.integers(1, 10),
    )
    def test_smartspec_latency_and_choice_reprice_per_k(self, n, context, ema, k_max):
        engine = _engine()
        s = SmartSpecScheduler(engine, k_max=k_max)
        s.acceptance_ema = ema
        draft, target = engine.draft_roofline, engine.target_roofline
        best_k, best_rate = 1, 0.0
        for k in range(1, k_max + 1):
            latency = (
                draft.forward_latency(n, context) * k
                + target.forward_latency(n * k, context)
                + engine.step_overhead_s
            )
            assert s._iteration_latency(k, n, context, draft.forward_latency(n, context)) == latency
            rate = n * (s._expected_accepted(k, ema) + 1.0) / latency
            if rate > best_rate:
                best_k, best_rate = k, rate
        assert s.choose_k(n, context) == best_k
