"""Tests for the SLO accounting math (§3), and the AdaServe scheduler's
inline A(r) and A_cap pinned against it (``tests/slo.py``)."""

from __future__ import annotations

import pytest

import repro.core.scheduler as scheduler_module
from repro._rng import fold_sum
from repro.core.scheduler import AdaServeScheduler
from tests.conftest import make_request
from tests.slo import (
    SLOClass,
    average_tpot,
    capped_requirement,
    is_on_track,
    min_accept_requirement,
)


class TestSLOClass:
    def test_valid(self):
        assert SLOClass("chat", 0.05).tpot_s == 0.05

    def test_invalid(self):
        with pytest.raises(ValueError):
            SLOClass("bad", 0.0)


class TestRequirement:
    def test_fresh_request_needs_one_iteration_worth(self):
        # No history: A = t_spec / tpot.
        a = min_accept_requirement(0.0, 0, 0.030, 0.030)
        assert a == pytest.approx(1.0)

    def test_behind_schedule_needs_more(self):
        # 100ms elapsed, 1 token done, 30ms iteration, 30ms SLO:
        # (0.1 + 0.03)/0.03 - 1 = 3.33
        a = min_accept_requirement(0.100, 1, 0.030, 0.030)
        assert a == pytest.approx(13 / 3 - 1)

    def test_ahead_of_schedule_negative(self):
        a = min_accept_requirement(0.010, 5, 0.030, 0.030)
        assert a < 0

    def test_scales_inverse_with_slo(self):
        tight = min_accept_requirement(0.1, 0, 0.03, 0.020)
        loose = min_accept_requirement(0.1, 0, 0.03, 0.150)
        assert tight > loose

    def test_validation(self):
        with pytest.raises(ValueError):
            min_accept_requirement(0.1, 0, 0.03, 0.0)
        with pytest.raises(ValueError):
            min_accept_requirement(-0.1, 0, 0.03, 0.05)

    def test_satisfying_requirement_attains_slo(self):
        # If exactly A(r) tokens are accepted, the post-iteration average
        # TPOT equals the SLO.
        elapsed, done, t_spec, slo = 0.20, 3, 0.04, 0.05
        a = min_accept_requirement(elapsed, done, t_spec, slo)
        new_avg = (elapsed + t_spec) / (done + a)
        assert new_avg == pytest.approx(slo)


class TestCap:
    def test_cap_applies(self):
        assert capped_requirement(10.0, 4) == 5.0

    def test_no_cap_when_small(self):
        assert capped_requirement(2.0, 4) == 2.0

    def test_negative_passthrough(self):
        assert capped_requirement(-1.0, 4) == -1.0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            capped_requirement(1.0, -1)


class TestTracking:
    def test_on_track_no_tokens(self):
        assert is_on_track(1.0, 0, 0.05)

    def test_on_track_boundary(self):
        assert is_on_track(0.10, 2, 0.05)
        assert not is_on_track(0.101, 2, 0.05)

    def test_average_tpot(self):
        assert average_tpot(0.5, 10) == pytest.approx(0.05)
        assert average_tpot(0.5, 0) == float("inf")


class _Stop(Exception):
    """Raised in place of the speculation kernel once ``step`` has planned."""


class TestSchedulerPins:
    """``AdaServeScheduler`` computes A(r) and A_cap inline; both must
    equal the oracle formulas bit for bit."""

    @pytest.mark.parametrize(
        "elapsed, generated, t_spec, slo",
        [(0.0, 0, 0.03, 0.05), (0.25, 4, 0.041, 0.02), (1.5, 90, 0.012, 0.15)],
    )
    def test_margin_requirement_is_a_of_r_at_the_margin_slo(
        self, engine, elapsed, generated, t_spec, slo
    ):
        s = AdaServeScheduler(engine, slo_margin=0.9)
        req = make_request(tpot_slo=slo, max_new_tokens=200)
        assert s._margin_requirement(req, 5.0, t_spec) == min_accept_requirement(
            0.0, 0, t_spec, slo * 0.9
        )  # not decoding yet: no elapsed time
        req.decode_start, req.n_generated = 0.0, generated
        assert s._margin_requirement(req, elapsed, t_spec) == min_accept_requirement(
            elapsed, generated, t_spec, slo * 0.9
        )

    def test_step_clamps_demand_at_a_cap(self, engine, monkeypatch):
        s = AdaServeScheduler(engine)
        # Six requests whose demand exceeds any depth, two that need little.
        for i, slo in enumerate([1e-4] * 6 + [0.2] * 2):
            r = make_request(rid=i, prompt_len=10, max_new_tokens=50, tpot_slo=slo)
            r.advance_prefill(10)
            r.begin_decode(engine.root_ctx(r), 0.0)
            s.running.append(r)
        batch = list(s.running)
        t_specs = []
        estimate = s._estimate_iteration_latency

        def recording_estimate(*args):
            t_specs.append(estimate(*args))
            return t_specs[-1]

        planned = {}

        def planning_only(pair, items, **kwargs):
            planned.update(kwargs, items=items)
            raise _Stop

        monkeypatch.setattr(s, "_estimate_iteration_latency", recording_estimate)
        monkeypatch.setattr(scheduler_module, "run_iteration", planning_only)
        with pytest.raises(_Stop):
            s.step(0.0)

        d_max = s.controller.config.d_max
        margin_slos = [r.tpot_slo * s.slo_margin for r in batch]
        demands = [
            capped_requirement(min_accept_requirement(0.0, 0, t_specs[0], slo), d_max)
            for slo in margin_slos
        ]
        assert max(demands) == d_max + 1  # the clamp binds
        typical = fold_sum(demands) / len(batch)
        want = max(s.verify_budget, min(3 * s.verify_budget, int(len(batch) * 2.0 * typical)))
        assert planned["budget"] == want
        assert planned["depth"] == d_max  # demand beyond any chain: deepest beam
        # Unclamped demands would have asked for the 3x ceiling instead.
        assert want < 3 * s.verify_budget
        assert [item.requirement for item in planned["items"]] == [
            min_accept_requirement(0.0, 0, t_specs[-1], slo) for slo in margin_slos
        ]
