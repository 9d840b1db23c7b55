"""Tests for the experiment harness and report formatting."""

from __future__ import annotations

import re

import pytest

from repro.analysis.harness import MODEL_SETUPS, build_setup, make_scheduler, run_once
from repro.analysis.report import (
    SeriesPoint,
    best_baseline,
    format_table,
    improvement_summary,
    point_from_metrics,
    series_table,
)
from repro.registry import SYSTEMS
from repro.serving.metrics import aggregate_metrics
from tests.conftest import make_request, tiny_generator


class TestHarness:
    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_setup("gpt5")

    @pytest.mark.parametrize("model", sorted(MODEL_SETUPS))
    def test_setups_build(self, model):
        setup = build_setup(model)
        engine = setup.build_engine()
        assert engine.target_roofline.baseline_decode_latency > 0

    def test_unknown_system(self):
        setup = build_setup("llama70b")
        with pytest.raises(KeyError):
            make_scheduler("nonsense", setup.build_engine())

    @pytest.mark.parametrize(
        "system,expected",
        [
            ("adaserve", "AdaServe"),
            ("vllm", "vLLM"),
            ("sarathi", "Sarathi-Serve"),
            ("vllm-spec:k=6", "vLLM-Spec(6)"),
            ("smartspec", "SmartSpec"),
            ("priority", "vLLM+Priority"),
            ("fastserve", "FastServe"),
            ("vtc", "VTC"),
        ],
    )
    def test_all_systems_instantiable(self, system, expected):
        setup = build_setup("llama70b")
        sched = make_scheduler(system, setup.build_engine())
        assert sched.name == expected

    @pytest.mark.parametrize("system", SYSTEMS.names())
    def test_idle_step_names_the_stuck_scheduler(self, system):
        sched = make_scheduler(system, build_setup("llama70b").build_engine())
        with pytest.raises(RuntimeError, match=f"^{re.escape(sched.name)} scheduler stuck: "):
            sched.step(0.0)

    def test_run_once_owns_its_requests(self):
        setup = build_setup("llama70b")
        reqs = tiny_generator(setup.target_roofline).steady(4.0, 2.0)
        report = run_once(setup, "vllm", reqs)
        assert sorted(map(id, report.requests)) == sorted(map(id, reqs))
        assert all(r.is_finished for r in reqs)

    def test_run_once_repeatable(self):
        setup = build_setup("llama70b")
        reqs = tiny_generator(setup.target_roofline).steady(4.0, 2.0)
        a = run_once(setup, "adaserve", [r.fresh_copy() for r in reqs])
        b = run_once(setup, "adaserve", [r.fresh_copy() for r in reqs])
        assert a.sim_time_s == b.sim_time_s
        assert a.metrics.attainment == b.metrics.attainment


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_point_from_metrics(self):
        req = make_request(rid=0, max_new_tokens=4, tpot_slo=1.0)
        req.advance_prefill(req.prompt_len)
        req.begin_decode(1, 0.0)
        req.commit_tokens(4, 2, 0.2)
        m = aggregate_metrics([req])
        p = point_from_metrics(2.5, "vLLM", m)
        assert p.x == 2.5
        assert p.attainment == 1.0

    def test_series_table_pivot(self):
        pts = [
            SeriesPoint(1.0, "A", 0.9, 100, 0.1, 2.0),
            SeriesPoint(1.0, "B", 0.8, 90, 0.2, 0.0),
            SeriesPoint(2.0, "A", 0.7, 80, 0.3, 1.5),
        ]
        table = series_table(pts, value="attainment")
        assert "0.900" in table and "0.800" in table and "0.700" in table
        assert "-" in table  # missing (2.0, B) cell

    def test_best_baseline_excludes_adaserve(self):
        pts = [
            SeriesPoint(1.0, "AdaServe", 0.99, 500, 0.01, 3.0),
            SeriesPoint(1.0, "vLLM", 0.5, 100, 0.5, 0.0),
            SeriesPoint(1.0, "vLLM-Spec(6)", 0.8, 300, 0.2, 2.0),
        ]
        best = best_baseline(pts, 1.0, "attainment")
        assert best.system == "vLLM-Spec(6)"

    def test_improvement_summary(self):
        pts = [
            SeriesPoint(1.0, "AdaServe", 0.95, 400, 0.05, 3.0),
            SeriesPoint(1.0, "vLLM-Spec(6)", 0.80, 200, 0.20, 2.0),
        ]
        summary = improvement_summary(pts)
        assert summary["max_violation_reduction"] == pytest.approx(4.0)
        assert summary["max_goodput_ratio"] == pytest.approx(2.0)

    def test_improvement_summary_inf_when_zero_violations(self):
        pts = [
            SeriesPoint(1.0, "AdaServe", 1.0, 400, 0.0, 3.0),
            SeriesPoint(1.0, "vLLM", 0.8, 200, 0.2, 0.0),
        ]
        assert improvement_summary(pts)["max_violation_reduction"] == float("inf")
