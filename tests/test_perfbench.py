"""Unit tests for the perf-tracking subsystem (repro.perfbench).

The suite execution itself is covered by the benchmark smoke job (it
runs real simulations); here we pin the cheap pure parts: suite
composition, the stable result schema, and the baseline comparison
logic — perf regressions warn, fixed-seed digest divergence errors.
"""

from __future__ import annotations

import pytest

from repro.perfbench import build_suite, compare_to_baseline, gate_failures, latest_baseline
from repro.perfbench.suite import BENCH_SCHEMA_VERSION


def _result(names_and_rates, suite="full", digests=None):
    digests = digests or {}
    return {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "scenarios": [
            {"name": name, "iters_per_s": rate, **digests.get(name, {})}
            for name, rate in names_and_rates
        ],
        "aggregate": {
            "iters_per_s": sum(rate for _, rate in names_and_rates)
            / max(1, len(names_and_rates))
        },
    }


class TestSuiteComposition:
    def test_standard_scenarios(self):
        suite = build_suite(quick=False)
        assert [s.name for s in suite] == [
            "solo-adaserve",
            "fleet-4r",
            "sessions-prefix",
            "chaos-churn",
            "sweep-12pt",
        ]
        by_name = {s.name: s for s in suite}
        assert len(by_name["sweep-12pt"].specs) == 12
        assert by_name["fleet-4r"].specs[0].cluster.replicas == 4
        assert by_name["sessions-prefix"].specs[0].system.prefix_cache

    def test_chaos_scenario_declares_faults(self):
        by_name = {s.name: s for s in build_suite(quick=True)}
        spec = by_name["chaos-churn"].specs[0]
        assert spec.chaos.enabled
        assert spec.is_cluster
        kinds = [f.partition(":")[0] for f in spec.chaos.faults]
        assert kinds == ["crash", "straggler"]
        # Fault times must sit inside the quick trace so quick and full
        # runs exercise the same chaos path.
        assert all("at=" in f for f in spec.chaos.faults)

    def test_quick_uses_same_scenarios_shorter_traces(self):
        full = build_suite(quick=False)
        quick = build_suite(quick=True)
        assert [s.name for s in quick] == [s.name for s in full]
        for fs, qs in zip(full, quick):
            assert len(fs.specs) == len(qs.specs)
            for f, q in zip(fs.specs, qs.specs):
                assert q.workload.duration_s < f.workload.duration_s


class TestBaselineComparison:
    def test_no_warning_when_faster(self):
        current = _result([("a", 200.0), ("b", 300.0)])
        baseline = _result([("a", 100.0), ("b", 150.0)])
        summary, warnings, errors = compare_to_baseline(current, baseline)
        assert summary["comparable"]
        assert warnings == []
        assert errors == []
        assert summary["aggregate"]["speedup"] == 2.0
        assert summary["per_scenario"]["a"]["speedup"] == 2.0

    def test_warns_on_30_percent_drop(self):
        current = _result([("a", 60.0)])
        baseline = _result([("a", 100.0)])
        _, warnings, errors = compare_to_baseline(current, baseline)
        assert any("dropped" in w for w in warnings)
        assert errors == []

    def test_no_warning_within_threshold(self):
        current = _result([("a", 80.0)])
        baseline = _result([("a", 100.0)])
        _, warnings, _ = compare_to_baseline(current, baseline)
        assert warnings == []

    def test_suite_mismatch_is_flagged_but_compared(self):
        current = _result([("a", 100.0)], suite="quick")
        baseline = _result([("a", 100.0)], suite="full")
        summary, warnings, _ = compare_to_baseline(current, baseline)
        assert summary["comparable"]
        assert any("suite" in w for w in warnings)

    def test_embedded_sibling_suite_is_preferred(self):
        current = _result([("a", 100.0)], suite="quick")
        baseline = _result([("a", 400.0)], suite="full")
        baseline["quick"] = _result([("a", 100.0)], suite="quick")
        summary, warnings, _ = compare_to_baseline(current, baseline)
        assert warnings == []  # compared against the embedded quick run
        assert summary["per_scenario"]["a"]["speedup"] == 1.0

    def test_schema_mismatch_skips_comparison(self):
        current = _result([("a", 100.0)])
        baseline = _result([("a", 100.0)])
        baseline["bench_schema"] = -1
        summary, warnings, errors = compare_to_baseline(current, baseline)
        assert not summary["comparable"]
        assert warnings
        assert errors == []

    def test_unknown_scenarios_are_ignored(self):
        current = _result([("new-scenario", 10.0)])
        baseline = _result([("old-scenario", 99.0)])
        summary, warnings, errors = compare_to_baseline(current, baseline)
        assert summary["per_scenario"] == {}
        assert errors == []


class TestDigestGate:
    def test_matching_digests_pass(self):
        d = {"a": {"digest": "sha256:aaa"}}
        current = _result([("a", 100.0)], digests=d)
        baseline = _result([("a", 100.0)], digests=d)
        _, _, errors = compare_to_baseline(current, baseline)
        assert errors == []

    def test_diverged_digest_is_hard_error(self):
        current = _result([("a", 100.0)], digests={"a": {"digest": "sha256:aaa"}})
        baseline = _result([("a", 100.0)], digests={"a": {"digest": "sha256:bbb"}})
        _, warnings, errors = compare_to_baseline(current, baseline)
        assert len(errors) == 1
        assert "digest" in errors[0]
        assert warnings == []

    def test_digest_checked_against_embedded_sibling_suite(self):
        current = _result(
            [("a", 100.0)], suite="quick", digests={"a": {"digest": "sha256:aaa"}}
        )
        baseline = _result([("a", 100.0)], suite="full")
        baseline["quick"] = _result(
            [("a", 100.0)], suite="quick", digests={"a": {"digest": "sha256:bbb"}}
        )
        _, _, errors = compare_to_baseline(current, baseline)
        assert len(errors) == 1

    def test_cross_suite_digests_not_compared(self):
        # quick vs full traces legitimately differ; no determinism claim.
        current = _result(
            [("a", 100.0)], suite="quick", digests={"a": {"digest": "sha256:aaa"}}
        )
        baseline = _result(
            [("a", 100.0)], suite="full", digests={"a": {"digest": "sha256:bbb"}}
        )
        _, warnings, errors = compare_to_baseline(current, baseline)
        assert errors == []
        assert any("suite" in w for w in warnings)

    def test_scenario_missing_from_baseline_skipped(self):
        current = _result([("new", 100.0)], digests={"new": {"digest": "sha256:aaa"}})
        baseline = _result([("old", 100.0)], digests={"old": {"digest": "sha256:bbb"}})
        _, _, errors = compare_to_baseline(current, baseline)
        assert errors == []


class TestLatestBaseline:
    def test_picks_highest_pr_number(self, tmp_path):
        (tmp_path / "BENCH_PR5.json").write_text("{}")
        (tmp_path / "BENCH_PR12.json").write_text("{}")
        (tmp_path / "BENCH_PR6.json").write_text("{}")
        assert latest_baseline(tmp_path).name == "BENCH_PR12.json"

    def test_ignores_non_matching_names(self, tmp_path):
        (tmp_path / "BENCH_PRx.json").write_text("{}")
        (tmp_path / "BENCH_PR.json").write_text("{}")
        assert latest_baseline(tmp_path) is None

    def test_empty_directory(self, tmp_path):
        assert latest_baseline(tmp_path) is None


class TestPopulationGates:
    """``repro bench`` fails unless every population gate ran and passed."""

    @staticmethod
    def _row(**gates):
        return {"name": "population-100k", "gates": gates}

    def test_clean_row_passes(self):
        row = self._row(
            speedup={"min": 2.0, "value": 3.1, "ok": True},
            byte_identity={"value": True, "ok": True},
        )
        assert gate_failures(row) == []

    def test_failed_gate_is_an_error(self):
        row = self._row(
            peak_memory_mb={"max": 150, "value": 180.5, "ok": False},
            byte_identity={"value": False, "ok": False},
        )
        failures = gate_failures(row)
        assert len(failures) == 2
        assert "'peak_memory_mb'" in failures[0] and "<= 150" in failures[0]
        assert "== scalar" in failures[1]

    @pytest.mark.parametrize("row", [None, {}])
    def test_missing_row_is_an_error(self, row):
        (failure,) = gate_failures(row)
        assert failure.startswith("error:") and "missing" in failure

    def test_skipped_row_is_an_error(self):
        row = {
            "name": "population-100k",
            "skipped": "numpy unavailable; columnar substrate disabled",
        }
        (failure,) = gate_failures(row)
        assert failure.startswith("error:") and "numpy unavailable" in failure

    def test_row_without_gates_is_an_error(self):
        (failure,) = gate_failures({"name": "population-100k"})
        assert failure.startswith("error:")
