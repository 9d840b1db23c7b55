"""Tests for the CLI and result export."""

from __future__ import annotations

import json
from typing import ClassVar

import pytest

from repro import __version__ as repro_version
from repro.analysis.export import REPORT_SCHEMA_VERSION
from repro.analysis.export import (
    metrics_from_dict,
    metrics_to_dict,
    point_from_record,
    points_to_json,
    report_from_dict,
    report_to_dict,
    report_to_json,
)
from repro.analysis.report import SeriesPoint
from repro.cli import build_parser, main
from repro.serving.metrics import aggregate_metrics
from tests.conftest import make_request


def _finished_request(rid=0):
    req = make_request(rid=rid, max_new_tokens=4, tpot_slo=1.0)
    req.advance_prefill(req.prompt_len)
    req.begin_decode(1, 0.0)
    req.commit_tokens(4, 2, 0.2)
    return req


class TestExport:
    def test_metrics_roundtrip_fields(self):
        m = aggregate_metrics([_finished_request()])
        d = metrics_to_dict(m)
        assert d["num_requests"] == 1
        assert d["attainment"] == 1.0
        assert "coding" in d["per_category"]
        json.dumps(d)  # serializable

    def test_points_json_rows_sorted(self):
        pts = [
            SeriesPoint(2.0, "B", 0.8, 90.0, 0.2, 0.0),
            SeriesPoint(1.0, "A", 0.9, 100.0, 0.1, 2.0),
        ]
        rows = json.loads(points_to_json(pts))["points"]
        assert [SeriesPoint(**row) for row in rows] == pts[::-1]  # sorted by x

    def test_report_serialization(self, engine):
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=3)]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        d = report_to_dict(report)
        assert d["scheduler"] == "vLLM"
        assert d["metrics"]["num_finished"] == 1
        parsed = json.loads(report_to_json(report))
        assert parsed["iterations"] == report.iterations

    def test_metrics_dict_roundtrip(self):
        m = aggregate_metrics([_finished_request()])
        back = metrics_from_dict(metrics_to_dict(m))
        assert back == m
        assert back.attainment == m.attainment
        assert back.per_category.keys() == m.per_category.keys()

    def test_report_dict_roundtrip(self, engine):
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=3)]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        back = report_from_dict(report_to_dict(report))
        assert back.scheduler_name == report.scheduler_name
        assert back.metrics == report.metrics
        assert back.phase_breakdown == report.phase_breakdown
        assert back.iterations == report.iterations
        assert back.requests == []  # per-request detail is not serialized

    def test_point_from_record(self, engine):
        from repro.baselines.vllm import VLLMScheduler
        from repro.serving.server import ServingSimulator

        reqs = [make_request(rid=0, prompt_len=10, max_new_tokens=3)]
        report = ServingSimulator(engine, VLLMScheduler(engine), reqs).run()
        record = {"config": {"rps": 2.5}, "report": report_to_dict(report)}
        p = point_from_record(record)
        assert p.x == 2.5
        assert p.system == "vLLM"
        assert p.goodput == report.metrics.goodput


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--system", "vllm", "--rps", "2.0"])
        assert args.system == "vllm"
        args = parser.parse_args(["sweep", "--systems", "adaserve", "--rps", "2.0", "3.0"])
        assert args.rps == [2.0, 3.0]
        args = parser.parse_args(["profile", "--model", "qwen32b"])
        assert args.model == "qwen32b"

    def test_profile_command(self, capsys):
        assert main(["profile", "--model", "llama70b"]) == 0
        out = capsys.readouterr().out
        assert "baseline decode latency" in out
        assert "token budget" in out

    def test_run_command_small(self, capsys):
        rc = main(
            ["run", "--system", "vllm", "--rps", "1.0", "--duration", "4",
             "--trace", "steady"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "attainment" in out
        assert "category" in out

    def test_sweep_command_small(self, capsys):
        rc = main(
            ["sweep", "--systems", "vllm", "--rps", "1.0", "--duration", "4",
             "--trace", "steady", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO attainment" in out
        assert "Goodput" in out
        assert "cache: disabled" in out


class TestCLICluster:
    _CLUSTER: ClassVar[list[str]] = ["run", "--system", "vllm", "--replicas", "2", "--router", "p2c",
                "--rps", "3.0", "--duration", "4", "--trace", "steady", "--no-cache"]

    def test_cluster_command_runs(self, capsys):
        assert main(self._CLUSTER) == 0
        out = capsys.readouterr().out
        assert "vLLM x2 [p2c]" in out
        assert "router: p2c" in out

    def test_cluster_autoscale_flag(self, capsys):
        argv = [*self._CLUSTER, "--autoscale", "--max-replicas", "3", "--warmup", "1.0"]
        assert main(argv) == 0
        assert "autoscale: on" in capsys.readouterr().out

    def test_autoscale_knobs_require_autoscale_flag(self, capsys):
        assert main([*self._CLUSTER, "--max-replicas", "4"]) == 2
        assert "--autoscale" in capsys.readouterr().err
        assert main([*self._CLUSTER, "--warmup", "1.0"]) == 2

    def test_max_replicas_must_cover_initial_fleet(self, capsys):
        argv = [*self._CLUSTER, "--autoscale", "--max-replicas", "1"]
        assert main(argv) == 2
        assert "below the initial fleet size" in capsys.readouterr().err

    def test_sweep_accepts_cluster_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--replicas", "2", "--router", "least-loaded"]
        )
        assert args.replicas == 2
        assert args.router == "least-loaded"

    def test_sweep_router_requires_replicas(self, capsys):
        argv = ["sweep", "--systems", "vllm", "--rps", "1.0", "--duration", "4",
                "--trace", "steady", "--no-cache", "--router", "p2c"]
        assert main(argv) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_cluster_router_inert_without_fleet(self, capsys):
        argv = ["run", "--system", "vllm", "--replicas", "1", "--router", "p2c",
                "--rps", "3.0", "--duration", "4", "--trace", "steady", "--no-cache"]
        assert main(argv) == 2
        assert "no effect" in capsys.readouterr().err


class TestCLIOut:
    def test_run_out_writes_strict_report_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        argv = ["run", "--system", "vllm", "--rps", "1.0", "--duration", "4",
                "--trace", "steady", "--no-cache", "--out", str(out_file)]
        assert main(argv) == 0
        payload = json.loads(out_file.read_text())
        assert payload["scheduler"] == "vLLM"
        assert payload["metrics"]["num_requests"] > 0
        # Exports are self-describing: schema + package version embedded.
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["repro_version"] == repro_version
        assert "NaN" not in out_file.read_text()

    def test_sweep_out_writes_points_json(self, capsys, tmp_path):
        out_file = tmp_path / "points.json"
        argv = ["sweep", "--systems", "vllm", "--rps", "1.0", "2.0", "--duration", "4",
                "--trace", "steady", "--no-cache", "--out", str(out_file)]
        assert main(argv) == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["repro_version"] == repro_version
        points = payload["points"]
        assert sorted(p["x"] for p in points) == [1.0, 2.0]
        assert all(p["system"] == "vLLM" for p in points)

    def test_cluster_out_writes_report_json(self, capsys, tmp_path):
        out_file = tmp_path / "cluster.json"
        argv = ["run", "--system", "vllm", "--replicas", "2", "--rps", "3.0",
                "--duration", "4", "--trace", "steady", "--no-cache",
                "--out", str(out_file)]
        assert main(argv) == 0
        payload = json.loads(out_file.read_text())
        assert payload["scheduler"].startswith("vLLM x2")


class TestCLISweepDedupe:
    def test_duplicate_rps_simulated_and_reported_once(self, capsys):
        argv = ["sweep", "--systems", "vllm", "--rps", "1.0", "1.0", "2.0",
                "--duration", "4", "--trace", "steady", "--no-cache"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "simulations executed: 2" in captured.out
        # One progress line and one table row per unique point.
        assert captured.err.count("done:") == 2
        attainment_table = captured.out.split("SLO attainment:")[1].split("Goodput")[0]
        rows = [ln for ln in attainment_table.strip().splitlines()[2:] if ln.strip()]
        assert len(rows) == 2


class TestCLICache:
    _RUN: ClassVar[list[str]] = ["run", "--system", "vllm", "--rps", "1.0", "--duration", "4",
            "--trace", "steady"]
    _SWEEP: ClassVar[list[str]] = ["sweep", "--systems", "vllm", "sarathi", "--rps", "1.0", "2.0",
              "--duration", "4", "--trace", "steady"]

    def test_parser_cache_flags(self):
        args = build_parser().parse_args([*self._SWEEP, "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache
        args = build_parser().parse_args([*self._RUN, "--cache-dir", "/tmp/x"])
        assert args.cache_dir == "/tmp/x"

    def test_jobs_rejected_where_meaningless(self):
        with pytest.raises(SystemExit):  # run is a single point; no --jobs
            build_parser().parse_args([*self._RUN, "--jobs", "2"])

    def test_cache_prune_command(self, capsys, tmp_path):
        argv = [*self._RUN, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        # Strand the record by rewriting its embedded code fingerprint.
        [path] = list(tmp_path.rglob("*.json"))
        record = json.loads(path.read_text())
        record["code"] = "an-older-simulator"
        path.write_text(json.dumps(record))
        # Dry run reports the stranded record without touching it.
        assert main(["cache-prune", "--dry-run", "--cache-dir", str(tmp_path)]) == 0
        assert "would remove 1 stale record(s)" in capsys.readouterr().out
        assert path.exists()
        assert main(["cache-prune", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 stale record(s)" in capsys.readouterr().out
        assert not path.exists()
        assert main(["cache-prune", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0 stale record(s)" in capsys.readouterr().out

    def test_repeated_run_hits_cache(self, capsys, tmp_path):
        argv = [*self._RUN, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "simulations executed: 1" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "simulations executed: 0" in warm
        # Identical results whether simulated or read back from cache.
        def strip(text):
            return [ln for ln in text.splitlines() if not ln.startswith("cache:")]

        assert strip(cold) == strip(warm)

    def test_repeated_sweep_runs_zero_simulations(self, capsys, tmp_path):
        argv = [*self._SWEEP, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "simulations executed: 4" in capsys.readouterr().out
        assert main(argv) == 0
        assert "simulations executed: 0" in capsys.readouterr().out

    def test_no_cache_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main([*self._RUN, "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()
