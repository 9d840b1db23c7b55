"""Tests for CLI input validation, registry introspection, and --grid."""

from __future__ import annotations

import pytest

from repro.analysis import runner
from repro.analysis.spec import ExperimentSpec
from repro.cli import build_parser, main


def _parse(argv):
    return build_parser().parse_args(argv)


@pytest.fixture
def no_sim(monkeypatch):
    """Fail the test if the command reaches any simulation entry point."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rejected input reached a simulation")

    monkeypatch.setattr(runner, "run_spec", refuse)
    monkeypatch.setattr(runner, "run_traced", refuse)
    monkeypatch.setattr(runner.SweepRunner, "run", refuse)


class _Captured(Exception):
    pass


def _specs(monkeypatch, argv) -> list[ExperimentSpec]:
    """The specs ``main(argv)`` hands to the runner, without running them."""
    seen: list[ExperimentSpec] = []

    def capture(self, configs, on_result=None):
        seen.extend(configs)
        raise _Captured

    monkeypatch.setattr(runner.SweepRunner, "run", capture)
    with pytest.raises(_Captured):
        main(argv)
    return seen


_CLUSTER = ["run", "--replicas", "2"]
_AUTOSCALED = [*_CLUSTER, "--autoscale"]

#: (argv, text the one ``error:`` line must contain).  Every flag whose
#: value a library owner checks, with each bad value: zero, negative,
#: NaN, infinity, a fraction outside [0, 1], an unknown registry name
#: and an out-of-range registry parameter.
REJECTED = [
    *(
        (["run", flag, value], field)
        for flag, field in [
            ("--rps", "workload.rps"),
            ("--duration", "workload.duration_s"),
            ("--slo-scale", "workload.slo_scale"),
            ("--max-sim-time", "max_sim_time_s"),
        ]
        for value in ["0", "-1.5", "nan", "inf"]
    ),
    (["run", "--rps", "-3"], "workload.rps"),
    (["sweep", "--rps", "2.0", "0"], "workload.rps"),
    (["explain", "--duration", "0"], "workload.duration_s"),
    *((["run", "--urgent-fraction", v], "urgent_fraction") for v in ["-0.1", "1.5", "2", "nan"]),
    (["run", "--replicas", "0"], "replicas must be >= 1"),
    (["run", "--replicas", "-2"], "replicas must be >= 1"),
    (["sweep", "--replicas", "0"], "replicas must be >= 1"),
    (["explain", "--replicas", "0"], "replicas must be >= 1"),
    (["run", "--metrics", "bogus"], "metrics must be one of"),
    (["sweep", "--metrics", "Exact"], "metrics must be one of"),
    (["run", "--faults", "crash:at=-1"], "fault 'crash': parameter 'at'"),
    (["run", "--faults", "bogus"], "unknown fault 'bogus'"),
    *(([*_AUTOSCALED, "--warmup", v], "warmup_s") for v in ["-1", "nan", "inf"]),
    ([*_AUTOSCALED, "--max-replicas", "0"], "max_replicas"),
    ([*_AUTOSCALED, "--max-replicas", "1"], "max_replicas (1) is below"),
    (["sweep", "--jobs", "0"], "jobs must be >= 1"),
    (["sweep", "--jobs", "-1"], "jobs must be >= 1"),
    *((["explain", "--sample-every", v], "sample_every_s") for v in ["0", "-1", "nan", "inf"]),
    *((["profile", "--slack", v], "slack must be >= 1") for v in ["0.5", "-1", "nan", "inf"]),
    (["run", "--system", "bogus"], "unknown system 'bogus'"),
    (["run", "--system", "vllm-spec:q=3"], "unknown parameter 'q' for system 'vllm-spec'"),
    (["run", "--system", "vllm-spec:k=0"], "system 'vllm-spec': parameter 'k'"),
    (["sweep", "--systems", "adaserve", "bogus"], "unknown system 'bogus'"),
    (["explain", "--system", "bogus"], "unknown system 'bogus'"),
    ([*_CLUSTER, "--router", "dns"], "unknown router 'dns'"),
    ([*_CLUSTER, "--router", "affinity:reserve=1.5"], "router 'affinity': parameter 'reserve'"),
    (["run", "--trace", "sinusoidal"], "unknown trace 'sinusoidal'"),
    (["run", "--trace", "bursty:burstiness=1.0"], "trace 'bursty': parameter 'burstiness'"),
    (["run", "--trace", "diurnal:peak_to_trough=nan"], "'peak_to_trough' must be finite"),
    (["run", "--model", "bogus"], "unknown model setup 'bogus'"),
    (["profile", "--model", "bogus"], "unknown model setup 'bogus'"),
    # A router that a one-replica point would ignore (the same rule on
    # every command that takes --router).
    (["run", "--router", "p2c"], "--router has no effect with --replicas 1 unless --autoscale"),
    (["run", "--router", "round-robin"], "--router has no effect with --replicas 1"),
    (["explain", "--router", "least-loaded", "--duration", "2", "--rps", "2"],
     "--router has no effect with --replicas 1"),
    (["sweep", "--router", "p2c"], "--router has no effect with --replicas 1"),
    (["sweep", "--replicas", "4", "--router", "p2c", "--grid", "cluster.replicas=1"],
     "--router has no effect with --replicas 1"),
]


class TestValidationBoundary:
    @pytest.mark.parametrize(
        "argv,field", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED]
    )
    def test_rejected_before_any_simulation(self, argv, field, no_sim, capsys):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and field in line, line

    @pytest.mark.parametrize("value", ["0", "1", "0.6"])
    def test_urgent_fraction_boundaries_accepted(self, value, monkeypatch):
        [spec] = _specs(monkeypatch, ["run", "--no-cache", "--urgent-fraction", value])
        assert dict(spec.workload.mix)["coding"] == float(value)

    def test_profile_slack_boundary_accepted(self, capsys):
        assert main(["profile", "--slack", "1"]) == 0
        assert "token budget B (slack 1.0)" in capsys.readouterr().out


class TestSpecStringArgs:
    def test_system_specs_canonicalized_by_the_spec(self, monkeypatch):
        [spec] = _specs(monkeypatch, ["run", "--no-cache", "--system", "vllm-spec:k=8"])
        assert spec.system.name == "vllm-spec:k=8"
        [spec] = _specs(monkeypatch, ["run", "--no-cache", "--system", "vllm-spec:k=4"])
        assert spec.system.name == "vllm-spec"
        argv = ["sweep", "--no-cache", "--rps", "2", "--systems", "adaserve", "vllm-spec:k=6"]
        specs = _specs(monkeypatch, argv)
        assert [s.system.name for s in specs] == ["adaserve", "vllm-spec:k=6"]

    def test_suffixed_system_name_exits_2(self, no_sim, capsys):
        # The speculation length is a spec key: vllm-spec:k=6, not vllm-spec-6.
        assert main(["run", "--no-cache", "--system", "vllm-spec-6"]) == 2
        err = capsys.readouterr().err
        assert "unknown system 'vllm-spec-6'" in err and "'vllm-spec'" in err

    def test_router_and_trace_specs(self, monkeypatch):
        argv = [
            "run", "--no-cache", "--replicas", "2",
            "--router", "affinity:reserve=0.4", "--trace", "diurnal:peak_to_trough=6",
        ]
        [spec] = _specs(monkeypatch, argv)
        assert spec.cluster.router == "affinity:reserve=0.4"
        assert spec.workload.trace == "diurnal:peak_to_trough=6.0"

    def test_cluster_output_prints_canonical_specs(self, monkeypatch, capsys):
        argv = [
            "run", "--system", "vllm", "--replicas", "2", "--router", "P2C",
            "--model", "LLAMA70B", "--rps", "2", "--duration", "2", "--no-cache",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "model: llama70b" in out and "router: p2c" in out


class TestListCommand:
    def test_list_systems_shows_schemas(self, capsys):
        assert main(["list", "systems"]) == 0
        out = capsys.readouterr().out
        assert "adaserve" in out and "vllm-spec" in out
        assert "alias:" not in out
        assert "param: k: int = 4" in out
        assert "param: n_max: int = 16" in out

    @pytest.mark.parametrize("kind", ["routers", "traces", "models"])
    def test_list_other_registries(self, kind, capsys):
        assert main(["list", kind]) == 0
        assert capsys.readouterr().out.strip()

    def test_list_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            _parse(["list", "gizmos"])


class TestGridOption:
    def _sweep_argv(self, tmp_path, *extra):
        return [
            "sweep",
            "--systems", "vllm-spec",
            "--rps", "1.5",
            "--duration", "4",
            "--trace", "steady",
            "--cache-dir", str(tmp_path),
            *extra,
        ]

    def test_bad_grid_axis_is_a_usage_error(self, tmp_path, capsys):
        assert main(self._sweep_argv(tmp_path, "--grid", "system.q=1")) == 2
        err = capsys.readouterr().err
        assert "'q'" in err and "['k']" in err

    def test_grid_sweeps_registered_param_and_caches(self, tmp_path, capsys):
        argv = self._sweep_argv(tmp_path, "--grid", "system.k=2,4")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "vLLM-Spec(2)" in out and "vLLM-Spec(4)" in out
        assert "simulations executed: 2" in out
        # Warm repeat: the whole grid answers from cache.
        assert main(argv) == 0
        assert "simulations executed: 0" in capsys.readouterr().out

    def test_grid_cells_get_distinct_series_labels(self, tmp_path, capsys):
        # n_max does not appear in AdaServe's display name; without
        # per-cell labels both points would collapse into one column.
        # (n_max=16 is the default, so its cell keeps the bare name.)
        argv = self._sweep_argv(tmp_path, "--grid", "system.n_max=2,16")
        argv[1:3] = ["--systems", "adaserve"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "AdaServe [n_max=2]" in out and "AdaServe " in out
        assert "simulations executed: 2" in out

    def test_parameterized_systems_variants_get_distinct_series_labels(
        self, tmp_path, capsys
    ):
        argv = self._sweep_argv(tmp_path)
        argv[1:3] = ["--systems", "adaserve", "adaserve:n_max=2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "AdaServe [n_max=2]" in out
        assert "simulations executed: 2" in out

    def test_workload_grid_axis_labels_cells(self, tmp_path, capsys):
        argv = self._sweep_argv(tmp_path, "--grid", "workload.seed=1,2")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[seed=1]" in out and "[seed=2]" in out

    def test_grid_values_dedupe_with_spelled_defaults(self, tmp_path, capsys):
        # k=4 is the default, so both spellings and the grid cell are one point.
        argv = [
            "sweep",
            "--systems", "vllm-spec", "vllm-spec:k=4",
            "--rps", "1.5",
            "--duration", "4",
            "--trace", "steady",
            "--cache-dir", str(tmp_path),
            "--grid", "system.k=4",
        ]
        assert main(argv) == 0
        assert "simulations executed: 1" in capsys.readouterr().out

    # ``--router`` on a grid over ``cluster.replicas``: the spec's
    # ``is_cluster`` rule decides per cell whether the router is consulted.
    _ROUTED = ["sweep", "--systems", "vllm", "--rps", "4", "--router", "p2c", "--no-cache"]

    def test_router_reaches_fleet_cells_of_a_one_replica_base(self, monkeypatch, capsys):
        argv = [*self._ROUTED, "--replicas", "1", "--grid", "cluster.replicas=2,4"]
        specs = _specs(monkeypatch, argv)
        assert [(s.cluster.replicas, s.cluster.router) for s in specs] == [(2, "p2c"), (4, "p2c")]
        assert "note:" not in capsys.readouterr().err

    def test_solo_cell_of_a_mixed_grid_runs_round_robin_and_says_so(self, monkeypatch, capsys):
        argv = [*self._ROUTED, "--replicas", "4", "--grid", "cluster.replicas=1,2,4"]
        specs = _specs(monkeypatch, argv)
        assert [(s.cluster.replicas, s.cluster.router) for s in specs] == [
            (1, "round-robin"), (2, "p2c"), (4, "p2c"),
        ]
        [note] = [line for line in capsys.readouterr().err.splitlines() if "note:" in line]
        assert "no effect on 1 one-replica cell(s)" in note
