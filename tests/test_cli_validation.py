"""Tests for CLI input validation, registry introspection, and --grid."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def _parse(argv):
    return build_parser().parse_args(argv)


class TestWorkloadValidation:
    @pytest.mark.parametrize("value", ["-0.1", "1.5", "2"])
    def test_urgent_fraction_outside_unit_interval_rejected(self, value):
        with pytest.raises(SystemExit):
            _parse(["run", "--urgent-fraction", value])

    @pytest.mark.parametrize("value", ["0", "1", "0.6"])
    def test_urgent_fraction_boundaries_accepted(self, value):
        args = _parse(["run", "--urgent-fraction", value])
        assert args.urgent_fraction == float(value)

    @pytest.mark.parametrize("flag", ["--slo-scale", "--duration", "--rps"])
    @pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
    def test_nonpositive_knobs_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            _parse(["run", flag, value])

    def test_nan_urgent_fraction_rejected(self):
        with pytest.raises(SystemExit):
            _parse(["run", "--urgent-fraction", "nan"])

    def test_nonpositive_sweep_rps_rejected_per_value(self):
        with pytest.raises(SystemExit):
            _parse(["sweep", "--rps", "2.0", "0"])

    def test_cluster_knobs_validated_too(self):
        with pytest.raises(SystemExit):
            _parse(["run", "--rps", "-3"])
        with pytest.raises(SystemExit):
            _parse(["run", "--duration", "0"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_warmup_exits_2(self, value, capsys):
        argv = ["run", "--replicas", "2", "--autoscale", "--warmup", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", "-1", "nan", "inf"])
    def test_bad_profile_slack_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--slack", value])
        assert exc.value.code == 2
        assert "--slack: must be >= 1 and finite" in capsys.readouterr().err

    def test_profile_slack_boundary_accepted(self, capsys):
        assert main(["profile", "--slack", "1"]) == 0
        assert "token budget B (slack 1.0)" in capsys.readouterr().out


class TestSpecStringArgs:
    def test_system_specs_canonicalized_at_parse_time(self):
        assert _parse(["run", "--system", "vllm-spec:k=8"]).system == "vllm-spec:k=8"
        assert _parse(["run", "--system", "vllm-spec:k=4"]).system == "vllm-spec"
        assert _parse(["sweep", "--systems", "adaserve", "vllm-spec:k=6"]).systems == [
            "adaserve",
            "vllm-spec:k=6",
        ]

    def test_unknown_system_and_param_rejected(self):
        with pytest.raises(SystemExit):
            _parse(["run", "--system", "bogus"])
        with pytest.raises(SystemExit):
            _parse(["run", "--system", "vllm-spec:q=3"])

    def test_suffixed_system_name_exits_2(self, capsys):
        # The speculation length is a spec key: vllm-spec:k=6, not vllm-spec-6.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--system", "vllm-spec-6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown system 'vllm-spec-6'" in err and "'vllm-spec'" in err

    def test_out_of_range_param_values_fail_at_the_parser(self):
        # Previously these passed argparse and crashed the component
        # constructor mid-run with a raw traceback.
        with pytest.raises(SystemExit):
            _parse(["run", "--system", "vllm-spec:k=0"])
        with pytest.raises(SystemExit):
            _parse(["run", "--router", "affinity:reserve=1.5"])
        with pytest.raises(SystemExit):
            _parse(["run", "--trace", "bursty:burstiness=1.0"])

    def test_non_finite_float_param_fails_at_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            _parse(["run", "--trace", "diurnal:peak_to_trough=nan"])
        assert "'peak_to_trough' must be finite" in capsys.readouterr().err

    def test_router_and_trace_specs(self):
        args = _parse(
            ["run", "--router", "affinity:reserve=0.4", "--trace", "diurnal:peak_to_trough=6"]
        )
        assert args.router == "affinity:reserve=0.4"
        assert args.trace == "diurnal:peak_to_trough=6.0"
        with pytest.raises(SystemExit):
            _parse(["run", "--router", "dns"])
        with pytest.raises(SystemExit):
            _parse(["run", "--trace", "sinusoidal"])


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
