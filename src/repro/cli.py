"""Command-line interface.

The subcommands mirror how the repository is used:

- ``run``: serve one workload with one system and print the metrics;
- ``sweep``: the Figure 8/9 RPS sweep for a set of systems (optionally
  at cluster scale via ``--replicas``/``--router``, and over arbitrary
  registered parameters via ``--grid``);
- ``cluster``: serve one workload with a router-fronted replica fleet,
  optionally autoscaled;
- ``list``: introspect the component registries (systems, routers,
  traces, models) with their parameter schemas;
- ``bench``: measure the *simulator's* own throughput (iterations per
  wall-second) over the standard perf suite and write ``BENCH_PR9.json``
  (see :mod:`repro.perfbench`); ``--baseline`` (defaulting to the newest
  committed ``BENCH_PR*.json``) warns on perf regressions and **fails**
  on fixed-seed digest divergence;
- ``chaos-report``: run one fault-injection experiment and export its
  incident timeline (strict JSON via ``--out``, GitHub-markdown table
  via ``--markdown`` — CI appends it to the job summary);
- ``trace``: run one experiment with observability on (see
  :mod:`repro.obs`) and export a Perfetto/Chrome ``trace_event`` JSON
  (``--out``), an optional gauge time-series (``--series-out``), and a
  top-N slowest-requests table with a dominant-latency-component
  attribution column;
- ``explain``: run one experiment with tracing on and decompose every
  request's latency into named components (queue wait, prefill/decode
  compute, preemption stalls, straggler inflation, failover redo,
  prefix-miss penalty — they sum exactly to end-to-end latency), print
  per-category attribution and SLO root-cause tables, and — with
  ``--baseline OTHER.json`` — diff against a previous attribution
  export component by component, exiting nonzero on regression;
- ``profile``: hardware profiling (Table 1 derived quantities).

Components are referenced by registry spec strings — ``adaserve``,
``vllm-spec:k=8``, ``affinity:reserve=0.4``, ``diurnal:peak_to_trough=6``
— with legacy names (``vllm-spec-8``) accepted as aliases; ``repro list``
shows everything that is registered.

``run``, ``sweep``, and ``cluster`` execute through the content-addressed
result cache (:mod:`repro.analysis.cache`), so repeating an
already-computed point or grid performs zero simulations; ``sweep
--jobs N`` fans cache-missing points out over worker processes with
results identical to ``--jobs 1``.  ``--out FILE`` writes the results as
strict JSON (a report for ``run``/``cluster``, sweep points for
``sweep``).

Examples
--------
::

    python -m repro run --system adaserve --model llama70b --rps 4.0
    python -m repro sweep --model qwen32b --systems adaserve vllm --rps 2.4 3.2 4.0 --jobs 4
    python -m repro sweep --systems vllm-spec --rps 4.2 --grid system.k=2,4,6,8
    python -m repro cluster --replicas 4 --router affinity:reserve=0.5 --rps 12 --trace diurnal
    python -m repro cluster --replicas 3 --faults crash:at=20,replica=1 --faults straggler:slow=2
    python -m repro chaos-report --replicas 3 --router affinity --faults crash --markdown
    python -m repro trace --replicas 2 --faults crash --duration 20 --out trace.json
    python -m repro explain --replicas 2 --faults crash --out attrib.json
    python -m repro explain --baseline attrib.json --replicas 2 --faults crash
    python -m repro list systems
    python -m repro profile --model llama70b
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.export import points_to_json, report_to_json
from repro.analysis.harness import build_setup
from repro.analysis.report import format_table, point_from_metrics, series_table
from repro.analysis.runner import ExperimentConfig, SweepRunner
from repro.analysis.spec import SYSTEM_FIELD_AXES, apply_axis, parse_grid_axis
from repro.check.rules import CHECKS
from repro.obs import DEFAULT_ABS_THRESHOLD_S, DEFAULT_REL_THRESHOLD, ObsSpec
from repro.hardware.profiler import HardwareProfiler
from repro.perfbench.suite import DEFAULT_OUT as _DEFAULT_BENCH_OUT
from repro.registry import FAULTS, MODELS, ROUTERS, SYSTEMS, TRACES, SpecError
from repro.workloads.categories import urgent_mix

#: Introspectable registries, by the plural the ``list`` subcommand uses.
_REGISTRIES = {
    "systems": SYSTEMS,
    "routers": ROUTERS,
    "traces": TRACES,
    "models": MODELS,
    "faults": FAULTS,
    "checks": CHECKS,
}


def _spec_type(registry):
    """Argparse type validating (and canonicalizing) a component spec."""

    def parse(text: str) -> str:
        try:
            return registry.canonical(text)
        except SpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = registry.kind  # shown in argparse error messages
    return parse


_system_spec = _spec_type(SYSTEMS)
_router_spec = _spec_type(ROUTERS)
_trace_spec = _spec_type(TRACES)
_model_spec = _spec_type(MODELS)
_fault_spec = _spec_type(FAULTS)


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value:g}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value:g}")
    return value


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", type=_model_spec, default="llama70b")
    p.add_argument("--duration", type=_positive_float, default=45.0, help="trace length (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace",
        type=_trace_spec,
        default="bursty",
        help="trace spec (see `repro list traces`), e.g. diurnal:peak_to_trough=6",
    )
    p.add_argument(
        "--urgent-fraction",
        type=_fraction,
        default=None,
        help="category-1 share in [0, 1] (default: the paper's 60/20/20 mix)",
    )
    p.add_argument("--slo-scale", type=_positive_float, default=1.0)
    p.add_argument(
        "--prefix-cache",
        action="store_true",
        help="share prefix KV blocks across requests (pairs with the "
        "sessions/agentic traces; see `repro list traces`)",
    )
    p.add_argument(
        "--faults",
        action="append",
        type=_fault_spec,
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault (repeatable), e.g. "
        "crash:at=120,replica=1 or straggler:slow=2.0 "
        "(see `repro list faults`; forces the fleet execution path)",
    )
    p.add_argument(
        "--metrics",
        choices=("exact", "streaming"),
        default="exact",
        help="metrics aggregation: exact (reference) or streaming "
        "(O(1) memory, reservoir percentiles; population-scale runs)",
    )


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {value:g}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Perfetto/Chrome trace of this run (always simulates "
        "fresh, bypassing the result cache; see also `repro trace`)",
    )
    p.add_argument(
        "--sample-every",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="gauge sampling period in simulated seconds when tracing "
        "(default: 0.5)",
    )


def _add_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--check-invariants",
        action="store_true",
        help="validate runtime invariants (KV/prefix refcount conservation, "
        "event-time monotonicity, request conservation) during the run; "
        "always simulates fresh, bypassing the result cache — the report "
        "stays byte-identical (see `repro list checks`)",
    )


def _maybe_invariants(args):
    """An :class:`InvariantChecker` when ``--check-invariants`` was given."""
    if not getattr(args, "check_invariants", False):
        return None
    from repro.check import InvariantChecker

    return InvariantChecker()


def _note_invariants(inv) -> None:
    if inv is not None:
        print(f"invariants: ok ({inv.checks} check(s) passed)", file=sys.stderr)


def _resolve_cache(cache_dir: str | None) -> ResultCache:
    return ResultCache(cache_dir) if cache_dir else ResultCache()


def _make_cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    return _resolve_cache(args.cache_dir)


def _config_for(
    args,
    system: str,
    rps: float,
    replicas: int = 1,
    router: str = "round-robin",
    autoscale: dict | None = None,
    obs: ObsSpec | None = None,
) -> ExperimentConfig:
    mix = urgent_mix(args.urgent_fraction) if args.urgent_fraction is not None else None
    return ExperimentConfig.create(
        model=args.model,
        system=system,
        rps=rps,
        duration_s=args.duration,
        seed=args.seed,
        trace=args.trace,
        slo_scale=args.slo_scale,
        mix=mix,
        max_sim_time_s=args.max_sim_time,
        prefix_cache=args.prefix_cache,
        metrics=getattr(args, "metrics", "exact"),
        replicas=replicas,
        router=router,
        autoscale=autoscale,
        faults=tuple(args.faults) if args.faults else None,
        obs=obs,
    )


def _obs_spec(args) -> ObsSpec:
    """The ``ObsSpec`` section implied by the ``--trace-out`` flags."""
    return ObsSpec(
        trace=getattr(args, "trace_out", None) is not None,
        sample_every_s=getattr(args, "sample_every", 0.5),
    )


def _run_point(args, config: ExperimentConfig):
    """One point through the result cache — or fresh when tracing or
    invariant checking is on.

    Returns ``(report, stats_line)``.  Traced runs always simulate (a
    cache hit would have no trace to return) and write the Perfetto
    export as a side effect; ``--check-invariants`` runs always simulate
    (cached records were never checked).  The report itself is
    byte-identical either way because observation and invariant checks
    are strictly passive.
    """
    invariants = _maybe_invariants(args)
    if config.obs.enabled:
        from repro.analysis.runner import run_traced
        from repro.obs import perfetto_json

        report, observer = run_traced(config, invariants=invariants)
        _note_invariants(invariants)
        _write_out(
            args.trace_out,
            perfetto_json(observer.collector, observer.sampler, chaos=report.chaos),
        )
        print(
            "open the trace in https://ui.perfetto.dev (or chrome://tracing)",
            file=sys.stderr,
        )
        return report, "cache: bypassed (--trace-out always simulates); simulations executed: 1"
    if invariants is not None:
        from repro.analysis.runner import run_spec

        report = run_spec(config, invariants=invariants)
        _note_invariants(invariants)
        return report, (
            "cache: bypassed (--check-invariants always simulates); "
            "simulations executed: 1"
        )
    runner = SweepRunner(cache=_make_cache(args), jobs=1)
    return runner.run([config])[0].report, runner.stats_line()


def _write_out(path: str | None, text: str) -> None:
    """Persist strict-JSON results when ``--out`` was given."""
    if path is None:
        return
    Path(path).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _print_report(report, model: str) -> None:
    m = report.metrics
    print(f"system: {report.scheduler_name}   model: {model}   requests: {m.num_requests}")
    print(
        f"attainment {m.attainment * 100:.1f}%   goodput {m.goodput:.0f} tok/s   "
        f"throughput {m.throughput:.0f} tok/s   mean accepted/verify {m.mean_accepted_per_verify:.2f}"
    )
    if m.prefix_hit_requests:
        print(
            f"prefix cache: hit rate {m.prefix_hit_rate * 100:.1f}%   "
            f"prefill tokens saved {m.prefill_tokens_saved}"
        )
    def _ms(value: float | None) -> str:
        # None = no finished requests in the category (no samples).
        return "-" if value is None else f"{value * 1e3:.1f}"

    rows = [
        [
            cat,
            f"{cm.attainment * 100:.1f}%",
            _ms(cm.mean_tpot_s),
            _ms(cm.p50_tpot_s),
            _ms(cm.p99_tpot_s),
            str(cm.num_requests),
        ]
        for cat, cm in m.per_category.items()
    ]
    print(
        format_table(
            ["category", "attainment", "mean TPOT ms", "p50 TPOT ms", "p99 TPOT ms", "n"],
            rows,
        )
    )


def _cmd_run(args) -> int:
    config = _config_for(args, args.system, args.rps, obs=_obs_spec(args))
    report, stats = _run_point(args, config)
    _print_report(report, args.model)
    print(stats)
    _write_out(args.out, report_to_json(report))
    return 0


def _cmd_cluster(args) -> int:
    if not args.autoscale and (args.max_replicas is not None or args.warmup is not None):
        print(
            "error: --max-replicas/--warmup only apply with --autoscale",
            file=sys.stderr,
        )
        return 2
    if args.autoscale and args.max_replicas is not None and args.max_replicas < args.replicas:
        print(
            f"error: --max-replicas ({args.max_replicas}) must be >= --replicas ({args.replicas})",
            file=sys.stderr,
        )
        return 2
    if args.replicas == 1 and not args.autoscale and args.router != "round-robin":
        print(
            "error: --router has no effect with --replicas 1 unless --autoscale is set",
            file=sys.stderr,
        )
        return 2
    if args.warmup is not None and args.warmup < 0:
        print(f"error: --warmup must be >= 0, got {args.warmup:g}", file=sys.stderr)
        return 2
    # Pass only user-provided knobs; AutoscalerConfig and run_cluster own
    # the defaults (warm-up length, 2x-initial-fleet ceiling).
    autoscale = None
    if args.autoscale:
        autoscale = {}
        if args.max_replicas is not None:
            autoscale["max_replicas"] = args.max_replicas
        if args.warmup is not None:
            autoscale["warmup_s"] = args.warmup
    config = _config_for(
        args, args.system, args.rps,
        replicas=args.replicas, router=args.router, autoscale=autoscale,
        obs=_obs_spec(args),
    )
    report, stats = _run_point(args, config)
    _print_report(report, args.model)
    print(
        f"replicas: {args.replicas}   router: {args.router}   "
        f"autoscale: {'on' if autoscale is not None else 'off'}"
    )
    chaos = report.chaos
    if chaos is not None:
        line = (
            f"chaos: {chaos['num_crashes']} crash(es), "
            f"{chaos['num_stragglers']} straggler(s); "
            f"disrupted {chaos['requests_disrupted']}, lost {chaos['requests_lost']}"
        )
        if chaos["mean_recovery_time_s"] is not None:
            line += f", mean recovery {chaos['mean_recovery_time_s']:.3f}s"
        print(line + "  (full timeline: repro chaos-report)")
    print(stats)
    _write_out(args.out, report_to_json(report))
    return 0


def _dedupe(configs: list[ExperimentConfig]) -> list[ExperimentConfig]:
    """Drop repeated points (e.g. duplicate ``--rps`` values), keeping order."""
    return list(dict.fromkeys(configs))


def _cmd_sweep(args) -> int:
    if args.router is not None and args.replicas == 1:
        print("error: --router requires --replicas > 1", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    runner = SweepRunner(cache=cache, jobs=args.jobs)
    base = [
        _config_for(
            args, system, rps,
            replicas=args.replicas,
            router=args.router or "round-robin",
        )
        for rps in args.rps
        for system in args.systems
    ]
    # Expand grid axes cell by cell, keeping a per-cell label: sweep
    # output is keyed by (rps, series label), and parameters that do not
    # show up in the scheduler's display name (seed, n_max, ...) would
    # otherwise silently collapse distinct cells into one table column.
    # System parameters are labeled from the canonical spec (so
    # `--systems adaserve adaserve:n_max=2` also stays distinguishable);
    # non-system axes are labeled with their grid cell.
    try:
        axes = [parse_grid_axis(axis) for axis in args.grid or []]
        cells = [(config, "") for config in base]
        for axis in axes:
            section, key = axis.path.split(".", 1)
            # Scheduler parameters show up in the canonical system spec
            # and are labeled from it below; anything that does not
            # (trace/workload axes, SystemSpec field knobs) must keep its
            # grid cell in the label or distinct cells would collapse.
            in_system_spec = section == "system" and key not in SYSTEM_FIELD_AXES
            cells = [
                (
                    apply_axis(config, axis.path, value),
                    label
                    if in_system_spec
                    else (f"{label},{key}={value}" if label else f"{key}={value}"),
                )
                for config, label in cells
                for value in axis.values
            ]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A system component that appears with several distinct canonical
    # specs contributes its non-default parameters to the label.
    variants: dict[str, set[str]] = {}
    for config, _ in cells:
        component = config.system.name.partition(":")[0]
        variants.setdefault(component, set()).add(config.system.name)
    labels: dict[str, str] = {}
    for config, label in cells:
        component, _, params = config.system.name.partition(":")
        if params and len(variants[component]) > 1:
            label = f"{params},{label}" if label else params
        labels.setdefault(config.digest(), label)
    configs = _dedupe([config for config, _ in cells])

    def series_label(result) -> str:
        suffix = labels.get(result.key, "")
        name = result.report.scheduler_name
        return f"{name} [{suffix}]" if suffix else name

    def progress(result) -> None:
        source = "cached" if result.from_cache else "simulated"
        print(
            f"  done: rps={result.config.rps:g} {series_label(result)} ({source})",
            file=sys.stderr,
        )

    results = runner.run(configs, on_result=progress)
    stats_line = runner.stats_line()
    # Reports are already round-tripped through their cache-record form,
    # so cached and fresh points are identical here.
    points = [
        point_from_metrics(r.config.rps, series_label(r), r.report.metrics)
        for r in results
    ]
    print("\nSLO attainment:")
    print(series_table(points, value="attainment", x_label="RPS"))
    print("\nGoodput (tokens/s):")
    print(series_table(points, value="goodput", x_label="RPS"))
    print()
    print(stats_line)
    _write_out(args.out, points_to_json(points))
    return 0


def _cmd_list(args) -> int:
    """Introspect a component registry: names, aliases, parameter schemas."""
    registry = _REGISTRIES[args.kind]
    for row in registry.describe():
        line = row["name"]
        if row["summary"]:
            line += f" — {row['summary']}"
        print(line)
        for alias in row["aliases"]:
            print(f"    alias: {alias}")
        for param in row["params"]:
            print(f"    param: {param}")
    return 0


def _cmd_cache_prune(args) -> int:
    cache = _resolve_cache(args.cache_dir)
    removed = cache.prune(dry_run=args.dry_run)
    if args.dry_run:
        print(f"would remove {removed} stale record(s) from {cache.root}")
    else:
        print(f"removed {removed} stale record(s) from {cache.root}")
    return 0


def _cmd_bench(args) -> int:
    """Run the simulator perf suite (see :mod:`repro.perfbench`)."""
    import cProfile

    from repro.perfbench import (
        compare_to_baseline,
        format_bench_table,
        gate_failures,
        latest_baseline,
        run_suite,
    )
    from repro.perfbench.suite import load_result

    baseline_path = args.baseline
    if baseline_path == "auto":
        found = latest_baseline()
        if found is None:
            print(
                "error: --baseline given without FILE but no committed "
                "BENCH_PR*.json found in the working directory",
                file=sys.stderr,
            )
            return 2
        baseline_path = str(found)
        print(f"baseline: {baseline_path}", file=sys.stderr)

    def progress(row) -> None:
        print(
            f"  done: {row['name']} ({row['wall_s']:.2f}s wall, "
            f"{row['iters_per_s']:.0f} iters/s)",
            file=sys.stderr,
        )

    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        result = run_suite(quick=args.quick, progress=progress)
        profiler.disable()
        pstats_path = str(Path(args.out).with_suffix(".pstats"))
        profiler.dump_stats(pstats_path)
        print(f"wrote {pstats_path}", file=sys.stderr)
        print(
            f"inspect it with `python -m pstats {pstats_path}` "
            "(then e.g. `sort cumtime` + `stats 20`), or `snakeviz "
            f"{pstats_path}` for a flame graph if installed",
            file=sys.stderr,
        )
    else:
        result = run_suite(quick=args.quick, progress=progress)

    warnings: list[str] = []
    # Population gates (concurrency floor, memory ceiling, speedup,
    # byte identity) are hard failures even without a baseline.
    errors: list[str] = gate_failures(result.get("population"))
    if baseline_path is not None:
        try:
            baseline = load_result(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2
        summary, warnings, base_errors = compare_to_baseline(result, baseline)
        errors.extend(base_errors)
        result["baseline"] = summary

    print(format_bench_table(result))
    for line in warnings:
        print(line, file=sys.stderr)
    for line in errors:
        print(line, file=sys.stderr)
    _write_out(args.out, json.dumps(result, indent=2, sort_keys=True, allow_nan=False))
    # Perf regressions only warn (wall clocks are noisy); a diverged
    # fixed-seed report digest means determinism broke and must fail.
    return 1 if errors else 0


def _cmd_chaos_report(args) -> int:
    """Run one chaos experiment and export its incident timeline.

    Stdout carries only the incident table (plain text, or a GitHub
    markdown table with ``--markdown`` — appendable straight to
    ``$GITHUB_STEP_SUMMARY``); run status goes to stderr.  ``--out``
    additionally writes the full timeline as strict JSON.
    """
    from repro import __version__
    from repro.analysis.export import REPORT_SCHEMA_VERSION
    from repro.chaos import format_incident_table

    if not args.faults:
        print("error: chaos-report requires at least one --faults SPEC", file=sys.stderr)
        return 2
    config = _config_for(
        args, args.system, args.rps,
        replicas=args.replicas, router=args.router,
        obs=_obs_spec(args),
    )
    report, stats = _run_point(args, config)
    chaos = report.chaos
    if chaos is None:
        print("error: run produced no chaos report", file=sys.stderr)
        return 2
    print(stats, file=sys.stderr)
    if args.out:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "repro_version": __version__,
            "chaos": chaos,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        _write_out(args.out, text)
    print(format_incident_table(chaos, markdown=args.markdown))
    return 0


def _cmd_trace(args) -> int:
    """Run one experiment with tracing on and export its artifacts.

    Always simulates fresh (traced runs never consult the result cache;
    the ``obs`` section is excluded from cache keys, so the run's report
    still matches the cached, untraced point byte for byte).  Stdout
    carries only the top-N slowest-requests table (plain text, or a
    GitHub markdown table with ``--markdown``); run status goes to
    stderr.
    """
    from repro.analysis.runner import run_traced
    from repro.obs import decompose, format_slowest_table, perfetto_json, series_to_json

    obs = ObsSpec(
        trace=True,
        sample_every_s=args.sample_every,
        iteration_log=args.iteration_log,
    )
    config = _config_for(
        args, args.system, args.rps,
        replicas=args.replicas, router=args.router, obs=obs,
    )
    invariants = _maybe_invariants(args)
    report, observer = run_traced(config, invariants=invariants)
    _note_invariants(invariants)
    _write_out(
        args.out,
        perfetto_json(observer.collector, observer.sampler, chaos=report.chaos),
    )
    m = report.metrics
    print(
        f"traced {m.num_requests} request(s): {len(observer.collector)} trace "
        f"event(s), {len(observer.sampler)} gauge sample(s) over "
        f"{report.sim_time_s:.1f}s simulated",
        file=sys.stderr,
    )
    print(
        "open the trace in https://ui.perfetto.dev (or chrome://tracing)",
        file=sys.stderr,
    )
    if args.series_out:
        _write_out(args.series_out, series_to_json(observer))
    attribs = decompose(observer.collector, report.requests, report.sim_time_s)
    dominant = {a.rid: a.dominant for a in attribs}
    print(
        format_slowest_table(
            report.requests, n=args.top, markdown=args.markdown, attributions=dominant
        )
    )
    return 0


def _cmd_explain(args) -> int:
    """Attribute latency and diagnose SLO violations for one experiment.

    Runs the spec with tracing on (always fresh; see ``repro trace``),
    decomposes every request's end-to-end latency into the named
    components of :mod:`repro.obs.attrib`, and prints the per-category
    attribution table, the violation root-cause table, and fleet
    diagnostics.  ``--out`` writes the full attribution export as strict
    JSON (byte-deterministic for a fixed seed).  ``--baseline FILE``
    additionally diffs this run against a previous export component by
    component: exit 1 on regression past the thresholds, 2 on an
    unreadable baseline.  Stdout carries only the tables (markdown with
    ``--markdown``); run status goes to stderr.
    """
    from repro.analysis.runner import run_traced
    from repro.obs import (
        attribution_to_dict,
        attribution_to_json,
        decompose,
        diff_attributions,
        format_attribution,
        format_diff_table,
    )

    obs = ObsSpec(trace=True, sample_every_s=args.sample_every)
    config = _config_for(
        args, args.system, args.rps,
        replicas=args.replicas, router=args.router, obs=obs,
    )
    invariants = _maybe_invariants(args)
    report, observer = run_traced(config, invariants=invariants)
    _note_invariants(invariants)
    attribs = decompose(observer.collector, report.requests, report.sim_time_s)
    payload = attribution_to_dict(
        attribs, report.sim_time_s, sampler=observer.sampler, chaos=report.chaos
    )
    print(
        f"explained {payload['num_requests']} request(s), "
        f"{payload['num_violated']} SLO violation(s), over "
        f"{report.sim_time_s:.1f}s simulated",
        file=sys.stderr,
    )
    _write_out(args.out, attribution_to_json(payload))
    print(format_attribution(payload, markdown=args.markdown))
    if args.baseline is None:
        return 0
    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    diff = diff_attributions(
        baseline,
        payload,
        rel_threshold=args.rel_threshold,
        abs_threshold_s=args.abs_threshold,
    )
    print()
    print(format_diff_table(diff, markdown=args.markdown))
    return 1 if diff["regressions"] else 0


def _cmd_check(args) -> int:
    """Run the determinism linter (see :mod:`repro.check`).

    ``repro check lint`` is the CI gate form of ``python -m repro.check``:
    exit 0 when the tree is clean (suppressions inventoried), 1 when
    findings survive.  ``--json`` emits the strict-JSON report.
    """
    from repro.check.cli import run_lint

    return run_lint(args.paths, json_out=args.json)


def _cmd_profile(args) -> int:
    setup = build_setup(args.model, seed=args.seed)
    rl = setup.target_roofline
    prof = HardwareProfiler(rl, slack=args.slack).profile()
    dep = setup.target_deployment
    print(f"deployment: {dep.model.name} on {dep.tensor_parallel} x {dep.gpu.name}")
    print(f"baseline decode latency: {rl.baseline_decode_latency * 1e3:.2f} ms")
    print(f"memory-bound floor:      {rl.memory_bound_floor * 1e3:.2f} ms")
    print(f"saturation tokens:       {rl.saturation_tokens()}")
    print(f"token budget B (slack {args.slack}): {prof.token_budget} "
          f"(latency {prof.budget_latency_s * 1e3:.2f} ms, {prof.latency_ratio:.2f}x floor)")
    print(f"KV capacity: {dep.kv_capacity_tokens} tokens")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AdaServe reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="serve one workload with one system")
    _add_workload_args(p_run)
    _add_cache_args(p_run)
    p_run.add_argument(
        "--system",
        type=_system_spec,
        default="adaserve",
        help="system spec (see `repro list systems`), e.g. vllm-spec:k=8",
    )
    p_run.add_argument("--rps", type=_positive_float, default=4.0)
    p_run.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_run.add_argument("--out", default=None, help="write the report as strict JSON")
    _add_obs_args(p_run)
    _add_check_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="RPS sweep over systems")
    _add_workload_args(p_sweep)
    _add_cache_args(p_sweep)
    p_sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for cache-missing points (default: 1, serial)",
    )
    p_sweep.add_argument(
        "--systems",
        nargs="+",
        type=_system_spec,
        default=["adaserve", "vllm"],
        help="system specs (see `repro list systems`)",
    )
    p_sweep.add_argument("--rps", nargs="+", type=_positive_float, default=[2.6, 3.4, 4.2])
    p_sweep.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_sweep.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="replicas per point (> 1 sweeps at cluster scale)",
    )
    p_sweep.add_argument(
        "--router",
        type=_router_spec,
        default=None,
        help="routing policy spec (requires --replicas > 1; default: round-robin)",
    )
    p_sweep.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="SECTION.KEY=V1,V2,...",
        help="extra sweep axis over a registered parameter, e.g. system.k=4,6,8 "
        "or trace.peak_to_trough=2,8 (repeatable; axes combine as a cartesian product)",
    )
    p_sweep.add_argument("--out", default=None, help="write sweep points as strict JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cluster = sub.add_parser(
        "cluster", help="serve one workload with a router-fronted replica fleet"
    )
    _add_workload_args(p_cluster)
    _add_cache_args(p_cluster)
    p_cluster.add_argument("--system", type=_system_spec, default="adaserve")
    p_cluster.add_argument("--rps", type=_positive_float, default=12.0)
    p_cluster.add_argument("--replicas", type=_positive_int, default=4)
    p_cluster.add_argument(
        "--router",
        type=_router_spec,
        default="round-robin",
        help="routing policy spec (see `repro list routers`), e.g. affinity:reserve=0.4",
    )
    p_cluster.add_argument(
        "--autoscale",
        action="store_true",
        help="grow/shrink the fleet on queue depth (warm-up delayed)",
    )
    p_cluster.add_argument(
        "--max-replicas",
        type=_positive_int,
        default=None,
        help="autoscaler ceiling (default: 2x --replicas)",
    )
    p_cluster.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="seconds before an autoscaled replica becomes routable",
    )
    p_cluster.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_cluster.add_argument("--out", default=None, help="write the report as strict JSON")
    _add_obs_args(p_cluster)
    _add_check_args(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_list = sub.add_parser(
        "list", help="introspect a component registry and its parameter schemas"
    )
    p_list.add_argument("kind", choices=sorted(_REGISTRIES))
    p_list.set_defaults(func=_cmd_list)

    p_prune = sub.add_parser(
        "cache-prune",
        help="delete cache records stranded by simulator or schema changes",
    )
    p_prune.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without removing anything",
    )
    p_prune.set_defaults(func=_cmd_cache_prune)

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator throughput over the standard perf suite",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="shortened traces (same scenarios) for CI smoke runs",
    )
    p_bench.add_argument(
        "--out",
        default=_DEFAULT_BENCH_OUT,
        help=f"write the bench result JSON here (default: {_DEFAULT_BENCH_OUT})",
    )
    p_bench.add_argument(
        "--baseline",
        nargs="?",
        const="auto",
        default=None,
        metavar="FILE",
        help="compare against a previous bench result (default FILE: the "
        "newest committed BENCH_PR*.json); a >30%% iterations/s drop prints "
        "a warning, a diverged fixed-seed report digest fails the run",
    )
    p_bench.add_argument(
        "--profile",
        action="store_true",
        help="also dump a cProfile pstats file next to --out",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos-report",
        help="run one chaos experiment and export its incident timeline",
    )
    _add_workload_args(p_chaos)
    _add_cache_args(p_chaos)
    p_chaos.add_argument("--system", type=_system_spec, default="adaserve")
    p_chaos.add_argument("--rps", type=_positive_float, default=12.0)
    p_chaos.add_argument("--replicas", type=_positive_int, default=4)
    p_chaos.add_argument(
        "--router",
        type=_router_spec,
        default="round-robin",
        help="routing policy spec (see `repro list routers`), e.g. affinity:reserve=0.4",
    )
    p_chaos.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_chaos.add_argument(
        "--out", default=None, help="also write the incident timeline as strict JSON"
    )
    p_chaos.add_argument(
        "--markdown",
        action="store_true",
        help="print the incident table as GitHub markdown "
        "(stdout carries only the table, e.g. for $GITHUB_STEP_SUMMARY)",
    )
    _add_obs_args(p_chaos)
    _add_check_args(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos_report)

    p_trace = sub.add_parser(
        "trace",
        help="run one experiment with tracing on and export a Perfetto trace",
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--system", type=_system_spec, default="adaserve")
    p_trace.add_argument("--rps", type=_positive_float, default=8.0)
    p_trace.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="replica fleet size (> 1 or --faults forces the fleet path)",
    )
    p_trace.add_argument(
        "--router",
        type=_router_spec,
        default="round-robin",
        help="routing policy spec (see `repro list routers`), e.g. affinity:reserve=0.4",
    )
    p_trace.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_trace.add_argument(
        "--sample-every",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="gauge sampling period in simulated seconds (default: 0.5)",
    )
    p_trace.add_argument(
        "--iteration-log",
        action="store_true",
        help="also record per-iteration engine telemetry "
        "(exported under --series-out)",
    )
    p_trace.add_argument(
        "--out",
        default="trace.json",
        help="Perfetto/Chrome trace_event JSON path (default: trace.json)",
    )
    p_trace.add_argument(
        "--series-out",
        default=None,
        metavar="FILE",
        help="also write the sampled gauge time-series (strict JSON)",
    )
    p_trace.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="slowest-requests table size (default: 10)",
    )
    p_trace.add_argument(
        "--markdown",
        action="store_true",
        help="print the slowest-requests table as GitHub markdown "
        "(stdout carries only the table, e.g. for $GITHUB_STEP_SUMMARY)",
    )
    _add_check_args(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="attribute per-request latency to components and "
        "diagnose SLO violations",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument("--system", type=_system_spec, default="adaserve")
    p_explain.add_argument("--rps", type=_positive_float, default=8.0)
    p_explain.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="replica fleet size (> 1 or --faults forces the fleet path)",
    )
    p_explain.add_argument(
        "--router",
        type=_router_spec,
        default="round-robin",
        help="routing policy spec (see `repro list routers`), e.g. affinity:reserve=0.4",
    )
    p_explain.add_argument("--max-sim-time", type=_positive_float, default=1800.0)
    p_explain.add_argument(
        "--sample-every",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="gauge sampling period in simulated seconds for the fleet "
        "diagnostics (default: 0.5)",
    )
    p_explain.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the attribution export as strict JSON "
        "(byte-deterministic; diffable via --baseline)",
    )
    p_explain.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="diff against a previous attribution export component by "
        "component; exit 1 when any component regresses past the thresholds",
    )
    p_explain.add_argument(
        "--rel-threshold",
        type=_nonneg_float,
        default=DEFAULT_REL_THRESHOLD,
        metavar="FRACTION",
        help="relative growth a component must exceed to regress "
        f"(default: {DEFAULT_REL_THRESHOLD}; both thresholds must trip)",
    )
    p_explain.add_argument(
        "--abs-threshold",
        type=_nonneg_float,
        default=DEFAULT_ABS_THRESHOLD_S,
        metavar="SECONDS",
        help="absolute growth a component must exceed to regress "
        f"(default: {DEFAULT_ABS_THRESHOLD_S}; both thresholds must trip)",
    )
    p_explain.add_argument(
        "--markdown",
        action="store_true",
        help="print the tables as GitHub markdown "
        "(stdout carries only the tables, e.g. for $GITHUB_STEP_SUMMARY)",
    )
    _add_check_args(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_check = sub.add_parser(
        "check",
        help="static determinism lint over the source tree (CI gate)",
    )
    p_check.add_argument(
        "action",
        choices=["lint"],
        help="what to check (lint: run the RPD determinism rules; "
        "see `repro list checks`)",
    )
    p_check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit the strict-JSON findings report instead of text",
    )
    p_check.set_defaults(func=_cmd_check)

    p_prof = sub.add_parser("profile", help="hardware profiling for a deployment")
    p_prof.add_argument("--model", type=_model_spec, default="llama70b")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--slack", type=float, default=1.5)
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.check import InvariantViolation

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        # Structured violation report: one line per context field, so CI
        # logs name the invariant, replica, request, and block directly.
        print(f"error: {exc.format()}", file=sys.stderr)
        for key, value in exc.to_dict().items():
            if value is not None:
                print(f"  {key}: {value}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
