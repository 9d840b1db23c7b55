"""Command-line interface.

The subcommands mirror how the repository is used:

- ``run``: serve one workload with one system and print the metrics —
  on one replica, or on a router-fronted fleet with ``--replicas N``
  (``--router``), optionally autoscaled (``--autoscale``); a point with
  ``--faults`` also prints its incident timeline;
- ``sweep``: the Figure 8/9 RPS sweep for a set of systems (optionally
  at cluster scale via ``--replicas``/``--router``, and over arbitrary
  registered parameters via ``--grid``);
- ``list``: introspect the component registries (systems, routers,
  traces, models) with their parameter schemas;
- ``cache-prune``: delete cache records stranded by code changes;
- ``explain``: run one experiment with tracing on (see :mod:`repro.obs`)
  and decompose every request's latency into named components (queue
  wait, prefill/decode compute, preemption stalls, straggler inflation,
  failover redo, prefix-miss penalty — they sum exactly to end-to-end
  latency); print per-category attribution, SLO root-cause and top-N
  slowest-requests tables; export a Perfetto/Chrome ``trace_event`` JSON
  (``--trace-out``) and a gauge time-series (``--series-out``); and —
  with ``--baseline OTHER.json`` — diff against a previous attribution
  export component by component, exiting nonzero on regression;
- ``check lint``: the determinism linter (see :mod:`repro.check`);
- ``profile``: hardware profiling (Table 1 derived quantities).

Components are referenced by registry spec strings — ``adaserve``,
``vllm-spec:k=8``, ``affinity:reserve=0.4``, ``diurnal:peak_to_trough=6``
— and ``repro list`` shows everything that is registered.

The CLI parses; it does not validate.  Flags are plain strings and
numbers, and each value is checked once, by the code that consumes it:
:class:`~repro.analysis.spec.ExperimentSpec` for everything that names a
point, and the owner for the rest (``urgent_mix``, ``ObsSpec``,
``SweepRunner``, ``HardwareProfiler``).  They raise a ``SpecError``
naming the field, which :func:`main` prints as ``error: …`` with exit 2
before anything runs.

``run`` and ``sweep`` execute through the content-addressed
result cache (:mod:`repro.analysis.cache`), so repeating an
already-computed point or grid performs zero simulations; ``sweep
--jobs N`` fans cache-missing points out over worker processes with
results identical to ``--jobs 1``.  ``--out FILE`` writes the results as
strict JSON (a report for ``run``, sweep points for ``sweep``, the
attribution export for ``explain``).

Examples
--------
::

    python -m repro run --system adaserve --model llama70b --rps 4.0
    python -m repro sweep --model qwen32b --systems adaserve vllm --rps 2.4 3.2 4.0 --jobs 4
    python -m repro sweep --systems vllm-spec --rps 4.2 --grid system.k=2,4,6,8
    python -m repro run --replicas 4 --router affinity:reserve=0.5 --rps 12 --trace diurnal
    python -m repro run --replicas 3 --rps 12 --faults crash:at=20,replica=1 --faults straggler:slow=2
    python -m repro explain --replicas 2 --faults crash --out attrib.json --trace-out trace.json
    python -m repro explain --baseline attrib.json --replicas 2 --faults crash
    python -m repro list systems
    python -m repro profile --model llama70b
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.export import points_to_json, report_to_json
from repro.analysis.harness import build_setup
from repro.analysis.report import format_table, point_from_metrics, series_table
from repro.analysis.runner import SweepRunner
from repro.analysis.spec import SYSTEM_FIELD_AXES, ExperimentSpec, apply_axis, parse_grid_axis
from repro.chaos.report import format_incident_table
from repro.check.rules import CHECKS
from repro.obs.spec import DEFAULT_ABS_THRESHOLD_S, DEFAULT_REL_THRESHOLD, ObsSpec
from repro.hardware.profiler import HardwareProfiler
from repro.registry import FAULTS, MODELS, ROUTERS, SYSTEMS, TRACES, SpecError
from repro.serving.metrics import DEFAULT_METRICS_MODE
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


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="llama70b")
    p.add_argument("--duration", type=float, default=45.0, help="trace length (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace",
        default="bursty",
        help="trace spec (see `repro list traces`), e.g. diurnal:peak_to_trough=6",
    )
    p.add_argument(
        "--urgent-fraction",
        type=float,
        default=None,
        help="category-1 share in [0, 1] (default: the paper's 60/20/20 mix)",
    )
    p.add_argument("--slo-scale", type=float, default=1.0)
    p.add_argument(
        "--prefix-cache",
        action="store_true",
        help="share prefix KV blocks across requests (pairs with the "
        "sessions/agentic traces; see `repro list traces`)",
    )
    p.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault (repeatable), e.g. "
        "crash:at=120,replica=1 or straggler:slow=2.0 "
        "(see `repro list faults`; makes the point a cluster point)",
    )
    p.add_argument(
        "--metrics",
        default=DEFAULT_METRICS_MODE,
        help="metrics aggregation: exact (every latency sample) or streaming "
        "(O(1) memory, reservoir percentiles; population-scale runs)",
    )


def _add_point_args(p: argparse.ArgumentParser, rps: float, replicas: int) -> None:
    """Flags naming one experiment point (run, explain)."""
    p.add_argument(
        "--system",
        default="adaserve",
        help="system spec (see `repro list systems`), e.g. vllm-spec:k=8",
    )
    p.add_argument("--rps", type=float, default=rps)
    p.add_argument("--replicas", type=int, default=replicas)
    _add_router_arg(p)
    p.add_argument("--max-sim-time", type=float, default=1800.0)


def _add_router_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--router",
        default=None,
        help="routing policy spec (see `repro list routers`), e.g. affinity:reserve=0.4 "
        "(needs a fleet; default: round-robin)",
    )


def _refuse_unrouted(args, specs: list[ExperimentSpec]) -> None:
    """Refuse a ``--router`` that no point consults (the ``ClusterSpec.is_cluster`` rule)."""
    if args.router is not None and not any(spec.cluster.is_cluster for spec in specs):
        hint = " unless --autoscale is set" if hasattr(args, "autoscale") else ""
        raise SpecError(f"--router has no effect with --replicas 1{hint}")


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


def _add_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--check-invariants",
        action="store_true",
        help="validate runtime invariants (KV/prefix refcount conservation, "
        "event-time monotonicity, request conservation, lazy decode "
        "counters) during the run; "
        "always simulates fresh, bypassing the result cache — the report "
        "stays byte-identical (see `repro list checks`)",
    )


def _maybe_invariants(args):
    """An :class:`InvariantChecker` when ``--check-invariants`` was given."""
    if not args.check_invariants:
        return None
    from repro.check.invariants import InvariantChecker

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
    autoscale: dict | None = None,
    obs: ObsSpec | None = None,
) -> ExperimentSpec:
    mix = urgent_mix(args.urgent_fraction) if args.urgent_fraction is not None else None
    return ExperimentSpec.create(
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
        metrics=args.metrics,
        replicas=args.replicas,
        router=args.router or "round-robin",
        autoscale=autoscale,
        faults=tuple(args.faults) if args.faults else None,
        obs=obs,
    )


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
    if not args.autoscale and (args.max_replicas is not None or args.warmup is not None):
        print(
            "error: --max-replicas/--warmup only apply with --autoscale",
            file=sys.stderr,
        )
        return 2
    # Pass only user-provided knobs; AutoscalerConfig and run_once own
    # the defaults (warm-up length, 2x-initial-fleet ceiling).
    autoscale = None
    if args.autoscale:
        autoscale = {}
        if args.max_replicas is not None:
            autoscale["max_replicas"] = args.max_replicas
        if args.warmup is not None:
            autoscale["warmup_s"] = args.warmup
    config = _config_for(args, args.system, args.rps, autoscale=autoscale)
    _refuse_unrouted(args, [config])
    invariants = _maybe_invariants(args)
    if invariants is not None:
        # Cached records were never checked, so the point simulates fresh;
        # the report stays byte-identical because the checks are passive.
        from repro.analysis.runner import run_spec

        report = run_spec(config, invariants=invariants)
        _note_invariants(invariants)
        stats = "cache: bypassed (--check-invariants always simulates); simulations executed: 1"
    else:
        runner = SweepRunner(cache=_make_cache(args), jobs=1)
        report, stats = runner.run([config])[0].report, runner.stats_line()
    _print_report(report, config.system.model)
    if config.is_cluster:
        print(
            f"replicas: {config.cluster.replicas}   router: {config.cluster.router}   "
            f"autoscale: {'on' if autoscale is not None else 'off'}"
        )
    if report.chaos is not None:
        print()
        print(format_incident_table(report.chaos))
    print(stats)
    _write_out(args.out, report_to_json(report))
    return 0


def _dedupe(configs: list[ExperimentSpec]) -> list[ExperimentSpec]:
    """Drop repeated points (e.g. duplicate ``--rps`` values), keeping order."""
    return list(dict.fromkeys(configs))


def _grid_cell(args, config: ExperimentSpec, path: str, value: str) -> ExperimentSpec:
    """``config`` with one grid value; a fleet cell of a solo base gets back ``--router``."""
    cell = apply_axis(config, path, value)
    if args.router is not None and cell.cluster.is_cluster and not config.cluster.is_cluster:
        cell = replace(cell, cluster=replace(cell.cluster, router=args.router))
    return cell


def _cmd_sweep(args) -> int:
    runner = SweepRunner(cache=_make_cache(args), jobs=args.jobs)
    base = [_config_for(args, system, rps) for rps in args.rps for system in args.systems]
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
                    _grid_cell(args, config, axis.path, value),
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
    _refuse_unrouted(args, [config for config, _ in cells])
    solo = sum(not config.cluster.is_cluster for config, _ in cells)
    if args.router is not None and solo:
        note = f"note: --router has no effect on {solo} one-replica cell(s); they run round-robin"
        print(note, file=sys.stderr)
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
            f"  done: rps={result.config.workload.rps:g} {series_label(result)} ({source})",
            file=sys.stderr,
        )

    results = runner.run(configs, on_result=progress)
    stats_line = runner.stats_line()
    # Reports are already round-tripped through their cache-record form,
    # so cached and fresh points are identical here.
    points = [
        point_from_metrics(r.config.workload.rps, series_label(r), r.report.metrics)
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
    """Introspect a component registry: names and parameter schemas."""
    registry = _REGISTRIES[args.kind]
    for row in registry.describe():
        line = row["name"]
        if row["summary"]:
            line += f" — {row['summary']}"
        print(line)
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


def _cmd_explain(args) -> int:
    """Attribute latency and diagnose SLO violations for one experiment.

    Runs the spec with tracing on (always fresh: traced runs never
    consult the result cache; the ``obs`` section is excluded from cache
    keys, so the run's report still matches the cached, untraced point
    byte for byte), decomposes every request's end-to-end latency into
    the named components of :mod:`repro.obs.attrib`, and prints the
    per-category attribution table, the violation root-cause table, fleet
    diagnostics and the top-N slowest requests.  ``--out`` writes the
    full attribution export as strict JSON (byte-deterministic for a
    fixed seed); ``--trace-out`` and ``--series-out`` write the Perfetto
    trace and the gauge time-series.  ``--baseline FILE`` additionally
    diffs this run against a previous export component by component:
    exit 1 on regression past the thresholds, 2 on an unreadable
    baseline.  Stdout carries only the tables (markdown with
    ``--markdown``); run status goes to stderr.
    """
    from repro.analysis.runner import run_traced
    from repro.obs.attrib import (
        attribution_to_dict,
        attribution_to_json,
        decompose,
        format_attribution,
    )
    from repro.obs.diff import diff_attributions, format_diff_table
    from repro.obs.export import format_slowest_table, perfetto_json, series_to_json

    obs = ObsSpec(
        trace=True, sample_every_s=args.sample_every, iteration_log=args.iteration_log
    )
    config = _config_for(args, args.system, args.rps, obs=obs)
    _refuse_unrouted(args, [config])
    # Read the baseline first: an unreadable one should not cost a run.
    if args.baseline is not None:
        try:
            baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
            if not isinstance(baseline, dict) or not isinstance(baseline.get("totals"), dict):
                raise ValueError("not an attribution export (no 'totals' mapping)")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
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
    if args.trace_out is not None:
        _write_out(
            args.trace_out,
            perfetto_json(observer.collector, observer.sampler, chaos=report.chaos),
        )
        print("open the trace in https://ui.perfetto.dev (or chrome://tracing)", file=sys.stderr)
    if args.series_out is not None:
        _write_out(args.series_out, series_to_json(observer))
    print(format_attribution(payload, markdown=args.markdown))
    print()
    dominant = {a.rid: a.dominant for a in attribs}
    print(
        format_slowest_table(
            report.requests, n=args.top, markdown=args.markdown, attributions=dominant
        )
    )
    if args.baseline is None:
        return 0
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

    Exit 0 when the tree is clean (suppressions inventoried), 1 when
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


# ``explain``'s --top and diff thresholds are the only flags no library
# code checks, so these two types are their one validation.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AdaServe reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="serve one workload with one system on one replica or a "
        "router-fronted fleet, optionally autoscaled",
    )
    _add_workload_args(p_run)
    _add_cache_args(p_run)
    _add_point_args(p_run, rps=4.0, replicas=1)
    p_run.add_argument(
        "--autoscale",
        action="store_true",
        help="grow/shrink the fleet on queue depth (warm-up delayed)",
    )
    p_run.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        help="autoscaler ceiling (default: 2x --replicas)",
    )
    p_run.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="seconds before an autoscaled replica becomes routable",
    )
    p_run.add_argument("--out", default=None, help="write the report as strict JSON")
    _add_check_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="RPS sweep over systems")
    _add_workload_args(p_sweep)
    _add_cache_args(p_sweep)
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cache-missing points (default: 1, serial)",
    )
    p_sweep.add_argument(
        "--systems",
        nargs="+",
        default=["adaserve", "vllm"],
        help="system specs (see `repro list systems`)",
    )
    p_sweep.add_argument("--rps", nargs="+", type=float, default=[2.6, 3.4, 4.2])
    p_sweep.add_argument("--max-sim-time", type=float, default=1800.0)
    p_sweep.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replicas per point (> 1 sweeps at cluster scale)",
    )
    _add_router_arg(p_sweep)
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

    p_explain = sub.add_parser(
        "explain",
        help="attribute per-request latency to components and "
        "diagnose SLO violations",
    )
    _add_workload_args(p_explain)
    _add_point_args(p_explain, rps=8.0, replicas=1)
    p_explain.add_argument(
        "--sample-every",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="gauge sampling period in simulated seconds for the fleet "
        "diagnostics and --series-out (default: 0.5)",
    )
    p_explain.add_argument(
        "--iteration-log",
        action="store_true",
        help="also record engine telemetry, one record per engine pass "
        "for every system (exported under --series-out)",
    )
    p_explain.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the attribution export as strict JSON "
        "(byte-deterministic; diffable via --baseline)",
    )
    p_explain.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the Perfetto/Chrome trace_event JSON "
        "(open at https://ui.perfetto.dev)",
    )
    p_explain.add_argument(
        "--series-out",
        default=None,
        metavar="FILE",
        help="write the sampled gauge time-series (strict JSON)",
    )
    p_explain.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="slowest-requests table size (default: 10)",
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
    # A nested subcommand, so ``paths`` is lint's only positional and
    # options may come before or after it.
    check_sub = p_check.add_subparsers(dest="action", required=True, metavar="ACTION")
    p_lint = check_sub.add_parser(
        "lint", help="run the RPD determinism rules (see `repro list checks`)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="emit the strict-JSON findings report instead of text",
    )
    p_lint.set_defaults(func=_cmd_check)

    p_prof = sub.add_parser("profile", help="hardware profiling for a deployment")
    p_prof.add_argument("--model", default="llama70b")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--slack",
        type=float,
        default=1.5,
        help="latency slack over the memory-bound floor when picking B (>= 1)",
    )
    p_prof.set_defaults(func=_cmd_profile)
    return parser


def _run_checked(args) -> int:
    """``args.func`` under ``--check-invariants``: a violation exits 1."""
    from repro.check.invariants import InvariantViolation

    try:
        return args.func(args)
    except InvariantViolation as exc:
        # Structured violation report: one line per context field, so CI
        # logs name the invariant, replica, request, and block directly.
        print(f"error: {exc.format()}", file=sys.stderr)
        for key, value in exc.to_dict().items():
            if value is not None:
                print(f"  {key}: {value}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "check_invariants", False):
            return _run_checked(args)
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
