"""Adaptive speculation under load swings (Equations 8-9 in action).

Serves a strongly bursty trace with AdaServe and reads the engine's
per-iteration telemetry to show the beam shape (d, w), batch size and
realized acceptance over time: the policy speculates aggressively in the
valleys and conservatively at the peaks.

Run:  python examples/adaptive_speculation.py
"""

from __future__ import annotations

from repro.analysis import build_setup
from repro.analysis.harness import make_scheduler
from repro.serving.server import ServingSimulator
from repro.serving.telemetry import IterationLog
from repro.workloads.generator import WorkloadGenerator


def main() -> None:
    setup = build_setup("llama70b")
    gen = WorkloadGenerator(setup.target_roofline, seed=9)
    requests = gen.bursty(duration_s=60.0, rps=3.8)
    print(f"workload: {len(requests)} requests over 60 s (bursty)")

    engine = setup.build_engine()
    engine.telemetry = IterationLog()
    scheduler = make_scheduler("adaserve", engine)
    report = ServingSimulator(engine, scheduler, requests).run()
    # The engine logs every pass; the beam shape lives on the speculative ones.
    log = IterationLog(engine.telemetry.of_kind("speculative"))

    print(
        f"\nAdaServe: attainment {report.metrics.attainment * 100:.1f}%, "
        f"goodput {report.metrics.goodput:.0f} tok/s, "
        f"{len(log.of_kind('speculative'))} speculative iterations\n"
    )

    bucket = 5.0
    ns = dict(log.bucketed_mean("batch_size", bucket))
    ds = dict(log.bucketed_mean("depth", bucket))
    ws = dict(log.bucketed_mean("width", bucket))
    acc = dict(log.bucketed_mean("tokens_accepted", bucket))
    print("time    active n   depth d   width w   accepted/iter")
    for t in sorted(ns):
        bar = "#" * int(ns[t] / 2)
        print(
            f"{t:5.0f}s  {ns[t]:8.1f}  {ds.get(t, 0):8.1f}  "
            f"{ws.get(t, 0):8.1f}  {acc.get(t, 0):12.1f}  {bar}"
        )

    batch_series = [r.batch_size for r in log.of_kind("speculative")]
    depth_series = [r.depth for r in log.of_kind("speculative")]
    print(
        f"\nacross the run: n ranged {min(batch_series)}-{max(batch_series)}, "
        f"d ranged {min(depth_series)}-{max(depth_series)} — deeper beams when "
        f"the batch is small, shallow ones at the peaks (Equation 8)."
    )


if __name__ == "__main__":
    main()
