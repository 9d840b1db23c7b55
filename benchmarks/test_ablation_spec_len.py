"""Ablation: static speculation length as a first-class sweep axis.

The paper evaluates vLLM-Spec at three hand-picked lengths (4/6/8,
Figures 8-12) because the flat API could only name them.  With the
registry, the speculation length ``k`` is a declared parameter of the
``vllm-spec`` component, so this benchmark sweeps it densely through the
standard grid machinery — ``expand_grid`` over ``system.k`` — exactly
what ``repro sweep --systems vllm-spec --grid system.k=...`` does.

Expected shape (§6.2's critique of static speculation, sampled finely):
under load, goodput as a function of k is not monotone — drafting more
tokens per request eventually floods verification and inflates iteration
latency — so the best k sits strictly inside the swept range's interior
or at least the extremes do not dominate everywhere.  We assert the
weak, robust form: the k-sweep is not constant, the extreme k=1 point
does not win goodput, and every point runs through the shared cache
(warm repeats execute zero simulations).

``smoke``-marked: ~8 short points, cached, well under CI budget.
"""

from __future__ import annotations

import pytest

from benchmarks.common import benchmark_cache, run_grid, standard_config
from repro.analysis.report import format_table
from repro.analysis.runner import SweepRunner
from repro.analysis.spec import expand_grid, parse_grid_axis

pytestmark = pytest.mark.smoke

_MODEL = "llama70b"
#: Past the single-engine knee, where speculation length matters most.
_RPS = 4.6
_DURATION_S = 18.0
_K_SWEEP = (1, 2, 4, 6, 8, 12)


def _grid():
    base = standard_config(_MODEL, "vllm-spec", _RPS, duration_s=_DURATION_S)
    axis = parse_grid_axis("system.k=" + ",".join(str(k) for k in _K_SWEEP))
    return expand_grid([base], [axis])


def test_spec_length_ablation():
    grid = _grid()
    # The axis re-resolves the component spec per value: canonical names,
    # one per k, with the default k collapsing to the bare name.
    assert [c.system.name for c in grid] == [
        "vllm-spec:k=1", "vllm-spec:k=2", "vllm-spec", "vllm-spec:k=6",
        "vllm-spec:k=8", "vllm-spec:k=12",
    ]
    assert len({c.digest() for c in grid}) == len(grid)

    by_k = dict(zip(_K_SWEEP, run_grid(grid)))

    print("\n=== Ablation: vLLM-Spec speculation length (registry axis) ===")
    rows = [
        [str(k), f"{r.report.metrics.attainment * 100:.1f}%",
         f"{r.report.metrics.goodput:.0f}",
         f"{r.report.metrics.mean_accepted_per_verify:.2f}"]
        for k, r in by_k.items()
    ]
    print(format_table(["k", "attainment", "goodput", "acc/verify"], rows))

    goodputs = {k: r.report.metrics.goodput for k, r in by_k.items()}
    assert len(set(goodputs.values())) > 1, "k must actually change the outcome"
    assert goodputs[1] < max(goodputs.values()), "no-speculation should not win goodput"
    # Acceptance per verify grows with k (longer chains accept more in
    # absolute terms), confirming the parameter reaches the scheduler.
    accepted = [by_k[k].report.metrics.mean_accepted_per_verify for k in _K_SWEEP]
    assert accepted == sorted(accepted)


def test_spec_length_ablation_warm_cache_is_free():
    run_grid(_grid())  # prime (cache hit or fill)
    warm = SweepRunner(cache=benchmark_cache(), jobs=1)
    warm.run(_grid())
    assert warm.executed == 0, "warm repeat of the ablation must run zero simulations"
