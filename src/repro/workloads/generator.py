"""Workload generation: traces x categories x datasets -> requests.

``WorkloadGenerator`` reproduces the paper's workload recipe (§6.1): for
each arrival timestamp (from a trace), sample a category according to the
mix, then sample a request (prompt/output lengths) from that category's
dataset, and attach the category's TPOT SLO resolved against the deployed
model's baseline latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._rng import hash_seed, uniform
from repro.hardware.roofline import RooflineModel
from repro.registry import TRACES, Param
from repro.serving.request import Request
from repro.workloads import batcharrivals
from repro.workloads.categories import CATEGORIES, DEFAULT_MIX, Category
from repro.workloads.datasets import DATASETS, SyntheticDataset
from repro.workloads.trace import (
    bursty_trace,
    diurnal_trace,
    phased_trace,
    uniform_trace,
)


def _is_ascending(arrivals: list[float]) -> bool:
    """Single monotonicity scan (non-decreasing)."""
    return all(arrivals[i - 1] <= arrivals[i] for i in range(1, len(arrivals)))


@dataclass
class WorkloadGenerator:
    """Builds request lists for the evaluation scenarios.

    Parameters
    ----------
    roofline:
        Target-model cost model; supplies the baseline latency that
        anchors category-1 SLOs.
    seed:
        Workload seed (category draws, length draws, trace randomness).
    slo_scale:
        Figure 11 knob — multiplies urgent (baseline-relative) SLOs.
    categories, datasets:
        Overridable registries (tests swap in tiny datasets).
    """

    roofline: RooflineModel
    seed: int = 0
    slo_scale: float = 1.0
    categories: dict[str, Category] = field(default_factory=lambda: dict(CATEGORIES))
    datasets: dict[str, SyntheticDataset] = field(default_factory=lambda: dict(DATASETS))

    def __post_init__(self) -> None:
        self._baseline = self.roofline.baseline_decode_latency

    # ------------------------------------------------------------------
    def _make_request(self, rid: int, arrival: float, category: Category) -> Request:
        dataset = self.datasets[category.dataset]
        prompt_len, output_len = dataset.sample(self.seed, rid)
        return Request(
            rid=rid,
            category=category.name,
            arrival_time=arrival,
            prompt_len=prompt_len,
            max_new_tokens=output_len,
            tpot_slo=category.resolve_slo(self._baseline, self.slo_scale),
            predictability=category.predictability,
            priority=0 if category.is_urgent else 1,
        )

    def _category_cdf(self, mix: dict[str, float]) -> tuple[list[str], list[float]]:
        """Normalized category CDF for ``mix``, computed once per workload.

        The CDF entries are accumulated with exactly the scalar draw
        loop's float sequence (``acc += mix[name] / total`` over sorted
        names), so sampling against the precomputed list is bit-identical
        to the historical per-rid recomputation.
        """
        total = sum(mix.values())
        names = sorted(mix)
        cdf: list[float] = []
        acc = 0.0
        for name in names:
            acc += mix[name] / total
            cdf.append(acc)
        return names, cdf

    def _sample_category_cdf(
        self, names: list[str], cdf: list[float], rid: int
    ) -> Category:
        """One category draw against a precomputed normalized CDF."""
        h = hash_seed(self.seed, 0x434154, rid)  # "CAT"
        u = uniform(h, 0)
        for name, acc in zip(names, cdf):
            if u < acc:
                return self.categories[name]
        return self.categories[names[-1]]

    def _sample_category(self, mix: dict[str, float], rid: int) -> Category:
        names, cdf = self._category_cdf(mix)
        return self._sample_category_cdf(names, cdf, rid)

    # ------------------------------------------------------------------
    def from_arrivals(
        self, arrivals: list[float], mix: dict[str, float] | None = None
    ) -> list[Request]:
        """Requests for explicit arrival timestamps, categories by mix."""
        mix = mix or DEFAULT_MIX
        unknown = set(mix) - set(self.categories)
        if unknown:
            raise KeyError(f"unknown categories in mix: {sorted(unknown)}")
        # Every registered trace already emits ascending arrivals; one
        # monotonicity scan skips the redundant re-sort then (explicit
        # out-of-order input still sorts, preserving the contract).
        if not _is_ascending(arrivals):
            arrivals = sorted(arrivals)
        if batcharrivals.enabled(len(arrivals)):
            return batcharrivals.build_requests(self, arrivals, mix)
        names, cdf = self._category_cdf(mix)
        return [
            self._make_request(rid, t, self._sample_category_cdf(names, cdf, rid))
            for rid, t in enumerate(arrivals)
        ]

    def columnar_from_arrivals(
        self, arrivals: list[float], mix: dict[str, float] | None = None
    ) -> "batcharrivals.ColumnarWorkload":
        """The same workload as :meth:`from_arrivals`, as numpy columns.

        ``columnar_from_arrivals(...).materialize()`` is bit-identical to
        ``from_arrivals(...)`` but the column store holds 32 bytes per
        request (64 with session columns) and materializes any row slice
        on demand (``materialize(lo, hi)``).
        """
        mix = mix or DEFAULT_MIX
        unknown = set(mix) - set(self.categories)
        if unknown:
            raise KeyError(f"unknown categories in mix: {sorted(unknown)}")
        if not _is_ascending(arrivals):
            arrivals = sorted(arrivals)
        return batcharrivals.columnar_from_arrivals(self, arrivals, mix)

    def bursty(
        self,
        duration_s: float,
        rps: float,
        mix: dict[str, float] | None = None,
        burstiness: float = 0.5,
    ) -> list[Request]:
        """Figure 7-style workload at a target average RPS."""
        return self.from_arrivals(
            bursty_trace(duration_s, rps, seed=self.seed, burstiness=burstiness), mix
        )

    def steady(
        self,
        duration_s: float,
        rps: float,
        mix: dict[str, float] | None = None,
    ) -> list[Request]:
        """Homogeneous-Poisson workload."""
        return self.from_arrivals(uniform_trace(duration_s, rps, seed=self.seed), mix)

    def diurnal(
        self,
        duration_s: float,
        rps: float,
        mix: dict[str, float] | None = None,
        peak_to_trough: float = 4.0,
    ) -> list[Request]:
        """Day/night-cycle workload at a target average RPS."""
        return self.from_arrivals(
            diurnal_trace(
                duration_s, rps, seed=self.seed, peak_to_trough=peak_to_trough
            ),
            mix,
        )

    def phased(
        self,
        duration_s: float,
        peak_rps: float,
        base_rps: float = 0.3,
        category_order: tuple[str, ...] = ("chatbot", "coding", "summarization"),
    ) -> list[Request]:
        """Figure 13 workload: categories peak at staggered times."""
        unknown = set(category_order) - set(self.categories)
        if unknown:
            raise KeyError(f"unknown categories: {sorted(unknown)}")
        pairs = phased_trace(
            duration_s, list(category_order), peak_rps, base_rps, seed=self.seed
        )
        if batcharrivals.enabled(len(pairs)):
            return batcharrivals.columnar_phased(
                self, pairs, tuple(category_order)
            ).materialize()
        return [
            self._make_request(rid, t, self.categories[cat])
            for rid, (t, cat) in enumerate(pairs)
        ]


# ----------------------------------------------------------------------
# Trace registry: each kind maps an experiment workload section to a
# request list through one WorkloadGenerator method.  The factory
# signature is uniform — (generator, duration_s, rps, mix=None, **params)
# — so registered trace parameters are sweepable like any other axis.


@TRACES.register(
    "bursty",
    params=[
        Param(
            "burstiness", "float", default=0.5,
            minimum=0.0, maximum=1.0, exclusive_max=True,
            help="modulation depth of the sinusoid+spike rate shape",
        ),
    ],
    summary="Figure 7-shaped arrivals: sinusoids plus seeded bursts",
)
def _bursty(gen: WorkloadGenerator, duration_s, rps, mix=None, burstiness=0.5):
    return gen.bursty(duration_s, rps, mix=mix, burstiness=burstiness)


@TRACES.register("steady", summary="homogeneous-Poisson arrivals")
def _steady(gen: WorkloadGenerator, duration_s, rps, mix=None):
    return gen.steady(duration_s, rps, mix=mix)


@TRACES.register(
    "diurnal",
    params=[
        Param(
            "peak_to_trough", "float", default=4.0, minimum=1.0,
            help="peak:trough rate ratio of the day/night cycle",
        ),
    ],
    summary="day/night sinusoidal cycle (the autoscaling scenario)",
)
def _diurnal(gen: WorkloadGenerator, duration_s, rps, mix=None, peak_to_trough=4.0):
    return gen.diurnal(duration_s, rps, mix=mix, peak_to_trough=peak_to_trough)


@TRACES.register(
    "phased",
    params=[
        Param(
            "base_rps", "float", default=0.3, minimum=0.0, exclusive_min=True,
            help="off-peak arrival rate of each category",
        ),
    ],
    summary="Figure 13 trace: categories peak at staggered times (fixed mix)",
)
def _phased(gen: WorkloadGenerator, duration_s, rps, mix=None, base_rps=0.3):
    # The phased trace defines its own category schedule; mix is ignored.
    return gen.phased(duration_s, peak_rps=rps, base_rps=base_rps)
