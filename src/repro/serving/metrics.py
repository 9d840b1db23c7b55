"""Serving metrics: SLO attainment, goodput, violation rates (§6.1).

- **SLO attainment**: percentage of requests whose average per-token
  latency is within their TPOT SLO.
- **Goodput**: tokens per second generated by *attained* requests, over
  the span from the first arrival to the last completion.
- **Violation rate**: 1 - attainment (the paper reports "x.x-fold reduction
  in SLO violations" as the ratio of violation rates).

Also aggregates speculation statistics (mean accepted tokens per request
per verification step — Figure 12) and per-category breakdowns (Figure 1).

:func:`aggregate_metrics` is the one aggregation path.  It folds a run's
requests, in order, through :class:`MetricsAccumulator`:

- every count/sum-derived field (request counts, token totals, span,
  means, speculation and prefix statistics) is a running value in feed
  order, so it is the same in every mode;
- latency percentiles are nearest-rank reads of per-category
  reservoirs.  The ``metrics`` spec knob (:data:`METRICS_MODES`) sets
  their capacity.  In ``exact`` mode (the default) a reservoir keeps
  every sample, so percentiles are exact.  In ``streaming`` mode it
  keeps :data:`RESERVOIR_CAPACITY` samples, making metrics memory O(1)
  in request count.  Replacement draws are Algorithm R with
  splitmix64-derived draws keyed by category and metric name — no global
  RNG state, so results do not depend on what else ran in the process.
  While a category's sample count is within capacity the reservoir *is*
  the full sample and percentiles are exact too; beyond it they are
  estimates whose rank error has standard deviation
  ``sqrt(q * (1 - q) / capacity)``: 0.78% of rank at p50 and 0.16% at
  p99 for the capacity 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro._rng import derive_seed, randint
from repro.serving.request import Request

#: Reservoir capacity per (category, latency metric) in ``streaming`` mode.
RESERVOIR_CAPACITY = 4096

#: The aggregation mode of a spec that does not name one.
DEFAULT_METRICS_MODE = "exact"

#: Aggregation mode (the ``metrics`` system knob) -> reservoir capacity;
#: ``None`` keeps every sample.
METRICS_MODES: dict[str, int | None] = {
    DEFAULT_METRICS_MODE: None,
    "streaming": RESERVOIR_CAPACITY,
}


@dataclass(frozen=True)
class CategoryMetrics:
    """Per-category outcome summary."""

    name: str
    num_requests: int
    num_attained: int
    #: Latency statistics are ``None`` when no request in the category
    #: finished (no samples) — the same convention as
    #: :attr:`RunMetrics.mean_ttft_s`.  NaN would break dataclass
    #: equality between byte-identical runs and strict-JSON export
    #: (``allow_nan=False``).
    mean_tpot_s: float | None
    p99_tpot_s: float | None
    mean_ttft_s: float | None = None
    p99_ttft_s: float | None = None
    p50_tpot_s: float | None = None
    p50_ttft_s: float | None = None

    @property
    def attainment(self) -> float:
        """Fraction of requests attaining their SLO."""
        return self.num_attained / self.num_requests if self.num_requests else 0.0


@dataclass(frozen=True)
class RunMetrics:
    """Outcome summary of one simulated run."""

    num_requests: int
    num_finished: int
    num_attained: int
    total_tokens: int
    attained_tokens: int
    span_s: float
    mean_accepted_per_verify: float
    per_category: dict[str, CategoryMetrics] = field(default_factory=dict)
    #: Mean time-to-first-token over finished requests (None if none
    #: finished — not NaN, which would break dataclass equality between
    #: byte-identical runs).
    mean_ttft_s: float | None = None
    #: Requests that matched a cached prefix at admission.
    prefix_hit_requests: int = 0
    #: Prompt tokens served from the prefix cache instead of prefilled.
    prefill_tokens_saved: int = 0
    #: Requests evacuated from a crashed replica at least once
    #: (chaos runs; see repro.chaos).
    requests_disrupted: int = 0
    #: Disrupted requests still unfinished at end of run.
    requests_lost: int = 0

    @property
    def attainment(self) -> float:
        """SLO attainment over all requests (unfinished count as violations)."""
        return self.num_attained / self.num_requests if self.num_requests else 0.0

    @property
    def violation_rate(self) -> float:
        """1 - attainment."""
        return 1.0 - self.attainment

    @property
    def goodput(self) -> float:
        """Tokens/s from attained requests over the serving span."""
        return self.attained_tokens / self.span_s if self.span_s > 0 else 0.0

    @property
    def throughput(self) -> float:
        """Tokens/s from all requests over the serving span."""
        return self.total_tokens / self.span_s if self.span_s > 0 else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of requests that matched a cached prefix."""
        return self.prefix_hit_requests / self.num_requests if self.num_requests else 0.0


def _percentile_sorted(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (q in [0, 100]).

    True nearest-rank definition: the smallest ordered value whose rank
    is at least ``ceil(q/100 * n)`` (rank 1 for q = 0).

    Empty input is a caller bug, not a value: a percentile of nothing
    used to come back as ``float("nan")``, which breaks dataclass
    equality between byte-identical runs and the strict-JSON exporters
    (``allow_nan=False``).  Callers with possibly-empty samples must
    guard and report ``None`` (the :class:`CategoryMetrics` convention).
    """
    if not ordered:
        raise ValueError("percentile of an empty sample (guard and use None)")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Reservoir:
    """Deterministic Algorithm-R uniform sample of a float stream.

    Replacement draws come from ``randint(key, count, 0, count)`` — a
    pure function of the stream key and the item's ordinal — so the
    retained sample depends only on (key, stream contents), never on
    process-global RNG state or interleaving with other streams.  A
    ``capacity`` of ``None`` keeps every item.
    """

    __slots__ = ("_key", "capacity", "count", "_sample")

    def __init__(self, key: int, capacity: int | None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._key = key
        self.capacity = capacity
        self.count = 0
        self._sample: list[float] = []

    def add(self, value: float) -> None:
        """Offer one observation to the reservoir."""
        self.count += 1
        if self.capacity is None or len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        # Classic Algorithm R: item i (1-based) replaces a random slot
        # with probability capacity / i.
        j = randint(self._key, self.count, 0, self.count)
        if j < self.capacity:
            self._sample[j] = value

    def percentiles(self, *qs: float) -> list[float]:
        """Nearest-rank percentiles of the retained sample (one sort)."""
        ordered = sorted(self._sample)
        return [_percentile_sorted(ordered, q) for q in qs]


class _CategoryAccumulator:
    """Online per-category sums plus latency reservoirs."""

    __slots__ = (
        "name", "num_requests", "num_attained", "tpot_sum", "ttft_sum",
        "num_finished", "tpots", "ttfts",
    )

    def __init__(self, name: str, capacity: int | None) -> None:
        self.name = name
        self.num_requests = 0
        self.num_attained = 0
        self.num_finished = 0
        self.tpot_sum = 0.0
        self.ttft_sum = 0.0
        self.tpots = Reservoir(derive_seed(0x52455356, "tpot", name), capacity)  # "RESV"
        self.ttfts = Reservoir(derive_seed(0x52455356, "ttft", name), capacity)

    def add(self, r: Request) -> None:
        self.num_requests += 1
        if not r.is_finished:
            return
        self.num_finished += 1
        tpot = r.avg_tpot
        ttft = r.ttft
        self.tpot_sum += tpot
        self.ttft_sum += ttft
        self.tpots.add(tpot)
        self.ttfts.add(ttft)
        if r.attained:
            self.num_attained += 1

    def finalize(self) -> CategoryMetrics:
        n = self.num_finished
        if not n:
            # Every request went unfinished (overload, abort horizon): no
            # latency samples, so every statistic is None (JSON null).
            return CategoryMetrics(self.name, self.num_requests, self.num_attained, None, None)
        p50_tpot, p99_tpot = self.tpots.percentiles(50.0, 99.0)
        p50_ttft, p99_ttft = self.ttfts.percentiles(50.0, 99.0)
        return CategoryMetrics(
            name=self.name,
            num_requests=self.num_requests,
            num_attained=self.num_attained,
            mean_tpot_s=self.tpot_sum / n,
            p99_tpot_s=p99_tpot,
            mean_ttft_s=self.ttft_sum / n,
            p99_ttft_s=p99_ttft,
            p50_tpot_s=p50_tpot,
            p50_ttft_s=p50_ttft,
        )


class MetricsAccumulator:
    """Online :class:`RunMetrics` accumulator.

    Feed requests with :meth:`add`, then :meth:`finalize`.  Count/sum
    fields are exact; percentiles are exact while a category has at most
    ``capacity`` finished requests (always, for ``None``) and reservoir
    estimates beyond that (error bounds in the module docstring).
    """

    def __init__(self, capacity: int | None) -> None:
        self._capacity = capacity
        self._by_category: dict[str, _CategoryAccumulator] = {}
        self.num_requests = 0
        self.num_finished = 0
        self.num_attained = 0
        self.total_tokens = 0
        self.attained_tokens = 0
        self.total_verify = 0
        self.total_accepted = 0
        self.prefix_hit_requests = 0
        self.prefill_tokens_saved = 0
        self.requests_disrupted = 0
        self.requests_lost = 0
        self.first_arrival = math.inf
        self.last_event = -math.inf
        self.ttft_sum = 0.0

    def add(self, r: Request) -> None:
        """Fold one request into the accumulator."""
        self.num_requests += 1
        cat = self._by_category.get(r.category)
        if cat is None:
            cat = self._by_category[r.category] = _CategoryAccumulator(
                r.category, self._capacity
            )
        cat.add(r)
        self.total_tokens += r.n_generated
        self.total_verify += r.verify_steps
        self.total_accepted += r.accepted_draft_tokens
        if r.cached_prompt_tokens > 0:
            self.prefix_hit_requests += 1
            self.prefill_tokens_saved += r.cached_prompt_tokens
        if r.failover_count > 0:
            self.requests_disrupted += 1
            if not r.is_finished:
                self.requests_lost += 1
        if r.arrival_time < self.first_arrival:
            self.first_arrival = r.arrival_time
        if r.is_finished:
            self.num_finished += 1
            self.ttft_sum += r.ttft
            if r.attained:
                self.num_attained += 1
                self.attained_tokens += r.n_generated
            if r.finish_time is not None and r.finish_time > self.last_event:
                self.last_event = r.finish_time

    def finalize(self) -> RunMetrics:
        """The accumulated :class:`RunMetrics`."""
        if self.num_requests == 0:
            return RunMetrics(0, 0, 0, 0, 0, 0.0, 0.0)
        last_event = self.last_event
        if last_event == -math.inf:
            last_event = self.first_arrival
        span = max(1e-9, last_event - self.first_arrival)
        per_cat = {
            name: self._by_category[name].finalize()
            for name in sorted(self._by_category)
        }
        return RunMetrics(
            num_requests=self.num_requests,
            num_finished=self.num_finished,
            num_attained=self.num_attained,
            total_tokens=self.total_tokens,
            attained_tokens=self.attained_tokens,
            span_s=span,
            mean_accepted_per_verify=(
                self.total_accepted / self.total_verify if self.total_verify else 0.0
            ),
            per_category=per_cat,
            mean_ttft_s=(self.ttft_sum / self.num_finished) if self.num_finished else None,
            prefix_hit_requests=self.prefix_hit_requests,
            prefill_tokens_saved=self.prefill_tokens_saved,
            requests_disrupted=self.requests_disrupted,
            requests_lost=self.requests_lost,
        )


def aggregate_metrics(
    requests: Iterable[Request], mode: str = DEFAULT_METRICS_MODE
) -> RunMetrics:
    """Aggregate a run's requests into :class:`RunMetrics`.

    ``mode`` is a :data:`METRICS_MODES` key: it sets the reservoir
    capacity, which only matters to the percentiles of a category with
    more finished requests than that capacity.
    """
    try:
        capacity = METRICS_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown metrics mode {mode!r} (expected one of {tuple(METRICS_MODES)})"
        ) from None
    acc = MetricsAccumulator(capacity)
    for r in requests:
        acc.add(r)
    return acc.finalize()


def violation_reduction(baseline: RunMetrics, improved: RunMetrics) -> float:
    """How many times fewer violations ``improved`` has vs ``baseline``.

    Matches the paper's "reduces SLO violations by up to N-fold" metric.
    Returns ``inf`` when the improved system has zero violations and the
    baseline has some.
    """
    if improved.violation_rate == 0.0:
        return float("inf") if baseline.violation_rate > 0 else 1.0
    return baseline.violation_rate / improved.violation_rate
