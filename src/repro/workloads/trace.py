"""Arrival-trace generation.

Two trace shapes from the paper:

- :func:`bursty_trace` — the Figure 7 real-world trace (originally from
  the Splitwise production traces): request frequency oscillates with
  bursts over a ~20-minute window.  We synthesize the same shape with a
  low-frequency modulation plus burst spikes, then draw arrivals from the
  resulting time-varying rate via Poisson thinning.  Like the paper, the
  trace is rescaled to a target average RPS.
- :func:`phased_trace` — the Figure 13 synthetic trace where each request
  category peaks at a different time (staggered Gaussian bumps), used for
  the workload-fluctuation sensitivity study (Figure 14).

Plus one cluster-scenario extension beyond the paper:

- :func:`diurnal_trace` — a day/night sinusoidal cycle (the scenario
  where fleet autoscaling matters; see :mod:`repro.cluster`).

Each returns arrival timestamps (plus per-arrival categories for the
phased trace); :mod:`repro.workloads.generator` turns them into requests.
Arrivals come from Poisson thinning on numpy columns
(:func:`repro.workloads.batcharrivals.thin_poisson`): a trace's rate maps
a float64 time column to rates, with every transcendental routed through
libm (``vsin``, ``vexp``, ``vpow2``).
"""

from __future__ import annotations

import math

import numpy as np

from repro._rng import fold_sum, hash_seed, uniform
from repro.workloads.batcharrivals import thin_poisson, vexp, vfull, vmaximum, vpow2, vsin


def bursty_trace(
    duration_s: float,
    target_rps: float,
    seed: int = 0,
    burstiness: float = 0.5,
    num_bursts: int = 4,
) -> list[float]:
    """Figure 7-shaped arrivals rescaled to ``target_rps``.

    The rate is a base level modulated by two sinusoids plus ``num_bursts``
    short Gaussian spikes at seeded positions; ``burstiness`` in [0, 1)
    controls modulation depth.
    """
    if duration_s <= 0 or target_rps <= 0:
        raise ValueError("duration and target_rps must be positive")
    if not 0.0 <= burstiness < 1.0:
        raise ValueError("burstiness must be in [0, 1)")

    h = hash_seed(seed, 0x4255_5253)  # "BURS"
    burst_pos = [uniform(h, 10 + k) * duration_s for k in range(num_bursts)]
    burst_width = duration_s * 0.02

    def shape(t):
        # Elementwise over a float64 time column; sin/exp/**2 go through
        # the exact kernels (numpy's SIMD transcendentals are a few ULP
        # off libm, which would fork digests).
        c = 2 * math.pi
        base = 1.0 + burstiness * 0.6 * vsin(c * t / (duration_s / 2.3))
        base = base + burstiness * 0.3 * vsin(c * t / (duration_s / 7.1) + 1.0)
        for p in burst_pos:
            base = base + burstiness * 1.5 * vexp(-0.5 * vpow2((t - p) / burst_width))
        return vmaximum(0.05, base)

    # Normalize the shape to the target average rate over a midpoint grid.
    samples = 512
    grid = shape(duration_s * (np.arange(samples) + 0.5) / samples).tolist()
    scale = target_rps / (fold_sum(grid) / samples)
    rate_max = scale * max(grid) * 1.05

    def rate(t):
        return scale * shape(t)

    return thin_poisson(rate, duration_s, rate_max, seed)


def uniform_trace(duration_s: float, rps: float, seed: int = 0) -> list[float]:
    """Homogeneous Poisson arrivals (steady load)."""
    if duration_s <= 0 or rps <= 0:
        raise ValueError("duration and rps must be positive")
    return thin_poisson(lambda t: vfull(t, rps), duration_s, rps, seed)


def diurnal_trace(
    duration_s: float,
    target_rps: float,
    seed: int = 0,
    peak_to_trough: float = 4.0,
    cycles: float = 1.0,
) -> list[float]:
    """Day/night arrival cycle rescaled to ``target_rps`` on average.

    The rate follows ``cycles`` full sinusoidal periods over the window,
    starting at the trough (night) and peaking mid-cycle, with
    ``peak_to_trough`` setting the peak:trough rate ratio.  This is the
    scenario where autoscaling matters: a fleet sized for the peak idles
    at night, one sized for the mean queues at noon.
    """
    if duration_s <= 0 or target_rps <= 0:
        raise ValueError("duration and target_rps must be positive")
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    if cycles <= 0:
        raise ValueError("cycles must be positive")

    # Amplitude that yields the requested peak:trough ratio around a
    # unit mean: (1 + a) / (1 - a) = ratio.
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)

    def rate(t):
        phase = 2 * math.pi * cycles * t / duration_s
        return target_rps * (1.0 + amplitude * vsin(phase - math.pi / 2))

    rate_max = target_rps * (1.0 + amplitude)
    return thin_poisson(rate, duration_s, rate_max, seed)


def phased_trace(
    duration_s: float,
    categories: list[str],
    peak_rps: float,
    base_rps: float = 0.3,
    seed: int = 0,
) -> list[tuple[float, str]]:
    """Figure 13 trace: categories peak at staggered times.

    Each category's arrival rate is ``base_rps`` plus a Gaussian bump of
    height ``peak_rps`` centred at an evenly staggered position in the
    window.  Returns (arrival_time, category) sorted by time.
    """
    if not categories:
        raise ValueError("need at least one category")
    if peak_rps <= 0 or base_rps < 0:
        raise ValueError("invalid rates")
    width = duration_s / (len(categories) * 2.5)
    out: list[tuple[float, str]] = []
    for k, cat in enumerate(categories):
        centre = duration_s * (k + 0.5) / len(categories)

        def rate(t, c: float = centre):
            return base_rps + peak_rps * vexp(-0.5 * vpow2((t - c) / width))

        rate_max = base_rps + peak_rps
        arrivals = thin_poisson(rate, duration_s, rate_max, hash_seed(seed, k))
        out.extend((t, cat) for t in arrivals)
    out.sort(key=lambda tc: tc[0])
    return out


def trace_frequency(arrivals: list[float], bin_s: float, duration_s: float) -> list[int]:
    """Histogram arrivals into bins (for reproducing Figures 7/13)."""
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    n_bins = max(1, int(math.ceil(duration_s / bin_s)))
    counts = [0] * n_bins
    for t in arrivals:
        idx = min(n_bins - 1, int(t / bin_s))
        counts[idx] += 1
    return counts
