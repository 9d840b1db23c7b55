"""Profiling-based token-budget selection.

The paper (§3, footnote 1): "The total budget is determined based on
hardware profiling.  AdaServe chooses an optimal budget that balances
decoding throughput and latency."

``HardwareProfiler`` reproduces that step against the roofline model: it
sweeps the number of batched verification tokens and returns the largest
budget whose iteration latency stays within a slack factor of the
memory-bound floor.  Inside that regime extra tokens are nearly free
(bandwidth-bound execution under-utilizes compute), so the budget marks
where verification stops being cheap — exactly the knee the paper's budget
sits at.

The same machinery derives the draft model's per-step token budget B2 used
by the adaptive controller (Equations 8-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.roofline import RooflineModel
from repro.registry import SpecError

#: Default latency slack over the memory-bound floor when picking B.
DEFAULT_BUDGET_SLACK = 1.5

#: Resolution of the profiling sweep.
_SWEEP_STEP = 8
_SWEEP_MAX = 16_384


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of a budget-selection profile."""

    token_budget: int
    floor_latency_s: float
    budget_latency_s: float
    saturation_tokens: int
    sweep: tuple[tuple[int, float], ...]

    @property
    def latency_ratio(self) -> float:
        """Budget latency relative to the floor."""
        return self.budget_latency_s / self.floor_latency_s


class HardwareProfiler:
    """Selects token budgets by sweeping the roofline model."""

    def __init__(self, roofline: RooflineModel, slack: float = DEFAULT_BUDGET_SLACK) -> None:
        # NaN fails both comparisons; inf would pin B at the sweep cap.
        if not 1.0 <= slack < math.inf:
            raise SpecError(f"slack must be >= 1 and finite, got {slack!r}")
        self.roofline = roofline
        self.slack = slack

    def profile(self, typical_context_tokens: int = 0) -> ProfileResult:
        """Sweep batch tokens and pick the budget.

        Parameters
        ----------
        typical_context_tokens:
            Expected total KV-resident tokens during verification; folded
            into every sweep point so the budget accounts for attention
            cost at realistic occupancy.
        """
        floor = self.roofline.forward_latency(1, typical_context_tokens)
        limit = floor * self.slack
        sweep: list[tuple[int, float]] = []
        best = 1
        tokens = 1
        while tokens <= _SWEEP_MAX:
            lat = self.roofline.forward_latency(tokens, typical_context_tokens)
            sweep.append((tokens, lat))
            if lat <= limit:
                best = tokens
            else:
                break
            tokens = _SWEEP_STEP if tokens == 1 else tokens + _SWEEP_STEP
        return ProfileResult(
            token_budget=best,
            floor_latency_s=floor,
            budget_latency_s=self.roofline.forward_latency(best, typical_context_tokens),
            saturation_tokens=self.roofline.saturation_tokens(),
            sweep=tuple(sweep),
        )

    def token_budget(self, typical_context_tokens: int = 0) -> int:
        """Shorthand: just the selected budget B."""
        return self.profile(typical_context_tokens).token_budget
