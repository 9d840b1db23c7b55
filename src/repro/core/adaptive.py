"""Adaptive control of speculation depth and width (§5.2, Equations 8-9).

The beam shape (d, w) trades speculation accuracy against draft-model
overhead, and the right trade-off depends on load: with many active
requests the per-request share of the verification budget shrinks, so deep
or wide beams only produce tokens that selection will discard.  AdaServe
recomputes at the start of every iteration:

    d = clip(D_max, D_min, floor(B1 / (n + c1)) - 1)
    w = clip(W_max, 1,     floor(B2 / n) + c2)

where n is the number of active requests, B1 the verifier's per-step token
budget, B2 the speculator's per-step token budget, and c1/c2 tunable
constants (the paper selects them by grid search).
"""

from __future__ import annotations

from dataclasses import dataclass


def clip(upper: float, lower: float, value: float) -> float:
    """The paper's clip(max, min, x): constrain x into [lower, upper]."""
    if lower > upper:
        raise ValueError(f"empty clip range [{lower}, {upper}]")
    return max(lower, min(upper, value))


@dataclass(frozen=True)
class AdaptiveConfig:
    """Bounds and constants for the adaptive controller."""

    d_min: int = 1
    d_max: int = 8
    w_max: int = 4
    c1: float = 1.0
    c2: int = 0

    def __post_init__(self) -> None:
        if self.d_min < 0 or self.d_max < self.d_min:
            raise ValueError(f"invalid depth bounds: {self}")
        if self.w_max < 1:
            raise ValueError(f"invalid width bound: {self}")


class AdaptiveController:
    """Per-iteration (d, w) policy driven by the active request count.

    Parameters
    ----------
    verify_budget:
        B1 — tokens the verifier can process per decoding step (from
        hardware profiling).
    draft_budget:
        B2 — tokens the speculator can process per decoding step.
    config:
        Bounds and tunable constants.
    """

    def __init__(
        self,
        verify_budget: int,
        draft_budget: int,
        config: AdaptiveConfig | None = None,
    ) -> None:
        if verify_budget < 1 or draft_budget < 1:
            raise ValueError("budgets must be positive")
        self.verify_budget = verify_budget
        self.draft_budget = draft_budget
        self.config = config or AdaptiveConfig()

    def depth(self, n_active: int) -> int:
        """Equation 8: beam depth for the current load."""
        if n_active < 1:
            raise ValueError("n_active must be >= 1")
        cfg = self.config
        raw = self.verify_budget / (n_active + cfg.c1)
        return int(clip(cfg.d_max, cfg.d_min, int(raw) - 1))

    def width(self, n_active: int) -> int:
        """Equation 9: beam width for the current load."""
        if n_active < 1:
            raise ValueError("n_active must be >= 1")
        cfg = self.config
        raw = self.draft_budget // n_active + cfg.c2
        return int(clip(cfg.w_max, 1, raw))

    def params(self, n_active: int) -> tuple[int, int]:
        """(d, w) for the current load."""
        return self.depth(n_active), self.width(n_active)
