"""AdaServe core: SLO-customized speculative decoding.

The paper's primary contribution: optimal token-tree construction
(Algorithm 1), the practical speculate-select-verify pipeline
(Algorithm 2), adaptive beam control (Equations 8-9) and the
SLO-customized scheduler that plugs into the serving substrate.
"""

from repro.core.adaptive import AdaptiveConfig, AdaptiveController, clip, grid_search_constants
from repro.core.optimal import INVALID, OptimalResult, construct_optimal_trees
from repro.core.pipeline import BatchItem, IterationResult, RequestOutcome, run_iteration
from repro.core.scheduler import AdaServeScheduler
from repro.core.selection import (
    DEFAULT_N_MAX,
    RequestSelection,
    SelectionResult,
    select_tokens,
)
from repro.core.slo import (
    SLOClass,
    average_tpot,
    capped_requirement,
    is_on_track,
    min_accept_requirement,
)
from repro.core.speculation import SpeculationResult, build_candidate_tree, speculate_batch
from repro.core.tree import TokenTree

__all__ = [
    "AdaServeScheduler",
    "AdaptiveConfig",
    "AdaptiveController",
    "BatchItem",
    "DEFAULT_N_MAX",
    "INVALID",
    "IterationResult",
    "OptimalResult",
    "RequestOutcome",
    "RequestSelection",
    "SLOClass",
    "SelectionResult",
    "SpeculationResult",
    "TokenTree",
    "average_tpot",
    "build_candidate_tree",
    "capped_requirement",
    "clip",
    "construct_optimal_trees",
    "grid_search_constants",
    "is_on_track",
    "min_accept_requirement",
    "run_iteration",
    "select_tokens",
    "speculate_batch",
]
