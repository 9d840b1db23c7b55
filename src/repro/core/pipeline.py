"""The speculate → select → verify pipeline (§4.3, one decoding iteration).

``run_iteration`` executes the model/algorithm side of one SLO-customized
speculative decoding iteration for a batch of requests:

1. speculation: beam-search candidate trees (draft model);
2. SLO-customized + throughput-optimized selection (CPU);
3. verification: the target model walks each selected tree, accepting a
   path and emitting a correction token.

It deliberately performs *no latency modeling* and reads no clock — it
returns the token counts the scheduler needs to price the iteration with
the roofline model (draft step shapes, verification tokens, candidates
scanned by selection).  Nor does it commit: each outcome is the target's
full verdict, which the scheduler hands to the engine's speculative pass
(:meth:`~repro.serving.engine.SimulatedEngine.speculative_step`); the
engine commits it at the pass's end, with the end-of-generation cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.selection import DEFAULT_N_MAX, SelectionResult, select_tokens
from repro.core.speculation import SpeculationResult, speculate_batch
from repro.model.acceptance import verify_tree
from repro.model.pair import ModelPair


@dataclass(frozen=True)
class BatchItem:
    """One request's inputs to an iteration."""

    root_token: int
    root_ctx: int
    requirement: float  # A(r) for this iteration
    center: float | None = None  # per-request predictability


@dataclass(frozen=True)
class RequestOutcome:
    """One request's outputs from an iteration."""

    accepted_tokens: list[int]  # accepted draft tokens, in order
    path_ctx: list[int]  # context through each accepted draft token
    correction_token: int
    new_ctx: int  # context including accepted tokens and the correction

    @property
    def tokens_generated(self) -> int:
        """Tokens the verdict yields (accepted + correction), before any cut."""
        return len(self.accepted_tokens) + 1


@dataclass(frozen=True)
class IterationResult:
    """Everything the scheduler needs to cost and commit an iteration."""

    outcomes: list[RequestOutcome]
    speculation: SpeculationResult
    selection: SelectionResult

    @property
    def verify_tokens(self) -> int:
        """Non-root tokens the target verified across the batch."""
        return sum(sel.num_selected for sel in self.selection.selections)

    @property
    def total_accepted(self) -> int:
        """Accepted draft tokens across the batch (no corrections, no cut)."""
        return sum(len(o.accepted_tokens) for o in self.outcomes)


def run_iteration(
    pair: ModelPair,
    items: list[BatchItem],
    depth: int,
    width: int,
    budget: int,
    n_max: int = DEFAULT_N_MAX,
) -> IterationResult:
    """Execute one SLO-customized speculative decoding iteration.

    Parameters
    ----------
    pair:
        The draft/target model pair.
    items:
        Batch inputs; order is preserved in the outcomes.
    depth, width:
        Beam shape from the adaptive controller.
    budget:
        Verification token budget B for this iteration.
    n_max:
        Per-request cap during SLO-customized selection.
    """
    if not items:
        raise ValueError("empty batch")

    # Step 1: speculation.
    roots = [(it.root_token, it.root_ctx) for it in items]
    centers = [it.center for it in items]
    spec = speculate_batch(pair, roots, depth, width, centers=centers)

    # Steps 2-3: selection (the CPU-side scheduling work).
    selection = select_tokens(
        spec.trees,
        [it.requirement for it in items],
        budget=budget,
        n_max=n_max,
        depth=depth,
    )

    # Step 4: verification, over each tree's selection mask.
    outcomes = []
    for item, sel in zip(items, selection.selections):
        tree = sel.tree
        nodes, correction, new_ctx = verify_tree(pair, tree, center=item.center, mask=tree.selected)
        tokens = [tree.token[node] for node in nodes]
        path_ctx = [tree.ctx[node] for node in nodes]
        outcomes.append(RequestOutcome(tokens, path_ctx, correction, new_ctx))
    return IterationResult(outcomes=outcomes, speculation=spec, selection=selection)
