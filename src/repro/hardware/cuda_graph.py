"""CUDA-graph launch-overhead model.

§5.2 of the paper: draft decoding steps 2..d perform identical work for a
fixed number of active requests, so their kernel sequences can be captured
once and replayed, collapsing per-kernel launch overhead into a single
graph replay.  This matters because the draft model is tiny — for a 1B
draft on an A100 the eager launch overhead (16 layers x 12 kernels x ~4us
~ 0.8ms) is comparable to the model's weight-streaming time, so removing
it visibly changes speculation cost.

``CudaGraphModel`` mimics the runtime behaviour:

- a graph is keyed by its *shape* (batch tokens per step);
- the first execution at a new shape pays eager launch cost plus a capture
  cost;
- subsequent executions at a cached shape pay only the replay cost;
- the cache holds a bounded number of shapes (real systems pre-capture a
  few bucket sizes), evicting least-recently-used.
"""

from __future__ import annotations

from collections import OrderedDict

#: One-time cost to capture a graph (instantiate + first replay), seconds.
DEFAULT_CAPTURE_COST_S = 1.0e-3

#: Cost to replay a captured graph, seconds.
DEFAULT_REPLAY_COST_S = 10.0e-6

#: Number of distinct shapes kept captured.
DEFAULT_CACHE_SHAPES = 64


class CudaGraphModel:
    """Tracks captured graph shapes and prices launch overhead accordingly."""

    def __init__(
        self,
        eager_launch_s: float,
        capture_cost_s: float = DEFAULT_CAPTURE_COST_S,
        replay_cost_s: float = DEFAULT_REPLAY_COST_S,
        cache_shapes: int = DEFAULT_CACHE_SHAPES,
        enabled: bool = True,
    ) -> None:
        if eager_launch_s < 0 or capture_cost_s < 0 or replay_cost_s < 0:
            raise ValueError("costs must be non-negative")
        self.eager_launch_s = eager_launch_s
        self.capture_cost_s = capture_cost_s
        self.replay_cost_s = replay_cost_s
        self.cache_shapes = cache_shapes
        self.enabled = enabled
        self._captured: OrderedDict[int, None] = OrderedDict()
        self.captures = 0
        self.replays = 0
        self.eager_launches = 0

    def launch_overhead(self, shape_tokens: int) -> float:
        """Launch overhead for a step processing ``shape_tokens`` tokens.

        Call once per executed step; updates the capture cache.
        """
        if not self.enabled:
            self.eager_launches += 1
            return self.eager_launch_s
        if shape_tokens in self._captured:
            self._captured.move_to_end(shape_tokens)
            self.replays += 1
            return self.replay_cost_s
        # Capture: pay eager launch for the capture pass plus capture cost.
        self._captured[shape_tokens] = None
        if len(self._captured) > self.cache_shapes:
            self._captured.popitem(last=False)
        self.captures += 1
        return self.eager_launch_s + self.capture_cost_s
