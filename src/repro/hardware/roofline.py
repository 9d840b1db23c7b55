"""Roofline latency model for transformer forward passes.

The paper's scheduler is "hardware-aware" through exactly two quantities:
the per-iteration latency of a forward pass over a given number of batched
tokens, and the token budget B that keeps verification inside the
memory-bound regime (§3 footnote 1, §5).  This module supplies the first;
:mod:`repro.hardware.profiler` derives the second.

The model is the standard two-roof approximation:

    latency = max(weight_load_time, compute_time)      # whichever roof binds
            + kv_read_time                             # attention reads
            + tp_comm_time                             # tensor-parallel collectives
            + launch_overhead                          # kernel launches

- ``weight_load_time``: every decode iteration streams all weights from
  HBM once (split across TP ranks) — the memory roof that makes small-batch
  decoding bandwidth-bound.
- ``compute_time``: 2·params FLOPs per batched token over aggregate
  device FLOPs, derated by an efficiency factor — the compute roof that
  eventually binds as batched tokens grow.
- ``kv_read_time``: bytes of resident KV cache touched by attention.
- ``launch_overhead``: per-layer kernel launches; CUDA graphs (see
  :mod:`repro.hardware.cuda_graph`) replace this with a single replay cost.

Absolute numbers are approximations of A100-class hardware; what the
reproduction relies on is the *shape* (flat-then-linear in batched tokens),
which is what makes budgets and SLO math meaningful.

Every pass is priced in closed form; nothing is memoized.  A per-shape
memo hit 0.8-2.6% of its lookups on a plain-decode fleet (decode
contexts grow every step) and 55% on a speculative sweep, every hit a
shape repeated inside one pricing loop, which now reuses its own float.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import DeploymentSpec

#: Fraction of peak FLOPs realistically achieved by dense GEMMs at serving
#: batch sizes (kernel inefficiency, attention, activation overheads).
DEFAULT_COMPUTE_EFFICIENCY = 0.45

#: Fraction of peak HBM bandwidth achieved when streaming weights.
DEFAULT_BANDWIDTH_EFFICIENCY = 0.85

#: Kernel launches per transformer layer (attention, MLP, norms, rotary...).
KERNELS_PER_LAYER = 12

#: Bytes moved per token per layer boundary for TP all-reduce (activations).
_TP_ACTIVATION_FACTOR = 2  # fp16 activations, two all-reduces per layer


@dataclass(frozen=True)
class ForwardCost:
    """Breakdown of one forward pass's latency (seconds)."""

    weight_time: float
    compute_time: float
    kv_time: float
    comm_time: float
    launch_time: float

    @property
    def total(self) -> float:
        """End-to-end latency of the pass."""
        return _pass_latency(
            self.weight_time, self.compute_time, self.kv_time, self.comm_time, self.launch_time
        )


def _pass_latency(weight: float, compute: float, kv: float, comm: float, launch: float) -> float:
    """The one latency formula: weight streaming and compute overlap
    (the roofline), KV reads, tensor-parallel communication and kernel
    launches add."""
    return max(weight, compute) + kv + comm + launch


class RooflineModel:
    """Latency model for one deployed model (a Table 1 row).

    Parameters
    ----------
    deployment:
        Model/GPU/TP placement.
    compute_efficiency, bandwidth_efficiency:
        Derating factors applied to peak FLOPs / bandwidth.
    """

    def __init__(
        self,
        deployment: DeploymentSpec,
        compute_efficiency: float = DEFAULT_COMPUTE_EFFICIENCY,
        bandwidth_efficiency: float = DEFAULT_BANDWIDTH_EFFICIENCY,
    ) -> None:
        if not 0 < compute_efficiency <= 1 or not 0 < bandwidth_efficiency <= 1:
            raise ValueError("efficiency factors must be in (0, 1]")
        self.deployment = deployment
        self.compute_efficiency = compute_efficiency
        self.bandwidth_efficiency = bandwidth_efficiency
        model, gpu, tp = deployment.model, deployment.gpu, deployment.tensor_parallel
        # Precompute the constant rates.
        self._weight_time = model.weight_bytes / (
            tp * gpu.mem_bandwidth * bandwidth_efficiency
        )
        self._compute_per_token = model.flops_per_token / (
            tp * gpu.flops * compute_efficiency
        )
        self._kv_per_token = model.kv_bytes_per_token / (
            tp * gpu.mem_bandwidth * bandwidth_efficiency
        )
        if tp > 1:
            self._comm_per_token = (
                _TP_ACTIVATION_FACTOR
                * model.n_layers
                * model.hidden_size
                * 2  # bytes per activation element
                * (tp - 1)
                / (tp * gpu.nvlink_bandwidth)
            )
        else:
            self._comm_per_token = 0.0
        self._launch_time = model.n_layers * KERNELS_PER_LAYER * gpu.kernel_launch_s

    # ------------------------------------------------------------------
    def forward_cost(
        self,
        batch_tokens: int,
        context_tokens: int = 0,
        launch_overhead: float | None = None,
    ) -> ForwardCost:
        """Cost breakdown for one forward pass.

        Parameters
        ----------
        batch_tokens:
            Total new tokens processed across the batch (decode slots,
            speculative tokens, or prefill chunk tokens).
        context_tokens:
            Total KV-resident tokens attended over, summed across requests.
        launch_overhead:
            Override for launch time (CUDA-graph replay passes a smaller
            value); ``None`` uses the eager-launch cost.
        """
        if batch_tokens < 0 or context_tokens < 0:
            raise ValueError("token counts must be non-negative")
        return ForwardCost(
            weight_time=self._weight_time,
            compute_time=batch_tokens * self._compute_per_token,
            kv_time=context_tokens * self._kv_per_token,
            comm_time=batch_tokens * self._comm_per_token,
            launch_time=self._launch_time if launch_overhead is None else launch_overhead,
        )

    def forward_latency(
        self,
        batch_tokens: int,
        context_tokens: int = 0,
        launch_overhead: float | None = None,
    ) -> float:
        """End-to-end latency (seconds) of one forward pass.

        The same terms and formula as :meth:`forward_cost`, without
        building the breakdown.  Not memoized (see the module docstring).
        """
        if batch_tokens < 0 or context_tokens < 0:
            raise ValueError("token counts must be non-negative")
        return _pass_latency(
            self._weight_time,
            batch_tokens * self._compute_per_token,
            context_tokens * self._kv_per_token,
            batch_tokens * self._comm_per_token,
            self._launch_time if launch_overhead is None else launch_overhead,
        )

    @property
    def baseline_decode_latency(self) -> float:
        """Decode latency at near-zero load (batch of one, empty cache).

        This is the reference point the paper uses to define category-1
        SLOs ("1.2 x baseline latency", Table 2).
        """
        return self.forward_latency(1, 0)

    @property
    def memory_bound_floor(self) -> float:
        """The weight-streaming roof — the floor of any decode iteration."""
        return self._weight_time

    @property
    def compute_seconds_per_token(self) -> float:
        """Marginal compute time per additional batched token."""
        return self._compute_per_token

    def saturation_tokens(self) -> int:
        """Batched tokens at which the compute roof overtakes the memory roof."""
        return max(1, int(self._weight_time / self._compute_per_token))
