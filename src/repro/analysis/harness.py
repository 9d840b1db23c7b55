"""Experiment harness: assemble engine + scheduler + workload and run.

Every benchmark and example builds its runs through this module so that
system construction is identical everywhere:

- :func:`build_setup` wires a model-pair preset to its Table 1 deployment
  (target + draft rooflines, KV manager);
- :func:`make_scheduler` instantiates any registered system from a spec
  string (``adaserve``, ``vllm-spec:k=8``, legacy ``vllm-spec-6``, ...);
- :func:`run_once` executes one (system, workload) simulation — a solo
  point or a router-fronted fleet (see :mod:`repro.cluster`) — and
  returns the report.

Schedulers, routers, and model setups are resolved through the typed
registries in :mod:`repro.registry` — components register themselves at
definition site, so adding a system never touches this module.  Engines
and schedulers are stateful, so every run builds a fresh pair per
replica.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro._rng import derive_seed
from repro import baselines as _baselines  # noqa: F401 - registers the baseline systems
from repro.chaos import FaultSchedule
from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.fleet import FleetSimulator
from repro.cluster.router import make_router
from repro.core import scheduler as _core_scheduler  # noqa: F401 - registers adaserve
from repro.hardware.roofline import RooflineModel
from repro.hardware.spec import DEPLOYMENT_PRESETS, DeploymentSpec
from repro.model.pair import ModelPair
from repro.prefixcache import PrefixCacheManager
from repro.registry import MODELS, SYSTEMS
from repro.serving.engine import SimulatedEngine
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request
from repro.serving.scheduler_base import Scheduler
from repro.serving.server import SimulationReport

#: The two Table 1 setups: (pair preset, target deployment, draft deployment).
MODEL_SETUPS: dict[str, tuple[str, str, str]] = {
    "llama70b": ("llama70b-1b", "llama70b-4xa100", "llama1b-1xa100"),
    "qwen32b": ("qwen32b-05b", "qwen32b-2xa100", "qwen05b-1xa100"),
}

@dataclass(frozen=True)
class Setup:
    """Reusable (per-run-rebuilt) description of a deployment."""

    pair_preset: str
    target_deployment: DeploymentSpec
    draft_deployment: DeploymentSpec
    seed: int = 0
    #: Share prefix KV blocks across requests (see ``repro.prefixcache``).
    prefix_cache: bool = False

    def build_engine(self) -> SimulatedEngine:
        """Fresh engine: model pair, rooflines, KV manager."""
        pair = ModelPair.from_preset(self.pair_preset, seed=self.seed)
        target_rl = RooflineModel(self.target_deployment)
        draft_rl = RooflineModel(self.draft_deployment)
        capacity = self.target_deployment.kv_capacity_tokens
        if self.prefix_cache:
            kv: KVCacheManager = PrefixCacheManager(capacity)
        else:
            kv = KVCacheManager(capacity)
        return SimulatedEngine(pair, target_rl, draft_rl, kv, seed=self.seed)

    @property
    def target_roofline(self) -> RooflineModel:
        """Cost model of the target deployment (for workload SLOs)."""
        return RooflineModel(self.target_deployment)


def _register_model_setups() -> None:
    """Announce the Table 1 model setups to the MODELS registry."""
    for name, (pair_preset, target_name, draft_name) in MODEL_SETUPS.items():
        target = DEPLOYMENT_PRESETS[target_name]
        draft = DEPLOYMENT_PRESETS[draft_name]

        def factory(
            seed: int = 0,
            prefix_cache: bool = False,
            _pair=pair_preset,
            _target=target,
            _draft=draft,
        ) -> Setup:
            return Setup(
                pair_preset=_pair,
                target_deployment=_target,
                draft_deployment=_draft,
                seed=seed,
                prefix_cache=prefix_cache,
            )

        MODELS.register(
            name, summary=f"{pair_preset} on {target_name} (draft: {draft_name})"
        )(factory)


_register_model_setups()


def build_setup(model: str, seed: int = 0, prefix_cache: bool = False) -> Setup:
    """Setup for a registered model configuration ('llama70b' or 'qwen32b')."""
    return MODELS.create(model, seed=seed, prefix_cache=prefix_cache)


def make_scheduler(system: str, engine: SimulatedEngine, **overrides) -> Scheduler:
    """Instantiate a registered system from a spec string.

    Accepts canonical names, parameterized specs (``vllm-spec:k=8``,
    ``adaserve:n_max=32``), and legacy aliases (``vllm-spec-6``).
    Keyword ``overrides`` are passed to the scheduler constructor and win
    over spec-string parameters.
    """
    return SYSTEMS.create(system, engine, **overrides)


def run_once(
    setup: Setup,
    system: str,
    requests: list[Request],
    replicas: int = 1,
    router: str = "round-robin",
    autoscale: dict | None = None,
    faults: Sequence[str] | None = None,
    max_sim_time_s: float = 7200.0,
    observer=None,
    invariants=None,
    metrics_mode: str = "exact",
    **scheduler_overrides,
) -> SimulationReport:
    """Run one system over one workload on a fresh router-fronted fleet.

    A point is a cluster when it has more than one replica, autoscaling
    or faults (the ``ExperimentSpec.is_cluster`` rule).  A solo point's
    engine takes ``setup.seed`` and its replica report is returned; a
    cluster's replica ``i`` takes ``derive_seed(setup.seed, "fleet", i)``
    and the fleet summary is returned.  ``autoscale`` (a mapping of
    :class:`AutoscalerConfig` overrides) enables autoscaling; its
    ``max_replicas`` defaults to twice the initial fleet when unset.
    ``faults`` is a sequence of fault spec strings
    (``crash:at=120,replica=1``, ``straggler:slow=2.0``, ...)
    materialized into a deterministic :class:`FaultSchedule` seeded from
    ``setup.seed``.  ``observer`` (a
    :class:`~repro.obs.observer.RunObserver`) and ``invariants`` (an
    :class:`~repro.check.invariants.InvariantChecker`) attach to every
    engine the replica factory builds — initial fleet, autoscaled
    additions and crash replacements alike.  Both are passive, so the
    report is byte-identical with or without them.  ``metrics_mode``
    selects the aggregation path (``exact`` or ``streaming``; see
    :mod:`repro.serving.streaming`).
    """
    cluster = replicas > 1 or autoscale is not None or bool(faults)

    def replica_factory(index: int):
        seed = derive_seed(setup.seed, "fleet", index) if cluster else setup.seed
        engine = replace(setup, seed=seed).build_engine()
        if observer is not None:
            observer.attach_engine(engine, replica=index)
        scheduler = make_scheduler(system, engine, **scheduler_overrides)
        if invariants is not None:
            invariants.attach(engine, scheduler, replica=index)
        return engine, scheduler

    autoscaler_config = None
    if autoscale is not None:
        autoscaler_config = AutoscalerConfig.resolve(autoscale, initial_replicas=replicas)

    fault_schedule = None
    if faults:
        # Auto-placed fault times scale with the workload span, and the
        # schedule seed derives from the run seed: the whole chaos
        # timeline is a pure function of (spec, seed).
        window_s = max((r.arrival_time for r in requests), default=0.0)
        fault_schedule = FaultSchedule.from_specs(
            faults,
            seed=derive_seed(setup.seed, "chaos"),
            window_s=window_s,
            num_replicas=replicas,
        )

    # Requests are mutated during a run; each run gets a private copy.
    report = FleetSimulator(
        replica_factory,
        [r.fresh_copy() for r in requests],
        make_router(router, seed=derive_seed(setup.seed, "router")),
        num_replicas=replicas,
        autoscaler_config=autoscaler_config,
        fault_schedule=fault_schedule,
        max_sim_time_s=max_sim_time_s,
        observer=observer,
        invariants=invariants,
        metrics_mode=metrics_mode,
    ).run()
    return report.summary if cluster else report.replica_reports[0]
