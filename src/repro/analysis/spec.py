"""Declarative experiment specification (the single source of truth).

An :class:`ExperimentSpec` fully describes one simulation point as three
nested sections:

- :class:`WorkloadSpec` — what arrives: trace spec, rate, duration,
  seed, SLO scale, category mix;
- :class:`SystemSpec` — what serves it: scheduler spec, model setup,
  simulation-time guard;
- :class:`ClusterSpec` — at what scale: replica count, router spec,
  autoscaler knobs;
- :class:`ChaosSpec` — under what faults: deterministic fault-injection
  specs (omitted from the canonical form when empty, so chaos-free cache
  keys are unchanged);
- :class:`~repro.obs.spec.ObsSpec` — how the run is *watched*: lifecycle
  tracing and gauge sampling (see :mod:`repro.obs`).  Observation is
  passive and can never change a result, so this section is **never**
  part of the canonical payload or cache key.

Construction **canonicalizes**: component references are spec strings
(see :mod:`repro.registry`) rewritten to their canonical form
(parameters sorted, defaults dropped), inert choices collapse
(a solo point's router is never consulted), and autoscaler knobs resolve
against their defaults.  Two spellings of the same experiment are
therefore *equal dataclasses* with byte-identical canonical JSON
(:meth:`ExperimentSpec.to_dict`) — which is exactly what the result
cache hashes, so ``vllm-spec:k=4`` and ``vllm-spec`` share one cache
record.

The flat constructor :meth:`ExperimentSpec.create` builds a spec
without spelling out its sections; reads go through the sections
(``spec.workload.rps``, ``spec.cluster.replicas``, ...).

Grid sweeps over *any* registered parameter use dotted axes::

    expand_grid([base], [parse_grid_axis("system.k=2,4,6,8")])

which re-resolves the component spec per value — unknown parameters fail
fast, naming the declared alternatives.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields, replace

from repro._rng import derive_seed
from repro.analysis.cache import config_key
from repro.cluster.autoscaler import AutoscalerConfig
from repro.obs.spec import ObsSpec
from repro.registry import (
    FAULTS,
    MODELS,
    ROUTERS,
    SYSTEMS,
    TRACES,
    SpecError,
    integer_field,
    real_field,
)
from repro.serving.metrics import DEFAULT_METRICS_MODE, METRICS_MODES
from repro.workloads.categories import CATEGORIES


def _set(obj, **values) -> None:
    """Assign onto a frozen dataclass during ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class WorkloadSpec:
    """What arrives: the request trace and its SLO parameters."""

    trace: str = "bursty"
    rps: float = 4.0
    duration_s: float = 45.0
    seed: int = 0
    slo_scale: float = 1.0
    mix: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self) -> None:
        _set(
            self,
            trace=TRACES.canonical(self.trace),
            rps=real_field("workload.rps", self.rps),
            duration_s=real_field("workload.duration_s", self.duration_s),
            seed=integer_field("workload.seed", self.seed),
            slo_scale=real_field("workload.slo_scale", self.slo_scale),
            mix=_canonical_mix(self.mix),
        )
        for name in ("rps", "duration_s", "slo_scale"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise SpecError(
                    f"workload.{name} must be a positive finite number, got {value:g}"
                )

    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "rps": self.rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "slo_scale": self.slo_scale,
            "mix": [list(pair) for pair in self.mix] if self.mix else None,
        }


@dataclass(frozen=True)
class SystemSpec:
    """What serves it: scheduler spec, model setup, and the sim guard."""

    name: str = "adaserve"
    model: str = "llama70b"
    max_sim_time_s: float = 1800.0
    #: Share prefix KV blocks across requests (see :mod:`repro.prefixcache`).
    prefix_cache: bool = False
    #: Metrics aggregation mode, a key of
    #: :data:`~repro.serving.metrics.METRICS_MODES`: ``exact`` keeps every
    #: latency sample, ``streaming`` caps each category's reservoir.
    metrics: str = DEFAULT_METRICS_MODE

    def __post_init__(self) -> None:
        metrics = str(self.metrics)
        if metrics not in METRICS_MODES:
            raise SpecError(
                f"metrics must be one of {', '.join(METRICS_MODES)}, got {self.metrics!r}"
            )
        # ``bool("no")`` is True: a non-bool would silently switch the cache on.
        if not isinstance(self.prefix_cache, bool):
            raise SpecError(f"system.prefix_cache must be a bool, got {self.prefix_cache!r}")
        _set(
            self,
            name=SYSTEMS.canonical(self.name),
            model=MODELS.canonical(self.model),
            max_sim_time_s=real_field("system.max_sim_time_s", self.max_sim_time_s),
            metrics=metrics,
        )
        if not math.isfinite(self.max_sim_time_s) or self.max_sim_time_s <= 0:
            raise SpecError(
                f"max_sim_time_s must be a positive finite number, got {self.max_sim_time_s:g}"
            )

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "model": self.model,
            "max_sim_time_s": self.max_sim_time_s,
            "prefix_cache": self.prefix_cache,
        }
        # Defaulted-knob canonicalization: the default mode is omitted so
        # every pre-existing cache key and golden digest is unchanged.
        # ``streaming`` IS serialized — reservoir percentiles may
        # legitimately differ from exact ones above the reservoir
        # capacity, so the knob must fork the cache key.
        if self.metrics != DEFAULT_METRICS_MODE:
            d["metrics"] = self.metrics
        return d


@dataclass(frozen=True)
class ClusterSpec:
    """At what scale: fleet size, routing policy, autoscaling."""

    replicas: int = 1
    router: str = "round-robin"
    autoscale: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self) -> None:
        replicas = integer_field("replicas", self.replicas)
        if replicas < 1:
            raise SpecError(f"replicas must be >= 1, got {replicas}")
        autoscale = self.autoscale
        if autoscale is not None:
            try:
                knobs = dict(autoscale)
            except (TypeError, ValueError):
                raise SpecError(
                    f"cluster.autoscale must be a mapping of autoscaler knobs, got {autoscale!r}"
                ) from None
            resolved = AutoscalerConfig.resolve(knobs, initial_replicas=replicas)
            autoscale = tuple(sorted(asdict(resolved).items()))
        _set(self, replicas=replicas, autoscale=autoscale)
        # Always validate the router spec; then, on a point that is not a
        # fleet, collapse it to the default — the router is never
        # consulted there, so spelling one out cannot fork the cache.
        router = ROUTERS.canonical(self.router)
        _set(self, router=router if self.is_cluster else "round-robin")

    @property
    def is_cluster(self) -> bool:
        """Whether this section asks for a fleet (replicas > 1 or autoscaling):
        the one rule for whether a router means anything (only a fleet consults it)."""
        return self.replicas > 1 or self.autoscale is not None

    @property
    def max_replicas(self) -> int:
        """Most replicas the fleet can ever run (the autoscaler's ceiling)."""
        if self.autoscale is None:
            return self.replicas
        return int(dict(self.autoscale)["max_replicas"])

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "router": self.router,
            "autoscale": (
                [list(pair) for pair in self.autoscale]
                if self.autoscale is not None
                else None
            ),
        }


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic fault injections for this point (see :mod:`repro.chaos`).

    ``faults`` holds canonical fault spec strings in declaration order —
    order matters: each declaration's auto draws are seeded by its index.
    An empty tuple (the default) selects the exact chaos-free simulation
    paths, and :meth:`ExperimentSpec.to_dict` omits the whole section
    then, so pre-chaos cache keys and golden digests are untouched.
    """

    faults: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        raw = self.faults
        if raw is None:
            raw = ()
        elif isinstance(raw, str):
            raw = (raw,)
        elif not isinstance(raw, (list, tuple)):
            raise SpecError(f"chaos.faults must be a list of fault specs, got {raw!r}")
        _set(self, faults=tuple(FAULTS.canonical(spec) for spec in raw))

    @property
    def enabled(self) -> bool:
        """Whether any fault is declared."""
        return bool(self.faults)

    def to_dict(self) -> dict:
        return {"faults": list(self.faults)}


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, canonical description of one simulation point.

    Every field participates in the cache key, so anything that can
    change a result (notably the workload ``seed`` and ``trace`` kind)
    is explicit here rather than implied by call-site defaults.
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    system: SystemSpec = field(default_factory=SystemSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    #: Observability section (see :mod:`repro.obs`).  Excluded from
    #: :meth:`to_dict` — and therefore from the cache key — by design:
    #: observation is passive, so it cannot fork results.
    obs: ObsSpec = field(default_factory=ObsSpec)

    def __post_init__(self) -> None:
        # A fault aimed at a replica the fleet can never run, or timed past
        # the horizon, would be a silent no-op: reject it, never skip it.
        ceiling = self.cluster.max_replicas
        horizon = self.system.max_sim_time_s
        for spec in self.chaos.faults:
            fault = FAULTS.create(spec)
            replica = getattr(fault, "replica", None)
            if replica is not None and replica >= ceiling:
                raise SpecError(
                    f"fault {spec!r} targets replica {replica}, but the fleet "
                    f"only has replicas 0..{ceiling - 1}"
                )
            at = getattr(fault, "at", None)
            if at is not None and at > horizon:
                raise SpecError(
                    f"fault {spec!r} fires at {at:g} s, past the {horizon:g} s "
                    "simulation horizon (max_sim_time_s)"
                )

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        model: str,
        system: str,
        rps: float,
        duration_s: float,
        seed: int,
        trace: str = "bursty",
        slo_scale: float = 1.0,
        mix: Mapping[str, float] | None = None,
        max_sim_time_s: float = 1800.0,
        prefix_cache: bool = False,
        metrics: str = DEFAULT_METRICS_MODE,
        replicas: int = 1,
        router: str = "round-robin",
        autoscale: Mapping[str, float] | None = None,
        faults: Sequence[str] | str | None = None,
        obs: ObsSpec | None = None,
    ) -> "ExperimentSpec":
        """Flat-keyword constructor: one keyword per field, sections built here.

        ``system``, ``trace``, and ``router`` accept any registry spec
        string; everything is canonicalized by the section constructors.  The result-determining core (model,
        system, rps, duration, seed) is deliberately required — anything
        that changes a result must be explicit at the call site, never
        implied by a default (the nested section constructors, by
        contrast, default everything for interactive use).
        """
        return cls(
            workload=WorkloadSpec(
                trace=trace,
                rps=rps,
                duration_s=duration_s,
                seed=seed,
                slo_scale=slo_scale,
                mix=mix,
            ),
            system=SystemSpec(
                name=system,
                model=model,
                max_sim_time_s=max_sim_time_s,
                prefix_cache=prefix_cache,
                metrics=metrics,
            ),
            cluster=ClusterSpec(
                replicas=replicas,
                router=router,
                autoscale=autoscale,
            ),
            chaos=ChaosSpec(faults=faults),
            obs=obs if obs is not None else ObsSpec(),
        )

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentSpec":
        """Rebuild a spec from its canonical JSON form.

        ``workload``, ``system`` and ``cluster`` are required mappings
        (a record missing one is corrupt, not a request for defaults);
        ``chaos`` is optional, as :meth:`to_dict` omits it when empty.
        """
        if not isinstance(d, Mapping):
            raise SpecError(f"an ExperimentSpec record must be a mapping, got {d!r}")
        unknown = set(d) - {"workload", "system", "cluster", "chaos"}
        if unknown:
            raise SpecError(
                f"not a nested ExperimentSpec dict (unexpected keys {sorted(unknown)}); "
                "flat schema-v2 configs are not readable — rebuild via "
                "ExperimentSpec.create(...) (sections: workload, system, cluster, chaos)"
            )
        return cls(
            workload=_section(WorkloadSpec, "workload", d),
            system=_section(SystemSpec, "system", d),
            cluster=_section(ClusterSpec, "cluster", d),
            chaos=_section(ChaosSpec, "chaos", d) if "chaos" in d else ChaosSpec(),
        )

    # -- canonical JSON / cache key -------------------------------------
    def to_dict(self) -> dict:
        """Canonical nested JSON form (the cache-key payload).

        Defaulted-knob canonicalization: the ``chaos`` section appears
        only when faults are declared, so every chaos-free spec keeps
        the exact payload (and cache key) it had before chaos existed.
        The ``obs`` section never appears at all — observation is
        passive, so an observability knob must never fork a cache key.
        """
        d = {
            "workload": self.workload.to_dict(),
            "system": self.system.to_dict(),
            "cluster": self.cluster.to_dict(),
        }
        if self.chaos.enabled:
            d["chaos"] = self.chaos.to_dict()
        return d

    def digest(self) -> str:
        """Content address of this spec (see :func:`~repro.analysis.cache.config_key`)."""
        return config_key(self)

    @property
    def is_cluster(self) -> bool:
        """Whether this point runs as a cluster (per-replica engine seeds,
        rid-sorted report labelled with peak size and router) rather than
        solo; ``run_once`` applies the same rule to engine seeds and
        :meth:`~repro.cluster.fleet.FleetSimulator.run` to the report.

        Chaos points always run as a cluster — even with one replica —
        since the fault schedule is built per fleet.
        """
        return self.cluster.is_cluster or self.chaos.enabled

    # -- derivation -----------------------------------------------------
    def with_replica(self, index: int) -> "ExperimentSpec":
        """Copy with a replica seed derived deterministically via ``repro._rng``."""
        return replace(
            self,
            workload=replace(
                self.workload, seed=derive_seed(self.workload.seed, "replica", index)
            ),
        )


def _parse_bool(path: str, value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "1"):
        return True
    if isinstance(value, str) and value.lower() in ("false", "0"):
        return False
    raise SpecError(f"{path} expects true/false, got {value!r}")


def _section(section_cls, name: str, record: Mapping):
    """Build one section of a :meth:`ExperimentSpec.from_dict` record."""
    values = record.get(name)
    if not isinstance(values, Mapping):
        state = "missing" if name not in record else f"not a mapping: {values!r}"
        raise SpecError(f"ExperimentSpec record section {name!r} is {state}")
    unknown = set(values) - {f.name for f in fields(section_cls)}
    if unknown:
        keys = ", ".join(f"{name}.{key}" for key in sorted(unknown))
        raise SpecError(f"ExperimentSpec record has unknown keys {keys}")
    return section_cls(**values)


def _canonical_mix(mix) -> tuple[tuple[str, float], ...] | None:
    """Sorted ``(category, weight)`` pairs; every weight finite, >= 0, not all 0."""
    if not mix:
        return None
    if not isinstance(mix, Mapping):
        try:
            mix = dict(mix)
        except (TypeError, ValueError):
            raise SpecError(f"workload.mix must be a mapping of category weights, got {mix!r}") from None
    canonical = []
    for name, share in mix.items():
        name = str(name)
        if name not in CATEGORIES:
            raise SpecError(
                f"mix names unknown category {name!r} (known: {', '.join(CATEGORIES)})"
            )
        try:
            weight = float(share)
        except (TypeError, ValueError):
            weight = math.nan
        if not math.isfinite(weight) or weight < 0:
            raise SpecError(f"mix weight of {name!r} must be a finite number >= 0, got {share!r}")
        canonical.append((name, weight))
    if not any(weight > 0 for _, weight in canonical):
        names = ", ".join(repr(name) for name, _ in canonical)
        raise SpecError(f"mix weights of {names} are all zero")
    return tuple(sorted(canonical))


# ----------------------------------------------------------------------
# Grid sweeps over registered parameters.

#: Flat workload fields sweepable via ``workload.<field>`` (aliases included).
_WORKLOAD_AXES = {
    "rps": ("rps", float),
    "duration": ("duration_s", float),
    "duration_s": ("duration_s", float),
    "slo_scale": ("slo_scale", float),
    "seed": ("seed", int),
}


#: ``system.<key>`` axes that set a :class:`SystemSpec` dataclass field
#: rather than a scheduler parameter (anything else under ``system.`` is
#: re-resolved through the SYSTEMS registry).  Shared with the CLI's
#: sweep-label logic, which must keep a label for exactly these keys
#: (they never show up in the scheduler's canonical spec string).
SYSTEM_FIELD_AXES = ("prefix_cache", "metrics")


@dataclass(frozen=True)
class GridAxis:
    """One sweep axis: a dotted parameter path and its values."""

    path: str
    values: tuple[str, ...]


def parse_grid_axis(text: str) -> GridAxis:
    """Parse ``section.key=v1,v2,...`` (e.g. ``system.k=4,6,8``)."""
    path, eq, values_text = text.partition("=")
    path = path.strip()
    values = tuple(v.strip() for v in values_text.split(",") if v.strip())
    if not eq or not path or not values:
        raise SpecError(
            f"malformed grid axis {text!r} (expected section.key=v1,v2,...)"
        )
    if "." not in path:
        raise SpecError(
            f"grid axis {path!r} needs a dotted path; sections: "
            "system, router, trace, workload, cluster"
        )
    return GridAxis(path=path, values=values)


def apply_axis(spec: ExperimentSpec, path: str, value: str) -> ExperimentSpec:
    """One grid cell: ``spec`` with the parameter at ``path`` set to ``value``.

    ``system.<param>`` / ``router.<param>`` / ``trace.<param>`` re-resolve
    the component spec string through its registry (unknown parameters
    raise, naming the declared alternatives); ``workload.<field>`` sets a
    flat workload field; ``cluster.replicas`` resizes the fleet.
    """
    section, _, key = path.partition(".")
    if section == "system":
        if key in SYSTEM_FIELD_AXES:
            # A run-construction knob on the section itself, not a
            # scheduler parameter (``prefix_cache``, ``metrics``).
            typed = value if key == "metrics" else _parse_bool(path, value)
            return replace(spec, system=replace(spec.system, **{key: typed}))
        return replace(
            spec,
            system=replace(spec.system, name=SYSTEMS.with_params(spec.system.name, **{key: value})),
        )
    if section == "trace":
        return replace(
            spec,
            workload=replace(
                spec.workload, trace=TRACES.with_params(spec.workload.trace, **{key: value})
            ),
        )
    if section == "router":
        if not spec.cluster.is_cluster:
            raise SpecError(
                "router grid axes require a cluster point (replicas > 1 or autoscale)"
            )
        return replace(
            spec,
            cluster=replace(
                spec.cluster, router=ROUTERS.with_params(spec.cluster.router, **{key: value})
            ),
        )
    if section == "workload":
        try:
            field_name, cast = _WORKLOAD_AXES[key]
        except KeyError:
            raise SpecError(
                f"unknown workload axis {key!r}; available: {sorted(_WORKLOAD_AXES)}"
            ) from None
        try:
            typed = cast(value)
        except ValueError:
            raise SpecError(f"workload.{key} expects a {cast.__name__}, got {value!r}") from None
        return replace(spec, workload=replace(spec.workload, **{field_name: typed}))
    if section == "cluster":
        if key != "replicas":
            raise SpecError(f"unknown cluster axis {key!r}; available: ['replicas']")
        try:
            replicas = int(value)
        except ValueError:
            raise SpecError(f"cluster.replicas expects an int, got {value!r}") from None
        # A canonicalized autoscale section has already baked its
        # max_replicas ceiling (defaulted to 2x the original fleet);
        # re-validation against the new fleet size may legitimately
        # reject the cell, and that error propagates as-is.
        return replace(spec, cluster=replace(spec.cluster, replicas=replicas))
    raise SpecError(
        f"unknown grid section {section!r}; sections: system, router, trace, workload, cluster"
    )


def expand_grid(
    specs: Sequence[ExperimentSpec], axes: Iterable[GridAxis]
) -> list[ExperimentSpec]:
    """Cartesian product of base specs with every grid axis."""
    expanded = list(specs)
    for axis in axes:
        expanded = [
            apply_axis(spec, axis.path, value)
            for spec in expanded
            for value in axis.values
        ]
    return expanded
