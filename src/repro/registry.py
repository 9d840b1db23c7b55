"""Typed plugin registries and the component spec-string grammar.

Every axis of an experiment that used to be wired through a name switch
(schedulers in ``analysis/harness.py``, routers in ``cluster/router.py``,
trace kinds in ``analysis/runner.py``, model setups) is now a *registry*
of components.  A component registers itself at definition site with a
decorator, declaring

- a canonical **name** (``vllm-spec``, ``affinity``, ``diurnal``, ...);
- a typed **parameter schema** (:class:`Param`), so hyperparameters such
  as the static speculation length are first-class, introspectable sweep
  axes rather than name suffixes (``vllm-spec:k=6``, not ``vllm-spec-6``).

Components are referenced by **spec strings** with the grammar::

    name[:key=value[,key=value...]]

e.g. ``vllm-spec:k=8``, ``affinity:reserve=0.4``, ``diurnal:peak_to_trough=6``.
:meth:`Registry.canonical` rewrites any accepted spelling (reordered
keys, explicitly spelled defaults) into one canonical string —
parameters sorted by name, defaulted parameters omitted — so equivalent
specs hash identically everywhere they are used as cache-key material.

The design follows dynamic service registration (licas, arXiv:1403.0753):
the registry never imports the components; components import the registry
and announce themselves.  :func:`load_components` performs the lazy
one-shot import of the built-in component modules the first time any
registry is *queried* (registration itself never triggers it).
"""

from __future__ import annotations

import importlib
import inspect
import math
import numbers
import operator
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass


class SpecError(ValueError):
    """A component spec string that cannot be parsed or validated."""


class UnknownComponentError(SpecError, KeyError):
    """A spec names a component that is not registered.

    Subclasses both ``ValueError`` and ``KeyError``: historical call
    sites (``make_scheduler``, ``make_router``, spec construction)
    raised one or the other, and both idioms keep working.
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0] if self.args else ""


class UnknownParamError(SpecError, KeyError):
    """A spec sets a parameter the component does not declare."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


def integer_field(name: str, value) -> int:
    """``value`` as an int, or a :class:`SpecError` naming the field.

    An integral float (``2.0``) passes.  A bool, a fraction, NaN,
    infinity or a non-number is refused: ``int()`` would truncate it,
    read ``True`` as 1, or raise a raw error.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise SpecError(f"{name} must be an integer, got {value!r}")


def real_field(name: str, value) -> float:
    """``value`` as a float, or a :class:`SpecError` naming the field.

    A bool or a non-number (``"fast"``) is refused; range checks are the
    caller's.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise SpecError(f"{name} must be a number, got {value!r}")


#: Sentinel for parameters without a default (must be given explicitly).
REQUIRED = object()

#: Spelling of ``None`` in spec strings (e.g. ``affinity:reserve=auto``).
AUTO_TOKEN = "auto"

_PARAM_KINDS = ("int", "float", "str", "bool")


@dataclass(frozen=True)
class Param:
    """One typed, introspectable component parameter.

    Parameters
    ----------
    name:
        Key in spec strings (``k`` in ``vllm-spec:k=8``).
    kind:
        Value type: ``int``, ``float``, ``str``, or ``bool``.
    default:
        Value when the spec omits the key; :data:`REQUIRED` forces the
        key to be present.
    help:
        One-line description (shown by ``repro list``).
    dest:
        Factory keyword argument the value is passed as (defaults to
        ``name``).
    allow_auto:
        Accept the literal ``auto`` as the value, parsed to ``None``
        (for "pick it adaptively" parameters).
    minimum, maximum:
        Optional bounds on numeric values, checked at parse time so an
        out-of-range spec fails fast (at the CLI parser / spec
        construction) instead of crashing the component constructor
        mid-sweep.  Inclusive by default; ``exclusive_min`` /
        ``exclusive_max`` make a bound strict.
    """

    name: str
    kind: str
    default: object = REQUIRED
    help: str = ""
    dest: str | None = None
    allow_auto: bool = False
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    exclusive_max: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_KINDS:
            raise ValueError(f"param kind must be one of {_PARAM_KINDS}, got {self.kind!r}")

    def _check_bounds(self, value: object) -> object:
        if value is None:
            return value
        # NaN passes every comparison below, and no knob means "infinite".
        if self.kind == "float" and not math.isfinite(value):
            raise SpecError(f"parameter {self.name!r} must be finite, got {value!r}")
        too_low = self.minimum is not None and (
            value < self.minimum or (self.exclusive_min and value == self.minimum)
        )
        too_high = self.maximum is not None and (
            value > self.maximum or (self.exclusive_max and value == self.maximum)
        )
        if too_low or too_high:
            raise SpecError(
                f"parameter {self.name!r} must be in {self.range_text()}, got {value!r}"
            )
        return value

    def range_text(self) -> str:
        """Human-readable bound interval, e.g. ``(0, 1]`` or ``[1, inf)``."""
        lo = "-inf" if self.minimum is None else f"{self.minimum:g}"
        hi = "inf" if self.maximum is None else f"{self.maximum:g}"
        open_b = "(" if (self.exclusive_min or self.minimum is None) else "["
        close_b = ")" if (self.exclusive_max or self.maximum is None) else "]"
        return f"{open_b}{lo}, {hi}{close_b}"

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    @property
    def kwarg(self) -> str:
        """Factory keyword this parameter binds to."""
        return self.dest or self.name

    # ------------------------------------------------------------------
    def parse(self, text: str) -> object:
        """Parse a spec-string value token into a typed, bounds-checked value."""
        if self.allow_auto and text == AUTO_TOKEN:
            return None
        try:
            if self.kind == "int":
                typed: object = int(text)
            elif self.kind == "float":
                typed = float(text)
            elif self.kind == "bool":
                if text in ("true", "1"):
                    typed = True
                elif text in ("false", "0"):
                    typed = False
                else:
                    raise ValueError(text)
            else:
                typed = text
        except ValueError:
            raise SpecError(
                f"parameter {self.name!r} expects a {self.kind}"
                f"{' (or auto)' if self.allow_auto else ''}, got {text!r}"
            ) from None
        return self._check_bounds(typed)

    def coerce(self, value: object) -> object:
        """Validate/normalize an already-typed value (e.g. a grid cell)."""
        if isinstance(value, str):
            return self.parse(value)
        if value is None:
            if not self.allow_auto:
                raise SpecError(f"parameter {self.name!r} does not accept auto/None")
            return None
        try:
            if self.kind == "int":
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                typed: object = int(value)
            elif self.kind == "float":
                typed = float(value)
            elif self.kind == "bool":
                if not isinstance(value, bool):
                    raise ValueError(value)
                typed = value
            else:
                raise ValueError(value)  # non-str for a str param
        except (TypeError, ValueError):
            raise SpecError(
                f"parameter {self.name!r} expects a {self.kind}, got {value!r}"
            ) from None
        return self._check_bounds(typed)

    def format(self, value: object) -> str:
        """Canonical spec-string token for a typed value (parse inverse)."""
        if value is None:
            return AUTO_TOKEN
        if self.kind == "bool":
            return "true" if value else "false"
        if self.kind == "float":
            return repr(float(value))  # repr round-trips exactly in py3
        return str(value)

    def describe(self) -> str:
        """Schema line for ``repro list`` output."""
        if self.required:
            head = f"{self.name}: {self.kind} (required)"
        else:
            head = f"{self.name}: {self.kind} = {self.format(self.default)}"
        if self.minimum is not None or self.maximum is not None:
            head += f" (in {self.range_text()})"
        return f"{head} — {self.help}" if self.help else head


@dataclass(frozen=True)
class Component:
    """Registered factory plus its descriptor (name, parameter schema)."""

    kind: str
    name: str
    factory: Callable
    params: tuple[Param, ...] = ()
    summary: str = ""

    def param(self, key: str) -> Param:
        for p in self.params:
            if p.name == key:
                return p
        raise UnknownParamError(
            f"unknown parameter {key!r} for {self.kind} {self.name!r}; "
            f"declared parameters: {[p.name for p in self.params] or 'none'}"
        )


@dataclass(frozen=True)
class Resolved:
    """A fully resolved spec: component + complete parameter values."""

    component: Component
    #: Every declared parameter, defaults filled in.
    params: dict

    @property
    def canonical(self) -> str:
        """Canonical spec string: sorted keys, defaults omitted."""
        parts = []
        for p in sorted(self.component.params, key=lambda p: p.name):
            value = self.params[p.name]
            if not p.required and value == p.default and type(value) is type(p.default):
                continue
            parts.append(f"{p.name}={p.format(value)}")
        if not parts:
            return self.component.name
        return f"{self.component.name}:{','.join(parts)}"

    def kwargs(self) -> dict:
        """Parameter values keyed by their factory keyword (``dest``)."""
        return {
            p.kwarg: self.params[p.name]
            for p in self.component.params
            if self.params[p.name] is not None or p.allow_auto
        }


def parse_spec(text: str) -> tuple[str, dict[str, str]]:
    """Split ``name[:key=val,...]`` into (name, raw key/value tokens).

    Pure grammar — no registry lookup.  Raises :class:`SpecError` on
    malformed input, naming what is wrong.
    """
    if not isinstance(text, str):
        raise SpecError(f"component spec must be a string, got {text!r}")
    text = text.strip()
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if not name:
        raise SpecError(f"empty component name in spec {text!r}")
    raw: dict[str, str] = {}
    if sep and not rest.strip():
        raise SpecError(f"spec {text!r} has a ':' but no parameters")
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise SpecError(
                    f"malformed parameter {item.strip()!r} in spec {text!r} "
                    "(expected key=value)"
                )
            if key in raw:
                raise SpecError(f"duplicate parameter {key!r} in spec {text!r}")
            raw[key] = value
    return name, raw


class Registry:
    """A named collection of components of one kind.

    Components register via :meth:`register` (a decorator); consumers
    resolve spec strings via :meth:`resolve` / :meth:`canonical` and
    instantiate via :meth:`create`.  Lookup lazily imports the built-in
    component modules (:func:`load_components`) so a registry is fully
    populated however the process entered the library.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._components: dict[str, Component] = {}

    # -- registration (never triggers component loading) ----------------
    def register(
        self,
        name: str,
        *,
        params: Iterable[Param] = (),
        summary: str = "",
    ) -> Callable:
        """Class/function decorator announcing a component."""
        name = name.lower()
        params = tuple(params)

        def decorator(factory: Callable) -> Callable:
            if name in self._components:
                raise ValueError(f"duplicate {self.kind} registration: {name!r}")
            self._components[name] = Component(
                kind=self.kind, name=name, factory=factory, params=params, summary=summary
            )
            return factory

        return decorator

    # -- enumeration ----------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Canonical component names, in registration order."""
        load_components()
        return tuple(self._components)

    # -- resolution -----------------------------------------------------
    def resolve(self, spec: str) -> Resolved:
        """Parse + validate a spec string against the registry."""
        load_components()
        name, raw = parse_spec(spec)
        component = self._components.get(name)
        if component is None:
            raise UnknownComponentError(
                f"unknown {self.kind} {spec!r}; registered: {sorted(self._components)}"
            )
        values = {}
        for key, token in raw.items():
            param = component.param(key)  # UnknownParamError names the component
            try:
                values[key] = param.parse(token)
            except SpecError as exc:
                raise SpecError(f"{self.kind} {component.name!r}: {exc}") from None
        for p in component.params:
            if p.name not in values:
                if p.required:
                    raise SpecError(
                        f"{self.kind} {component.name!r} requires parameter {p.name!r}"
                    )
                values[p.name] = p.default
        return Resolved(component=component, params=values)

    def canonical(self, spec: str) -> str:
        """Canonical spelling of any accepted spec string."""
        return self.resolve(spec).canonical

    def with_params(self, spec: str, **overrides) -> str:
        """Canonical spec with parameters overridden (grid-sweep helper).

        Override values may be raw strings (parsed per schema) or typed
        values; unknown keys raise :class:`UnknownParamError` naming the
        declared alternatives.
        """
        resolved = self.resolve(spec)
        values = dict(resolved.params)
        for key, value in overrides.items():
            values[key] = resolved.component.param(key).coerce(value)
        return Resolved(component=resolved.component, params=values).canonical

    # -- construction ---------------------------------------------------
    def create(self, spec: str, *args, **extra):
        """Instantiate a component from a spec string.

        ``extra`` keyword arguments are wiring the caller supplies (an
        engine seed, scheduler overrides, ...): keys the factory cannot
        accept are dropped, and keys colliding with spec parameters win
        over the spec (explicit call-site overrides beat the string).
        """
        resolved = self.resolve(spec)
        kwargs = resolved.kwargs()
        kwargs.update(_filter_kwargs(resolved.component.factory, extra))
        return resolved.component.factory(*args, **kwargs)

    # -- introspection --------------------------------------------------
    def describe(self) -> list[dict]:
        """Rows for ``repro list``: name, summary, param schema."""
        load_components()
        return [
            {
                "name": component.name,
                "summary": component.summary,
                "params": [p.describe() for p in component.params],
            }
            for component in self._components.values()
        ]


def _filter_kwargs(factory: Callable, extra: Mapping[str, object]) -> dict:
    """The subset of ``extra`` that ``factory``'s signature can accept."""
    if not extra:
        return {}
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without signatures
        return dict(extra)
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    )
    if accepts_any:
        return dict(extra)
    allowed = {
        n
        for n, p in sig.parameters.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return {k: v for k, v in extra.items() if k in allowed}


# ----------------------------------------------------------------------
# The built-in registries.

#: Schedulers (the paper's evaluated systems).
SYSTEMS = Registry("system")
#: Fleet routing policies.
ROUTERS = Registry("router")
#: Arrival-trace generators.
TRACES = Registry("trace")
#: Model/deployment setups (Table 1).
MODELS = Registry("model setup")
#: Deterministic fault injections (chaos runs).
FAULTS = Registry("fault")

#: Imported in this order, so ``repro list systems`` puts adaserve first.
_COMPONENT_MODULES = (
    "repro.core.scheduler",  # adaserve
    "repro.baselines",  # seven baseline schedulers
    "repro.cluster.router",  # routing policies
    "repro.workloads.generator",  # single-shot trace kinds
    "repro.workloads.sessions",  # multi-turn session trace kinds
    "repro.analysis.harness",  # model setups
    "repro.chaos.faults",  # fault injections
)

_loaded = False
_loading = False


def load_components() -> None:
    """Import the built-in component modules once (idempotent).

    Registration happens at module import; this makes registry *queries*
    self-sufficient regardless of which entry point imported us first.
    Safe against import cycles: a module mid-import is simply returned
    from ``sys.modules`` as-is, and its registrations have either already
    run (they sit at class/function definition site) or will complete
    before any query from outside that module.  ``_loaded`` flips only
    after every import succeeded, so a failed import is retried (and the
    error re-raised) on the next query instead of leaving the registries
    silently half-populated; ``_loading`` guards re-entrant queries
    issued while the imports themselves are running.
    """
    global _loaded, _loading
    if _loaded or _loading:
        return
    _loading = True
    try:
        for module in _COMPONENT_MODULES:
            importlib.import_module(module)
        _loaded = True
    finally:
        _loading = False
