"""Tests for the typed component registries and the spec-string grammar."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harness import build_setup, make_scheduler
from repro.analysis.spec import ExperimentSpec
from repro.cluster.router import make_router
from repro.registry import (
    FAULTS,
    MODELS,
    ROUTERS,
    SYSTEMS,
    TRACES,
    Param,
    Registry,
    SpecError,
    UnknownComponentError,
    UnknownParamError,
    load_components,
    parse_spec,
)
from tests.conftest import run_fresh

#: Every built-in component, in the order ``repro list`` prints it.
COMMITTED_NAMES = {
    "SYSTEMS": (
        "adaserve",
        "fastserve",
        "priority",
        "sarathi",
        "smartspec",
        "vllm",
        "vllm-spec",
        "vtc",
    ),
    "ROUTERS": ("round-robin", "least-loaded", "p2c", "affinity", "prefix-affinity"),
    "TRACES": ("bursty", "steady", "diurnal", "phased", "sessions", "agentic"),
    "FAULTS": ("crash", "straggler", "scale-delay"),
    "MODELS": ("llama70b", "qwen32b"),
}


class TestGrammar:
    def test_bare_name(self):
        assert parse_spec("adaserve") == ("adaserve", {})

    def test_params(self):
        assert parse_spec("vllm-spec:k=8") == ("vllm-spec", {"k": "8"})
        assert parse_spec(" Affinity : reserve=0.4 , x=auto ") == (
            "affinity",
            {"reserve": "0.4", "x": "auto"},
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", ":k=1", "name:", "name:k", "name:k=", "name:=1", "name:k=1,k=2", "name:k=1,,"],
    )
    def test_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_non_string(self):
        with pytest.raises(SpecError):
            parse_spec(42)


class TestParam:
    def test_int_parse_and_format(self):
        p = Param("k", "int", default=4)
        assert p.parse("8") == 8
        assert p.format(8) == "8"
        with pytest.raises(SpecError, match="expects a int"):
            p.parse("eight")

    def test_float_round_trip(self):
        p = Param("x", "float", default=1.0)
        for v in (0.1, 1e-7, 12345.6789, 2.0):
            assert p.parse(p.format(v)) == v

    def test_bool(self):
        p = Param("flag", "bool", default=False)
        assert p.parse("true") is True and p.parse("0") is False
        assert p.format(True) == "true"
        with pytest.raises(SpecError):
            p.parse("yes")

    def test_auto(self):
        p = Param("reserve", "float", default=None, allow_auto=True)
        assert p.parse("auto") is None
        assert p.format(None) == "auto"
        strict = Param("x", "float", default=1.0)
        with pytest.raises(SpecError):
            strict.parse("auto")

    def test_coerce_rejects_fractional_int(self):
        p = Param("k", "int", default=4)
        assert p.coerce(6.0) == 6
        with pytest.raises(SpecError):
            p.coerce(6.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Param("k", "complex")

    def test_bounds_checked_on_parse_and_coerce(self):
        p = Param("k", "int", default=4, minimum=1)
        assert p.parse("1") == 1
        with pytest.raises(SpecError, match=r"in \[1, inf\)"):
            p.parse("0")
        with pytest.raises(SpecError):
            p.coerce(0)
        open_unit = Param(
            "r", "float", default=0.5,
            minimum=0.0, maximum=1.0, exclusive_min=True, exclusive_max=True,
        )
        assert open_unit.parse("0.5") == 0.5
        for bad in ("0", "1", "-0.1", "1.5"):
            with pytest.raises(SpecError, match=r"in \(0, 1\)"):
                open_unit.parse(bad)

    def test_bounds_shown_in_describe(self):
        p = Param("k", "int", default=4, minimum=1, help="speculation length")
        assert p.describe() == "k: int = 4 (in [1, inf)) — speculation length"


def _float_params():
    """Every registered float parameter of the trace, system, fault and router registries."""
    load_components()
    return [
        pytest.param(registry, name, param.name, id=f"{name}.{param.name}")
        for registry in (TRACES, SYSTEMS, FAULTS, ROUTERS)
        for name in registry.names()
        for param in registry.resolve(name).component.params
        if param.kind == "float"
    ]


FLOAT_PARAMS = _float_params()


class TestNonFiniteFloats:
    """NaN passes every bound comparison, so float knobs reject it (and +-inf) first."""

    def test_float_params_cover_the_known_knobs(self):
        names = {p.values[1] + "." + p.values[2] for p in FLOAT_PARAMS}
        assert {
            "bursty.burstiness", "diurnal.peak_to_trough", "phased.base_rps",
            "sessions.think_time", "agentic.think_time", "adaserve.slack",
            "crash.restart", "affinity.reserve",
        } <= names

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(("registry", "component", "name"), FLOAT_PARAMS)
    def test_spec_string_rejected_naming_the_param(self, registry, component, name, text):
        with pytest.raises(SpecError, match=f"parameter '{name}' must be finite"):
            registry.resolve(f"{component}:{name}={text}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(("registry", "component", "name"), FLOAT_PARAMS)
    def test_coerced_value_rejected_naming_the_param(self, registry, component, name, value):
        param = registry.resolve(component).component.param(name)
        with pytest.raises(SpecError, match=f"parameter '{name}' must be finite"):
            param.coerce(value)

    @pytest.mark.parametrize(
        "field",
        [
            {"trace": "diurnal:peak_to_trough=nan"},
            {"trace": "phased:base_rps=nan"},
            {"trace": "bursty:burstiness=nan"},
            {"trace": "sessions:think_time=nan"},
            {"system": "adaserve:slack=inf"},
            {"faults": ["crash:replica=0,at=1.0,restart=nan"]},
        ],
        ids=lambda field: str(*field.values()),
    )
    def test_experiment_spec_rejects_at_construction(self, field):
        kwargs = {"model": "llama70b", "system": "adaserve", "rps": 2.0, "duration_s": 3.0, "seed": 1}
        with pytest.raises(SpecError, match="must be finite"):
            ExperimentSpec.create(**{**kwargs, **field})


class TestScratchRegistry:
    def _registry(self):
        reg = Registry("widget")

        @reg.register(
            "gadget",
            params=[
                Param("size", "int", default=3),
                Param("rate", "float", default=0.5),
                Param("mode", "str", default="fast"),
            ],
        )
        def gadget(size=3, rate=0.5, mode="fast"):
            return (size, rate, mode)

        return reg

    def test_duplicate_registration_rejected(self):
        reg = self._registry()
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("gadget")(lambda: None)
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("GADGET")(lambda: None)

    def test_resolve_fills_defaults(self):
        resolved = self._registry().resolve("gadget:size=9")
        assert resolved.component.name == "gadget"
        assert resolved.params == {"size": 9, "rate": 0.5, "mode": "fast"}
        assert resolved.canonical == "gadget:size=9"

    def test_required_param(self):
        reg = Registry("widget")
        reg.register("strict", params=[Param("n", "int")])(lambda n: n)
        with pytest.raises(SpecError, match="requires parameter 'n'"):
            reg.resolve("strict")
        assert reg.create("strict:n=5") == 5

    def test_create_filters_unacceptable_kwargs(self):
        reg = self._registry()
        assert reg.create("gadget", seed=7) == (3, 0.5, "fast")  # seed dropped

    def test_create_call_site_overrides_win(self):
        reg = self._registry()
        assert reg.create("gadget:size=5", size=11)[0] == 11

    def test_canonical_sorts_and_drops_defaults(self):
        reg = self._registry()
        assert reg.canonical("gadget:mode=fast,rate=0.5,size=3") == "gadget"
        assert reg.canonical("gadget:size=7,rate=0.25") == "gadget:rate=0.25,size=7"

    def test_with_params(self):
        reg = self._registry()
        assert reg.with_params("gadget", size=7) == "gadget:size=7"
        assert reg.with_params("gadget:size=7", size="3") == "gadget"
        with pytest.raises(UnknownParamError, match="declared parameters"):
            reg.with_params("gadget", girth=1)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(-(10**6), 10**6),
        rate=st.floats(allow_nan=False, allow_infinity=False),
        mode=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12),
    )
    def test_parse_canonical_parse_round_trips(self, size, rate, mode):
        """Property: parse -> canonical string -> parse is a fixed point."""
        reg = self._registry()
        spec = f"gadget:mode={mode},rate={reg.resolve('gadget').component.param('rate').format(rate)},size={size}"
        first = reg.resolve(spec)
        canonical = first.canonical
        second = reg.resolve(canonical)
        assert second.params == first.params
        assert second.canonical == canonical  # idempotent


class TestBuiltinRegistries:
    def test_unknown_name_error_names_alternatives(self):
        with pytest.raises(UnknownComponentError) as exc:
            SYSTEMS.resolve("nonsense")
        message = str(exc.value)
        assert "nonsense" in message and "adaserve" in message and "'vllm-spec'" in message

    def test_suffixed_vllm_spec_names_are_unknown(self):
        # A parameter is a spec key, never a name suffix: vllm-spec:k=6.
        for name in ("vllm-spec-4", "vllm-spec-6", "vllm-spec-8"):
            assert name not in SYSTEMS.names()
        with pytest.raises(UnknownComponentError) as exc:
            SYSTEMS.resolve("vllm-spec-6")
        assert "'vllm-spec-6'" in str(exc.value) and "'vllm-spec'" in str(exc.value)

    def test_unknown_param_error_names_alternatives(self):
        with pytest.raises(UnknownParamError) as exc:
            SYSTEMS.resolve("vllm-spec:q=3")
        message = str(exc.value)
        assert "'q'" in message and "['k']" in message

    def test_error_types_bridge_keyerror_and_valueerror(self):
        for exc_type in (KeyError, ValueError):
            with pytest.raises(exc_type):
                SYSTEMS.resolve("nonsense")
            with pytest.raises(exc_type):
                SYSTEMS.resolve("vllm-spec:q=3")

    def test_committed_system_names_all_registered(self):
        for name in COMMITTED_NAMES["SYSTEMS"]:
            assert name in SYSTEMS.names(), name
        assert SYSTEMS.resolve("VLLM-Spec").component.name == "vllm-spec"  # case-insensitive

    def test_router_and_trace_names_match_registries(self):
        assert ROUTERS.names() == (
            "round-robin", "least-loaded", "p2c", "affinity", "prefix-affinity"
        )
        assert set(TRACES.names()) == {
            "bursty", "steady", "phased", "diurnal", "sessions", "agentic"
        }

    def test_models_registered(self):
        assert MODELS.names() == ("llama70b", "qwen32b")
        assert build_setup("qwen32b", seed=3).seed == 3

    def test_vllm_spec_specs_canonicalize(self):
        assert SYSTEMS.canonical(" VLLM-Spec : k=8 ") == "vllm-spec:k=8"
        # Spelled-out default collapses to the bare name.
        assert SYSTEMS.canonical("vllm-spec:k=4") == "vllm-spec"

    def test_every_system_component_lists_its_schema(self):
        rows = {row["name"]: row for row in SYSTEMS.describe()}
        assert any("k: int = 4" in p for p in rows["vllm-spec"]["params"])
        assert set(rows["vllm-spec"]) == {"name", "summary", "params"}
        assert any("n_max" in p for p in rows["adaserve"]["params"])

    def test_registry_alone_registers_every_component(self):
        # No entry point imports a component module first: the queries
        # themselves load every built-in, in ``repro list`` order.
        names = run_fresh(
            """
import json
import repro.registry as registry

kinds = ("SYSTEMS", "ROUTERS", "TRACES", "FAULTS", "MODELS")
print(json.dumps({kind: getattr(registry, kind).names() for kind in kinds}))
"""
        )
        assert {kind: tuple(v) for kind, v in names.items()} == COMMITTED_NAMES


class TestComponentCreation:
    def test_make_scheduler_parameterized_specs(self):
        engine = build_setup("llama70b").build_engine()
        assert make_scheduler("vllm-spec:k=3", engine).spec_len == 3
        assert make_scheduler("vllm-spec:k=6", engine).name == "vLLM-Spec(6)"
        assert make_scheduler("adaserve:n_max=4", engine).n_max == 4
        assert make_scheduler("sarathi:chunk=128", engine).chunk_budget == 128
        assert make_scheduler("priority:cap=2", engine).urgent_batch_cap == 2
        assert make_scheduler("smartspec:k_max=5", engine).k_max == 5

    def test_make_scheduler_overrides_beat_spec(self):
        engine = build_setup("llama70b").build_engine()
        sched = make_scheduler("adaserve:n_max=4", engine, n_max=9)
        assert sched.n_max == 9

    def test_make_router_parameterized_specs(self):
        assert make_router("affinity:reserve=0.3").reserved_fraction == 0.3
        assert make_router("affinity:reserve=auto").reserved_fraction is None
        assert make_router("p2c", seed=11).seed == 11
        # Policies without a seed parameter silently drop the wiring kwarg.
        make_router("round-robin", seed=11)
        make_router("least-loaded", seed=11)

    def test_invalid_param_value_surfaces(self):
        with pytest.raises(SpecError):
            make_router("affinity:reserve=wide")

    def test_out_of_range_values_fail_at_resolution(self):
        with pytest.raises(SpecError, match="must be in"):
            SYSTEMS.resolve("vllm-spec:k=0")
        with pytest.raises(SpecError, match="must be in"):
            ROUTERS.resolve("affinity:reserve=1.5")
        with pytest.raises(SpecError, match="must be in"):
            TRACES.resolve("diurnal:peak_to_trough=0.5")
