"""Tests for the declarative ExperimentSpec and grid expansion."""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.spec import (
    ClusterSpec,
    ExperimentSpec,
    SystemSpec,
    WorkloadSpec,
    apply_axis,
    expand_grid,
    parse_grid_axis,
)
from repro.registry import SpecError, UnknownComponentError, UnknownParamError
from repro.serving.metrics import METRICS_MODES
from repro.workloads.categories import CATEGORIES

#: Every system's bare name maps to its spelling with each default written out.
SPELLED_DEFAULTS = {
    "adaserve": "adaserve:n_max=16,slack=1.5,margin=0.9,chunk=256",
    "vllm": "vllm",
    "sarathi": "sarathi:chunk=256",
    "vllm-spec": "vllm-spec:k=4",
    "priority": "priority:cap=8",
    "fastserve": "fastserve",
    "vtc": "vtc",
    "smartspec": "smartspec:k_max=8",
}


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=7, trace="steady"
    )
    base.update(overrides)
    return ExperimentSpec.create(**base)


class TestCanonicalization:
    @pytest.mark.parametrize("bare,spelled", sorted(SPELLED_DEFAULTS.items()))
    def test_bare_name_cache_key_byte_identical_to_spelled_defaults(self, bare, spelled):
        a, b = _spec(system=bare), _spec(system=spelled)
        assert a == b
        assert a.digest() == b.digest()
        canonical_a = json.dumps(a.to_dict(), sort_keys=True, separators=(",", ":"))
        canonical_b = json.dumps(b.to_dict(), sort_keys=True, separators=(",", ":"))
        assert canonical_a.encode() == canonical_b.encode()  # byte-identical

    def test_suffixed_system_name_rejected(self):
        with pytest.raises(UnknownComponentError, match="'vllm-spec'"):
            _spec(system="vllm-spec-8")

    def test_distinct_parameters_fork_the_key(self):
        assert _spec(system="vllm-spec:k=6").digest() != _spec(system="vllm-spec:k=8").digest()
        assert _spec(system="adaserve:n_max=4").digest() != _spec(system="adaserve").digest()

    def test_trace_params_are_canonical_and_keyed(self):
        default = _spec(trace="diurnal")
        spelled = _spec(trace="diurnal:peak_to_trough=4.0")
        tuned = _spec(trace="diurnal:peak_to_trough=6")
        assert default == spelled
        assert default.workload.trace == "diurnal"
        assert tuned.workload.trace == "diurnal:peak_to_trough=6.0"
        assert tuned.digest() != default.digest()

    def test_router_params_are_canonical_and_keyed(self):
        default = _spec(replicas=3, router="affinity")
        spelled = _spec(replicas=3, router="affinity:reserve=auto")
        pinned = _spec(replicas=3, router="affinity:reserve=0.4")
        assert default == spelled
        assert pinned.cluster.router == "affinity:reserve=0.4"
        assert pinned.digest() != default.digest()

    def test_spec_strings_case_insensitive(self):
        assert _spec(system="VLLM") == _spec(system="vllm")


class TestShape:
    def test_to_dict_is_nested_and_json_serializable(self):
        d = _spec(replicas=2, router="p2c").to_dict()
        assert set(d) == {"workload", "system", "cluster"}
        assert d["system"]["name"] == "vllm"
        assert d["workload"]["rps"] == 2.0
        assert d["cluster"]["router"] == "p2c"
        json.dumps(d)

    def test_from_dict_round_trips(self):
        for spec in (
            _spec(),
            _spec(mix={"coding": 0.7, "chatbot": 0.3}),
            _spec(replicas=2, router="affinity:reserve=0.4", autoscale={"max_replicas": 6}),
        ):
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_create_fills_every_section(self):
        spec = _spec(replicas=2, router="p2c", slo_scale=1.5)
        w = spec.workload
        assert spec.system.model == "llama70b"
        assert spec.system.name == "vllm"
        assert (w.rps, w.duration_s, w.seed) == (2.0, 4.0, 7)
        assert (w.trace, w.slo_scale) == ("steady", 1.5)
        assert (spec.cluster.replicas, spec.cluster.router) == (2, "p2c")
        assert spec.system.max_sim_time_s == 1800.0
        assert spec.is_cluster

    def test_sections_constructible_directly(self):
        spec = ExperimentSpec(
            workload=WorkloadSpec(trace="steady", rps=2.0, duration_s=4.0, seed=7),
            system=SystemSpec(name="vllm-spec:k=8", model="llama70b"),
            cluster=ClusterSpec(),
        )
        assert spec == _spec(system="vllm-spec:k=8")

    def test_with_replica_touches_only_the_workload_seed(self):
        spec = _spec()
        derived = spec.with_replica(2)
        assert derived.system == spec.system and derived.cluster == spec.cluster
        assert derived.workload.seed != spec.workload.seed
        assert derived == spec.with_replica(2)

    def test_create_requires_the_result_determining_core(self):
        # Forgetting the seed must be a loud TypeError, not a silent
        # seed=0 run (the old flat create's contract).
        with pytest.raises(TypeError):
            ExperimentSpec.create(model="llama70b", system="vllm", rps=2.0, duration_s=4.0)
        with pytest.raises(TypeError):
            ExperimentSpec.create(system="vllm", rps=2.0, duration_s=4.0, seed=0)


class TestValidation:
    def test_rejects_nonpositive_workload_knobs(self):
        with pytest.raises(ValueError):
            _spec(rps=0.0)
        with pytest.raises(ValueError):
            _spec(duration_s=-1.0)
        with pytest.raises(ValueError):
            _spec(slo_scale=0.0)
        with pytest.raises(ValueError):
            _spec(max_sim_time_s=0.0)

    def test_rejects_non_finite_workload_knobs(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _spec(rps=bad)
            with pytest.raises(ValueError):
                _spec(duration_s=bad)
            with pytest.raises(ValueError):
                _spec(slo_scale=bad)

    def test_from_dict_rejects_flat_v2_shapes(self):
        with pytest.raises(SpecError, match="workload, system, cluster"):
            ExperimentSpec.from_dict(
                {"model": "qwen32b", "system": "vllm", "rps": 8.0, "seed": 5}
            )

    @pytest.mark.parametrize(
        "mix,named",
        [
            ({"coding": float("nan"), "chatbot": 1.0}, "coding"),
            ({"coding": -1.0, "chatbot": 2.0}, "coding"),
            ({"coding": float("inf")}, "coding"),
            ({"chatbot": 1.0, "summarization": float("-inf")}, "summarization"),
            ({"coding": "abc", "chatbot": 1.0}, "coding"),
            ({"coding": None}, "coding"),
            ({"bogus": 1.0}, "bogus"),
            ({"coding": 0.0}, "coding"),
            ({"coding": 0.0, "chatbot": 0.0}, "chatbot"),
        ],
        ids=["nan", "negative", "inf", "-inf", "text", "none", "unknown", "zero", "all-zero"],
    )
    def test_rejects_malformed_mix_naming_the_category(self, mix, named):
        with pytest.raises(SpecError, match=f"'{named}'"):
            _spec(mix=mix)
        with pytest.raises(SpecError, match=f"'{named}'"):
            WorkloadSpec(mix=tuple(mix.items()))

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("replicas", 2.5, "replicas"),
            ("replicas", True, "replicas"),
            ("replicas", float("nan"), "replicas"),
            ("replicas", float("inf"), "replicas"),
            ("replicas", None, "replicas"),
            ("seed", 1.5, "seed"),
            ("seed", True, "seed"),
            ("seed", None, "seed"),
        ],
        ids=[
            "replicas-fraction",
            "replicas-bool",
            "replicas-nan",
            "replicas-inf",
            "replicas-none",
            "seed-fraction",
            "seed-bool",
            "seed-none",
        ],
    )
    def test_rejects_non_integer_count_naming_the_field(self, field, value, named):
        with pytest.raises(SpecError, match=named):
            _spec(**{field: value})

    def test_integral_floats_are_integer_fields(self):
        spec = _spec(replicas=2.0, seed=7.0)
        replicas, seed = spec.cluster.replicas, spec.workload.seed
        assert (replicas, seed) == (2, 7)
        assert type(replicas) is int and type(seed) is int

    def test_zero_weight_beside_a_positive_one_is_a_valid_mix(self):
        spec = _spec(mix={"coding": 1.0, "chatbot": 0.0})
        assert spec.workload.mix == (("chatbot", 0.0), ("coding", 1.0))

    def test_rejects_unknown_components(self):
        with pytest.raises(ValueError):
            _spec(system="gpt5")
        with pytest.raises(ValueError):
            _spec(trace="sinusoidal")
        with pytest.raises(ValueError):
            _spec(model="llama405b")

    @pytest.mark.parametrize(
        "overrides,named",
        [
            ({"prefix_cache": "no"}, "prefix_cache"),
            ({"prefix_cache": 1}, "prefix_cache"),
            ({"autoscale": True}, "autoscale"),
            ({"autoscale": {"bogus": 1}}, "bogus"),
            ({"autoscale": {"max_replicas": float("nan")}}, "max_replicas"),
            ({"autoscale": {"min_replicas": 1.5}}, "min_replicas"),
            ({"autoscale": {"warmup_s": "slow"}}, "warmup_s"),
            ({"rps": "fast"}, "rps"),
            ({"max_sim_time_s": None}, "max_sim_time_s"),
            ({"mix": 5}, "mix"),
            ({"faults": 3}, "faults"),
        ],
        ids=[
            "prefix-cache-text",
            "prefix-cache-int",
            "autoscale-bool",
            "autoscale-unknown-knob",
            "autoscale-nan-count",
            "autoscale-fraction-count",
            "autoscale-text-knob",
            "rps-text",
            "horizon-none",
            "mix-not-a-mapping",
            "faults-not-a-list",
        ],
    )
    def test_create_rejects_malformed_values_naming_the_field(self, overrides, named):
        with pytest.raises(SpecError, match=named):
            _spec(**overrides)

    def test_prefix_cache_off_stays_off(self):
        assert _spec(prefix_cache=False).system.prefix_cache is False
        assert _spec(prefix_cache=True).system.prefix_cache is True


def _record(**sections) -> dict:
    """A valid ``to_dict`` record with ``sections`` replaced (``None`` drops one)."""
    d = _spec(replicas=2, autoscale={"max_replicas": 6}).to_dict()
    for name, value in sections.items():
        if value is None:
            del d[name]
        else:
            d[name] = value
    return d


class TestRecordValidation:
    """``from_dict`` refuses a corrupt record, naming the section or field."""

    @pytest.mark.parametrize("section", ["workload", "system", "cluster"])
    def test_missing_section_is_an_error_not_a_default(self, section):
        with pytest.raises(SpecError, match=f"'{section}' is missing"):
            ExperimentSpec.from_dict(_record(**{section: None}))

    @pytest.mark.parametrize("section", ["workload", "system", "cluster", "chaos"])
    @pytest.mark.parametrize("value", [[1, 2], "steady", 3])
    def test_section_must_be_a_mapping(self, section, value):
        with pytest.raises(SpecError, match=f"'{section}' is not a mapping"):
            ExperimentSpec.from_dict(_record(**{section: value}))

    def test_chaos_section_is_optional(self):
        record = _record()
        assert "chaos" not in record
        assert ExperimentSpec.from_dict(record) == _spec(replicas=2, autoscale={"max_replicas": 6})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("workload", "rps", "fast"),
            ("workload", "seed", 1.5),
            ("system", "prefix_cache", "no"),
            ("system", "max_sim_time_s", "long"),
            ("cluster", "autoscale", 7),
            ("cluster", "replicas", None),
        ],
    )
    def test_malformed_field_names_it(self, section, key, value):
        record = _record()
        record[section][key] = value
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.from_dict(record)

    def test_unknown_field_is_named_with_its_section(self):
        record = _record()
        record["workload"]["speed"] = 2.0
        with pytest.raises(SpecError, match=r"workload\.speed"):
            ExperimentSpec.from_dict(record)

    def test_record_must_be_a_mapping(self):
        with pytest.raises(SpecError, match="mapping"):
            ExperimentSpec.from_dict([("workload", {})])


_POSITIVE = st.floats(min_value=1e-3, max_value=1e4) | st.integers(1, 10_000)
_NOT_POSITIVE = st.sampled_from([0.0, 0, -1.5, -3, float("nan"), float("inf"), float("-inf")])
_NOT_NUMBERS = st.sampled_from(["fast", "2", True, False, None, [1.0]])
_WEIGHTS = st.dictionaries(
    st.sampled_from(sorted(CATEGORIES)), st.floats(0.0, 10.0), min_size=1
).filter(lambda mix: any(weight > 0 for weight in mix.values()))

#: Per ``ExperimentSpec.create`` keyword: (valid values, invalid values).
#: Each invalid value must be refused with a ``SpecError`` naming the key.
_KEYWORDS = {
    "rps": (_POSITIVE, _NOT_POSITIVE | _NOT_NUMBERS),
    "duration_s": (_POSITIVE, _NOT_POSITIVE | _NOT_NUMBERS),
    "slo_scale": (_POSITIVE, _NOT_POSITIVE | _NOT_NUMBERS),
    "max_sim_time_s": (_POSITIVE, _NOT_POSITIVE | _NOT_NUMBERS),
    "seed": (
        st.integers(0, 2**32) | st.integers(0, 2**20).map(float),
        st.sampled_from([1.5, float("nan"), float("inf"), "7", True, None]),
    ),
    "replicas": (
        st.integers(1, 64) | st.integers(1, 64).map(float),
        st.sampled_from([0, -2, 1.5, 0.0, float("nan"), "2", True, None]),
    ),
    "metrics": (st.sampled_from(sorted(METRICS_MODES)), st.sampled_from(["bogus", "Exact", "", None, 1])),
    "prefix_cache": (st.booleans(), st.sampled_from(["no", "true", 0, 1, None])),
    "mix": (
        st.none() | _WEIGHTS,
        st.sampled_from(
            [{"coding": -1.0}, {"coding": float("nan")}, {"bogus": 1.0}, {"coding": 0.0}, "coding", 5]
        ),
    ),
}


@st.composite
def _create_keywords(draw):
    """Valid ``create`` keywords, with one of them made invalid half the time."""
    keywords = {key: draw(valid) for key, (valid, _) in _KEYWORDS.items()}
    bad = draw(st.none() | st.sampled_from(sorted(_KEYWORDS)))
    if bad is not None:
        keywords[bad] = draw(_KEYWORDS[bad][1])
    return keywords, bad


class TestGeneratedCreate:
    """The spec is the CLI's one validation boundary: probe it with draws."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_create_keywords())
    def test_invalid_keyword_is_named_and_valid_spec_round_trips(self, drawn):
        keywords, bad = drawn
        if bad is not None:
            with pytest.raises(SpecError, match=bad):
                ExperimentSpec.create(model="llama70b", system="vllm", **keywords)
            return
        spec = ExperimentSpec.create(model="llama70b", system="vllm", **keywords)
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and again.digest() == spec.digest()


class TestGrid:
    def test_parse_grid_axis(self):
        axis = parse_grid_axis("system.k=2,4, 6")
        assert axis.path == "system.k" and axis.values == ("2", "4", "6")

    @pytest.mark.parametrize("bad", ["", "system.k", "=2", "k=2", "system.k="])
    def test_parse_grid_axis_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_grid_axis(bad)

    def test_system_axis_reparameterizes_canonically(self):
        base = _spec(system="vllm-spec")
        cells = expand_grid([base], [parse_grid_axis("system.k=2,4,8")])
        assert [c.system.name for c in cells] == ["vllm-spec:k=2", "vllm-spec", "vllm-spec:k=8"]
        assert len({c.digest() for c in cells}) == 3

    def test_cartesian_product_of_axes(self):
        base = _spec(system="vllm-spec")
        cells = expand_grid(
            [base],
            [parse_grid_axis("system.k=2,4"), parse_grid_axis("workload.rps=1.0,2.0,3.0")],
        )
        assert len(cells) == 6
        assert {(c.system.name, c.workload.rps) for c in cells} == {
            (name, rps)
            for name in ("vllm-spec:k=2", "vllm-spec")
            for rps in (1.0, 2.0, 3.0)
        }

    def test_unknown_param_names_alternatives(self):
        with pytest.raises(UnknownParamError, match="declared parameters"):
            apply_axis(_spec(system="vllm-spec"), "system.q", "3")

    def test_unknown_section_and_field(self):
        with pytest.raises(SpecError, match="sections"):
            apply_axis(_spec(), "bogus.k", "3")
        with pytest.raises(SpecError, match="workload axis"):
            apply_axis(_spec(), "workload.color", "red")

    def test_router_axis_requires_cluster_point(self):
        with pytest.raises(SpecError, match="replicas"):
            apply_axis(_spec(), "router.reserve", "0.4")
        cell = apply_axis(_spec(replicas=3, router="affinity"), "router.reserve", "0.4")
        assert cell.cluster.router == "affinity:reserve=0.4"

    def test_trace_and_cluster_axes(self):
        cell = apply_axis(_spec(trace="diurnal"), "trace.peak_to_trough", "6")
        assert cell.workload.trace == "diurnal:peak_to_trough=6.0"
        cell = apply_axis(_spec(), "cluster.replicas", "4")
        assert cell.cluster.replicas == 4 and cell.is_cluster

    def test_workload_axis_type_error(self):
        with pytest.raises(SpecError, match="expects a"):
            apply_axis(_spec(), "workload.rps", "fast")

    def test_replica_axis_over_autoscaled_spec_reports_ceiling_honestly(self):
        base = _spec(replicas=2, autoscale={})  # ceiling canonicalized to 4
        grown = apply_axis(base, "cluster.replicas", "4")
        assert grown.cluster.replicas == 4
        # Growing past the baked ceiling is a real constraint violation,
        # not an int-parse failure — the autoscaler's error surfaces.
        with pytest.raises(ValueError, match="below"):
            apply_axis(base, "cluster.replicas", "8")
