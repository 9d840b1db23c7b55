"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json

from repro.analysis.cache import (
    SCHEMA_VERSION,
    ResultCache,
    config_key,
    default_cache_dir,
)
from repro.analysis.runner import ExperimentSpec


def _config(**overrides) -> ExperimentSpec:
    base = dict(
        model="llama70b", system="vllm", rps=2.0, duration_s=4.0, seed=7, trace="steady"
    )
    base.update(overrides)
    return ExperimentSpec.create(**base)


class TestKey:
    def test_stable_across_instances(self):
        assert _config().digest() == _config().digest()
        assert config_key(_config()) == config_key(_config().to_dict())

    def test_seed_is_part_of_the_key(self):
        assert _config(seed=7).digest() != _config(seed=8).digest()

    def test_trace_kind_is_part_of_the_key(self):
        assert _config(trace="steady").digest() != _config(trace="bursty").digest()

    def test_every_field_reaches_the_key(self):
        base = _config().digest()
        assert _config(rps=2.5).digest() != base
        assert _config(duration_s=5.0).digest() != base
        assert _config(slo_scale=2.0).digest() != base
        assert _config(system="sarathi").digest() != base
        assert _config(max_sim_time_s=60.0).digest() != base

    def test_code_fingerprint_is_part_of_the_key(self, monkeypatch):
        from repro.analysis import cache as cache_mod

        base = _config().digest()
        assert cache_mod.code_fingerprint()  # computed and non-empty
        monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT", "simulated-code-change")
        assert _config().digest() != base

    def test_mix_is_canonicalized(self):
        a = _config(mix={"chatbot": 0.5, "coding": 0.5})
        b = _config(mix={"coding": 0.5, "chatbot": 0.5})
        assert a.digest() == b.digest()
        assert a.digest() != _config(mix={"chatbot": 0.4, "coding": 0.6}).digest()


class TestRoundTrip:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_config()) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = {"scheduler": "vLLM", "metrics": {"goodput": 1.0}}
        path = cache.put(_config(), report)
        assert path.is_file()
        record = cache.get(_config())
        assert record is not None
        assert record["schema"] == SCHEMA_VERSION
        assert record["report"] == report
        assert record["config"] == _config().to_dict()
        assert record["key"] == _config().digest()
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_get_is_keyed_not_positional(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_config(seed=1), {"r": 1})
        assert cache.get(_config(seed=2)) is None
        assert cache.get(_config(seed=1))["report"] == {"r": 1}


class TestInvalidation:
    def test_stale_schema_version_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_config(), {"r": 1})
        path = cache.path_for(_config())
        record = json.loads(path.read_text())
        record["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(record))
        assert cache.get(_config()) is None
        assert not path.exists()
        assert cache.stats.invalidated == 1
        assert cache.stats.misses == 1

    def test_corrupted_record_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_config(), {"r": 1})
        path = cache.path_for(_config())
        path.write_text("{truncated-garbage")
        assert cache.get(_config()) is None
        assert not path.exists()
        # The slot is usable again after recovery.
        cache.put(_config(), {"r": 2})
        assert cache.get(_config())["report"] == {"r": 2}

    def test_non_dict_record_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(_config())
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get(_config()) is None
        assert cache.stats.invalidated == 1


class TestPrune:
    def test_prune_removes_stranded_and_keeps_current(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_config(), {"r": 1})
        keep = cache.path_for(_config())
        stranded = tmp_path / "00" / ("0" * 64 + ".json")
        stranded.parent.mkdir(parents=True)
        stale = json.loads(keep.read_text())
        stale["code"] = "previous-simulator-version"
        stranded.write_text(json.dumps(stale))
        garbage = tmp_path / "00" / "junk.json"
        garbage.write_text("{not json")
        orphan_tmp = keep.with_name(f"{keep.name}.tmp.9999")
        orphan_tmp.write_text("partial write")
        assert cache.prune() == 3
        assert keep.exists()
        assert not stranded.exists()
        assert not garbage.exists()
        assert not orphan_tmp.exists()
        assert cache.get(_config())["report"] == {"r": 1}

    def test_prune_missing_root(self, tmp_path):
        assert ResultCache(tmp_path / "never-created").prune() == 0


class TestStats:
    def test_summary_line(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get(_config())
        cache.put(_config(), {"r": 1})
        cache.get(_config())
        assert cache.stats.summary() == "cache: 1 hits, 1 misses, 1 stored"


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert str(default_cache_dir()) == ".repro-cache"
