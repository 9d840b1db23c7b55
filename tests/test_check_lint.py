"""Determinism linter: one positive and one negative fixture per rule.

Fixtures are source strings linted under synthetic ``src/repro/...``
paths, so scoping (which rules apply where) is exercised exactly as it
is on the real tree.  The last test holds the actual repo to the gate:
``lint_paths`` over ``src/repro`` must be clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import __version__ as repro_version
from repro.check.linter import lint_file, lint_paths
from repro.check.report import CHECK_SCHEMA_VERSION, format_result, result_to_dict
from repro.check.rules import RPD005_EXCLUSIONS, RULES
from repro.cli import main as repro_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_src(source: str, relpath: str = "core/fixture.py"):
    """Lint a fixture string as if it lived at ``src/repro/<relpath>``."""
    path = Path("src/repro") / relpath
    return lint_file(path, source=textwrap.dedent(source))


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# RPD001: raw RNG
# ----------------------------------------------------------------------
class TestRPD001:
    @pytest.mark.parametrize(
        "line",
        [
            "import random",
            "from random import Random",
            "import numpy.random",
            "from numpy import random",
            "from numpy.random import default_rng",
        ],
    )
    def test_raw_rng_import_flagged(self, line):
        findings, _ = lint_src(line + "\n")
        assert rules_of(findings) == ["RPD001"]

    def test_numpy_random_attribute_flagged(self):
        findings, _ = lint_src("rng = np.random.default_rng(0)\n")
        assert "RPD001" in rules_of(findings)

    def test_derived_rng_clean(self):
        findings, _ = lint_src(
            """
            from repro._rng import derive_seed

            seed = derive_seed(0, "fleet", 1)
            """
        )
        assert findings == []

    def test_rng_module_itself_exempt(self):
        findings, _ = lint_src("import random\n", relpath="_rng.py")
        assert findings == []


# ----------------------------------------------------------------------
# RPD002: wall clock
# ----------------------------------------------------------------------
class TestRPD002:
    @pytest.mark.parametrize(
        "line",
        [
            "t = time.time()",
            "t = time.perf_counter()",
            "t = time.monotonic_ns()",
            "from time import monotonic",
            "now = datetime.now()",
            "now = datetime.datetime.now()",
            "day = date.today()",
        ],
    )
    def test_wallclock_flagged(self, line):
        findings, _ = lint_src(line + "\n")
        assert "RPD002" in rules_of(findings)

    def test_sim_clock_clean(self):
        findings, _ = lint_src(
            """
            def step(clock):
                return clock.now + 0.5
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPD003: unordered iteration
# ----------------------------------------------------------------------
class TestRPD003:
    @pytest.mark.parametrize(
        "src",
        [
            "for x in {1, 2}:\n    pass",
            "for p in os.listdir(d):\n    pass",
            "ys = [y for y in {1, 2}]",
            "total = sum({1.0, 2.0})",
            "xs = list(set(items))",
            "xs = tuple(frozenset(items))",
        ],
    )
    def test_unordered_flagged(self, src):
        findings, _ = lint_src(src + "\n")
        assert "RPD003" in rules_of(findings)

    @pytest.mark.parametrize(
        "src",
        [
            "for x in sorted({1, 2}):\n    pass",
            "for p in sorted(os.listdir(d)):\n    pass",
            "m = max({1, 2})",  # order-independent reduction
            "n = len({1, 2})",
            "total = sum([1.0, 2.0])",
        ],
    )
    def test_ordered_clean(self, src):
        findings, _ = lint_src(src + "\n")
        assert findings == []


# ----------------------------------------------------------------------
# RPD004: unguarded obs call sites
# ----------------------------------------------------------------------
class TestRPD004:
    def test_unguarded_call_flagged(self):
        findings, _ = lint_src(
            """
            def step(self):
                self.obs.record(1)
            """
        )
        assert rules_of(findings) == ["RPD004"]

    def test_unguarded_store_flagged(self):
        findings, _ = lint_src(
            """
            def step(tracer, now):
                tracer.now = now
            """
        )
        assert rules_of(findings) == ["RPD004"]

    def test_guarded_call_clean(self):
        findings, _ = lint_src(
            """
            def step(self):
                if self.obs is not None:
                    self.obs.record(1)
            """
        )
        assert findings == []

    def test_guard_clause_proves_rest_of_suite(self):
        findings, _ = lint_src(
            """
            def step(tracer, now):
                if tracer is None:
                    return
                tracer.now = now
                tracer.emit("step")
            """
        )
        assert findings == []

    def test_boolop_guard_clean(self):
        findings, _ = lint_src(
            """
            def step(sampler, t):
                sampler is not None and sampler.catch_up(t)
            """
        )
        assert findings == []

    def test_guard_does_not_leak_to_other_receiver(self):
        findings, _ = lint_src(
            """
            def step(self, other):
                if self.obs is not None:
                    other.obs.record(1)
            """
        )
        assert rules_of(findings) == ["RPD004"]

    def test_obs_package_exempt(self):
        findings, _ = lint_src(
            """
            def flush(tracer):
                tracer.emit("x")
            """,
            relpath="obs/fixture.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPD005: Spec field coverage in to_dict
# ----------------------------------------------------------------------
_SPEC_TEMPLATE = """
class WidgetSpec:
    alpha: int = 1
    beta: float = 2.0
    _cache: dict | None = None

    def to_dict(self):
        return {{"alpha": self.alpha{extra}}}
"""


class TestRPD005:
    def test_missing_field_flagged(self):
        findings, _ = lint_src(_SPEC_TEMPLATE.format(extra=""))
        assert rules_of(findings) == ["RPD005"]
        assert "WidgetSpec.beta" in findings[0].message

    def test_covered_fields_clean(self):
        findings, _ = lint_src(
            _SPEC_TEMPLATE.format(extra=', "beta": self.beta')
        )
        assert findings == []

    def test_private_fields_skipped(self):
        # _cache never appears in to_dict yet is not flagged above.
        findings, _ = lint_src(
            _SPEC_TEMPLATE.format(extra=', "beta": self.beta')
        )
        assert findings == []

    def test_class_without_to_dict_skipped(self):
        findings, _ = lint_src(
            """
            class WidgetSpec:
                alpha: int = 1
            """
        )
        assert findings == []

    def test_explicit_exclusion_honored(self):
        cls, field = next(iter(RPD005_EXCLUSIONS)).split(".")
        findings, _ = lint_src(
            f"""
            class {cls}:
                {field}: object = None

                def to_dict(self):
                    return {{}}
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPD006: Param bounds
# ----------------------------------------------------------------------
class TestRPD006:
    def test_unbounded_numeric_param_flagged(self):
        findings, _ = lint_src('P = Param("k", "int", default=4)\n')
        assert rules_of(findings) == ["RPD006"]
        assert "'k'" in findings[0].message

    def test_unbounded_kind_kwarg_flagged(self):
        findings, _ = lint_src('P = Param("slow", kind="float")\n')
        assert rules_of(findings) == ["RPD006"]

    @pytest.mark.parametrize(
        "src",
        [
            'P = Param("k", "int", minimum=1)',
            'P = Param("slow", "float", exclusive_min=0.0)',
            'P = Param("cap", "int", maximum=64)',
            'P = Param("name", "str")',  # non-numeric: bounds meaningless
        ],
    )
    def test_bounded_or_non_numeric_clean(self, src):
        findings, _ = lint_src(src + "\n")
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions + RPD000
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_honored_suppression_silences_finding(self):
        findings, sups = lint_src(
            "t = time.time()  # repro: allow[RPD002] reason: fixture\n"
        )
        assert findings == []
        assert [s.rule for s in sups] == ["RPD002"]
        assert sups[0].used
        assert sups[0].reason == "fixture"

    def test_suppression_is_rule_specific(self):
        # An allow for a different rule does not silence the finding.
        findings, _ = lint_src("t = time.time()  # repro: allow[RPD003]\n")
        assert set(rules_of(findings)) == {"RPD002", "RPD000"}

    def test_unused_suppression_becomes_rpd000(self):
        findings, sups = lint_src("x = 1  # repro: allow[RPD002]\n")
        assert rules_of(findings) == ["RPD000"]
        assert findings[0].line == 1
        assert not sups[0].used

    def test_multi_rule_suppression(self):
        findings, sups = lint_src(
            "total = sum({t for t in (time.time(),)})"
            "  # repro: allow[RPD002, RPD003] reason: fixture\n"
        )
        assert findings == []
        assert sorted(s.rule for s in sups) == ["RPD002", "RPD003"]
        assert all(s.used for s in sups)


# ----------------------------------------------------------------------
# Report formats + CLI
# ----------------------------------------------------------------------
class TestReport:
    def _dirty_tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\nt = time.time()\n")
        return tmp_path / "repro"

    def test_json_envelope(self, tmp_path):
        result = lint_paths([self._dirty_tree(tmp_path)])
        payload = result_to_dict(result)
        assert payload["schema_version"] == CHECK_SCHEMA_VERSION
        assert payload["repro_version"] == repro_version
        assert payload["files_checked"] == 1
        assert payload["ok"] is False
        assert [f["rule"] for f in payload["findings"]] == ["RPD001", "RPD002"]
        finding = payload["findings"][0]
        assert finding["title"] == RULES["RPD001"].title
        assert finding["path"].endswith("bad.py")
        assert finding["line"] == 1 and finding["col"] >= 1
        # Strict JSON: round-trips with sorted keys, no NaN.
        assert json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))

    def test_text_format_names_positions(self, tmp_path):
        result = lint_paths([self._dirty_tree(tmp_path)])
        text = format_result(result)
        assert "bad.py:1:1: RPD001" in text
        assert "checked 1 file(s): 2 finding(s)" in text

    def test_cli_exit_status(self, tmp_path, capsys):
        tree = self._dirty_tree(tmp_path)
        assert repro_main(["check", "lint", str(tree)]) == 1
        assert "RPD001" in capsys.readouterr().out
        (tree / "core" / "bad.py").write_text("x = 1\n")
        assert repro_main(["check", "lint", str(tree)]) == 0

    def test_cli_json_flag(self, tmp_path, capsys):
        # The option may come before or after the paths.
        tree = self._dirty_tree(tmp_path)
        for args in ([str(tree), "--json"], ["--json", str(tree)]):
            assert repro_main(["check", "lint", *args]) == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload["schema_version"] == CHECK_SCHEMA_VERSION
            assert not payload["ok"]
            assert payload["findings"]

    def test_main_cli_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        tree = self._dirty_tree(tmp_path)
        assert main(["check", "lint", str(tree)]) == 1
        assert "RPD001" in capsys.readouterr().out

    def test_list_checks_discovery(self, capsys):
        from repro.cli import main

        assert main(["list", "checks"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out
        assert "lazy-decode" in out


# ----------------------------------------------------------------------
# The actual tree is the final fixture: the gate must pass on it.
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_repo_lints_clean(self):
        result = lint_paths([REPO_SRC])
        assert result.ok, "\n" + "\n".join(f.format() for f in result.findings)
        assert result.files_checked > 50
        # The simulator reads no clock and needs no exception to any rule.
        assert result.suppressions == []
