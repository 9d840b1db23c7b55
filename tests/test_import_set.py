"""What a run loads: each package imports only the code a run executes.

Package ``__init__`` files carry docstrings, not re-exports (the
``repro.analysis`` facade and the scheduler-registering
``repro.baselines`` aside), and the process pool is imported only by a
parallel sweep.  A cold start imports every module it loads, and
compiles it too when no bytecode cache exists, so a module that creeps
back onto the plain-run path costs start-up time on every ``repro run``.  Each check runs in a fresh interpreter, whose
``sys.modules`` holds exactly what the code under test imported.
"""

from __future__ import annotations

from tests.conftest import run_fresh

#: Modules an untraced run never calls (besides ``repro.obs`` but its
#: spec): the analyses, telemetry, the linter and invariant checker, and
#: the process-pool stack of a parallel sweep.
NOT_ON_RUN_PATH = (
    "repro.core.optimal",
    "repro.serving.telemetry",
    "repro.check.linter",
    "repro.check.invariants",
    "multiprocessing",
    "concurrent.futures",
    "csv",
)

_LOADED = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _off_path(loaded) -> list[str]:
    return [
        m
        for m in loaded
        if m in NOT_ON_RUN_PATH or (m.startswith("repro.obs.") and m != "repro.obs.spec")
    ]


def test_untraced_run_loads_only_what_it_executes():
    # The benchmark's entry points, then one tiny point through both of
    # its runners: ``run_spec`` and a serial ``SweepRunner``.
    loaded = run_fresh(
        """
import repro.analysis.runner as runner
from repro.analysis.export import report_to_json
from repro.analysis.spec import ExperimentSpec

spec = ExperimentSpec.create(model="llama70b", system="vllm", rps=2.0, duration_s=2.0, seed=1)
report_to_json(runner.run_spec(spec))
runner.SweepRunner(cache=None, jobs=1).run([spec])
"""
        + _LOADED
    )
    assert "repro.baselines.vllm" in loaded  # the point did run
    assert _off_path(loaded) == []


def test_cli_import_loads_neither_linter_nor_attribution():
    loaded = run_fresh("import repro.cli" + _LOADED)
    assert "repro.check.linter" not in loaded
    assert "repro.obs.attrib" not in loaded


def test_repro_run_loads_only_what_it_executes():
    loaded = run_fresh(
        """
import contextlib, io
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--system", "vllm", "--rps", "2", "--duration", "2", "--no-cache"]) == 0
"""
        + _LOADED
    )
    assert _off_path(loaded) == []



def test_test_only_oracles_live_outside_the_package():
    # The SLO formulas and the calibration tool serve tests only; they
    # live in ``tests/`` and nothing under ``repro`` can import them.
    import importlib.util

    for name in ("repro.core.slo", "repro.model.calibration"):
        assert importlib.util.find_spec(name) is None, name
