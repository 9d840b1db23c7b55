"""simbench's tracer wraps names in ``src/``; a rename must fail tier-1.

``simbench/tracer.py`` patches layer boundaries through ``owner.__dict__``
(module globals and class attributes).  Installing it resolves every
target, so a renamed or deleted target raises here; uninstalling must put
each original object back.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.analysis.harness import build_setup, run_once
from tests.conftest import tiny_generator

SIMBENCH = Path(__file__).resolve().parents[1] / "simbench"


def test_install_resolves_every_target_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(SIMBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"


@pytest.mark.parametrize("system", ["vllm-spec:k=4", "smartspec", "adaserve"])
def test_chain_step_calls_the_wrapped_speculation_names(monkeypatch, system):
    # Each speculative step must look its speculation and verification
    # names up where the tracer wraps them, or its points report no core
    # work; AdaServe's iteration and selection are wrapped too.
    monkeypatch.syspath_prepend(str(SIMBENCH))
    setup = build_setup("llama70b", seed=2)
    workload = tiny_generator(setup.target_roofline, seed=2).steady(4.0, 3.0)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        run_once(setup, system, workload)
    finally:
        tracer.uninstall()
    names = ["core.speculate", "core.verify"]
    if system == "adaserve":
        names += ["core.iteration", "core.select"]
    for name in names:
        assert tracer.stats[name].calls > 0, f"{system}: no {name} calls recorded"
    assert tracer.counts["verified_tokens"] > 0 and tracer.counts["accepted_tokens"] > 0
    if system == "adaserve":
        # The iteration hook read each call's ``budget=`` keyword.
        assert sum(tracer.budgets.values()) == tracer.stats["core.iteration"].calls
