"""simbench's tracer wraps names in ``src/``; a rename must fail tier-1.

``simbench/tracer.py`` patches layer boundaries through ``owner.__dict__``
(module globals and class attributes).  Installing it resolves every
target, so a renamed or deleted target raises here; uninstalling must put
each original object back.
"""

from __future__ import annotations

import importlib
from pathlib import Path

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
