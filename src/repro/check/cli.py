"""Entry point for the determinism linter behind ``repro check lint``.

Exit status is the gate: 0 when clean, 1 when findings survive.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.check.linter import lint_paths
from repro.check.report import format_result, result_to_json

#: Default lint target: the installed package source.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def run_lint(paths: list[str], json_out: bool = False, out=None) -> int:
    """Lint ``paths`` (default: the repro package); returns exit status."""
    out = sys.stdout if out is None else out
    targets = [Path(p) for p in paths] if paths else [_PACKAGE_ROOT]
    result = lint_paths(targets)
    if json_out:
        out.write(result_to_json(result) + "\n")
    else:
        out.write(format_result(result) + "\n")
    return 0 if result.ok else 1
