"""Every ``repro`` import the examples and the README show resolves.

Package ``__init__`` files do not re-export their modules' names, so
``from repro.serving import ServingSimulator`` is an ImportError; a
snippet has to name the defining module.  This parses each example and
each README Python block with :mod:`ast` and resolves its ``repro``
imports without running any of them.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _sources() -> dict[str, str]:
    sources = {f"examples/{p.name}": p.read_text() for p in sorted(ROOT.glob("examples/*.py"))}
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(_PYTHON_BLOCK.findall(readme)):
        sources[f"README.md block {i}"] = block
    return sources


def _repro_imports(source: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported name; ``name`` is None for ``import x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
    return found


SOURCES = _sources()


def test_sources_found():
    assert any(name.startswith("examples/") for name in SOURCES)
    assert any(name.startswith("README.md") for name in SOURCES)


@pytest.mark.parametrize("where", sorted(SOURCES))
def test_repro_imports_resolve(where):
    for module_name, name in _repro_imports(SOURCES[where]):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` imports the submodule.
        importlib.import_module(f"{module_name}.{name}")
