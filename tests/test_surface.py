"""The library surface is what its callers use: every name that
``devlat/__init__.py`` exports is read by another library module, by the
benchmark harness or the tools, or is named in the README."""

import ast
import re
from pathlib import Path

import devlat

PACKAGE = Path(devlat.__file__).parent
ROOT = PACKAGE.parents[1]


def _exports() -> dict:
    """``{name: path of its module}`` of every name the package imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name: PACKAGE / f"{node.module}.py" for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_exported_name_has_a_caller_or_a_readme_entry():
    readers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    readers += [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py"), ROOT / "README.md"]
    texts = {path: path.read_text() for path in readers}
    exports = _exports()
    assert "solve_sharing" in exports
    unread = sorted(name for name, home in exports.items()
                    if not any(re.search(rf"\b{name}\b", text)
                               for path, text in texts.items() if path != home))
    assert unread == []
